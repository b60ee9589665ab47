"""Experiment harness: desk-scale runs that check the sketch's guarantees.

Every subcommand is deterministic given (seed, params): trials derive
their own seeds from (seed, trial index), workers only partition the
trial range, and aggregation preserves trial order, so the CSV output is
byte-identical across runs and thread counts. IBLT_THREADS caps workers.

Exit status is nonzero iff a measured value exceeds its bound beyond the
declared slack (mean + 3*sqrt(mean) + 1 for counting experiments, exact
for the others), which makes the harness usable as a CI gate. Each
command checks its parameters before its first trial; a bad one is a
usage error, with exit status 2.

Each subcommand takes only the options it reads, and --out (CSV path):
    unique-hash     --n --trials --seed --big-c --k
    decode-failure  --n --delta --trials --seed --big-c --c0 --k --mode --p --q --load
    space           --n --delta --seed --big-c --c0 --k
    lemma3          --seed (unused) --p --q --ell-max
    reconcile-demo  --n --delta --seed --big-c --c0 --k --p --q --size-a --size-b --diff
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import CHECKSUM_CELL_BYTES, PLAIN_CELL_BYTES, key_bound
from .hashing import MERSENNE61, RowStack, _stream_heads, check_power_params
from .reconcile import reconcile_local, serialize, sketch_of
from .stacked import DEFAULT_BIG_C, DEFAULT_C0, Params, StackedSketch, plan_layout

_TRIAL_STREAM = 0x10 << 56      # per-trial hash draws
_SEED_STREAM = 0x11 << 56       # per-trial derived master seeds

# unique-hash trials per row stack: the keys' powers are computed once per
# chunk, and 256 trials of 512 keys make a 1 MB bucket matrix.
_TRIAL_CHUNK = 256


def _parse_delta(text: str) -> float:
    """Accept plain floats plus the convenient '2^-K' / '2**-K' forms."""
    text = text.strip()
    for sep in ("^", "**"):
        if sep in text:
            base, exp = text.split(sep, 1)
            return float(base) ** float(exp)
    return float(text)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return integer


@contextlib.contextmanager
def _parameters(args):
    # Marks a command's checks, run before its first trial: a ValueError
    # there is a usage error. Raised anywhere else, it keeps its traceback.
    try:
        yield
    except ValueError as exc:
        args.usage_error(str(exc))


def _worker_count() -> int:
    workers = os.cpu_count() or 1
    cap = os.environ.get("IBLT_THREADS")
    if cap:
        workers = min(workers, max(int(cap), 1))
    return max(workers, 1)


def _run_trials(fn, trials: int) -> list:
    workers = _worker_count()
    if workers == 1 or trials < 2:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, trials // (workers * 8))
        return list(pool.map(fn, range(trials), chunksize=chunk))


def _emit(out_path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(out_path: str | None, message: str) -> None:
    # Keep stdout clean for CSV when no --out file was given.
    stream = sys.stdout if out_path else sys.stderr
    stream.write(message + "\n")


def _params_line(command: str, **kv) -> str:
    parts = [f"command={command}"]
    parts += [f"{k}={v!r}" for k, v in kv.items()]
    return "# params: " + " ".join(parts)


def _count_slack(mean: float) -> int:
    """Declared statistical slack for counting experiments."""
    return math.ceil(mean + 3.0 * math.sqrt(mean) + 1.0)


def _trial_rng(seed: int, trial: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial, salt])


def _distinct_keys(rng: np.random.Generator, size: int, bound: int) -> np.ndarray:
    keys = rng.integers(0, bound, size=size, dtype=np.uint64)
    while np.unique(keys).size < size:        # collisions are ~2^-40 events
        keys = np.unique(keys)
        extra = rng.integers(0, bound, size=size - keys.size, dtype=np.uint64)
        keys = np.concatenate([keys, extra])
    return keys


# -- unique-hash -------------------------------------------------------------

def _non_unique_count(buckets: np.ndarray):
    """How many keys share their bucket with at least one other key, per row
    of the last axis: an element is shared when a sorted neighbour equals it."""
    s = np.sort(buckets, axis=-1)
    same = s[..., 1:] == s[..., :-1]
    shared = np.zeros(s.shape, dtype=bool)
    shared[..., 1:] = same
    shared[..., :-1] |= same
    return shared.sum(axis=-1)


def cmd_unique_hash(args) -> int:
    n, big_c, k, trials, seed = args.n, args.big_c, args.k, args.trials, args.seed
    with _parameters(args):
        if not (big_c > 0 and math.isfinite(big_c) and math.ceil(big_c * n) < MERSENNE61):
            raise ValueError("big_c must be positive, with ceil(big_c * n) below 2^61-1")
    gamma = math.ceil(big_c * n)
    keys = np.arange(n, dtype=np.uint64)

    def chunk(c: int) -> list[tuple[int, int]]:
        # Fresh 2k-wise family member per trial, a degree 2k-1 polynomial:
        # row i of the chunk's stack is KWiseHash(seed, 2k, gamma,
        # stream_id=_TRIAL_STREAM | trial).
        chunk_trials = range(c * _TRIAL_CHUNK, min(trials, (c + 1) * _TRIAL_CHUNK))
        stack = RowStack.from_streams(seed, 2 * k, [_TRIAL_STREAM | t for t in chunk_trials],
                                      [gamma] * len(chunk_trials))
        bad = _non_unique_count(stack.flat_cells(keys)).tolist()
        return [(b, int(b > n / 2)) for b in bad]

    results = [r for part in _run_trials(chunk, -(-trials // _TRIAL_CHUNK)) for r in part]
    failures = sum(f for _, f in results)
    bound = 4.0 * (4.0 * math.e / big_c) ** min(k, n / big_c) if big_c > 4 * math.e else None
    lines = [_params_line("unique-hash", n=n, big_c=big_c, k=k, trials=trials, seed=seed),
             "trial,non_unique_count,failed"]
    lines += [f"{t},{bad},{f}" for t, (bad, f) in enumerate(results)]
    _emit(args.out, lines)
    if bound is None:
        _say(args.out, f"failures={failures}/{trials} bound=n/a (C <= 4e makes it vacuous)")
        return 0
    allowed = _count_slack(trials * bound)
    _say(args.out, f"failures={failures}/{trials} failure_fraction={failures / trials!r} "
                   f"bound_per_trial={bound!r} allowed={allowed}")
    return 0 if failures <= allowed else 1


# -- decode-failure ----------------------------------------------------------

def _params(args, **kw) -> Params:
    return Params(n=args.n, delta=args.delta, big_c=args.big_c, c0=args.c0, k=args.k, **kw)


def _key_domain(params: Params, count: int) -> int:
    """The key bound of sketches with these params, checked to hold `count` keys."""
    bound = key_bound(StackedSketch(params).checksum)
    if count > bound:
        raise ValueError(f"{count} distinct keys do not fit in the key domain [0, {bound})")
    return bound


def cmd_decode_failure(args) -> int:
    load = args.load if args.load is not None else args.n
    with _parameters(args):
        # master_seed checks --seed: each trial derives its own from it.
        bound = _key_domain(_params(args, mode=args.mode, p=args.p, q=args.q,
                                    master_seed=args.seed), load)
    # Trial t's master seed is SeededStream(seed, _SEED_STREAM | t).below(2^64).
    masters = _stream_heads(args.seed, np.arange(args.trials, dtype=np.uint64)
                            | np.uint64(_SEED_STREAM)).tolist()

    def one(trial: int) -> tuple[int, int]:
        sketch = StackedSketch(_params(args, mode=args.mode, p=args.p, q=args.q,
                                       master_seed=masters[trial]))
        rng = _trial_rng(args.seed, trial, salt=1)
        keys = _distinct_keys(rng, load, bound)
        values = rng.integers(0, 1 << 64, size=load, dtype=np.uint64)
        sketch.insert_arrays(keys, values)
        out = sketch.list_entries(in_place=True)
        recovered = len(out.recovered_plus)
        return recovered, int(out.complete and not out.inconsistent)

    results = _run_trials(one, args.trials)
    failures = sum(1 - ok for _, ok in results)
    lines = [_params_line("decode-failure", n=args.n, delta=args.delta, load=load,
                          trials=args.trials, seed=args.seed, big_c=args.big_c,
                          c0=args.c0, k=args.k, mode=args.mode),
             "trial,recovered,complete"]
    lines += [f"{t},{rec},{ok}" for t, (rec, ok) in enumerate(results)]
    _emit(args.out, lines)
    in_guarantee = load <= args.n
    allowed = _count_slack(args.trials * args.delta)
    note = f"delta={args.delta!r} allowed={allowed}" if in_guarantee else "bound=n/a (load > n)"
    _say(args.out, f"failures={failures}/{args.trials} "
                   f"failure_rate={failures / args.trials!r} {note}")
    return 0 if (not in_guarantee or failures <= allowed) else 1


# -- space -------------------------------------------------------------------

def cmd_space(args) -> int:
    with _parameters(args):
        params = _params(args, master_seed=args.seed)
        lay = plan_layout(params)
    lines = [_params_line("space", n=args.n, delta=args.delta, big_c=args.big_c,
                          c0=args.c0, tau=lay.tau, capacity=lay.capacity),
             "table,kind,rows,cols,cells"]
    for i, (rows, cols) in enumerate(lay.tables):
        kind = "single" if i < lay.single_count else "group"
        lines.append(f"{i},{kind},{rows},{cols},{rows * cols}")
    _emit(args.out, lines)
    total = lay.total_cells
    bound = lay.cell_bound(params.big_c)
    classic = params.big_c * args.n * (1.0 + math.log2(1.0 / args.delta) / math.log2(max(args.n, 2)))
    # Cell cost model lg(|U| n / delta) with a 64-bit universe, next to the
    # in-memory cell widths.
    model_bits = 64 + math.log2(max(args.n, 2)) + math.log2(1.0 / args.delta)
    _say(args.out, f"total_cells={total} closed_form_bound={bound!r} "
                   f"classic_cells={classic!r} ratio={total / classic!r}")
    _say(args.out, f"in_memory_bits={total * PLAIN_CELL_BYTES * 8} (plain) "
                   f"{total * CHECKSUM_CELL_BYTES * 8} (checksum) model_bits_per_cell={model_bits!r}")
    return 0 if total <= bound else 1


# -- lemma3 ------------------------------------------------------------------

def is_identity_multiset(keys, signs) -> bool:
    """True when the signed keys reduce to one net +1 key.

    For such multisets the two sides of the checksum identity are the same
    polynomial in the base, so every base verifies (and rightly so: the
    cell genuinely holds one pair). Inside a sketch this needs paired +k/-k
    contributions of one key, which subtraction cancels beforehand, so the
    case matters only to exhaustive sweeps.
    """
    net: dict[int, int] = {}
    for k, s in zip(keys, signs):
        net[k] = net.get(k, 0) + s
    nonzero = [c for c in net.values() if c != 0]
    return nonzero == [1]


def bad_base_count(p: int, q: int, keys, signs) -> int:
    """Count bases a in Z_q* for which the checksum identity falsely holds.

    A cell holding the signed key multiset {(sigma_i, k_i)} verifies when
    a^(l*p + sum sigma_i k_i) == a^(l*p) * sum sigma_i a^(k_i) (mod q);
    the l*p shift keeps the exponent non-negative. Exhaustive over a, so
    guarded to desk-scale inputs (l * p <= 10^4).
    """
    keys = [int(k) for k in keys]
    signs = [int(s) for s in signs]
    ell = len(keys)
    if ell < 1 or len(signs) != ell:
        raise ValueError("need matching non-empty key and sign lists")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    check_power_params(p, q)
    if any(not 0 <= k < p for k in keys):
        raise ValueError("keys must lie in [0, p)")
    if ell * p > 10_000:
        raise ValueError("exhaustive sweep guard: need l * p <= 10^4")
    shift = ell * p
    lhs_exp = shift + sum(s * k for s, k in zip(signs, keys))
    count = 0
    for a in range(1, q):
        lhs = pow(a, lhs_exp, q)
        rhs = pow(a, shift, q) * sum(s * pow(a, k, q) for s, k in zip(signs, keys)) % q
        if lhs == rhs:
            count += 1
    return count


def cmd_lemma3(args) -> int:
    p, q, ell_max = args.p, args.q, args.ell_max
    with _parameters(args):
        check_power_params(p, q)
        work = sum((p * 2) ** ell for ell in range(1, ell_max + 1)) * q
        if work > 2 * 10**7 or ell_max * p > 10_000:
            raise ValueError("sweep too large; shrink p, q, or --ell-max")
    lines = [_params_line("lemma3", p=p, q=q, ell_max=ell_max),
             "ell,cases,identity_cases,worst_count,bound"]
    violated = False
    identity_note = []
    for ell in range(1, ell_max + 1):
        worst = -1
        cases = identity = 0
        # The first sign varies fastest: the identity notes print in this order.
        sign_patterns = [list(reversed(s)) for s in itertools.product((-1, 1), repeat=ell)]
        for keys in map(list, itertools.product(range(p), repeat=ell)):
            for signs in sign_patterns:
                if is_identity_multiset(keys, signs):
                    identity += 1
                    count = bad_base_count(p, q, keys, signs)
                    identity_note.append((ell, keys, signs, count))
                    continue
                cases += 1
                count = bad_base_count(p, q, keys, signs)
                worst = max(worst, count)
        bound = 2 * ell * p + 1
        if worst > bound:
            violated = True
        lines.append(f"{ell},{cases},{identity},{worst},{bound}")
    _emit(args.out, lines)
    for ell, keys, signs, count in identity_note[:4]:
        _say(args.out, f"identity case (excluded): ell={ell} keys={keys} signs={signs} "
                       f"count={count} (= q-1 = {q - 1})")
    _say(args.out, f"worst counts within 2*ell*p+1 bound: {not violated}")
    return 1 if violated else 0


# -- reconcile-demo ------------------------------------------------------------

def cmd_reconcile_demo(args) -> int:
    # Solve a_only + b_only = diff with a_only - b_only = size_a - size_b,
    # then clamp; reported sizes are the realizable ones.
    a_only = max(0, min(args.diff, (args.diff + args.size_a - args.size_b) // 2))
    b_only = args.diff - a_only
    shared = max(min(args.size_a - a_only, args.size_b - b_only), 0)
    size_a, size_b = shared + a_only, shared + b_only
    with _parameters(args):
        params = _params(args, mode="checksum", p=args.p, q=args.q, master_seed=args.seed)
        bound = _key_domain(params, shared + args.diff)
    rng = _trial_rng(args.seed, 0, salt=2)
    keys = _distinct_keys(rng, shared + args.diff, bound)
    values = rng.integers(0, 1 << 64, size=keys.size, dtype=np.uint64)
    pairs = list(zip(keys.tolist(), values.tolist()))
    set_a = set(pairs[:shared + a_only])
    set_b = set(pairs[:shared]) | set(pairs[shared + a_only:])
    env_a = serialize(sketch_of(set_a, params))
    env_b = serialize(sketch_of(set_b, params))
    a_missing, a_extra, ok_a = reconcile_local(set_a, env_b, params)
    b_missing, b_extra, ok_b = reconcile_local(set_b, env_a, params)
    exact = (ok_a and ok_b
             and a_missing == set_b - set_a and a_extra == set_a - set_b
             and b_missing == set_a - set_b and b_extra == set_b - set_a)
    lines = [_params_line("reconcile-demo", size_a=size_a, size_b=size_b,
                          diff=args.diff, n=args.n, delta=args.delta, seed=args.seed),
             "size_a,size_b,diff,n,bytes_on_wire,missing_a,missing_b,complete_a,complete_b,exact"]
    lines.append(f"{size_a},{size_b},{args.diff},{args.n},{len(env_a)},"
                 f"{len(a_missing)},{len(b_missing)},{int(ok_a)},{int(ok_b)},{int(exact)}")
    _emit(args.out, lines)
    _say(args.out, f"sets: |A|={size_a} |B|={size_b} |A xor B|={args.diff}")
    _say(args.out, f"wire: {len(env_a)} bytes per direction (layout-determined)")
    _say(args.out, f"A learned {len(a_missing)} pairs, B learned {len(b_missing)}; "
                   f"exact={exact}")
    if args.diff <= args.n and not exact:
        return 1
    return 0


# -- plumbing -------------------------------------------------------------------

# Every option, by dest name; the flag is "--" plus the name with "-" for "_".
_OPTIONS = {
    "n": dict(type=_int_at_least(1), help="capacity threshold"),
    "delta": dict(type=_parse_delta, help="target failure probability (accepts 2^-K)"),
    "trials": dict(type=_int_at_least(1), default=1000),
    "seed": dict(type=int, default=0),
    "big_c": dict(type=float, default=DEFAULT_BIG_C),
    "c0": dict(type=float, default=DEFAULT_C0),
    "k": dict(type=_int_at_least(1), default=None),
    "mode": dict(choices=("plain", "checksum"), default="plain"),
    "p": dict(type=int, default=None),
    "q": dict(type=int, default=None),
    "load": dict(type=_int_at_least(0), default=None, help="pairs per trial (default n)"),
    "ell_max": dict(type=_int_at_least(1), default=2),
    "size_a": dict(type=_int_at_least(0), default=500),
    "size_b": dict(type=_int_at_least(0), default=480),
    "diff": dict(type=_int_at_least(0), default=16),
    "out": dict(type=str, default=None, help="CSV path (stdout if omitted)"),
}

# (name, command, help, the options it reads besides --out, its own defaults)
_COMMANDS = (
    ("unique-hash", cmd_unique_hash,
     "fraction of trials where more than n/2 keys collide under a fresh 2k-wise hash",
     "n trials seed big_c k", dict(n=512, k=16)),
    ("decode-failure", cmd_decode_failure, "full-load listing failure rate vs delta",
     "n delta trials seed big_c c0 k mode p q load", dict(n=256, delta=2.0**-8)),
    ("space", cmd_space, "layout table and closed-form space accounting",
     "n delta seed big_c c0 k", dict(n=1024, delta=2.0**-10)),
    ("lemma3", cmd_lemma3, "exhaustive false-verification base counts",
     "seed p q ell_max", dict(p=5, q=101)),
    ("reconcile-demo", cmd_reconcile_demo, "two-party reconciliation walkthrough",
     "n delta seed big_c c0 k p q size_a size_b diff", dict(n=64, delta=2.0**-6)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacked-iblt",
        description="Experiment harness for stacked key-value sketches.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options, defaults in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for opt in options.split() + ["out"]:
            sp.add_argument("--" + opt.replace("_", "-"), **_OPTIONS[opt])
        sp.set_defaults(func=func, usage_error=sp.error, **defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
