import argparse
import math
import os

import numpy as np
import pytest

from stacked_iblt.cli import (_count_slack, _non_unique_count, _parse_delta,
                              build_parser, main)
from stacked_iblt.hashing import KWiseHash
from stacked_iblt.stacked import Params, plan_layout


def run_cli(argv, tmp_path, name="out.csv", threads=None):
    out = tmp_path / name
    env_before = os.environ.get("IBLT_THREADS")
    if threads is not None:
        os.environ["IBLT_THREADS"] = str(threads)
    try:
        code = main(argv + ["--out", str(out)])
    finally:
        if threads is not None:
            if env_before is None:
                os.environ.pop("IBLT_THREADS", None)
            else:
                os.environ["IBLT_THREADS"] = env_before
    return code, out.read_bytes()


def test_parse_delta_forms():
    assert _parse_delta("0.25") == 0.25
    assert _parse_delta("2^-8") == 2.0**-8
    assert _parse_delta("2**-10") == 2.0**-10


def test_non_unique_count_matches_dict_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        buckets = rng.integers(0, 12, size=int(rng.integers(0, 40)), dtype=np.uint64)
        seen: dict[int, int] = {}
        for b in buckets.tolist():
            seen[b] = seen.get(b, 0) + 1
        want = sum(c for c in seen.values() if c > 1)
        assert _non_unique_count(buckets) == want


def test_non_unique_count_per_row():
    # The command counts a whole chunk of trials at once, one row each.
    rng = np.random.default_rng(1)
    buckets = rng.integers(0, 30, size=(17, 40), dtype=np.uint64)
    got = _non_unique_count(buckets)
    assert got.tolist() == [int(_non_unique_count(row)) for row in buckets]


def test_non_unique_count_toy_family_exhaustive():
    # Tiny fully enumerable family: degree-1 polynomials over F_13 into 8
    # buckets, hashing keys {0..3}. The command's counting logic must agree
    # with brute force over every family member.
    prime, gamma, keys = 13, 8, [0, 1, 2, 3]
    n = len(keys)
    cmd_fail = brute_fail = 0
    for c0 in range(prime):
        for c1 in range(prime):
            buckets = [(c0 + c1 * x) % prime % gamma for x in keys]
            got = _non_unique_count(np.array(buckets, dtype=np.uint64))
            brute = sum(1 for i in range(n)
                        if any(i != j and buckets[i] == buckets[j] for j in range(n)))
            assert got == brute
            cmd_fail += got > n / 2
            brute_fail += brute > n / 2
    assert cmd_fail == brute_fail


def test_unique_hash_command(tmp_path):
    code, blob = run_cli(["unique-hash", "--n", "128", "--k", "8",
                          "--trials", "64", "--seed", "9"], tmp_path)
    assert code == 0
    lines = blob.decode().splitlines()
    assert lines[0].startswith("# params: command=unique-hash")
    assert lines[1] == "trial,non_unique_count,failed"
    assert len(lines) == 2 + 64
    # spot-check one row against a direct recomputation
    trial = 5
    h = KWiseHash(9, 16, math.ceil(Params(n=128, delta=0.5).big_c * 128),
                  stream_id=(0x10 << 56) | trial)
    bad = _non_unique_count(h.eval_batch(np.arange(128, dtype=np.uint64)))
    assert lines[2 + trial] == f"{trial},{bad},{int(bad > 64)}"


def test_unique_hash_large_c_birthday_regime(tmp_path):
    # With C huge the expected number of colliding keys is ~2n^2/(Cn) << 1.
    code, blob = run_cli(["unique-hash", "--n", "512", "--k", "4",
                          "--big-c", "10000", "--trials", "40", "--seed", "2"], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in blob.decode().splitlines()[2:]]
    counts = [int(r[1]) for r in rows]
    assert all(int(r[2]) == 0 for r in rows)
    assert sum(counts) / len(counts) <= 4 * 512 / 10000 + 0.5


def test_decode_failure_zero_load(tmp_path):
    code, blob = run_cli(["decode-failure", "--n", "32", "--delta", "2^-6",
                          "--load", "0", "--trials", "16"], tmp_path)
    assert code == 0
    rows = blob.decode().splitlines()[2:]
    assert all(r.endswith(",1") for r in rows)


def test_decode_failure_overload_exits_zero_without_bound(tmp_path):
    # Far past capacity the delta bound does not apply; the run reports
    # failures but is not a gate violation.
    code, blob = run_cli(["decode-failure", "--n", "16", "--delta", "2^-4",
                          "--load", str(16 * 32), "--trials", "8"], tmp_path)
    assert code == 0
    rows = blob.decode().splitlines()[2:]
    fails = sum(r.endswith(",0") for r in rows)
    assert fails == 8


def test_decode_failure_checksum_p_above_hash_domain(tmp_path):
    # With p > 2^61-1 the trial keys must still come from the sketch's own
    # key domain, min(p, 2^61-1).
    code, blob = run_cli(["decode-failure", "--n", "16", "--delta", "2^-4",
                          "--mode", "checksum", "--p", "4611686018427388039",
                          "--trials", "2"], tmp_path)
    assert code == 0
    rows = blob.decode().splitlines()[2:]
    assert rows == ["0,16,1", "1,16,1"]


def test_space_command_matches_layout(tmp_path):
    code, blob = run_cli(["space", "--n", "1024", "--delta", "2^-10"], tmp_path)
    assert code == 0
    lines = blob.decode().splitlines()
    lay = plan_layout(Params(n=1024, delta=2.0**-10))
    assert len(lines) == 2 + len(lay.tables)
    total = sum(int(l.split(",")[4]) for l in lines[2:])
    assert total == lay.total_cells
    kinds = [l.split(",")[1] for l in lines[2:]]
    assert kinds == ["single"] * 4 + ["group"] * 6


def test_space_ratio_below_one_in_deep_delta_regime(capsys):
    code = main(["space", "--n", "1024", "--delta", "2^-100"])
    assert code == 0
    err = capsys.readouterr().err
    ratio = float(err.split("ratio=")[1].split()[0])
    assert ratio < 1.0


def test_lemma3_command(tmp_path):
    code, blob = run_cli(["lemma3", "--ell-max", "2"], tmp_path)
    assert code == 0
    lines = blob.decode().splitlines()
    assert lines[1] == "ell,cases,identity_cases,worst_count,bound"
    row2 = lines[3].split(",")
    assert row2[0] == "2" and int(row2[3]) <= int(row2[4]) == 21


def test_lemma3_p3_q31_matches_bound(tmp_path):
    code, blob = run_cli(["lemma3", "--p", "3", "--q", "31", "--ell-max", "3"], tmp_path)
    assert code == 0
    for line in blob.decode().splitlines()[2:]:
        ell, cases, ident, worst, bound = map(int, line.split(","))
        assert worst <= bound == 2 * ell * 3 + 1


def test_lemma3_guard():
    with pytest.raises(SystemExit):
        main(["lemma3", "--p", "5003", "--q", "5009", "--ell-max", "3"])


def test_reconcile_demo_zero_diff(tmp_path):
    code, blob = run_cli(["reconcile-demo", "--size-a", "50", "--size-b", "50",
                          "--diff", "0", "--n", "16", "--delta", "2^-4"], tmp_path)
    assert code == 0
    row = blob.decode().splitlines()[2].split(",")
    assert row[5] == "0" and row[6] == "0" and row[9] == "1"


def test_reconcile_demo_exact_recovery(tmp_path):
    code, blob = run_cli(["reconcile-demo", "--size-a", "290", "--size-b", "280",
                          "--diff", "16", "--n", "64"], tmp_path)
    assert code == 0
    row = blob.decode().splitlines()[2].split(",")
    assert row[0] == "290" and row[1] == "280"
    assert row[9] == "1"


def test_reconcile_demo_wire_size_ignores_set_size(tmp_path):
    blobs = []
    for size in (40, 400):
        _, blob = run_cli(["reconcile-demo", "--size-a", str(size), "--size-b",
                           str(size), "--diff", "8", "--n", "32"], tmp_path,
                          name=f"w{size}.csv")
        blobs.append(int(blob.decode().splitlines()[2].split(",")[4]))
    assert blobs[0] == blobs[1]


def test_csv_byte_stable_across_runs_and_threads(tmp_path):
    outputs = []
    for run, threads in ((0, 1), (1, 1), (2, 8)):
        for cmd in (["unique-hash", "--n", "64", "--k", "6", "--trials", "32"],
                    ["decode-failure", "--n", "32", "--delta", "2^-6", "--trials", "24"],
                    ["lemma3"]):
            _, blob = run_cli(cmd + ["--seed", "4"], tmp_path,
                              name=f"r{run}-{cmd[0]}.csv", threads=threads)
            outputs.append((cmd[0], blob))
    per_cmd = {}
    for name, blob in outputs:
        per_cmd.setdefault(name, set()).add(blob)
    assert all(len(v) == 1 for v in per_cmd.values())


def test_count_slack_formula():
    assert _count_slack(0.0) == 1
    assert _count_slack(4.0) == 4 + 6 + 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# Each subcommand takes only the options its command reads.
SUBCOMMAND_OPTIONS = {
    "unique-hash": "--n --trials --seed --big-c --k --out",
    "decode-failure": "--n --delta --trials --seed --big-c --c0 --k --mode --p --q --load --out",
    "space": "--n --delta --seed --big-c --c0 --k --out",
    "lemma3": "--seed --p --q --ell-max --out",
    "reconcile-demo": "--n --delta --seed --big-c --c0 --k --p --q --size-a --size-b --diff --out",
}


def test_subcommand_option_sets():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
           for name, sp in sub.choices.items()}
    assert got == {name: set(opts.split()) for name, opts in SUBCOMMAND_OPTIONS.items()}
    assert sum(map(len, got.values())) == 42


@pytest.mark.parametrize("argv", [["space", "--mode", "checksum"], ["lemma3", "--n", "5"],
                                  ["unique-hash", "--delta", "0.5"],
                                  ["reconcile-demo", "--trials", "7"]])
def test_option_a_command_ignores_is_refused(argv):
    assert exit_code(argv) == 2


@pytest.mark.parametrize("argv", [
    ["unique-hash", "--trials", "0"],
    ["decode-failure", "--trials", "0"],
    ["decode-failure", "--load", "-1"],
    ["reconcile-demo", "--diff", "-3"],
    ["reconcile-demo", "--size-b", "-1"],
    ["space", "--n", "0"],
    ["lemma3", "--ell-max", "0"],
])
def test_bad_count_is_a_usage_error(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert exit_code(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["space", "--delta", "1.5"], "delta"),
    (["lemma3", "--p", "4"], "p=4"),
    (["unique-hash", "--big-c", "0"], "big_c"),
    # More distinct keys than the key domain [0, p) holds: the key draw
    # would never finish.
    (["decode-failure", "--mode", "checksum", "--p", "5", "--q", "11", "--n", "4",
      "--load", "6"], "key domain"),
    (["reconcile-demo", "--p", "5", "--q", "11", "--n", "4"], "key domain"),
    (["decode-failure", "--seed", "-1", "--n", "4", "--trials", "1"], "seed"),
    (["decode-failure", "--seed", str(2**64), "--n", "4", "--trials", "1"], "seed"),
])
def test_bad_parameter_is_a_usage_error(argv, field, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert exit_code(argv + ["--out", str(out)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"stacked-iblt {argv[0]}: error: ") and field in last
    assert not out.exists()


def test_error_after_the_checks_keeps_its_traceback(monkeypatch, tmp_path):
    def broken(*args):
        raise ValueError("not a parameter error")
    monkeypatch.setattr("stacked_iblt.cli._distinct_keys", broken)
    with pytest.raises(ValueError, match="not a parameter error"):
        main(["decode-failure", "--n", "8", "--trials", "1", "--out", str(tmp_path / "o.csv")])
