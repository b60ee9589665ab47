"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Monte-Carlo criteria use pinned seeds; bounds include the
stated statistical slack and nothing more.
"""

import math
import time

import numpy as np
import pytest

from stacked_iblt.cli import bad_base_count, main
from stacked_iblt.core import BasicTable
from stacked_iblt.hashing import KWiseHash, PowerHash, SeededStream
from stacked_iblt.reconcile import deserialize, serialize
from stacked_iblt.stacked import (DEFAULT_BIG_C, Params, StackedSketch,
                                  plan_layout)

from reference import LookupHash, lookup_sketch, reference_list_entries


def report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def run_command(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_c1_listing_failure_rate(tmp_path):
    t0 = time.time()
    code, blob = run_command(
        ["decode-failure", "--n", "256", "--delta", "2^-8",
         "--trials", "2000", "--seed", "1"], tmp_path, "c1.csv")
    elapsed = time.time() - t0
    rows = blob.decode().splitlines()[2:]
    failures = sum(r.endswith(",0") for r in rows)
    ok = failures <= 20 and len(rows) == 2000 and code == 0 and elapsed < 120
    report("C1 full-load listing failure rate",
           ok, f"failures={failures}/2000 <= 20, {elapsed:.1f}s single-threaded")


def test_c2_unique_hashing_monte_carlo(tmp_path):
    t0 = time.time()
    code, blob = run_command(
        ["unique-hash", "--n", "512", "--k", "16", "--trials", "10000",
         "--seed", "1"], tmp_path, "c2.csv")
    elapsed = time.time() - t0
    rows = blob.decode().splitlines()[2:]
    failures = sum(int(r.split(",")[2]) for r in rows)
    bound = 4.0 * (4 * math.e / DEFAULT_BIG_C) ** 16
    ok = failures <= 1 and len(rows) == 10000 and code == 0 and elapsed < 60
    report("C2 unique-hashing failure count",
           ok, f"failures={failures}/10000 <= 1 (per-trial bound {bound:.2e}), {elapsed:.1f}s")


def test_c3_collision_base_counts_exhaustive():
    t0 = time.time()
    p, q = 5, 101
    worst = -1
    cases = 0
    for k1 in range(p):
        for k2 in range(p):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                count = bad_base_count(p, q, [k1, k2], signs)
                worst = max(worst, count)
                cases += 1
    elapsed = time.time() - t0
    ok = worst <= 21 and cases == 100 and elapsed < 60
    report("C3 exhaustive checksum collision counts",
           ok, f"worst={worst} <= 2*2*5+1 = 21 over {cases} cases, {elapsed:.1f}s")


def test_c4_subtraction_roundtrip():
    t0 = time.time()
    trials, n = 1000, 64
    failures = 0
    for trial in range(trials):
        master = SeededStream(4, (0x20 << 56) | trial).below(1 << 64)
        params = Params(n=n, delta=2.0**-6, mode="checksum", master_seed=master)
        rng = np.random.default_rng([4, trial])
        shared = int(rng.integers(0, 640 - n + 1))
        d = int(rng.integers(0, n + 1))
        d_a = int(rng.integers(0, d + 1))
        keys = rng.choice(2**55, size=shared + d, replace=False).astype(np.uint64)
        vals = rng.integers(0, 2**64, size=shared + d, dtype=np.uint64)
        a, b = StackedSketch(params), StackedSketch(params)
        a.insert_arrays(np.concatenate([keys[:shared], keys[shared:shared + d_a]]),
                        np.concatenate([vals[:shared], vals[shared:shared + d_a]]))
        b.insert_arrays(np.concatenate([keys[:shared], keys[shared + d_a:]]),
                        np.concatenate([vals[:shared], vals[shared + d_a:]]))
        out = a.subtract(b).list_entries(in_place=True)
        want_plus = set(zip(keys[shared:shared + d_a].tolist(),
                            vals[shared:shared + d_a].tolist()))
        want_minus = set(zip(keys[shared + d_a:].tolist(),
                             vals[shared + d_a:].tolist()))
        good = (out.complete and not out.inconsistent
                and out.recovered_plus == want_plus
                and out.recovered_minus == want_minus)
        failures += not good
    elapsed = time.time() - t0
    ok = failures <= 50
    report("C4 subtraction roundtrip",
           ok, f"failures={failures}/1000 <= 50 (2*delta = {2 * 2.0**-6:.4f}), {elapsed:.1f}s")


def test_c5_group_law_suite():
    t0 = time.time()
    cases = 1000
    checks = {"cancellation": 0, "subtract_self": 0, "permutation": 0, "equivalence": 0}
    for case in range(cases):
        rng = np.random.default_rng([5, case])
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(2, 48))
        checksum = None
        key_bound = 2**61 - 2
        if case % 3 == 0:
            checksum = PowerHash(case, 97, 389)
            key_bound = 97
        def table():
            hashes = [KWiseHash(case, 3, cols, stream_id=r) for r in range(rows)]
            return BasicTable(rows, cols, hashes, checksum)
        n_pairs = int(rng.integers(0, 20))
        keys = rng.choice(key_bound, size=n_pairs, replace=False)
        pairs = [(int(k), int(v)) for k, v in
                 zip(keys, rng.integers(0, 2**64, size=n_pairs, dtype=np.uint64))]
        cut = n_pairs // 2
        s, sp = pairs[:cut], pairs[cut:]

        t = table()
        t.insert(pairs)
        t.delete([(1, k, v) for k, v in pairs])
        checks["cancellation"] += t.is_zero()

        t = table()
        t.insert(pairs)
        checks["subtract_self"] += t.subtract(t).is_zero()

        ops = [("i", kv) for kv in pairs] + [("d", kv) for kv in sp]
        perm = [ops[i] for i in rng.permutation(len(ops))]
        t1, t2 = table(), table()
        for op, kv in ops:
            (t1.insert if op == "i" else t1.delete_pairs)([kv])
        for op, kv in perm:
            (t2.insert if op == "i" else t2.delete_pairs)([kv])
        checks["permutation"] += (t1 == t2)

        ta, tb, tc = table(), table(), table()
        ta.insert(s)
        tb.insert(sp)
        tc.insert(s)
        tc.delete([(1, k, v) for k, v in sp])
        checks["equivalence"] += (ta.subtract(tb) == tc)
    elapsed = time.time() - t0
    ok = all(v == cases for v in checks.values())
    report("C5 group-law property suite",
           ok, f"{checks} all {cases}/{cases} exact, {elapsed:.1f}s")


def test_c6_oracle_equivalence():
    t0 = time.time()
    instances = 1000
    agree = decode_failures = 0
    for trial in range(instances):
        rng = np.random.default_rng([6, trial])
        n = int(rng.integers(1, 9))
        big_c = float(rng.choice([0.5, 1.0, 2.0]))
        mode = "checksum" if trial % 3 == 0 else "plain"
        kwargs = {"p": 97, "q": 389} if mode == "checksum" else {}
        params = Params(n=n, delta=0.25, big_c=big_c, mode=mode,
                        master_seed=trial, **kwargs)
        load = int(rng.integers(0, n + 1))
        key_bound = 97 if mode == "checksum" else 4000
        keys = rng.choice(key_bound, size=load, replace=False)
        pairs = [(int(k), int(v)) for k, v in
                 zip(keys, rng.integers(0, 2**32, size=load))]
        lay = plan_layout(params)
        draw = np.random.default_rng([6, trial, 1])
        maps = [[{k: int(draw.integers(0, cols)) for k, _ in pairs}
                 for _ in range(rows)] for rows, cols in lay.tables]
        hashes = [[LookupHash(m, cols) for m in table]
                  for table, (_, cols) in zip(maps, lay.tables)]
        sketch = lookup_sketch(params, hashes)
        sketch.insert(pairs)
        got = sketch.list_entries()
        want = reference_list_entries(sketch, hashes)
        same = (got.recovered_plus, got.recovered_minus,
                got.complete, got.inconsistent) == want
        agree += same
        decode_failures += not got.complete
    elapsed = time.time() - t0
    ok = agree == instances
    report("C6 reference-decoder equivalence",
           ok, f"agree={agree}/{instances} (incl. {decode_failures} shared decode "
               f"failures), {elapsed:.1f}s")


def test_c7_space_accounting():
    violations = []
    for n in (2**8, 2**10, 2**12, 2**14):
        for delta in (2.0**-8, 2.0**-20, 2.0**-40):
            params = Params(n=n, delta=delta)
            lay = plan_layout(params)
            if lay.total_cells > lay.cell_bound(params.big_c):
                violations.append((n, delta))
    params = Params(n=2**10, delta=2.0**-100)
    lay = plan_layout(params)
    classic = params.big_c * params.n * (1 + math.log2(1 / params.delta) / math.log2(params.n))
    ratio = lay.total_cells / classic
    ok = not violations and ratio < 1.0
    report("C7 space accounting",
           ok, f"12 grid points within 2Cn + C*tau*(lg tau + 1); "
               f"deep-delta ratio={ratio:.3f} < 1")


def test_c8_serialization():
    plain = Params(n=64, delta=2.0**-6, master_seed=3)
    check = Params(n=64, delta=2.0**-6, mode="checksum", master_seed=3)
    results = []
    for params in (plain, check):
        s = StackedSketch(params)
        rng = np.random.default_rng(8)
        keys = rng.choice(2**55, size=50, replace=False).astype(np.uint64)
        s.insert_arrays(keys, rng.integers(0, 2**64, size=50, dtype=np.uint64))
        if params.mode == "checksum":
            s.delete([(1, 12345, 67890)])
        blob = serialize(s)
        results.append(deserialize(blob) == s and serialize(deserialize(blob)) == blob)
        for mutate, pattern in (
                (lambda b: b[:30], "truncated"),
                (lambda b: b"\xff" + b[1:], "magic"),
                (lambda b: b[:4] + b"\x09" + b[5:], "version"),
                (lambda b: b[:75] + bytes([b[75] ^ 1]) + b[76:], "digest"),
                (lambda b: b + b"!", "trailing")):
            try:
                deserialize(bytes(mutate(bytearray(blob))))
                results.append(False)
            except ValueError as exc:
                results.append(pattern in str(exc))
    ok = all(results)
    report("C8 serialization round-trip and corruption rejection",
           ok, f"{sum(results)}/{len(results)} checks exact")


def test_c9_determinism(tmp_path):
    params = Params(n=64, delta=2.0**-6, mode="checksum", master_seed=9)
    pairs = [(i * 7 + 1, i * i) for i in range(50)]

    def build():
        s = StackedSketch(params)
        s.insert(pairs)
        return s

    s1, s2 = build(), build()
    sketch_ok = s1 == s2 and serialize(s1) == serialize(s2)
    d1, d2 = s1.list_entries(), s2.list_entries()
    decode_ok = (d1.recovered_plus, d1.recovered_minus, d1.complete,
                 d1.stage_recoveries) == (d2.recovered_plus, d2.recovered_minus,
                                          d2.complete, d2.stage_recoveries)
    csv_ok = True
    for cmd in (["decode-failure", "--n", "64", "--delta", "2^-6", "--trials", "64",
                 "--seed", "7"],
                ["unique-hash", "--n", "128", "--k", "8", "--trials", "128",
                 "--seed", "7"]):
        blobs = set()
        for run in range(3):
            _, blob = run_command(cmd, tmp_path, f"c9-{cmd[0]}-{run}.csv")
            blobs.add(blob)
        csv_ok = csv_ok and len(blobs) == 1
    ok = sketch_ok and decode_ok and csv_ok
    report("C9 determinism",
           ok, f"sketches bit-identical={sketch_ok}, decodes identical={decode_ok}, "
               f"CSV stable across runs={csv_ok}")
