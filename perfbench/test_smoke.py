"""Smoke test of the benchmark itself: one-second runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Kept out of the tier-1 suite (pytest's testpaths name only tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("hashing.bucket.row_keys", "hashing.draw.calls", "hashing.power.evals",
                "core.scatter.calls", "core.extract.candidates")
PLAIN_ABSENT = ("hashing.power.", "reconcile.", "stacked.subtract.")


def run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, meta, last = proc.stdout.splitlines()
    out = json.loads(last)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    return json.loads(meta)["meta"], out["metrics"]


def assert_declared(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_unit(workload):
    meta, metrics = result(run(ROOT, workload, 0))
    assert_declared(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(meta[k] > 0 for k in ("ops_per_s", "op_ms_p50", "encode_ms_p50", "ref_ms_p50"))
    assert meta["fail_frac"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (meta_a, a), (meta_b, b) = (result(run(ROOT, workload, 1)) for _ in range(2))
    assert_declared(a, SPEC["per_layer"])
    assert meta_a["absent_layers"] == []
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    for key in ("sketch_bytes", "fail_frac"):
        assert meta_a[key] == meta_b[key], key
    assert a["hashing.bucket.row_keys"]["value"] > 0
    assert a["bench.unattributed.share"]["value"] < 0.05
    shares = [v["value"] for k, v in a.items()
              if k.endswith(".share") and k != "stacked.verify.share"]
    assert sum(shares) == pytest.approx(1.0)
    if workload != "reconcile":
        assert all(v["value"] == 0 for k, v in a.items() if k.startswith(PLAIN_ABSENT))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
