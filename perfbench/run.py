"""Benchmark of the stacked IBLT library: one workload per process.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. Ops run
in a closed loop with one client on one thread: the next op starts when
the previous one ends. Every op is checked against the ground truth of
its generated inputs, and followed by one timed pass of a fixed reference
kernel (hostspeed.py) that gauges the host's speed. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 the process first times untraced ops,
then wraps the library's entry points (spans.py) and reports per-layer
metrics. The line before it holds the run's metadata.

Exit status: 0 on a correct run, 1 when an op reported a complete decode
with wrong sets, 2 when the library source is missing.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here, before any import

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "stacked_iblt" / "__init__.py"

SETUP_SAMPLES = 5        # fresh processes whose set-up time gives setup_s
TRACE_UNTRACED_SHARE = 1 / 3   # part of a traced run spent timing untraced ops
# Never used while this benchmark was written; confirm claims on it.
HELD_OUT_SEED = 314159


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("trials", "bulk", "reconcile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def load_library():
    """Import the benchmark modules against ./src, never an installed copy."""
    if not PACKAGE_INIT.is_file():
        print(f"run.py: library source not found at {PACKAGE_INIT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import stacked_iblt
    if Path(stacked_iblt.__file__).resolve() != PACKAGE_INIT:
        print(f"run.py: imported stacked_iblt from {stacked_iblt.__file__}, not ./src",
              file=sys.stderr)
        sys.exit(2)
    import hostspeed
    import spans
    import workloads
    return hostspeed, spans, workloads


def setup_samples(args, own_s: float) -> list[float]:
    """Set-up time of this process plus fresh probe processes, one at a time."""
    out = [own_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return out


class Loop:
    """Runs ops over the case pool and checks each against ground truth."""

    def __init__(self, workload, cases, reference):
        self.workload = workload
        self.cases = cases
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, case, res) -> None:
        self.attempted += 1
        verdict = res.verdict(case)
        self.failed += verdict == "failed"
        self.wrong += verdict == "wrong"

    def run(self, seconds: float, whole_cycles: bool, tracer=None) -> dict:
        """Time ops for `seconds`; with whole_cycles, stop only after a full pass.

        Returns per-op times in seconds under "op", "encode" and "decode", and
        under "ref" the reference kernel's time, taken right after each op.
        Stops early at an op that decoded completely to wrong sets.
        """
        times = {"op": [], "encode": [], "decode": [], "ref": []}
        deadline = time.perf_counter() + seconds
        while True:
            case = self.cases[len(times["op"]) % len(self.cases)]
            root = tracer.open("bench.op") if tracer else None
            t0 = time.perf_counter()
            res = self.workload.run(case)
            t1 = time.perf_counter()
            if tracer:
                tracer.close(root)
            times["op"].append(t1 - t0)
            times["encode"].append(res.encode_s)
            times["decode"].append(res.decode_s)
            self.check(case, res)
            times["ref"].append(self.reference.seconds())
            if self.wrong:
                return times
            cycle_open = whole_cycles and len(times["op"]) % len(self.cases)
            if time.perf_counter() >= deadline and not cycle_open:
                return times


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None     # a plain checkout; source_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, loop, sketch_bytes: int, samples: dict, extra: dict) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "cases": len(loop.cases),
        "fail_frac": loop.failed / loop.attempted, "sketch_bytes": sketch_bytes,
        "samples": samples, **extra,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed, spans, workloads = load_library()
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.cases(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = setup_samples(args, setup_s) if args.trace == 0 else []
    sketch_bytes = workload.sketch_bytes(cases[0])
    loop = Loop(workload, cases, hostspeed.Reference(*workload.reference))
    # Warm-up op, untimed: lazy imports and first-touch allocations.
    loop.check(cases[0], workload.run(cases[0]))
    if args.trace == 0:
        t = loop.run(args.seconds, whole_cycles=False)
        n = len(t["op"])
        op_ref = [op / ref for op, ref in zip(t["op"], t["ref"])]
        decode_ref = [dec / ref for dec, ref in zip(t["decode"], t["ref"])]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ref": (statistics.median(op_ref), "ratio"),
            "op_p90_ref": (percentile(op_ref, 90), "ratio"),
            "decode_p50_ref": (statistics.median(decode_ref), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "sketch_bytes": (sketch_bytes, "bytes"),
        }
        samples = {name: n for name in metrics}
        samples.update(setup_s=len(setups), peak_rss_mb=1, sketch_bytes=1)
        # Wall-clock figures, printed but not gated: see "Noise" in README.md.
        extra = {"ops_per_s": n / sum(t["op"]),
                 "op_ms_p50": statistics.median(t["op"]) * 1e3,
                 "op_ms_p90": percentile(t["op"], 90) * 1e3,
                 "encode_ms_p50": statistics.median(t["encode"]) * 1e3,
                 "decode_ms_p50": statistics.median(t["decode"]) * 1e3,
                 "ref_ms_p50": statistics.median(t["ref"]) * 1e3}
    else:
        untraced = loop.run(args.seconds * TRACE_UNTRACED_SHARE, whole_cycles=False)["op"]
        tracer = spans.Tracer()
        tracer.install()
        traced = []
        if not loop.wrong:
            traced = loop.run(args.seconds * (1 - TRACE_UNTRACED_SHARE), whole_cycles=True,
                              tracer=tracer)["op"]
        metrics = {}
        if traced:
            metrics = tracer.layer_metrics(workload.distinct_keys,
                                           statistics.median(untraced) * 1e3)
        samples = {name: len(traced) for name in metrics}
        samples["bench.trace_overhead"] = len(untraced)
        extra = {"absent_layers": tracer.absent, "spans": len(tracer.spans)}

    correct = loop.wrong == 0
    print(json.dumps({"meta": metadata(args, loop, sketch_bytes, samples, extra)}))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
