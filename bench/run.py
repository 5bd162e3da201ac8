"""The clopen benchmark: one workload, its end-to-end or per-layer metrics, gated.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in a fresh worker process (worker.py), so that peak RSS and the
program's process-wide caches belong to that workload alone.

--trace 0 prints the end-to-end metrics, measured with no wrapper installed:
set-up time (the median over SETUP_RUNS fresh processes); the median and
tail latency and the throughput of a cycle of ops, in units of a reference
task timed next to each op (worker.reference_task); and peak RSS.  It also
shows the median and tail latency and the throughput in seconds, which are
not gated.  --trace 1 runs the workload twice, half the time each, untraced
and then traced, and prints the per-layer metrics of the traced half with
its throughput relative to the untraced half.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The lines before it show every metric with its unit and the
details behind them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

WORKLOADS = ("verify-catalog", "encode-table", "embed-luzin")

TAIL_PERCENTILE = 90     # nearest rank, over a cycle's ops and over all ops alike

SETUP_RUNS = 5          # set-up timings per run: SETUP_RUNS - 1 probes and the measured worker
SETUP_TIMEOUT_S = 20
WORKER_SLACK_S = 50     # time a worker may take beyond its measuring time

def run_worker(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *extra]
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else seconds + WORKER_SLACK_S
    # glibc raises its mmap threshold each time a large block is freed, so
    # whether the K**3 arrays of the axiom check are mapped afresh or carved
    # from the heap, and how far the heap then grows, would hang on the order
    # of allocations: peak RSS took one of two values 14% apart by seed.  The
    # threshold is held at glibc's starting value, 128 KiB.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile by nearest rank."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def typical_cycle(ratios: dict[str, list[float]], per_cycle: dict[str, int]) -> list[float]:
    """One cycle of ops, each at the median relative latency of its kind in the run.

    The host's CPU runs up to twice as slow for stretches of seconds to
    minutes, and CPU time tracks wall time, so a latency in seconds mostly
    tells which stretch a run fell in.  The reference task slows with the
    ops: over six runs of verify-catalog, the sum of a cycle's median
    latencies ranged over 52% in seconds and over 5% relative to the
    reference timed around each op.  Each op kind runs in every cycle, so a
    cycle of medians holds the same ops in every run.
    """
    return [statistics.median(ratios[key]) for key, n in per_cycle.items() if ratios[key]
            for _ in range(n)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    probes = [run_worker(workload, seed, seconds, "--setup-only")["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    run = run_worker(workload, seed, seconds)
    setups = probes + [run["setup_s"]]
    lat = [t for ts in run["latencies"].values() for t in ts]
    if not lat:
        raise RuntimeError(f"no op completed: {run['failures']}")
    cycle = typical_cycle(run["ratios"], run["per_cycle"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ref": (statistics.median(cycle), "ref"),
        "op_tail_ref": (percentile(cycle, TAIL_PERCENTILE), "ref"),
        "ops_per_kref": (1e3 * len(cycle) / sum(cycle), "1/kref"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    shown = {
        "ref_ms": (statistics.median(run["ref_s"]) * 1e3, "ms"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, TAIL_PERCENTILE) * 1e3, "ms"),
        "ops_per_s": (len(lat) / run["busy_s"], "1/s"),
        "failed_ratio": (run["failed"] / run["attempted"], "ratio"),
        "known_defect_ratio": (run["known_defects"] / run["attempted"], "ratio"),
    }
    details = {
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": len(lat) - math.ceil(TAIL_PERCENTILE / 100 * len(lat)),
        "samples": len(lat), "ops_per_cycle": len(cycle),
        "setup_runs_s": setups, "cycles": run["cycles"], "env": run["env"],
        "op_median_ref": {k: statistics.median(v) for k, v in run["ratios"].items() if v},
        "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in run["latencies"].items() if v},
    }
    return metrics, shown, details | {k: run[k] for k in ("attempted", "failed", "failures")}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    half = seconds / 2
    plain = run_worker(workload, seed, half)
    traced = run_worker(workload, seed, half, "--trace")

    def throughput(run: dict) -> float:
        return sum(len(v) for v in run["latencies"].values()) / run["busy_s"]

    units = {"self_s": "s/op", "wall_s": "s/op", "ratio": "ratio", "alloc_peak_mb": "MB",
             "bytes": "B/op"}
    metrics = {}
    for name, value in traced["layers"].items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix) or ("ratio" if suffix.endswith("_ratio") else "count/op")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (throughput(traced) / throughput(plain), "ratio")
    metrics["trace.missing_hooks"] = (len(traced["missing_hooks"]), "count")
    details = {
        "missing_metrics": traced["missing"], "missing_hooks": traced["missing_hooks"],
        "spans_total": traced["spans_total"], "spans_written": traced["spans_written"],
        "span_file": traced["span_file"], "env": traced["env"],
    }
    return metrics, {}, details | {k: plain[k] + traced[k]
                                   for k in ("attempted", "failed", "failures")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "clopen" / "__init__.py").is_file():
        print("error: run from a checkout of the repository: no src/clopen here",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, shown, details = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {details['attempted']}  failed {details['failed']}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:48} {value:14.6g} {unit}")
    for failure in details["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"details": {"workload": args.workload, "seed": args.seed, **details}}))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
