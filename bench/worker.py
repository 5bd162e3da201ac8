"""One workload in one fresh process: set up, run the closed loop, gate every op.

Run by run.py; prints one JSON line.  With --setup-only it stops after set-up,
which run.py uses to time set-up several times.  With --trace the layer
wrappers and tracemalloc are installed after set-up; without it nothing is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def setup(name: str, seed: int, workdir: Path):
    """Imports, lazy numpy, input generation and warm-up: everything before the first op."""
    import clopen
    import clopen.cli  # noqa: F401 - imports every layer
    if not Path(clopen.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"clopen was imported from {clopen.__file__}, not from this checkout")
    import workloads
    # the triangle check imports numpy on first use; set-up pays it, not an op
    import numpy  # noqa: F401
    codes = sys.modules["clopen.codes"]
    codes.validate_metric_table(codes.catalog_table("discrete", 8))
    workloads.run_cli(["verify", "--instance", "degenerate-empty"])
    return workloads.build(name, seed, workdir, workloads.load_golden())


REFERENCE_STEPS = 4000  # about 11 ms with the reference machine's host at full speed


def reference_task() -> int:
    """Fixed pure-Python work that shares no code with the program.

    Fraction sums and dict updates, the kind of work the program's ops do.
    Timed next to every op, it tells how fast the host ran at that moment.
    """
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_STEPS):
        acc += Fraction(1, i % 13 + 1)
        key = (i % 17, acc.denominator % 101)
        seen[key] = seen.get(key, 0) + i
    return len(seen)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole cycles of the workload's ops until the next cycle would pass `seconds`.

    The reference task runs before every op and once after the last.  An
    op's relative latency is its latency divided by the mean of the two
    reference times around it.
    """
    latencies: dict[str, list[float]] = {op.key: [] for op in workload.ops}
    relative: dict[str, list[tuple[int, float]]] = {op.key: [] for op in workload.ops}
    refs: list[float] = []
    first: dict[str, str] = {}
    attempted = failed = defects = cli_bytes = cycles = 0
    busy = 0.0
    failures: list[str] = []
    clock = time.perf_counter
    start = clock()
    longest = 0.0  # the slowest cycle so far predicts whether the next one fits
    while not cycles or clock() - start + longest <= seconds:
        cycle_start = clock()
        order = list(workload.ops)
        workload.rng.shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            t0 = clock()
            reference_task()
            refs.append(clock() - t0)
            t0 = clock()
            try:
                res = op.run()
                reason = None
            except Exception as exc:  # noqa: BLE001 - an op's failure is counted, not fatal
                res, reason = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            busy += dt
            if res is not None:
                reason = op.check(res)
                if reason is None and first.setdefault(op.key, res.text) != res.text:
                    reason = "output differs from the first run of the same input"
                cli_bytes += res.cli_bytes
            if reason is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.key}: {reason}")
                continue
            defects += res.defect
            latencies[op.key].append(dt)
            relative[op.key].append((len(refs) - 1, dt))
        cycles += 1
        longest = max(longest, clock() - cycle_start)
    t0 = clock()
    reference_task()
    refs.append(clock() - t0)
    per_cycle: dict[str, int] = {}
    for op in workload.ops:
        per_cycle[op.key] = per_cycle.get(op.key, 0) + 1
    ratios = {key: [dt / ((refs[i] + refs[i + 1]) / 2) for i, dt in pairs]
              for key, pairs in relative.items()}
    return {"latencies": latencies, "ratios": ratios, "ref_s": refs, "per_cycle": per_cycle,
            "attempted": attempted, "failed": failed,
            "known_defects": defects, "failures": failures, "busy_s": busy,
            "cycles": cycles, "cli_bytes": cli_bytes, "wall_s": clock() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = setup(args.workload, args.seed, Path(tmp))
        setup_s = time.perf_counter() - T_START
        out = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = None
            if args.trace:
                import layertrace
                tracer = layertrace.Tracer()
                tracer.install()
            run = measure(workload, args.seconds, tracer)
            if tracer is not None:
                tracer.uninstall()
                completed = run["attempted"] - run["failed"]
                out["layers"] = tracer.metrics(completed, run["cli_bytes"])
                out["missing"] = tracer.missing_metrics()
                out["missing_hooks"] = tracer.missing
                out["span_file"] = str(scratch.relative_to(ROOT) / f"spans-{args.workload}.tsv.gz")
                out["spans_written"] = tracer.write_spans(ROOT / out["span_file"])
                out["spans_total"] = tracer.span_ids[0]
            out.update(run)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["env"] = {"python": platform.python_version(),
                          "numpy": sys.modules["numpy"].__version__,
                          "cpus": os.cpu_count()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
