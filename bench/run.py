"""commlab benchmark: one workload, one fresh process, a closed loop.

    python3 bench/run.py --workload verify-n2 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout; the benchmark exits 2 without a result when it is
missing.  Operations run one at a time until ``--seconds`` have passed
(at least one).  Every operation's output is checked against the
reference outputs in ``bench/reference/``; an exception or mismatch
counts as a failed operation, and the run then exits 1.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, cpu_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, taken from
traced operations that follow untraced ones, and every span is written to
``.bench_build/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"  # traced runs leave their spans here

SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Put this checkout's src/ first on the path; exit 2 if it is absent."""
    if not (SRC / "commlab" / "__init__.py").is_file():
        print(f"error: no commlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import commlab

    if Path(commlab.__file__).resolve().parent != SRC / "commlab":
        print(f"error: imported commlab from {commlab.__file__}", file=sys.stderr)
        sys.exit(2)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  Children are the pool workers, reaped
    # when the pool shuts down (the setup probes run later); the sum bounds
    # the joint peak from above.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Loop:
    """Closed loop: the next operation starts when the previous one ends."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.ops = 0
        self.failed = 0
        self.first_error: str | None = None
        self.first_op_rss_mb: float | None = None

    def run(self, seconds: float) -> tuple[list[float], list[float]]:
        walls, cpus = [], []
        start = time.perf_counter()
        while True:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                self.workload.run(self.state, self.ops)
            except Exception as exc:  # a failed operation is a result, not a crash
                self.failed += 1
                if self.first_error is None:
                    self.first_error = f"operation {self.ops}: {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_seconds() - cpu0)
            self.ops += 1
            if self.first_op_rss_mb is None:
                # A CLI user runs one operation per process; later ones add
                # allocator growth that depends on how many fit in the run.
                self.first_op_rss_mb = _peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                return walls, cpus


def _setup_seconds(args) -> list[float]:
    """Interpreter start, imports and input generation, timed in fresh
    processes one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_workload(args) -> int:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny, args.reference)
    loop = Loop(workload, state)

    if args.trace:
        # Untraced then traced operations, half the time each: the layer
        # metrics come from the traced ones, the overhead from the difference.
        walls, cpus = loop.run(args.seconds / 2)
        OUT_DIR.mkdir(exist_ok=True)
        tracer = spans.Tracer(OUT_DIR)
        tracer.install()
        try:
            traced_ops = loop.ops
            traced_walls, _ = loop.run(args.seconds / 2)
            traced_ops = loop.ops - traced_ops
        finally:
            tracer.uninstall()
        workers = tracer.merge_workers()
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_file)
        metrics = tracer.layer_metrics(traced_ops)
        metrics["cubes.pool_util"] = sum(cpus) / (sum(walls) * workload.jobs)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = spans.LAYER_METRICS
        samples = {"untraced_ops": len(walls), "traced_ops": traced_ops,
                   "untraced_wall_s": walls, "traced_wall_s": traced_walls}
        extra = {"absent_entry_points": tracer.absent, "spans": len(tracer.spans),
                 "traced_workers": workers,
                 "spans_file": str(spans_file.relative_to(ROOT))}
    else:
        walls, cpus = loop.run(args.seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": loop.first_op_rss_mb,
        }
        setup = _setup_seconds(args)
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
        samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
        extra = {}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": _environment(), "samples": samples,
        "fail_ratio": loop.failed / loop.ops, "first_mismatch": loop.first_error, **extra,
    }
    print(json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.ops,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    import workloads

    status = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            if lines and lines[0].startswith("{"):
                print(f"{name}: first mismatch: {json.loads(lines[0])['first_mismatch']}")
        if not lines:
            continue
        res = json.loads(lines[-1])
        res["metrics"]["fail_ratio"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small bounds, for the benchmark's self-test")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file to check against instead of the recorded one")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].setup(args.seed, args.tiny, args.reference)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
