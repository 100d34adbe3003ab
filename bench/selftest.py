"""Self-test of the benchmark at tiny bounds.

    python3 bench/selftest.py

Run from the repository root.  Checks that

- every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, with their units, and passes its reference check;
- a corrupted reference makes the run fail: exit 1, a nonzero fail ratio
  and the first mismatch printed;
- without the program's sources the benchmark exits nonzero and prints
  no result.

Scratch files go to .bench_build/selftest and are removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT

REFERENCE_DIR = BENCH_DIR / "reference"

SCRATCH = ROOT / ".bench_build" / "selftest"


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seconds", "0.5", "--seed", "7", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in (w["name"] for w in spec["workloads"]):
            proc = _run(["--workload", name, "--tiny", "--trace", str(trace)])
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            res = _result(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {got} != {want}"
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            if trace:
                spans_file = ROOT / json.loads(proc.stdout.splitlines()[0])["spans_file"]
                assert json.loads(spans_file.read_text()), f"{spans_file} holds no spans"
            print(f"ok  {name} trace={trace}: {len(got)} metrics")


def check_corrupted_reference() -> None:
    cases = {
        "verify-n2": ("verify-n2-tiny.json", lambda ref: ref["lines"].__setitem__(
            0, ref["lines"][0].replace('"pass"', '"fail"'))),
        "fin-mix": ("fin-mix.json", lambda ref: ref["simple"].__setitem__(0, not ref["simple"][0])),
    }
    for name, (file, corrupt) in cases.items():
        ref = json.loads((REFERENCE_DIR / file).read_text())
        corrupt(ref)
        bad = SCRATCH / file
        bad.write_text(json.dumps(ref))
        proc = _run(["--workload", name, "--tiny", "--reference", str(bad)])
        assert proc.returncode == 1, f"{name}: corrupted reference gave exit {proc.returncode}"
        res = _result(proc)
        assert not res["correct"] and res["failed"] / res["attempted"] > 0, res
        info = json.loads(proc.stdout.splitlines()[0])
        assert info["fail_ratio"] > 0 and info["first_mismatch"], info
        print(f"ok  {name} corrupted reference: {info['first_mismatch'][:100]}")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "verify-n2"], cwd=bare)
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory: exit {proc.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_metrics(spec)
        check_corrupted_reference()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
