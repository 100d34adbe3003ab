"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record_reference.py

Run from the repository root on the commit whose outputs are taken as
correct; it rewrites bench/reference/*.json.  The verify references are
the ``--no-timing`` report lines at seed 0 (runs at other seeds patch the
seed into the chain record); the fin-mix reference holds the engine's
results on the unrelabeled catalogue.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import ROOT, _import_program


def _commit() -> str | None:
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def main() -> int:
    _import_program()
    import workloads as w

    commit = _commit()
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    refs = {}
    for name in ("verify-n2", "verify-n3"):
        workload = w.WORKLOADS[name]
        for tiny in (False, True):
            lines = workload.compute(workload.make_state(0, tiny))
            refs[workload.reference_name(tiny)] = {
                "commit": commit, "bounds": workload.bounds(tiny), "seed": 0, "lines": lines,
            }
    comm, simple, z = w.catalogue()
    refs["fin-mix"] = {
        "commit": commit,
        "catalogue_seed": w.CATALOGUE_SEED,
        "catalogue_digest": w.catalogue_digest(comm, simple, z),
        **w.FinMix.compute({"comm": comm, "simple": simple, "z4": z, "z4_max_m": w.Z4_MAX_M}),
    }
    for name, ref in refs.items():
        path = w.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
