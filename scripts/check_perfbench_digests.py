#!/usr/bin/env python3
"""Check the last perfbench run's output digests against pinned values.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 2 --trace 0
    python3 scripts/check_perfbench_digests.py [RESULT_JSON]

perfbench's own checks compare each repetition with the run's first, so an
optimisation that changes an output still passes them. This script pins the
outputs: it reads the driver's result (by default
.bench_build/last-run/result.json) and exits 1 unless every repetition's
digest equals the pinned value for the run's workload and seed. A workload
and seed without a pinned value, or a traced run (which records no
repetitions), is an error too. A change that alters outputs on purpose
updates the table below and says why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULT = ROOT / ".bench_build" / "last-run" / "result.json"

# (workload, seed) -> FNV-1a digest of every output of one repetition.
PINNED = {
    ("identify", 1): "a89cf845f55d34b3",
    ("identify", 2): "c03e6e0c4e483219",
    ("survey", 1): "7418468a3b96e32c",
    ("survey", 2): "59b3f496d03a34b5",
    ("inferred-gen2", 1): "92edeeedb176bf34",
    ("inferred-gen2", 2): "40129d85bde7dd9b",
}


def check(result):
    """Returns the list of failures for one driver result."""
    workload, seed = result.get("workload"), result.get("seed")
    want = PINNED.get((workload, seed))
    if want is None:
        return [f"no pinned digest for workload={workload} seed={seed}"]
    reps = result.get("reps")
    if not reps:
        return [f"{workload} seed {seed}: no repetitions recorded "
                "(run with --trace 0)"]
    return [f"{workload} seed {seed} rep {i}: digest {r.get('digest')} "
            f"!= pinned {want}"
            for i, r in enumerate(reps) if r.get("digest") != want]


def main(argv):
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_RESULT
    try:
        with open(path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perfbench_digests: cannot read {path}: {e}",
              file=sys.stderr)
        return 2
    failures = check(result)
    for msg in failures:
        print(f"DIGEST MISMATCH: {msg}")
    if not failures:
        print(f"digests pinned: {result['workload']} seed {result['seed']}, "
              f"{len(result['reps'])} reps")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
