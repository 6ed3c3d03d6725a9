"""qdcca benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep80 --seed 1 --seconds 20 --trace 0

Run from the root of a full checkout: the benchmark imports the package
from ``src/`` and the literal oracle from ``tests/oracles.py``.  The last
line of stdout is the JSON result; see harness.py for what is measured.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, so pool threads x BLAS threads stay within nproc; this
# must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    oracles = ROOT / "tests" / "oracles.py"
    if not (ROOT / "src" / "qdcca").is_dir() or not oracles.is_file():
        print(f"bench: needs src/qdcca and tests/oracles.py under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args, ROOT, oracles)


if __name__ == "__main__":
    sys.exit(main())
