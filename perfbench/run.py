"""explat benchmark: one workload, timed or traced; prints one JSON result line.

    python3 perfbench/run.py --workload curves12 --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports explat from its src/.  The
metric names and units come from BENCHMARK.json; perfbench/README.md
describes the workloads, the metrics and how to compare two commits.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# String hashing decides allocation order, and with it which of two levels
# curves12's peak memory lands on (about 116 or 125 MB), so it is fixed.
RUN_ENV = {**{var: "1" for var in PINNED}, "PYTHONHASHSEED": "0"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "explat" / "__init__.py").is_file():
        print(f"no explat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        # the hash seed is read at interpreter start-up, so start again with it
        os.environ.update(RUN_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), units)


if __name__ == "__main__":
    sys.exit(main())
