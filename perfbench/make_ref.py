"""Write the gate's references from the current checkout at seed 0.

    python3 perfbench/make_ref.py [WORKLOAD ...]

The references under perfbench/ref/ pin the output of the commit that
defined the benchmark.  A change that claims a speed-up must pass against
them as they are; rewrite them only in a change that means to alter the
solver's output, and say so there.
"""
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main(names) -> int:
    os.environ.update(run.RUN_ENV)  # numpy reads the thread pins on import
    sys.path.insert(0, str(run.ROOT / "src"))
    import bench
    import gate

    bench.REFS.mkdir(exist_ok=True)
    for name in names or list(bench.WORKLOADS):
        wl = bench.WORKLOADS[name]
        op = bench.run_op(wl, seed=0)
        if op.problems or op.failed:
            print(f"{name}: not writing a reference from a failed run: {op.problems}", file=sys.stderr)
            return 1
        for part, outcome in op.outcomes.items():
            extra = {"workload": name, "part": part}
            if part == "torus":
                zeros, records = op.zero_count
                if zeros != records:
                    print(f"{name}: zero count {zeros} != {records} records", file=sys.stderr)
                    return 1
                extra["zero_count"] = zeros
            gate.dump(outcome, bench.ref_path(wl, part), extra)
            print(f"{name}.{part}: {len(outcome.records)} records, "
                  f"{len(outcome.row_skips) + len(outcome.lam_skips)} skips")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
