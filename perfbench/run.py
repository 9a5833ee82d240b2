"""Run one fuzzyloc benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from anywhere; it imports fuzzyloc from the ``src/`` directory next to
``perfbench/`` and exits with code 2 when that is missing. Every input is
generated from ``--seed``. The run is one closed-loop caller in one process,
with BLAS/OpenMP capped at one thread.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the micro-timings, then alternates untraced and traced rounds and reports
per-layer self times and counts from the traced ones. The last line of
standard output is the result object; the lines before it hold the run
record and the per-held-out-room detail. See README.md for every metric.
"""

import os

# must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program (see README.md)")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record_reference or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fuzzyloc" / "__init__.py").is_file():
        print(f"perfbench: no fuzzyloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload is not None and args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, "
              f"expected one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_reference:
        from smoke import record_reference

        return record_reference()
    if args.smoke:
        from smoke import smoke

        return smoke()
    print(json.dumps(harness.run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
