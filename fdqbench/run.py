"""fdq benchmark: run one workload and print its metrics as the last line.

    python3 fdqbench/run.py --workload mmi-dialogue --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it imports fdq from ./src and writes
only under ./.fdqbench.  See fdqbench/README.md for the workloads, the
metrics and the checks.
"""

import os

# BLAS threading is fixed before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mmi-dialogue", "length-num2words")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "fdq" / "__init__.py").is_file():
        print(f"fdqbench: no fdq sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    if args.setup_probe:
        workloads.corpora(workload, args.seed, sizes)
        return 0
    result, info = bench.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), tiny=args.tiny)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
