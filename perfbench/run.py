"""nctorus benchmark: one workload per process, every result checked.

    python3 perfbench/run.py --workload dense-rank1 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced pass (spans and a layer table go
to perfbench/out/).  Other modes:

    --self-test          tiny sizes: every metric printed with its unit, and a
                         wrong seed value counted as a failed op
    --record-reference   rewrite perfbench/reference.json from this checkout
"""

import os
import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

# One BLAS thread, set before NumPy loads.  With the default two threads on a
# two-core machine, run-to-run spreads of BLAS calls and of the pure-Python
# code between them were several times wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="dense-rank1")
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-wrong-reference", metavar="OP", default=None,
                   help="perturb the seed value of one op (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    from ncbench import runner
    from ncbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        runner.Run(args.workload, args.seed, {}, runner.import_library()).prepare()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    if args.self_test:
        from ncbench import selftest

        return selftest.main()
    if args.record_reference:
        refs = runner.record_reference()
        runner.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0
    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START,
                        inject=args.inject_wrong_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
