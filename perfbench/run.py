"""Benchmark of the arrayemu pipeline.

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 20 --trace 0

Workloads: eval_grid, train_sets, raw_baselines (see workloads.py).  The
program is imported from ``src/`` of the checkout this file sits in; BLAS
runs on one thread.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it list every metric measured, by name
and unit.  The full report (environment, digests of every file written,
per-step samples, problems found) goes to ``.perfbench/`` in the checkout,
and a traced run also writes its spans there.
"""

import os
import sys

# Pinned before numpy is first imported, so every run uses one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("eval_grid", "train_sets", "raw_baselines"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arrayemu" / "__init__.py").is_file():
        print(f"perfbench: no arrayemu package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    report = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    env = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"steps: setup {report['setup_steps']}, timed {report['timed_steps']}, "
          f"traced {report['traced_steps']}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
