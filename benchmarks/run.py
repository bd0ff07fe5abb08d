"""Benchmark of the tubal library and CLI, one workload per process.

    python3 benchmarks/run.py --workload cube-lowrank --seed 1 --seconds 35 --trace 0

Run it from the repository root.  It imports the library from ``src/``,
builds the workload's input from ``--seed``, repeats the closed-loop
round of ``harness`` for about ``--seconds`` seconds and checks every
output.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; the names
and units are those listed in ``BENCHMARK.json``.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Scratch files go to ``.bench_work/`` under the repository root and are
removed at exit, except the traced run's span log
``.bench_work/spans-<workload>-seed<seed>.jsonl``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Allow BLAS and OpenMP at most one thread per CPU this process may use.

    Must run before NumPy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time after set-up (at least the minimum rounds run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tubal" / "__init__.py").is_file():
        print(f"run.py: library source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_threads()
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = harness.make_workdir(WORK, w.name, args.seed)
    try:
        if args.trace:
            res = harness.run_traced(w, args.seed, args.seconds, workdir,
                                     WORK / f"spans-{w.name}-seed{args.seed}.jsonl")
            functions = res["tracer"].functions
            wanted = spec["per_layer"]
        else:
            res = harness.run(w, args.seed, args.seconds, workdir)
            functions = set()
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bench = res["bench"]
    print(f"# workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {res['rounds']}  blocks {bench.quality.get('blocks')}")
    threads = {var: os.environ[var] for var in THREAD_VARS}
    print(json.dumps({"fingerprint": {**res["fingerprint"], "threads": threads}}, sort_keys=True))
    for name, (value, unit, samples) in sorted(res["metrics"].items()):
        print(f"{name:40s} {value!r:>24} {unit:14s} n={samples}")
    for what in bench.failures:
        print(f"run.py: FAILED {what}", file=sys.stderr)
    metrics = harness.select(res["metrics"], wanted, functions)
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
