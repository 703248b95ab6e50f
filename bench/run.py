"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload certify-coraml --seed 1 --seconds 15 --trace 0

Run from the repository root (or any checkout of it). The library is
imported from ``src/`` of that checkout. Fixtures (synthetic TSV files
per seed, and the committed CE-trained checkpoint of the shape in the
library's format) are written first and cached under ``.bench_cache/``,
outside every timed region. The workload then runs in a child process
with BLAS pinned to one thread, so its peak RSS is its own. The last line of standard output is the result JSON.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in the child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
# a run, its build of fixtures excluded, must end well within 180 s
CHILD_TIMEOUT_S = 170


def prepare(workload, seed):
    """Build (or reuse) the TSV files and checkpoint the workload reads."""
    import fixtures
    import workloads

    w = workloads.WORKLOADS[workload]
    shape = fixtures.SHAPES[w.shape]
    data = os.path.join(CACHE, "data", f"{shape.name}-{seed}-{fixtures.source_digest()}")
    if not os.path.exists(os.path.join(data, "split.tsv")):
        tmp = data + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        fixtures.write_tsv(fixtures.generate(shape, seed), tmp)
        shutil.rmtree(data, ignore_errors=True)
        os.replace(tmp, data)
    ckpt = None if w.kind == "train" else fixtures.checkpoint(shape, os.path.join(CACHE, "checkpoints"))
    return data, ckpt


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcn_cert", "__init__.py")):
        print(f"error: no gcn_cert sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    data, ckpt = prepare(args.workload, args.seed)
    results = os.path.join(CACHE, "results")
    scratch = os.path.join(CACHE, "scratch", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(BENCH, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", data,
        "--scratch", scratch,
        "--results", os.path.join(results, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
    ]
    if ckpt is not None:
        cmd += ["--checkpoint", ckpt]
    try:
        return subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
