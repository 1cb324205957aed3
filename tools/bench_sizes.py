"""Time single certified solves as the market grows.

    python3 tools/bench_sizes.py [--src DIR] [--out FILE]

Solves ``gen_random(n, seed)`` for n = 16, 24, 32, 64, 128, 192, 256 and
seeds 0, 1, 2, once with plain (zero) offsets and once with bargaining
(uniform-disagreement) offsets, on one BLAS thread.  Each solve runs three
times and the best wall time counts.  For every solve it records the
three times, the Newton iterations, the polish's least-squares steps
and the solve's stage times (``metadata["stage_s"]`` of the best run,
with the barrier's time under ``barrier``), the barrier path
(``metadata["barrier"]``, "primal-dual", or "primal" from a source
that still had the primal barrier), each null for a
source that does not report it, the winning polish's support threshold
tau (a [mu_end, tau] pair for a source whose barrier had several rungs)
and the KKT residual.

``--src`` names the directory that holds the ``matchlab`` package to
time (default: this repository's ``src``).  The run is stored in
``--out`` (default ``BENCH_solve_sizes.json`` at the repository root)
under the git commit of that tree, marked "+changes" when its working
tree differs from the commit.  A run of the same key is replaced and
other runs are kept, so one file holds a commit and its parent timed on
one machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads

import argparse
import json
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (16, 24, 32, 64, 128, 192, 256)
SEEDS = (0, 1, 2)
REPEATS = 3


def time_solve(nsw, problem):
    """Best of ``REPEATS`` solves of ``problem``: a record of the times
    and of the last solution's metadata."""
    times, stages = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sol = nsw.solve(problem)
        times.append(time.perf_counter() - start)
        stages.append(sol.metadata.get("stage_s"))
    meta = sol.metadata
    return {"best_s": min(times), "times_s": times,
            "iterations": meta["iterations"],
            "polish_steps": meta.get("polish_steps"),
            "stage_s": stages[times.index(min(times))],
            "barrier": meta.get("barrier"),
            "polish": meta["polish"],
            "kkt_residual": sol.kkt_residual}


def commit_of(src):
    """The git commit of the tree that holds ``src``, with "+changes" when
    its working tree differs from it; None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    if not sha:
        return None
    return sha + ("+changes" if git("status", "--porcelain", "--", ".") else "")


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or the platform's processor
    string where that file does not exist."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(src):
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    from matchlab import instances, nsw
    from matchlab.core import uniform_disagreement

    solves = []
    for n in SIZES:
        for seed in SEEDS:
            inst = instances.gen_random(n, seed=seed)
            for variant, offsets in (("plain", None),
                                     ("bargaining", uniform_disagreement(inst))):
                record = time_solve(nsw, nsw.NswProblem.create(inst, offsets=offsets))
                record.update(n=n, seed=seed, variant=variant)
                solves.append(record)
                print(f"n={n:3d} seed={seed} {variant:10s} {record['best_s']:8.3f} s "
                      f"iters={record['iterations']} polish_steps={record['polish_steps']}",
                      flush=True)
    return {"cpu": cpu_model(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "blas_threads": 1, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "repeats": REPEATS, "solves": solves}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_solve_sizes.json"))
    args = ap.parse_args(argv)
    result = run(args.src)
    runs = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            runs = json.load(fh)
    runs[commit_of(args.src) or "unknown"] = result
    with open(args.out, "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
