"""Sweep PA's leave-one-out solves over small random markets, two ways.

    python3 tools/sweep_pa.py [--src DIR]

For ``gen_random(n, dist, seed)`` with n = 3-12, dist uniform01, sparse
and grid, and seeds 0-15, each with plain (zero) and bargaining
(uniform-disagreement) offsets, 960 markets in all, it builds the
leave-one-out problems ``pa_run`` builds (one per agent that is not
degenerate in the base solve) and solves each of them on two paths:

  * lone: ``nsw.solve(problem)``, cold, one problem at a time;
  * batched: ``nsw.solve_many(problems, warm_start=base assignment)``, as
    ``pa_run`` solves them.  When that batch raises, its problems are
    solved again as batches of one, which give a batch's results bit for
    bit, so that each failure is counted.

Per path it prints the solves, the winning polish thresholds tau
(``metadata["polish"]``, "none" when no row is live), the
``NoConvergence`` count and the totals of Newton steps
(``metadata["iterations"]``) and of polish steps
(``metadata["polish_steps"]``), and then the largest |u_lone - u_batch|
over the solves that both paths certified.  ``--src`` names the directory
that holds the ``matchlab`` package (default: this repository's ``src``);
the run uses one BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads

import argparse
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = range(3, 13)
DISTRIBUTIONS = ("uniform01", "sparse", "grid")
SEEDS = range(16)


class _Path:
    """The counts of one path over the sweep."""

    def __init__(self, name):
        self.name, self.solves, self.failed = name, 0, 0
        self.newton, self.polish_steps, self.winners = 0, 0, Counter()

    def add(self, sol):
        """Count one outcome: a solution, or the NoConvergence a solve raised."""
        self.solves += 1
        if isinstance(sol, Exception):
            self.failed += 1
        else:
            self.newton += sol.metadata["iterations"]
            self.polish_steps += sol.metadata["polish_steps"]
            self.winners[sol.metadata["polish"]] += 1

    def line(self):
        winners = ", ".join(f"{'none' if tau is None else f'{tau:g}'}: {count}"
                            for tau, count in sorted(self.winners.items(),
                                                     key=lambda kv: (kv[0] is None, kv[0] or 0)))
        return (f"{self.name:<8}{self.solves:>7}{self.failed:>15}{self.newton:>9}"
                f"{self.polish_steps:>9}  {winners}")


def run(src):
    sys.path.insert(0, src)
    import numpy as np
    from matchlab import instances, nsw
    from matchlab.core import NoConvergence, uniform_disagreement

    def attempt(solve, *args, **kwargs):
        """``solve(*args, **kwargs)``, or the NoConvergence it raised."""
        try:
            return solve(*args, **kwargs)
        except NoConvergence as err:
            return err

    lone, batched = _Path("lone"), _Path("batched")
    max_gap = 0.0
    began = time.perf_counter()
    for n in SIZES:
        for dist in DISTRIBUTIONS:
            for seed in SEEDS:
                inst = instances.gen_random(n, dist, seed=seed)
                for off in (np.zeros(n), uniform_disagreement(inst)):
                    base = nsw.solve(nsw.NswProblem.create(inst, offsets=off))
                    left_out = [a for a in range(n) if a not in base.degenerate_agents]
                    problems = [nsw.NswProblem.create(inst, rest, off[list(rest)])
                                for agent in left_out
                                for rest in [tuple(a for a in range(n) if a != agent)]]
                    warm = np.asarray(base.assignment.probs)
                    many = attempt(nsw.solve_many, problems, warm_start=warm)
                    if isinstance(many, Exception):
                        many = [attempt(lambda p: nsw.solve_many([p], warm_start=warm)[0],
                                         problem) for problem in problems]
                    for problem, sol in zip(problems, many):
                        alone = attempt(nsw.solve, problem)
                        lone.add(alone)
                        batched.add(sol)
                        if not isinstance(alone, Exception) and not isinstance(sol, Exception):
                            max_gap = max(max_gap, float(np.max(np.abs(
                                alone.utilities - sol.utilities))))
        print(f"n={n:2d} done after {time.perf_counter() - began:6.1f} s", file=sys.stderr,
              flush=True)
    print(f"{'path':<8}{'solves':>7}{'NoConvergence':>15}{'newton':>9}{'polish':>9}"
          f"  tau winners")
    print(lone.line())
    print(batched.line())
    print(f"max |u_lone - u_batch|  {max_gap:.2e}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    run(os.path.abspath(ap.parse_args(argv).src))


if __name__ == "__main__":
    main()
