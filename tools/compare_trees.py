#!/usr/bin/env python3
"""Run the benchmark's catalogues on two source trees and compare them.

    python3 tools/compare_trees.py PARENT_SRC CHANGE_SRC
    python3 tools/compare_trees.py --time PASSES [--workload NAME ...] PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding a ``matchlab`` package, for instance
the ``src`` of a checkout of a parent commit and this repository's ``src``.
For each of the rho_scan, rpi_lottery and large_solve workloads, every
catalogue op of this checkout's ``perfbench/workloads.py`` runs once on
each tree, each tree in its own process on one BLAS thread.  Per workload
it prints, for each tree, the ops run and the ops failed (by the rule of
``perfbench/run.py``: an op fails when it raises, misses its deadline,
fails its check or misses its ``perfbench/reference.json`` fingerprint);
how many ``nsw.solve`` results are bit-identical between the
trees (utilities, assignment and prices, paired in call order within each
op), and likewise the ``lottery.decompose`` results (terms and residual)
and the ``lottery.sample`` draws; for each tree, the total lottery terms,
the largest reconstruction error of a lottery against the marginals it
decomposed and the lotteries with more than (n-1)^2+1 terms, n the rows
of those marginals, since lotteries need not match bit for bit to be
valid; for each tree, the winning polish thresholds tau
(``metadata["polish"]``), the Newton steps (``metadata["iterations"]``)
and the polish steps (``metadata["polish_steps"]``) of its lone
``nsw.solve`` calls and of the solves that ``nsw.solve_many`` batched;
and the largest fingerprint deviation between the trees and against the
reference.

With ``--time PASSES`` it times the trees against each other instead, op
by op, so that drift of the host on a scale of seconds cancels out.  Two
long-lived worker processes, one BLAS thread each, hold one tree each and
a fresh catalogue of the workload per pass (so memos start empty), after
its warm-up.  Each op runs on both trees, tree A (PARENT_SRC) first on
even ops and tree B (CHANGE_SRC) first on odd ones, one at a time; only
``task.run()`` is timed.  Between passes the trees swap workers, which
cancels a bias of either process when PASSES is even.  For each workload
(all three unless ``--workload`` names some) it prints, per pass, the B/A
ratio of total op time and a 95% bootstrap interval over ops, and over
all passes the ratio and an interval that resamples passes, then ops; below
1 means B is faster.  An op that raises on either tree is left out of
both totals and counted.  Nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCE = PERFBENCH / "reference.json"
WORKLOADS = ("rho_scan", "rpi_lottery", "large_solve")
# One BLAS thread, set before numpy loads, and no bytecode written under
# perfbench/: the environment of every process that runs a tree.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}
ONE_THREAD_ENV = {**os.environ, **ONE_THREAD}


def load_tree(src: str):
    """Import the ``matchlab`` under ``src``, and this checkout's perfbench
    workloads on it, in place of any tree loaded before; the workloads
    module."""
    sys.dont_write_bytecode = True
    for name in [m for m in sys.modules if m.split(".")[0] in ("matchlab", "workloads")]:
        del sys.modules[name]
    sys.path[:] = [os.path.abspath(src), str(PERFBENCH)] + [
        p for p in sys.path if p not in (os.path.abspath(src), str(PERFBENCH))]
    import matchlab
    if Path(matchlab.__file__).resolve().parent != (Path(src) / "matchlab").resolve():
        sys.exit(f"compare_trees: imported matchlab from {matchlab.__file__}, not {src}")
    import workloads
    return workloads


def hook(owner, attr: str, record) -> None:
    """Replace every binding of ``owner.attr`` in the loaded ``matchlab``
    modules with a wrapper that calls ``record(result, args, kwargs)``
    after each call.  The mechanisms import ``solve`` by name, and
    ``solve_many`` finishes every problem through ``nsw.solve``, so every
    binding is replaced, not only the module's own."""
    real = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        record(result, args, kwargs)
        return result

    for module in [m for name, m in sys.modules.items() if name.startswith("matchlab")]:
        if getattr(module, attr, None) is real:
            setattr(module, attr, wrapper)


def solve_path(kwargs: dict) -> str:
    """"batched" for an ``nsw.solve`` call that ``solve_many`` made with the
    problem's barrier path already run, else "lone"."""
    return "batched" if "_prepared" in kwargs else "lone"


def _digest(sol) -> str:
    """A hash of a solution's utilities, assignment and prices, bit for bit."""
    import numpy as np
    h = hashlib.sha256()
    for array in (sol.utilities, sol.assignment.probs, sol.duals.t, sol.duals.q):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _repr_digest(value) -> str:
    """A hash of ``repr(value)``, which writes each float exactly: for a
    lottery's (terms, residual), and for a sampled matching."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# What each op records, in call order: the kind, and how a result is digested.
RECORDED = {"solves": _digest,
            "lotteries": lambda lot: _repr_digest((lot.terms, lot.residual)),
            "samples": _repr_digest}


def _lottery_stats(lot, p) -> list:
    """A lottery's term count, its reconstruction error against the
    marginals ``p``, and whether it has more than (n-1)^2+1 terms."""
    import numpy as np
    probs = np.asarray(getattr(p, "probs", p), dtype=float)
    terms = len(lot.terms)
    return [terms, float(np.abs(lot.reconstruct() - probs).max()),
            terms > (probs.shape[0] - 1) ** 2 + 1]


def run_tree(src: str) -> dict:
    """Every catalogue op of each workload on the ``matchlab`` under ``src``:
    per op key, its failure, its fingerprint and, for each kind of
    ``RECORDED``, the digests of the results it made, in call order, and
    the :func:`_lottery_stats` of its lotteries and the (path, tau, Newton
    steps, polish steps) of its solves."""
    workloads = load_tree(src)
    from matchlab import lottery, nsw
    from run import Phase

    digests: dict[str, list[str]] = {kind: [] for kind in RECORDED}
    stats: list[list] = []
    solve_paths: list[list] = []

    def recording(kind):
        def record(result, args, kwargs):
            digests[kind].append(RECORDED[kind](result))
            if kind == "lotteries":
                stats.append(_lottery_stats(result, args[0] if args else kwargs["p"]))
            if kind == "solves":
                meta = result.metadata
                solve_paths.append([solve_path(kwargs), meta["polish"], meta["iterations"],
                                    meta["polish_steps"]])
        return record

    for kind, owner, attr in (("solves", nsw, "solve"), ("lotteries", lottery, "decompose"),
                              ("samples", lottery, "sample")):
        hook(owner, attr, recording(kind))
    reference = json.loads(REFERENCE.read_text())
    out: dict[str, dict] = {}
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        phase = Phase(wl, reference.get(name, {}))
        ops = out[name] = {}
        for task in wl.catalogue(wl.setup(0)):
            for made in (*digests.values(), stats, solve_paths):
                made.clear()
            recorded = _Recorded(task)
            phase.run_op(recorded, task.key)
            ops[task.key] = {"failure": phase.failures.get(task.key),
                             "fingerprint": recorded.fingerprint,
                             "lottery_stats": list(stats),
                             "solve_paths": list(solve_paths),
                             **{kind: list(made) for kind, made in digests.items()}}
    return out


class _Recorded:
    """A catalogue task that keeps the fingerprint of its check, so that
    ``perfbench/run.py``'s ``Phase`` decides whether the op failed."""

    def __init__(self, task):
        self.task, self.key, self.fingerprint = task, task.key, None

    def run(self):
        return self.task.run()

    def check(self, result):
        checked = self.task.check(result)
        self.fingerprint = checked.fingerprint
        return checked


def run_in_child(src: str) -> dict:
    run = subprocess.run([sys.executable, __file__, "--worker", src], env=ONE_THREAD_ENV,
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"compare_trees: the run on {src} failed:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def _deviation(a, b) -> float:
    """max |a - b| over two fingerprints; inf when one is missing or their
    lengths differ."""
    if a is None or b is None or len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _tally(winners: Counter) -> str:
    """Counts of winning thresholds, in increasing tau, "none" (no live
    row) last, or "-" when there are none."""
    order = sorted(winners, key=lambda tau: (tau is None, tau or 0.0))
    return ", ".join(f"{tau if tau is not None else 'none'} x{winners[tau]}"
                     for tau in order) or "-"


def report(name: str, parent: dict, change: dict, reference: dict) -> list[str]:
    keys = sorted(set(parent) | set(change))
    failed = [sum(1 for k in keys if k not in run or run[k]["failure"])
              for run in (parent, change)]
    counts = []
    for kind, label in (("solves", "nsw.solve results"), ("lotteries", "lotteries"),
                        ("samples", "samples")):
        made = [sum(len(run[k][kind]) for k in run) for run in (parent, change)]
        identical = sum(x == y for k in keys if k in parent and k in change
                        for x, y in zip(parent[k][kind], change[k][kind]))
        if kind == "solves" or made != [0, 0]:
            counts.append(f"  {label:<33}{made[0]} / {made[1]}, "
                          f"bit-identical {identical} of {max(made)}")
    lots = [[st for k in run for st in run[k]["lottery_stats"]] for run in (parent, change)]
    if any(lots):
        counts += [
            f"  lottery terms                    "
            f"{sum(st[0] for st in lots[0])} / {sum(st[0] for st in lots[1])}",
            f"  max lottery reconstruction error "
            f"{max((st[1] for st in lots[0]), default=0.0):.2e} / "
            f"{max((st[1] for st in lots[1]), default=0.0):.2e}",
            f"  lotteries over (n-1)^2+1 terms   "
            f"{sum(st[2] for st in lots[0])} / {sum(st[2] for st in lots[1])}"]
    for path in ("lone", "batched"):
        solves = [[rest for k in run for kind, *rest in run[k]["solve_paths"] if kind == path]
                  for run in (parent, change)]
        counts.append(f"  tau winners, {path:<20}"
                      + " / ".join(_tally(Counter(s[0] for s in ss)) for ss in solves))
        for at, label in ((1, "Newton steps"), (2, "polish steps")):
            counts.append(f"  {label}, {path:<19}"
                          + " / ".join(str(sum(s[at] for s in ss)) for ss in solves))
    between = max((_deviation(parent.get(k, {}).get("fingerprint"),
                              change.get(k, {}).get("fingerprint")) for k in keys),
                  default=0.0)
    to_ref = [max((_deviation(run[k]["fingerprint"], reference.get(k))
                   for k in run if run[k]["fingerprint"] is not None), default=0.0)
              for run in (parent, change)]
    return [f"{name}  (parent / change)",
            f"  ops run                          {len(parent)} / {len(change)}",
            f"  ops failed                       {failed[0]} / {failed[1]}",
            *counts,
            f"  max |fingerprint, between trees| {between:.2e}",
            f"  max |fingerprint - reference|    {to_ref[0]:.2e} / {to_ref[1]:.2e}"]


def time_worker() -> None:
    """Serve the timing commands of :func:`time_trees`, one JSON line each
    way: ``{"load": SRC, "workload": NAME}`` loads a tree and a fresh
    catalogue and warms up (reply: the op count), and ``{"run": I}`` runs
    op I (reply: its seconds, or None when it raised)."""
    tasks: list = []
    for line in sys.stdin:
        cmd = json.loads(line)
        if "load" in cmd:
            wl = load_tree(cmd["load"]).WORKLOADS[cmd["workload"]]
            tasks = wl.catalogue(wl.setup(0))
            wl.warm_up()
            reply = len(tasks)
        else:
            began = time.perf_counter()
            try:
                tasks[cmd["run"]].run()
                reply = time.perf_counter() - began
            except Exception:   # a failed op is left out of both totals
                traceback.print_exc()
                reply = None
        print(json.dumps(reply), flush=True)


def _ask(worker, cmd: dict):
    worker.stdin.write(json.dumps(cmd) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        sys.exit("compare_trees: a timing worker exited")
    return json.loads(line)


def ratio_interval(passes: list, resamples: int = 2000) -> tuple[float, float, float]:
    """sum(b) / sum(a) over the (a, b) op pairs of ``passes`` (a list of
    lists of pairs), and the 2.5 and 97.5 percentiles of that ratio over
    bootstrap resamples (fixed seed).  With several passes a resample draws
    passes, then ops within each drawn pass, so that the spread between
    passes (the host's drift, a worker's bias) widens the interval."""
    import numpy as np
    rng = np.random.default_rng(0)
    runs = [np.asarray(pairs, dtype=float).T for pairs in passes]
    ratios = np.empty(resamples)
    for r in range(resamples):
        drawn = rng.integers(0, len(runs), size=len(runs)) if len(runs) > 1 else [0]
        total = np.zeros(2)
        for at in drawn:
            a, b = runs[at]
            pick = rng.integers(0, len(a), size=len(a))
            total += a[pick].sum(), b[pick].sum()
        ratios[r] = total[1] / total[0]
    lo, hi = np.percentile(ratios, [2.5, 97.5])
    a, b = np.concatenate(runs, axis=1)
    return float(b.sum() / a.sum()), float(lo), float(hi)


def time_trees(trees: list[str], passes: int, names: list[str]) -> None:
    """Print the paired timing of the docstring for two trees."""
    workers = [subprocess.Popen([sys.executable, __file__, "--time-worker"], env=ONE_THREAD_ENV,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for _ in range(2)]
    try:
        for name in names:
            print(f"{name}: B/A total op time, 95% bootstrap interval over ops "
                  f"(A = {trees[0]}, B = {trees[1]})", flush=True)
            runs, failed = [], 0
            for at in range(passes):
                holder = (0, 1) if at % 2 == 0 else (1, 0)     # the worker of each tree
                ops = [_ask(workers[holder[tree]], {"load": trees[tree], "workload": name})
                       for tree in (0, 1)]
                pairs = []
                for op in range(ops[0]):
                    got = [None, None]
                    for tree in ((0, 1) if op % 2 == 0 else (1, 0)):
                        got[tree] = _ask(workers[holder[tree]], {"run": op})
                    if None in got:
                        failed += 1
                    else:
                        pairs.append(got)
                ratio, lo, hi = ratio_interval([pairs])
                a, b = (sum(pair[tree] for pair in pairs) for tree in (0, 1))
                print(f"  pass {at + 1}  {ratio:.3f}  [{lo:.3f}, {hi:.3f}]  "
                      f"A {a:.3f} s  B {b:.3f} s  A on worker {holder[0] + 1}", flush=True)
                runs.append(pairs)
            ratio, lo, hi = ratio_interval(runs)
            print(f"  all {passes}   {ratio:.3f}  [{lo:.3f}, {hi:.3f}]  "
                  f"{sum(map(len, runs))} op pairs, {failed} failed", flush=True)
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        print(json.dumps(run_tree(argv[1])))
        return 0
    if argv == ["--time-worker"]:
        time_worker()
        return 0
    if argv and argv[0] == "--time":
        parser = argparse.ArgumentParser(prog="compare_trees.py --time")
        parser.add_argument("passes", type=int)
        parser.add_argument("--workload", action="append", choices=WORKLOADS)
        parser.add_argument("trees", nargs=2)
        args = parser.parse_args(argv[1:])
        if args.passes < 1:
            parser.error("PASSES must be at least 1")
        time_trees(args.trees, args.passes, args.workload or list(WORKLOADS))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (run_in_child(src) for src in argv)
    reference = json.loads(REFERENCE.read_text())
    for name in WORKLOADS:
        print("\n".join(report(name, parent[name], change[name], reference.get(name, {}))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
