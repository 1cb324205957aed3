#!/usr/bin/env python3
"""Split one benchmark catalogue's time by solver stage, and profile it.

    python3 tools/profile_catalogue.py WORKLOAD [--stride K] [--src DIR]

WORKLOAD is a workload of ``perfbench/workloads.py`` that has a catalogue
(rho_scan, rpi_lottery or large_solve).  Every K-th catalogue op (all of
them by default) runs three times on one BLAS thread, each time with a
fresh catalogue, so that memos start empty:

1. a warm-up pass, not reported;
2. a timed pass, which prints the ops' wall time and its split by
   ``nsw.solve`` stage (``metadata["stage_s"]``: start, barrier, polish,
   finish), lone and batched solves apart.  A batched solve's barrier is
   its lockstep call's wall time divided by the problems of that call
   (``metadata["barrier_batch"]``), so that the batch's barrier is counted
   once.  The rest of the op's time (mechanisms, ``lottery.decompose``,
   the work of ``solve_many`` between its calls) is printed as "outside";
3. a profiled pass under cProfile, which prints the top 25 functions by
   self time.  Its times carry the profiler's overhead, which is why the
   split comes from the pass before it.

``--src`` names the directory that holds the ``matchlab`` package
(default: this repository's ``src``).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

from compare_trees import ONE_THREAD, hook, load_tree, solve_path

os.environ.update(ONE_THREAD)       # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("start", "barrier", "polish", "finish")
TOP = 25                            # functions listed from the profiled pass


def _run_pass(wl, stride: int) -> float:
    """Run every ``stride``-th op of a fresh catalogue; their wall time."""
    total = 0.0
    for task in wl.catalogue(wl.setup(0))[::stride]:
        began = time.perf_counter()
        task.run()
        total += time.perf_counter() - began
    return total


def stage_split(records: list) -> dict:
    """Per path: the solve count and the seconds of each stage."""
    split: dict = defaultdict(lambda: defaultdict(float))
    for path, meta in records:
        stages = meta["stage_s"]
        split[path]["solves"] += 1
        for stage in STAGES:
            seconds = stages.get(stage, 0.0)
            if stage == "barrier" and path == "batched":
                seconds /= meta["barrier_batch"]
            split[path][stage] += seconds
    return split


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    if args.stride < 1:
        parser.error("--stride must be at least 1")
    wl = load_tree(args.src).WORKLOADS.get(args.workload)
    if wl is None or wl.catalogue is None:
        parser.error(f"no catalogue workload named {args.workload!r}")

    from matchlab import nsw
    records: list = []

    def record(sol, args, kwargs):
        records.append((solve_path(kwargs), sol.metadata))

    hook(nsw, "solve", record)
    _run_pass(wl, args.stride)
    records.clear()
    wall = _run_pass(wl, args.stride)
    split = stage_split(records)

    ops = len(wl.catalogue(wl.setup(0))[::args.stride])
    print(f"{args.workload}: {ops} ops (stride {args.stride}), {wall:.3f} s of op time")
    print(f"  {'path':<8}{'solves':>7}" + "".join(f"{s:>9}" for s in STAGES) + f"{'sum':>9}")
    inside = 0.0
    for path in ("lone", "batched"):
        if path not in split:
            continue
        row = split[path]
        total = sum(row[s] for s in STAGES)
        inside += total
        print(f"  {path:<8}{int(row['solves']):>7}"
              + "".join(f"{row[s]:>9.3f}" for s in STAGES) + f"{total:>9.3f}")
    print(f"  outside nsw.solve stages: {wall - inside:.3f} s")

    profiler = cProfile.Profile()
    profiler.enable()
    _run_pass(wl, args.stride)
    profiler.disable()
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(TOP)
    print(f"\nTop {TOP} functions by self time (profiled pass):")
    print("\n".join(line for line in out.getvalue().splitlines()
                    if line.strip() and not line.startswith(("   Ordered", "   List"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
