#!/usr/bin/env python3
"""matchlab benchmark: time one workload end to end, or trace it per module.

Run from the repository root (nothing needs installing; ``src`` is put on
the path):

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --make-reference

Each workload is a closed loop: this one process runs op after op with no
think time.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay (see README.md).  The last line of
standard output is one JSON object; a run record with the machine, library
versions and failures goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("rho_scan", "rpi_lottery", "large_solve", "bvn")
SETUP_REPEATS = 3
# Fixed on every commit so timings compare.  One thread: on a 2-vCPU VM a
# second OpenBLAS thread made a 200x200 solve take ~125 ms instead of ~0.5 ms.
BLAS_THREADS = 1


class DeadlineMissed(BaseException):
    """Raised into an op that outlives its workload's deadline.

    A BaseException, so that no ``except Exception`` inside the library can
    swallow it.
    """


def _on_alarm(_signum, _frame):
    raise DeadlineMissed


class OpDeadline:
    """Interrupt the enclosed op after ``seconds`` of wall time."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-reference", action="store_true",
                   help="recompute reference.json from the current source")
    return p.parse_args(argv)


def import_library() -> float:
    """Pin BLAS threads, put ``src`` first on the path and import; return seconds."""
    src = ROOT / "src"
    if not (src / "matchlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no matchlab source under {src}; run from a checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import matchlab
    import matchlab.analysis  # noqa: F401
    import matchlab.lottery  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(matchlab.__file__).resolve().parent != (src / "matchlab").resolve():
        sys.exit(f"perfbench: imported matchlab from {matchlab.__file__}, not {src}")
    return elapsed


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_use() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, if it can be asked."""
    import ctypes
    import numpy
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args, workload: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": BLAS_THREADS, "threads_reported": blas_threads_in_use()},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


class Phase:
    """Runs ops, times each, checks each and tallies failures."""

    def __init__(self, wl, reference: dict, tracer=None):
        from workloads import fingerprint_matches
        self.matches = fingerprint_matches
        self.wl = wl
        self.reference = reference
        self.tracer = tracer
        self.latencies: dict[str, float] = {}    # op id -> wall seconds, completed ops only
        self.op_log: list[tuple[str, str, float, float]] = []  # (op id, key, wall ms, cpu ms)
        self.attempted = 0
        self.failures: dict[str, str] = {}     # op id -> "key: what went wrong"
        self.incorrect: set[str] = set()       # op ids that raised or failed a check
        self.deadline_missed = False
        self.op_facts: dict[str, dict] = {}

    def fail(self, op_id: str, key: str, problem: str, incorrect: bool = True) -> None:
        self.failures[op_id] = (self.failures.get(op_id) or key) + ": " + problem
        if incorrect:
            self.incorrect.add(op_id)

    def run_op(self, task, op_id: str) -> None:
        self.attempted += 1
        try:
            with OpDeadline(self.wl.deadline_s):
                t0 = time.perf_counter()
                c0 = time.process_time()
                if self.tracer is None:
                    result = task.run()
                else:
                    self.tracer.op_id = op_id
                    with self.tracer.span("op"):
                        result = task.run()
                cpu = time.process_time() - c0
                elapsed = time.perf_counter() - t0
        except DeadlineMissed:
            self.fail(op_id, task.key, f"missed the {self.wl.deadline_s:g} s deadline",
                      incorrect=False)
            self.deadline_missed = True
            return
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.fail(op_id, task.key, f"raised {type(exc).__name__}: {exc} "
                      f"({Path(where.filename).name}:{where.lineno})")
            return
        self.latencies[op_id] = elapsed
        self.op_log.append((op_id, task.key, round(elapsed * 1e3, 3), round(cpu * 1e3, 3)))
        checked = task.check(result)
        problems = list(checked.problems)
        if checked.fingerprint is not None:
            ref = self.reference.get(task.key)
            if ref is None:
                problems.append("no reference fingerprint")
            elif not self.matches(checked.fingerprint, ref):
                problems.append(f"fingerprint {checked.fingerprint} != reference {ref}")
        if checked.recon_err is not None:
            self.op_facts[op_id] = {"recon_err": checked.recon_err}
        if problems:
            self.fail(op_id, task.key, "; ".join(problems))

    def run_rounds(self, inputs, seconds: float | None = None, rounds: int | None = None) -> int:
        """Whole rounds until ``seconds`` have passed or ``rounds`` are done."""
        start = time.perf_counter()
        r = 0
        while not self.deadline_missed:
            if rounds is not None and r >= rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            for i, task in enumerate(self.wl.round(inputs, r)):
                self.run_op(task, f"r{r}.{i}")
                if self.deadline_missed:
                    break
            r += 1
        return r


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with >= 10 samples above it."""
    from tracing import tail_index
    ordered = sorted(values)
    k = tail_index(len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    import_s = import_library()
    import tracing
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(wl.name, {})

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        wl.warm_up()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    record = run_record(args, wl.name)
    timed = Phase(wl, reference)
    if args.trace == 0:
        rounds = timed.run_rounds(inputs, seconds=args.seconds)
        phases = [timed]
        lat = list(timed.latencies.values())
        if not lat:
            sys.exit("perfbench: no op completed")
        tail_ms, tail_pct = tail(lat)
        metrics = {
            "ops_per_s": metric(len(lat) / sum(lat), "ops/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": metric(tail_ms * 1e3, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["latency_tail"] = {"percentile": tail_pct, "ops": len(lat)}
        record["import_s"] = import_s
        record["setup_repeats_s"] = setup_times
    else:
        # Untraced first, then the same rounds again under the tracer.
        rounds = timed.run_rounds(inputs, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        traced = Phase(wl, reference, tracer)
        with tracer.installed():
            tracer.op_id = "setup"
            inputs = wl.setup(args.seed)
            traced.run_rounds(inputs, rounds=rounds)
        phases = [timed, traced]
        both = traced.latencies.keys() & timed.latencies.keys()
        overhead = (sum(traced.latencies[i] for i in both)
                    / sum(timed.latencies[i] for i in both) - 1.0) if both else 0.0
        for op_id, count in tracing.uncertified_solves(tracer.spans).items():
            traced.fail(op_id, f"op {op_id}", f"{count} solve(s) returned above tolerance")
        layer = tracing.layer_metrics(tracer.spans, traced.op_facts, overhead)
        metrics = {name: metric(value, tracing.UNITS[name]) for name, value in layer.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures.values()]
    result = {
        "correct": not any(p.incorrect for p in phases),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record.update(rounds=rounds, failed_frac=len(failures) / max(attempted, 1),
                  failures=failures[:50], result=result, ops_ms=timed.op_log)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} ops in {rounds} rounds, "
          f"{len(failures)} failed (failed_frac {record['failed_frac']:.4g})")
    for f in failures[:5]:
        print(f"  FAIL {f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  run record -> {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so its peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def make_reference() -> int:
    """Run every catalogue entry once and store its fingerprint."""
    import_library()
    from workloads import WORKLOADS
    reference = {}
    for wl in WORKLOADS.values():
        if wl.catalogue is None:
            continue
        t0 = time.perf_counter()
        entries = {}
        for task in wl.catalogue(wl.setup(0)):
            checked = task.check(task.run())
            if checked.problems:
                sys.exit(f"perfbench: {task.key} fails its own check: {checked.problems}")
            entries[task.key] = [float(f"{x:.10g}") for x in checked.fingerprint]
        reference[wl.name] = entries
        print(f"{wl.name}: {len(entries)} entries in {time.perf_counter() - t0:.1f} s")
    # One entry per line, so that a changed reference reads well in a diff.
    lines = ",\n".join(f"{json.dumps(wl)}: {{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(fp)}" for key, fp in sorted(entries.items())) + "\n}"
        for wl, entries in reference.items())
    REFERENCE.write_text("{\n" + lines + "\n}\n")
    return 0


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    args = parse_args(argv)
    if args.make_reference:
        return make_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
