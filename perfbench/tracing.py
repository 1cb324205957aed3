"""Spans around the calls into each matchlab module, and the per-layer metrics.

The traced run wraps each public entry point at the name its caller bound
(``matchlab.analysis.solve`` is the ``solve`` that ``rho_exact`` and
``benchmark`` call, ``matchlab.mechanisms.pa_run`` the one ``rpi_run``
recurses into, and so on).  The wrappers live only here and are installed
only for the traced part of a traced run; the library is not edited.

A span records its name, start, end, parent span and op id, plus a few
attributes read from the call's result (Newton iterations, certificate
residual, lottery terms).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

from matchlab import analysis, instances, lottery, mechanisms, nsw
from matchlab.nsw import DEFAULT_KKT_TOL


def _solve_attrs(sol, args, kwargs) -> dict[str, Any]:
    return {"iterations": int(sol.metadata.get("iterations", 0)),
            "kkt_residual": float(sol.kkt_residual),
            "tol": float(kwargs.get("tol", args[1] if len(args) > 1 else DEFAULT_KKT_TOL)),
            "degenerate": len(sol.degenerate_agents)}


def _rpi_attrs(_result, args, kwargs) -> dict[str, Any]:
    return {"n": int(args[0].n_agents), "n0": int(kwargs.get("n0", 4))}


def _rho_attrs(report, _args, _kwargs) -> dict[str, Any]:
    return {"skipped": len(report.skipped)}


def _decompose_attrs(lot, _args, _kwargs) -> dict[str, Any]:
    return {"terms": len(lot.terms)}


# (module, attribute the caller looks up, span name, attributes from the result)
TARGETS: list[tuple[Any, str, str, Callable | None]] = [
    (nsw, "solve", "nsw.solve", _solve_attrs),
    (analysis, "solve", "nsw.solve", _solve_attrs),
    (mechanisms, "solve", "nsw.solve", _solve_attrs),
    (mechanisms, "pa_run", "mechanisms.pa_run", None),
    (mechanisms, "rpi_run", "mechanisms.rpi_run", _rpi_attrs),
    (mechanisms, "ps_run", "mechanisms.ps_run", None),
    (analysis, "rho_exact", "analysis.rho_exact", _rho_attrs),
    (analysis, "benchmark", "analysis.benchmark", None),
    (lottery, "decompose", "lottery.decompose", _decompose_attrs),
    (lottery, "sample", "lottery.sample", None),
    (instances, "gen_random", "instances.gen", None),
    (lottery, "random_doubly_stochastic", "instances.gen", None),
]


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self.op_id: str | None = None

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self.op_id, "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.update(attrs(result, args, kwargs))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        try:
            for module, attr, name, attrs in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Unit of every per-layer metric, in the order they are reported.
UNITS: dict[str, str] = {
    "op.calls": "count", "op.busy_s": "s",
    "nsw.solve.calls": "count", "nsw.solve.busy_s": "s",
    "nsw.solve.p50_ms": "ms", "nsw.solve.tail_ms": "ms",
    "nsw.solve.newton_iters": "count", "nsw.solve.ms_per_newton_iter": "ms",
    "nsw.solve.failed": "count", "nsw.solve.max_kkt_residual": "ratio",
    "nsw.solve.degenerate_agents": "count",
    "mechanisms.pa_run.calls": "count", "mechanisms.pa_run.self_s": "s",
    "mechanisms.pa_run.solves_per_call": "solves/call",
    "mechanisms.rpi_run.calls": "count", "mechanisms.rpi_run.self_s": "s",
    "mechanisms.pa_memo.attempts": "count", "mechanisms.pa_memo.hits": "count",
    "mechanisms.pa_memo.hit_ratio": "ratio",
    "mechanisms.ps_run.calls": "count", "mechanisms.ps_run.busy_s": "s",
    "analysis.rho_exact.calls": "count", "analysis.rho_exact.self_s": "s",
    "analysis.rho_exact.solves_per_call": "solves/call",
    "analysis.rho_exact.skipped_pairs": "count",
    "analysis.benchmark.calls": "count", "analysis.benchmark.busy_s": "s",
    "lottery.decompose.calls": "count", "lottery.decompose.busy_s": "s",
    "lottery.decompose.p50_ms": "ms", "lottery.decompose.tail_ms": "ms",
    "lottery.decompose.terms": "count", "lottery.decompose.ms_per_term": "ms",
    "lottery.decompose.max_recon_err": "ratio",
    "lottery.sample.calls": "count", "lottery.sample.busy_s": "s",
    "instances.gen.calls": "count", "instances.gen.busy_s": "s",
    "trace.overhead_frac": "ratio",
}


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest sample with >= 10 samples above it.

    Never below the middle: with fewer than 21 samples the tail is the
    upper middle sample.
    """
    return max(count - 11, count // 2)


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict[str, Any]], op_facts: dict[str, dict[str, Any]],
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``op_facts`` maps an op id to what the benchmark's own check measured on
    that op's output (here the lottery reconstruction error).
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(_dur(s) for s in named(name))

    def self_time(name):
        return sum(_dur(s) - sum(_dur(c) for c in children.get(s["id"], []))
                   for s in named(name))

    def child_count(name, child):
        return sum(1 for s in named(name) for c in children.get(s["id"], [])
                   if c["name"] == child)

    def per_call(total, calls):
        return total / calls if calls else 0.0

    def pcts_ms(name):
        durs = sorted(_dur(s) * 1e3 for s in named(name))
        if not durs:
            return 0.0, 0.0
        return statistics.median(durs), durs[tail_index(len(durs))]

    m: dict[str, float] = {}
    ops = named("op")
    m["op.calls"] = len(ops)
    m["op.busy_s"] = busy("op")

    solves = named("nsw.solve")
    m["nsw.solve.calls"] = len(solves)
    m["nsw.solve.busy_s"] = busy("nsw.solve")
    m["nsw.solve.p50_ms"], m["nsw.solve.tail_ms"] = pcts_ms("nsw.solve")
    iters = sum(s.get("iterations", 0) for s in solves)
    m["nsw.solve.newton_iters"] = iters
    m["nsw.solve.ms_per_newton_iter"] = per_call(m["nsw.solve.busy_s"] * 1e3, iters)
    m["nsw.solve.failed"] = sum(1 for s in solves if "error" in s)
    m["nsw.solve.max_kkt_residual"] = max((s.get("kkt_residual", 0.0) for s in solves),
                                          default=0.0)
    m["nsw.solve.degenerate_agents"] = sum(s.get("degenerate", 0) for s in solves)

    pa_calls = len(named("mechanisms.pa_run"))
    m["mechanisms.pa_run.calls"] = pa_calls
    m["mechanisms.pa_run.self_s"] = self_time("mechanisms.pa_run")
    m["mechanisms.pa_run.solves_per_call"] = per_call(
        child_count("mechanisms.pa_run", "nsw.solve"), pa_calls)
    rpis = named("mechanisms.rpi_run")
    m["mechanisms.rpi_run.calls"] = len(rpis)
    m["mechanisms.rpi_run.self_s"] = self_time("mechanisms.rpi_run")
    attempts = hits = 0
    for s in rpis:
        tried = memo_attempts(s["n"], s["n0"])
        ran = sum(1 for c in children.get(s["id"], []) if c["name"] == "mechanisms.pa_run")
        attempts += tried
        hits += tried - ran
    m["mechanisms.pa_memo.attempts"] = attempts
    m["mechanisms.pa_memo.hits"] = hits
    m["mechanisms.pa_memo.hit_ratio"] = per_call(hits, attempts)
    m["mechanisms.ps_run.calls"] = len(named("mechanisms.ps_run"))
    m["mechanisms.ps_run.busy_s"] = busy("mechanisms.ps_run")

    rho_calls = len(named("analysis.rho_exact"))
    m["analysis.rho_exact.calls"] = rho_calls
    m["analysis.rho_exact.self_s"] = self_time("analysis.rho_exact")
    m["analysis.rho_exact.solves_per_call"] = per_call(
        child_count("analysis.rho_exact", "nsw.solve"), rho_calls)
    m["analysis.rho_exact.skipped_pairs"] = sum(
        s.get("skipped", 0) for s in named("analysis.rho_exact"))
    m["analysis.benchmark.calls"] = len(named("analysis.benchmark"))
    m["analysis.benchmark.busy_s"] = busy("analysis.benchmark")

    decs = named("lottery.decompose")
    terms = sum(s.get("terms", 0) for s in decs)
    m["lottery.decompose.calls"] = len(decs)
    m["lottery.decompose.busy_s"] = busy("lottery.decompose")
    m["lottery.decompose.p50_ms"], m["lottery.decompose.tail_ms"] = pcts_ms("lottery.decompose")
    m["lottery.decompose.terms"] = terms
    m["lottery.decompose.ms_per_term"] = per_call(m["lottery.decompose.busy_s"] * 1e3, terms)
    m["lottery.decompose.max_recon_err"] = max(
        (f["recon_err"] for f in op_facts.values() if f.get("recon_err") is not None),
        default=0.0)
    m["lottery.sample.calls"] = len(named("lottery.sample"))
    m["lottery.sample.busy_s"] = busy("lottery.sample")

    m["instances.gen.calls"] = len(named("instances.gen"))
    m["instances.gen.busy_s"] = busy("instances.gen")
    m["trace.overhead_frac"] = overhead_frac
    return m


def memo_attempts(n: int, n0: int) -> int:
    """PA memo lookups in one RPI run: one per level that still has >= n0 agents."""
    levels = 0
    while n >= n0:
        levels += 1
        n -= math.ceil(n / 2)
    return levels


def uncertified_solves(spans: list[dict[str, Any]]) -> dict[str, int]:
    """Op id -> number of returned solves whose residual exceeds their tolerance."""
    out: dict[str, int] = {}
    for s in spans:
        if s["name"] == "nsw.solve" and "kkt_residual" in s and not s["kkt_residual"] <= s["tol"]:
            out[s["op"]] = out.get(s["op"], 0) + 1
    return out
