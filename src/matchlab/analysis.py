"""Benchmark computation, approximation ratios, and monotonicity scans.

The benchmark for a square unit-supply market is the Nash bargaining
solution with the uniform random matching as disagreement point: maximize
the product of utility gains over each agent's average value.  A
mechanism's per-agent approximation is the worst ratio of benchmark
utility to mechanism utility.

Utility monotonicity: removing agents from a market can *lower* a
remaining agent's welfare-optimal utility.  ``rho_exact`` measures the
worst such drop by brute force over all agent subsets; ``rho_scan`` runs
it over seeded random instances.  ``truthfulness_audit`` measures the
best utility gain any agent can get from a menu of misreports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .core import (
    DimensionMismatch,
    FractionalAssignment,
    Instance,
    TooLargeForExact,
    uniform_disagreement,
    utilities as core_utilities,
)
from .instances import parse_generator_spec, rng_from_seed
from .mechanisms import MECHANISMS, rpi_outer_sample, rpi_run, run_mechanism
from .nsw import NswProblem, NswSolution, solve

__all__ = [
    "BenchmarkResult",
    "RatioReport",
    "RhoReport",
    "ScanReport",
    "AuditReport",
    "benchmark",
    "approx_ratio",
    "utility_ratio",
    "rho_exact",
    "rho_scan",
    "truthfulness_audit",
    "rpi_expected_utilities",
    "rho_star_upper_bound",
    "rpi_worst_case_bound",
    "ordinal_lower_bound",
    "bounds_crossover",
]

RHO_EXACT_LIMIT = 12


@dataclass
class BenchmarkResult:
    """Bargaining benchmark: disagreement point, solution, and utilities."""

    disagreement: np.ndarray
    solution: NswSolution
    benchmark_utilities: np.ndarray


def benchmark(inst: Instance, tol: float = 1e-7) -> BenchmarkResult:
    """Nash bargaining benchmark of a square, unit-supply market."""
    if not inst.is_square:
        raise DimensionMismatch("benchmark needs a square market")
    if not np.allclose(np.asarray(inst.supplies), 1.0, atol=1e-12):
        raise DimensionMismatch("benchmark needs unit supplies")
    o = uniform_disagreement(inst)
    sol = solve(NswProblem.create(inst, offsets=o), tol=tol)
    return BenchmarkResult(disagreement=o, solution=sol,
                           benchmark_utilities=sol.utilities)


@dataclass
class RatioReport:
    """Per-agent benchmark-to-mechanism utility ratios."""

    ratios: np.ndarray        # may contain +inf
    max_ratio: float
    worst_agent: int

    def jsonable_ratios(self) -> list[Any]:
        return ["inf" if math.isinf(r) else float(r) for r in self.ratios]


def approx_ratio(inst: Instance,
                 mechanism_marginals: FractionalAssignment | np.ndarray,
                 bench: BenchmarkResult) -> RatioReport:
    """ratio_i = benchmark utility / mechanism utility, +inf on zero."""
    return utility_ratio(bench, core_utilities(inst, mechanism_marginals))


def utility_ratio(bench: BenchmarkResult, mech_u: np.ndarray) -> RatioReport:
    """:func:`approx_ratio` from the mechanism's utilities; utilities are
    linear in the marginals, so a Monte-Carlo mean of them will do."""
    ratios = np.empty(len(mech_u))
    for i in range(len(mech_u)):
        bench_u = bench.benchmark_utilities[i]
        if mech_u[i] > 0:
            ratios[i] = bench_u / mech_u[i]
        else:
            ratios[i] = math.inf if bench_u > 0 else 1.0
    worst = int(np.argmax(ratios))
    return RatioReport(ratios=ratios, max_ratio=float(ratios[worst]),
                       worst_agent=worst)


# ---------------------------------------------------------------------------
# Utility monotonicity
# ---------------------------------------------------------------------------

@dataclass
class RhoReport:
    """Worst utility drop over agent subsets (and over half-size subsets)."""

    rho: float
    witness_subset: tuple[int, ...]
    witness_agent: int
    utility_before: float
    utility_after: float
    rho_half: float
    witness_half: tuple[int, ...]
    skipped: list[tuple[tuple[int, ...], int]] = field(default_factory=list)


def rho_exact(inst: Instance, tol: float = 1e-7,
              bargaining_offsets: bool = False) -> RhoReport:
    """Brute-force utility monotonicity over every non-empty agent subset.

    For each subset, re-solve the welfare program restricted to it (unit
    row budgets, full item set) and compare every member's utility to her
    utility with all agents present.  Agents degenerate in either solve
    are skipped and logged.  ``bargaining_offsets`` switches the restricted
    solves to the bargaining objective (offsets = per-agent average value)
    instead of plain welfare maximization.
    """
    n = inst.n_agents
    if n > RHO_EXACT_LIMIT:
        raise TooLargeForExact(f"2^{n} subsets is past the enumeration limit")
    o_full = uniform_disagreement(inst) if bargaining_offsets else None

    def solve_subset(agents: tuple[int, ...], warm=None) -> NswSolution:
        off = (np.array([o_full[a] for a in agents])
               if o_full is not None else None)
        return solve(NswProblem.create(inst, agents, off), tol=tol,
                     warm_start=warm)

    full_agents = tuple(range(n))
    full = solve_subset(full_agents)
    warm = np.asarray(full.assignment.probs)

    half_size = -(-n // 2)
    best = (1.0, full_agents, -1, 1.0, 1.0)
    best_half = (1.0, full_agents)
    skipped: list[tuple[tuple[int, ...], int]] = []
    for mask in range(1, 2 ** n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        sub = full if subset == full_agents else solve_subset(subset, warm)
        for i in subset:
            if i in full.degenerate_agents or i in sub.degenerate_agents:
                skipped.append((subset, i))
                continue
            ratio = full.utilities[i] / sub.utilities[i]
            if ratio > best[0]:
                best = (float(ratio), subset, i,
                        float(full.utilities[i]), float(sub.utilities[i]))
            if len(subset) == half_size and ratio > best_half[0]:
                best_half = (float(ratio), subset)
    return RhoReport(
        rho=best[0], witness_subset=best[1], witness_agent=best[2],
        utility_before=best[3], utility_after=best[4],
        rho_half=best_half[0], witness_half=best_half[1], skipped=skipped)


@dataclass
class ScanReport:
    """Distribution of rho over a family of seeded random instances."""

    max_rho: float
    argmax_trial: int
    values: list[float]
    histogram_counts: list[int]
    histogram_edges: list[float]
    generator: str
    trials: int
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_rho": self.max_rho,
            "argmax_trial": self.argmax_trial,
            "values": self.values,
            "histogram_counts": self.histogram_counts,
            "histogram_edges": self.histogram_edges,
            "generator": self.generator,
            "trials": self.trials,
            "seed": self.seed,
        }


def rho_scan(generator: str | Callable[[int], Instance], trials: int,
             seed: int = 0, tol: float = 1e-7,
             extra_instances: Iterable[Instance] = ()) -> ScanReport:
    """Run ``rho_exact`` over seeded random instances and report the spread.

    ``generator`` is a spec string (see :func:`parse_generator_spec`) or a
    callable mapping a trial seed to an instance.  ``extra_instances`` are
    appended to the scan (with trial indices past ``trials``).
    """
    if trials < 1:
        raise DimensionMismatch("trials must be >= 1")
    if isinstance(generator, str):
        gen_name = generator
        make = lambda s: parse_generator_spec(gen_name, seed=s)
    else:
        gen_name = getattr(generator, "__name__", "callable")
        make = generator
    trial_seeds = rng_from_seed(seed, stream=1).integers(0, 2 ** 62,
                                                         size=trials)
    values: list[float] = []
    for k in range(trials):
        values.append(rho_exact(make(int(trial_seeds[k])), tol=tol).rho)
    for inst in extra_instances:
        values.append(rho_exact(inst, tol=tol).rho)
    arr = np.asarray(values)
    counts, edges = np.histogram(arr, bins=20)
    argmax = int(np.argmax(arr))
    return ScanReport(
        max_rho=float(arr.max()), argmax_trial=argmax,
        values=[float(v) for v in values],
        histogram_counts=[int(x) for x in counts],
        histogram_edges=[float(x) for x in edges],
        generator=gen_name, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Truthfulness audits
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Worst utility gain from misreporting, per audited agent."""

    mechanism: str
    seed: int
    misreports: int
    worst_gain: float
    gains: dict[int, float]
    audited_agents: tuple[int, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


def _default_misreport(rng: np.random.Generator, true_row: np.ndarray) -> np.ndarray:
    hi = max(1.0, float(true_row.max()))
    return rng.uniform(0.0, hi, size=true_row.shape)


def truthfulness_audit(inst: Instance, mechanism: str, misreports: int = 20,
                       seed: int = 0,
                       misreport_sampler: Callable[[np.random.Generator, np.ndarray], np.ndarray] | None = None,
                       **mech_opts) -> AuditReport:
    """Measure the best gain any single agent gets from misreporting.

    Gains are measured in the agent's true values.  For ``rpi`` the truthful
    and misreported runs share the seed (hence the same sample realization
    at every level) and only agents sampled at the outermost level are
    audited, since their allocation is final at that point.
    """
    if mechanism not in MECHANISMS:
        raise DimensionMismatch(f"unknown mechanism {mechanism!r}")
    sampler = misreport_sampler or _default_misreport
    truthful = run_mechanism(mechanism, inst, seed=seed, **mech_opts)
    true_u = core_utilities(inst, truthful)

    if mechanism == "rpi":
        audited = tuple(rpi_outer_sample(inst, mech_opts.get("n0", 4), seed))
    else:
        audited = tuple(range(inst.n_agents))

    values = np.asarray(inst.values)
    gains: dict[int, float] = {}
    for agent in audited:
        rng = rng_from_seed(seed, stream=1000 + agent)
        best = -math.inf
        for _ in range(misreports):
            row = sampler(rng, values[agent])
            reported = inst.with_values(_replace_row(values, agent, row))
            out = run_mechanism(mechanism, reported, seed=seed, **mech_opts)
            gained = float(values[agent] @ np.asarray(out.probs)[agent]) - true_u[agent]
            best = max(best, gained)
        gains[agent] = best
    worst = max(gains.values()) if gains else 0.0
    return AuditReport(mechanism=mechanism, seed=seed, misreports=misreports,
                       worst_gain=worst, gains=gains, audited_agents=audited)


def _replace_row(values: np.ndarray, i: int, row: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[i] = row
    return out


# ---------------------------------------------------------------------------
# Batch estimation and asymptotic bounds
# ---------------------------------------------------------------------------

def rpi_expected_utilities(inst: Instance, reps: int = 200, seed: int = 0,
                           n0: int = 4, tol: float = 1e-7
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and standard error of per-agent RPI utilities;
    ``tol`` is each welfare solve's certificate tolerance."""
    rep_seeds = rng_from_seed(seed, stream=2).integers(0, 2 ** 62, size=reps)
    memo: dict = {}
    samples = np.empty((reps, inst.n_agents))
    for k in range(reps):
        assignment = rpi_run(inst, n0=n0, seed=int(rep_seeds[k]), tol=tol,
                             _pa_memo=memo)
        samples[k] = core_utilities(inst, assignment)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(reps)
    return mean, stderr


def rho_star_upper_bound(n: int | float) -> float:
    """Worst-case utility-monotonicity bound 4^(sqrt(log2 n) + 1)."""
    if n < 2:
        return 4.0
    return 4.0 ** (math.sqrt(math.log2(float(n))) + 1.0)


def rpi_worst_case_bound(n: int | float) -> float:
    """RPI's per-agent approximation bound 4 e rho*(n)."""
    return 4.0 * math.e * rho_star_upper_bound(n)


def ordinal_lower_bound(n: int | float) -> float:
    """No ordinal mechanism beats per-agent factor n - 1."""
    return float(n) - 1.0


def bounds_crossover(max_exponent: int = 64) -> int:
    """Smallest n where the RPI bound drops below the ordinal bound n - 1.

    The gap log(n-1) - log(4 e 4^(sqrt(log2 n)+1)) has derivative
    (1/n) (n/(n-1) - 1/sqrt(log2 n)), positive for every n >= 2, so the
    predicate is monotone and bisection is sound; the ordering then holds
    for every n past the returned crossover.
    """
    lo, hi = 2, 2 ** max_exponent
    if not rpi_worst_case_bound(hi) < ordinal_lower_bound(hi):
        raise ArithmeticError("bounds do not cross below the ceiling")
    # n where the strict inequality first holds and never fails after.
    while lo < hi:
        mid = (lo + hi) // 2
        if rpi_worst_case_bound(mid) < ordinal_lower_bound(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
