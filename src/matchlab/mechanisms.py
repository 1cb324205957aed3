"""Matching mechanisms: two cardinal (PA, RPI) and two ordinal (RSD, PS).

Partial allocation (PA)
    Solve the welfare program, then scale each agent's share by the factor
    f_i = (product of the other agents' surpluses with i present) divided
    by (the same product with i absent).  f_i in (1/e, 1] and the scaled
    outcome is dominant-strategy truthful: an agent maximizing f_i times
    her own surplus is maximizing the full welfare product, whose optimum
    is at the truthful report.

Randomized partial improvement (RPI)
    Recursively: sample half the remaining agents, run PA for them with
    the uniform share of the current supplies as a disagreement offset,
    give each sampled agent half her PA share padded back to a full unit
    with the uniform share, subtract what they consumed, and recurse on
    the rest.  The base case (fewer than ``n0`` agents) splits the
    remaining supplies uniformly.  Output marginals are doubly stochastic.

Random serial dictatorship (RSD) and probabilistic serial (PS) are the
ordinal baselines; they read only each agent's ranking of the items
(ties broken by smallest item index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .core import (
    DimensionMismatch,
    FractionalAssignment,
    Instance,
    SupplyUnderflow,
    TooLargeForExact,
    validate_instance,
)
from .instances import rng_from_seed
from .nsw import DEFAULT_KKT_TOL, NswProblem, NswSolution, solve, solve_many

__all__ = [
    "PaOutcome",
    "pa_run",
    "rpi_run",
    "rpi_outer_sample",
    "rsd_run",
    "rsd_exact_matrix",
    "ps_run",
    "ps_exact_matrix",
    "MECHANISMS",
    "run_mechanism",
]

RSD_EXACT_LIMIT = 10


# ---------------------------------------------------------------------------
# Partial allocation
# ---------------------------------------------------------------------------

@dataclass
class PaOutcome:
    """PA result: scaled assignment, per-agent fractions, and audit data."""

    assignment: FractionalAssignment
    fractions: np.ndarray                      # f_i per active agent index
    leave_one_out_utilities: dict[int, np.ndarray]
    base: NswSolution
    metadata: dict[str, Any] = field(default_factory=dict)


def pa_run(inst: Instance, offsets: np.ndarray | None = None,
           active_agents: tuple[int, ...] | None = None,
           tol: float = DEFAULT_KKT_TOL) -> PaOutcome:
    """Run the partial allocation mechanism.

    ``offsets`` generalizes the plain mechanism with a disagreement point:
    all welfare solves (full and leave-one-out) maximize the product of
    surpluses above the offsets.  Degenerate agents take factor 1 and keep
    their residual-fill share; a factor is skipped whenever the agent is
    degenerate in either of the two solves it relates (flagged in
    metadata).
    """
    if active_agents is None:
        active_agents = tuple(range(inst.n_agents))
    active = tuple(active_agents)
    idx = {agent: k for k, agent in enumerate(active)}
    off = np.zeros(len(active)) if offsets is None else np.asarray(offsets, dtype=float)

    base = solve(NswProblem.create(inst, active, off), tol=tol)
    meta: dict[str, Any] = {"degenerate_mismatch": []}

    if len(base.degenerate_agents) == len(active):
        # Nothing to trade: everyone keeps the uniform residual fill.
        meta["all_degenerate"] = True
        return PaOutcome(
            assignment=base.assignment,
            fractions=np.ones(len(active)),
            leave_one_out_utilities={},
            base=base,
            metadata=meta,
        )

    fractions = np.ones(len(active))
    loo_utils: dict[int, np.ndarray] = {}
    # A lone agent's fraction is the empty product, 1: there is no one to
    # leave her out for, so no leave-one-out problem.
    left_out = [] if len(active) == 1 else [
        agent for agent in active if agent not in base.degenerate_agents]
    problems = []
    for agent in left_out:
        rest = tuple(a for a in active if a != agent)
        problems.append(NswProblem.create(inst, rest, np.array([off[idx[a]] for a in rest])))
    # The leave-one-out problems share a shape, so their barriers run in lockstep.
    solutions = solve_many(problems, tol=tol,
                           warm_start=np.asarray(base.assignment.probs))
    for agent, problem, loo in zip(left_out, problems, solutions):
        rest = problem.active_agents
        loo_utils[agent] = loo.utilities
        f = 1.0
        for other in rest:
            deg_full = other in base.degenerate_agents
            deg_loo = other in loo.degenerate_agents
            if deg_full or deg_loo:
                if deg_full != deg_loo:
                    meta["degenerate_mismatch"].append((agent, other))
                continue
            f *= base.surplus[other] / loo.surplus[other]
        fractions[idx[agent]] = f

    probs = np.array(base.assignment.probs, dtype=float)
    probs[list(active)] *= fractions[:, None]
    scaled = FractionalAssignment.from_probs(probs, tolerance=base.assignment.tolerance)
    return PaOutcome(
        assignment=scaled,
        fractions=fractions,
        leave_one_out_utilities=loo_utils,
        base=base,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# Randomized partial improvement
# ---------------------------------------------------------------------------

def _fisher_yates_sample(indices: list[int], count: int, seed: int,
                         depth: int) -> list[int]:
    """First ``count`` entries of a Fisher-Yates shuffle keyed by seed^depth."""
    rng = rng_from_seed(seed ^ depth)
    pool = sorted(indices)
    for i in range(len(pool) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def rpi_outer_sample(inst: Instance, n0: int = 4, seed: int = 0) -> list[int]:
    """The agent subset sampled at the outermost recursion level.

    Empty when the instance falls straight into the uniform base case.
    The draw depends only on (n, seed), never on reported values.
    """
    n = inst.n_agents
    if n < n0:
        return []
    return sorted(_fisher_yates_sample(list(range(n)), -(-n // 2), seed, 0))


def rpi_run(inst: Instance, n0: int = 4, seed: int = 0,
            tol: float = DEFAULT_KKT_TOL,
            _pa_memo: dict | None = None) -> FractionalAssignment:
    """Run randomized partial improvement on a square, unit-supply market.

    ``n0 >= 4`` guarantees the set-aside supply covers the padding, so the
    output marginals are doubly stochastic; a negative residual supply
    beyond 1e-8 means a solver fault and raises :class:`SupplyUnderflow`.
    ``_pa_memo`` optionally caches PA runs across seeds for batch
    experiments (the mechanism itself is deterministic per seed).
    """
    if not inst.is_square:
        raise DimensionMismatch("needs equal numbers of agents and items")
    if n0 < 4:
        raise DimensionMismatch("n0 must be at least 4")
    if not inst.has_unit_supplies:
        raise DimensionMismatch("needs unit supplies")
    n = inst.n_agents
    probs = np.zeros((n, n))
    _rpi_recurse(inst, list(range(n)), np.ones(n), 0, n0, seed, tol, probs,
                 _pa_memo if _pa_memo is not None else {})
    return FractionalAssignment.from_probs(probs, tolerance=1e-8)


def _rpi_recurse(inst, remaining, supplies, depth, n0, seed, tol, out, memo):
    n_bar = len(remaining)
    if abs(supplies.sum() - n_bar) > 1e-8:
        raise SupplyUnderflow(
            f"supplies sum {supplies.sum():.12f} != remaining agents {n_bar}")
    if n_bar < n0:
        for i in remaining:
            out[i] = supplies / n_bar
        return

    sampled = sorted(_fisher_yates_sample(remaining, -(-n_bar // 2), seed, depth))
    offsets = np.array([float(inst.values[i] @ supplies) / n_bar
                        for i in sampled])

    key = (tuple(sampled), tuple(np.round(supplies, 12)))
    if key in memo:
        pa = memo[key]
    else:
        pa = pa_run(_with_supplies(inst, supplies), offsets=offsets,
                    active_agents=tuple(sampled), tol=tol)
        memo[key] = pa

    uniform = supplies / n_bar
    consumed = np.zeros(inst.n_items)
    for i in sampled:
        q_row = pa.assignment.probs[i]
        f_i = float(q_row.sum())
        p_row = q_row / 2.0 + (1.0 - f_i / 2.0) * uniform
        out[i] = p_row
        consumed += p_row

    residual = supplies - consumed
    if residual.min() < -1e-8:
        j = int(np.argmin(residual))
        raise SupplyUnderflow(
            f"item {j} oversubscribed by {-residual.min():.3e} at depth {depth}")
    residual = np.maximum(residual, 0.0)

    chosen = set(sampled)
    rest = [i for i in remaining if i not in chosen]
    if rest:
        _rpi_recurse(inst, rest, residual, depth + 1, n0, seed, tol, out, memo)


def _with_supplies(inst: Instance, supplies: np.ndarray) -> Instance:
    return validate_instance({
        "values": np.asarray(inst.values),
        "supplies": np.minimum(np.maximum(supplies, 0.0), 1.0),
        "agent_labels": inst.agent_labels,
        "item_labels": inst.item_labels,
    })


# ---------------------------------------------------------------------------
# Random serial dictatorship
# ---------------------------------------------------------------------------

def _favorite(values_row: np.ndarray, available: tuple[int, ...]) -> int:
    best = available[0]
    for j in available[1:]:
        if values_row[j] > values_row[best]:
            best = j
    return best


def rsd_exact_matrix(inst: Instance) -> list[list[Fraction]]:
    """Exact RSD marginals as fractions, averaged over all agent orders.

    Memoized over (remaining agents, remaining items) states, so the cost
    is far below n! for moderate n; still limited to n <= 10.
    """
    n, m = inst.n_agents, inst.n_items
    if n > RSD_EXACT_LIMIT:
        raise TooLargeForExact(f"exact mode enumerates orders; n={n} > {RSD_EXACT_LIMIT}")
    values = np.asarray(inst.values)
    cache: dict[tuple, dict[tuple[int, int], Fraction]] = {}

    def walk(agents: tuple[int, ...], items: tuple[int, ...]):
        if not agents:
            return {}
        key = (agents, items)
        if key in cache:
            return cache[key]
        share = Fraction(1, len(agents))
        acc: dict[tuple[int, int], Fraction] = {}
        for i in agents:
            j = _favorite(values[i], items)
            rest = walk(tuple(a for a in agents if a != i),
                        tuple(x for x in items if x != j))
            acc[(i, j)] = acc.get((i, j), Fraction(0)) + share
            for cell, w in rest.items():
                acc[cell] = acc.get(cell, Fraction(0)) + share * w
        cache[key] = acc
        return acc

    marginals = walk(tuple(range(n)), tuple(range(m)))
    out = [[Fraction(0)] * m for _ in range(n)]
    for (i, j), w in marginals.items():
        out[i][j] = w
    return out


def rsd_run(inst: Instance, mode: str = "exact", samples: int = 1000,
            seed: int = 0) -> FractionalAssignment:
    """RSD marginals, exact (all n! orders) or sampled (``samples`` >= 1
    seeded orders), of a unit-supply market.

    Within a draw, each agent in turn takes her highest-value available
    item, ties broken by smallest item index.
    """
    n, m = inst.n_agents, inst.n_items
    if n > m:
        raise DimensionMismatch("more agents than items")
    if not inst.has_unit_supplies:
        raise DimensionMismatch("needs unit supplies")
    if mode == "exact":
        exact = rsd_exact_matrix(inst)
        probs = np.array([[float(x) for x in row] for row in exact])
    elif mode == "sampled":
        if samples < 1:
            raise DimensionMismatch("samples must be at least 1")
        rng = rng_from_seed(seed)
        probs = np.zeros((n, m))
        values = np.asarray(inst.values)
        for _ in range(samples):
            order = rng.permutation(n)
            items = list(range(m))
            for i in order:
                j = _favorite(values[i], tuple(items))
                probs[i, j] += 1.0
                items.remove(j)
        probs /= samples
    else:
        raise DimensionMismatch(f"unknown mode {mode!r}")
    return FractionalAssignment.from_probs(probs, tolerance=1e-9)


# ---------------------------------------------------------------------------
# Probabilistic serial
# ---------------------------------------------------------------------------

def ps_exact_matrix(inst: Instance) -> list[list[Fraction]]:
    """Simultaneous-eating marginals with exact event times.

    Every agent eats her top-ranked available item at unit speed; when an
    item runs out its eaters move on.  Rankings come from values with ties
    broken by smallest item index; event times are exact rationals.
    """
    n, m = inst.n_agents, inst.n_items
    if n > m:
        raise DimensionMismatch("more agents than items")
    values = np.asarray(inst.values)
    ranking = [sorted(range(m), key=lambda j: (-values[i, j], j))
               for i in range(n)]
    remaining = [Fraction(1) for _ in range(m)]
    eaten = [[Fraction(0)] * m for _ in range(n)]
    appetite = [Fraction(1) for _ in range(n)]
    pointer = [0] * n

    def current(i: int) -> int:
        while pointer[i] < m and remaining[ranking[i][pointer[i]]] == 0:
            pointer[i] += 1
        return ranking[i][pointer[i]] if pointer[i] < m else -1

    while True:
        eaters: dict[int, list[int]] = {}
        for i in range(n):
            if appetite[i] > 0:
                j = current(i)
                if j >= 0:
                    eaters.setdefault(j, []).append(i)
        if not eaters:
            break
        step = None
        for j, group in eaters.items():
            t_exhaust = remaining[j] / len(group)
            if step is None or t_exhaust < step:
                step = t_exhaust
        step = min(step, min(appetite[i] for g in eaters.values() for i in g))
        for j, group in eaters.items():
            for i in group:
                eaten[i][j] += step
                appetite[i] -= step
            remaining[j] -= step * len(group)
        if all(a == 0 for a in appetite):
            break
    return eaten


def ps_run(inst: Instance) -> FractionalAssignment:
    """Probabilistic serial marginals of a unit-supply market (exact
    internally, floats out)."""
    if not inst.has_unit_supplies:
        raise DimensionMismatch("needs unit supplies")
    eaten = ps_exact_matrix(inst)
    probs = np.array([[float(x) for x in row] for row in eaten])
    return FractionalAssignment.from_probs(probs, tolerance=1e-9)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _pa_adapter(inst: Instance, seed: int, **opts) -> FractionalAssignment:
    return pa_run(inst, tol=opts.get("tol", DEFAULT_KKT_TOL)).assignment


def _rpi_adapter(inst: Instance, seed: int, **opts) -> FractionalAssignment:
    return rpi_run(inst, n0=opts.get("n0", 4), seed=seed,
                   tol=opts.get("tol", DEFAULT_KKT_TOL),
                   _pa_memo=opts.get("pa_memo"))


def _rsd_adapter(inst: Instance, seed: int, **opts) -> FractionalAssignment:
    mode = opts.get("mode")
    if mode is None:
        mode = "exact" if inst.n_agents <= RSD_EXACT_LIMIT else "sampled"
    return rsd_run(inst, mode=mode, samples=opts.get("samples", 1000),
                   seed=seed)


def _ps_adapter(inst: Instance, seed: int, **opts) -> FractionalAssignment:
    return ps_run(inst)


MECHANISMS: dict[str, Callable[..., FractionalAssignment]] = {
    "pa": _pa_adapter,
    "rpi": _rpi_adapter,
    "rsd": _rsd_adapter,
    "ps": _ps_adapter,
}


def run_mechanism(name: str, inst: Instance, seed: int = 0,
                  **opts) -> FractionalAssignment:
    if name not in MECHANISMS:
        raise DimensionMismatch(
            f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}")
    return MECHANISMS[name](inst, seed, **opts)
