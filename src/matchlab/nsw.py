"""Nash-social-welfare maximization over the capacitated matching polytope.

Solves

    max  sum_i log(sum_j v_ij p_ij - o_i)
    s.t. sum_j p_ij <= b_i          (per-agent budget, in (0, 1])
         sum_i p_ij <= c_j          (per-item supply, in [0, 1])
         p_ij >= 0

for the active agents, where ``o_i`` is an optional disagreement offset.
The objective is strictly concave in the agent utilities, so the utilities
of an optimum are unique even when the assignment is not.

The contract is the certificate, not the algorithm: every solution carries
item prices ``t_j >= 0`` and agent prices ``q_i >= 0`` with

  * complementary slackness: ``t_j > 0`` only on fully allocated items and
    ``q_i > 0`` only on fully spent budgets,
  * price feasibility: ``v_ij / s_i <= t_j + q_i`` everywhere, with
    equality wherever ``p_ij > 0``,

and the maximal violation of these conditions (the KKT residual) is
reported honestly.  Internally the solver follows a primal log-barrier
path to identify the optimal support: damped Newton steps, solved with the
explicit Hessian below 150 (agent, item) pairs and by block elimination
from there on, where a step whose componentwise backward error exceeds
1e-13 ends the path instead.  Problems of one shape (a mechanism's
leave-one-out or subset solves, through :func:`solve_many`) follow the
first rung of that path in lockstep, K Hessians solved at once.  It then
polishes primal variables and prices together on that support by Newton on
the square stationarity system, with an active-set repair loop, over a
short ladder of final barrier weights and support thresholds, until a
candidate's certificate is well within tolerance.

Agents whose maximum achievable surplus is zero (for instance constant
value rows under an average-value offset) cannot appear in the log
objective; they are detected up front, excluded, and afterwards assigned a
deterministic pro-rata share of each item's residual supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs
from scipy.optimize import linear_sum_assignment, linprog

from .core import (
    DegenerateNormalization,
    DimensionMismatch,
    FractionalAssignment,
    Infeasible,
    Instance,
    MatchingError,
    NoConvergence,
    NotOptimal,
    utilities as core_utilities,
)

__all__ = [
    "NswProblem",
    "NswSolution",
    "Duals",
    "DEFAULT_KKT_TOL",
    "ITERATION_CAP",
    "solve",
    "solve_many",
    "kkt_check",
    "recover_duals",
    "renormalize",
]

DEFAULT_KKT_TOL = 1e-7
ITERATION_CAP = 200_000

_SUPPLY_EPS = 1e-12
# Pairs above this mass count as support when a candidate is ranked.
_SUPPORT_TOL = 1e-9

# Barrier Newton steps.  From this many (agent, item) pairs on, the step is
# solved by block elimination; below it the explicit Hessian is faster.
_STRUCTURED_MIN_PAIRS = 150
# A structured step is kept only when its componentwise backward error is
# this small after at most this many refinement passes.
_STEP_BACKWARD_TOL = 1e-13
_REFINE_PASSES = 2
# One lockstep barrier call holds at most this many bytes of dense Hessians
# (8 (na mk)^2 per problem); a larger group of one shape is split.
_LOCKSTEP_BYTES = 2 ** 22
# Barrier rungs: each final mu with the support thresholds its polish tries.
_RUNGS = ((1e-8, (3e-5, 1e-6)), (1e-10, (1e-6, 1e-4)), (1e-12, (1e-7, 3e-5)))


@dataclass(frozen=True)
class Duals:
    """Item prices ``t`` (length n_items) and agent prices ``q`` (length n_agents)."""

    t: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class NswProblem:
    """A welfare-maximization problem over a subset of an instance's agents."""

    instance: Instance
    active_agents: tuple[int, ...]
    offsets: np.ndarray       # per active agent
    row_budget: np.ndarray    # per active agent, each in (0, 1]

    @classmethod
    def create(cls, instance: Instance,
               active_agents: Sequence[int] | None = None,
               offsets: Sequence[float] | np.ndarray | None = None,
               row_budget: float | Sequence[float] | np.ndarray = 1.0) -> "NswProblem":
        if active_agents is None:
            active = tuple(range(instance.n_agents))
        else:
            active = tuple(int(i) for i in active_agents)
        if len(active) == 0:
            raise DimensionMismatch("active_agents must be non-empty")
        if len(set(active)) != len(active):
            raise DimensionMismatch("active_agents contains duplicates")
        if min(active) < 0 or max(active) >= instance.n_agents:
            raise DimensionMismatch("active agent index out of range")

        na = len(active)
        if offsets is None:
            off = np.zeros(na)
        else:
            off = np.asarray(offsets, dtype=float)
            if off.shape != (na,):
                raise DimensionMismatch(
                    f"offsets has shape {off.shape}, expected ({na},)")
            if not np.all(np.isfinite(off)) or np.any(off < 0):
                raise DimensionMismatch("offsets must be finite and >= 0")
        budget = np.broadcast_to(
            np.asarray(row_budget, dtype=float), (na,)).copy()
        if not np.all((budget > 0) & (budget <= 1 + 1e-12)):     # NaN fails both
            raise DimensionMismatch("row budgets must lie in (0, 1]")
        return cls(instance=instance, active_agents=active,
                   offsets=off, row_budget=np.minimum(budget, 1.0))


@dataclass
class NswSolution:
    """An optimum of the welfare program plus its price certificate.

    Arrays are indexed by the *full* agent range of the instance; inactive
    rows are zero.  ``degenerate_agents`` lists active agents with zero
    achievable surplus; they are excluded from ``objective`` and from the
    certificate check, and their rows hold the deterministic residual fill.
    """

    problem: NswProblem
    assignment: FractionalAssignment
    utilities: np.ndarray
    surplus: np.ndarray
    objective: float
    duals: Duals
    kkt_residual: float
    degenerate_agents: frozenset[int]
    metadata: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Certificate checking and renormalization
# ---------------------------------------------------------------------------

def renormalize(inst: Instance, assignment: FractionalAssignment,
                offsets: np.ndarray | None = None,
                skip_agents: Iterable[int] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Scale each agent's values so her surplus under ``assignment`` is 1.

    Returns ``(scaled_values, factors)`` where ``scaled_values[i] =
    values[i] / s_i`` and ``factors[i] = 1 / s_i``.  Skipped rows are left
    unscaled with factor 1.  Raises :class:`DegenerateNormalization` when a
    non-skipped agent has surplus <= 0.
    """
    skip = set(int(i) for i in skip_agents)
    u = core_utilities(inst, assignment)
    o = np.zeros(inst.n_agents) if offsets is None else np.asarray(offsets, dtype=float)
    if o.shape != (inst.n_agents,):
        raise DimensionMismatch("offsets must have one entry per agent")
    s = u - o
    scale = max(1.0, float(np.max(inst.values))) if inst.values.size else 1.0
    vhat = np.array(inst.values, dtype=float)
    factors = np.ones(inst.n_agents)
    for i in range(inst.n_agents):
        if i in skip:
            continue
        if s[i] <= scale * 1e-15:
            raise DegenerateNormalization(
                f"agent {i} has surplus {s[i]:.3e}; cannot renormalize")
        vhat[i] /= s[i]
        factors[i] = 1.0 / s[i]
    return vhat, factors


def kkt_check(inst: Instance, assignment: FractionalAssignment,
              duals: Duals, offsets: np.ndarray | None = None,
              skip_agents: Iterable[int] = (),
              support_tol: float | None = None) -> float:
    """Maximal violation of the optimality conditions for ``assignment``.

    Checks, on values renormalized so every checked agent's surplus is 1:

      (a) non-negativity of the prices ``t`` and ``q``;
      (b) complementary slackness ``|t_j (c_j - col_sum_j)|`` and
          ``|q_i (b_i - row_sum_i)|``;
      (c) price feasibility ``max(0, vhat_ij - t_j - q_i)`` for all pairs,
          plus ``|vhat_ij - t_j - q_i|`` wherever ``p_ij`` exceeds the
          support tolerance.

    The returned residual is never clamped.  Agents in ``skip_agents``
    (inactive or degenerate rows) are excluded from (c) and from the row
    part of (b); their consumption still counts toward column sums.
    """
    skip = set(int(i) for i in skip_agents)
    p = assignment.probs
    if p.shape != (inst.n_agents, inst.n_items):
        raise DimensionMismatch("assignment shape does not match instance")
    t = np.asarray(duals.t, dtype=float)
    q = np.asarray(duals.q, dtype=float)
    if t.shape != (inst.n_items,) or q.shape != (inst.n_agents,):
        raise DimensionMismatch("dual vector lengths do not match instance")
    if support_tol is None:
        support_tol = max(assignment.tolerance, 1e-9)

    vhat, _ = renormalize(inst, assignment, offsets, skip_agents=skip)
    checked = np.array([i not in skip for i in range(inst.n_agents)], dtype=bool)
    row_slack = assignment.row_budget - p.sum(axis=1)
    col_slack = np.asarray(inst.supplies) - p.sum(axis=0)
    residual = _certificate_residual(vhat[checked], p[checked], t, q[checked],
                                     row_slack[checked], col_slack, support_tol)
    return max(residual, float(np.max(-q, initial=0.0)))   # skipped rows too


def _certificate_residual(vhat, p, t, q, row_slack, col_slack, support_tol):
    """Largest violation of conditions (a)-(c) of :func:`kkt_check`.

    Row-indexed arguments hold only the checked rows, and ``vhat`` is
    already renormalized; ``col_slack`` counts every row's consumption.
    """
    gap = vhat - t[None, :] - q[:, None]
    return max(0.0, float(np.max(-t, initial=0.0)), float(np.max(-q, initial=0.0)),
               float(np.max(np.abs(t * col_slack), initial=0.0)),
               float(np.max(np.abs(q * row_slack), initial=0.0)),
               float(np.max(gap, initial=0.0)),
               float(np.max(np.abs(gap[p > support_tol]), initial=0.0)))


def _quick_residual(V, b, c, o, p, t, q):
    """Certificate residual of a candidate on the reduced (live rows, kept
    cols) problem, plus its primal infeasibility, so that an infeasible
    candidate never wins."""
    s = _surplus(V, p, o)
    if np.any(s <= 0):
        return math.inf
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    return max(_certificate_residual(V / s[:, None], p, t, q, b - rows, c - cols,
                                     _SUPPORT_TOL),
               float(np.max(-p, initial=0.0)), float(np.max(rows - b, initial=0.0)),
               float(np.max(cols - c, initial=0.0)))


def recover_duals(inst: Instance, assignment: FractionalAssignment,
                  offsets: np.ndarray | None = None,
                  tol: float = DEFAULT_KKT_TOL,
                  skip_agents: Iterable[int] = ()) -> Duals:
    """Find prices certifying ``assignment`` as an optimum, or fail.

    Solves the linear feasibility system {vhat_ij = t_j + q_i on the
    support, vhat_ij <= t_j + q_i off it, t >= 0, q >= 0, complementary
    slackness}.  Raises :class:`NotOptimal` with the worst-violating
    (agent, item) pair when no prices exist within ``tol``.
    """
    skip = set(int(i) for i in skip_agents)
    n, m = inst.n_agents, inst.n_items
    p = assignment.probs
    vhat, _ = renormalize(inst, assignment, offsets, skip_agents=skip)
    checked = [i for i in range(n) if i not in skip]

    support_tol = max(assignment.tolerance, 1e-9)
    slack_tol = max(tol, 1e-9)
    tight_rows = [i for i in checked
                  if assignment.row_budget[i] - p[i].sum() <= slack_tol]
    tight_cols = [j for j in range(m)
                  if inst.supplies[j] - p[:, j].sum() <= slack_tol]
    pairs = np.column_stack([np.repeat(np.array(checked, dtype=int), m),
                             np.tile(np.arange(m), len(checked))])
    pi, pj = pairs.T
    on_support = p[pi, pj] > support_tol

    duals = _duals_from_support(vhat, n, m, pairs[on_support], tight_rows, tight_cols)
    if kkt_check(inst, assignment, duals, offsets, skip_agents=skip) <= tol:
        return duals

    duals = _duals_by_lp(vhat, n, m, pairs, on_support, tight_rows, tight_cols)
    if duals is not None:
        resid = kkt_check(inst, assignment, duals, offsets, skip_agents=skip)
        if resid <= tol:
            return duals

    # No certificate: report the worst support/feasibility violation, the
    # first pair in row-major order, and (0, 0) when no pair violates.
    best = duals if duals is not None else Duals(np.zeros(m), np.zeros(n))
    gap = vhat[pi, pj] - best.t[pj] - best.q[pi]
    viol = np.where(on_support, np.abs(gap), np.maximum(0.0, gap))
    worst = float(np.max(viol, initial=0.0))
    worst_pair = tuple(pairs[np.argmax(viol)].tolist()) if worst > 0 else (0, 0)
    raise NotOptimal(worst_pair, worst)


def _shift_components(vhat, t, q, support, tight_rows, tight_cols):
    """Normalize the per-component shift freedom of a support price system.

    On each connected component of the support graph whose nodes are all
    unknown prices, (t + d, q - d) solves the same equalities; pick d to
    clear sign violations and off-support feasibility where possible.
    Components touched by an equation with a pinned (zero) side are frozen.
    Mutates ``t`` and ``q`` in place.
    """
    R = set(tight_rows)
    C = set(tight_cols)
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(node):
        while parent.get(node, node) != node:
            node = parent[node]
        return node

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in R:
        parent.setdefault(("r", i), ("r", i))
    for j in C:
        parent.setdefault(("c", j), ("c", j))
    frozen = set()
    for (i, j) in support:
        if i in R and j in C:
            union(("r", i), ("c", j))
        elif i in R:
            frozen.add(find(("r", i)))       # equation pins q_i = vhat_ij
        elif j in C:
            frozen.add(find(("c", j)))
    frozen = {find(node) for node in frozen}

    groups: dict[tuple[str, int], list] = {}
    for node in list(parent):
        groups.setdefault(find(node), []).append(node)

    n, m = q.shape[0], t.shape[0]
    off = np.ones((n, m), dtype=bool)
    for (i, j) in support:
        off[i, j] = False
    for root, members in groups.items():
        if find(root) in frozen:
            continue
        rows = np.zeros(n, dtype=bool)
        cols = np.zeros(m, dtype=bool)
        rows[[idx for kind, idx in members if kind == "r"]] = True
        cols[[idx for kind, idx in members if kind == "c"]] = True
        # Off-support feasibility vhat <= t + q with one endpoint inside.
        gap = vhat - t[None, :] - q[:, None]
        lo = max(float(np.max(-t[cols], initial=-math.inf)),     # t_j + d >= 0
                 float(np.max(gap[off & ~rows[:, None] & cols[None, :]],
                              initial=-math.inf)))                # d >= vhat - t - q
        hi = min(float(np.min(q[rows], initial=math.inf)),       # q_i - d >= 0
                 -float(np.max(gap[off & rows[:, None] & ~cols[None, :]],
                               initial=-math.inf)))               # d <= t + q - vhat
        if lo > hi:
            continue
        d = min(max(0.0, lo), hi)
        if d != 0.0:
            t[cols] += d
            q[rows] -= d


def _pair_incidence(n, m, pairs):
    """The (n + m) x len(pairs) incidence of (agent, item) pairs: column k
    holds a 1 in agent row i and in item row n + j for pairs[k] = (i, j)."""
    i, j = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    k = np.arange(i.size)
    return sparse.coo_matrix((np.ones(2 * i.size), (np.r_[i, n + j], np.r_[k, k])),
                             shape=(n + m, i.size))


def _price_system(n, m, pairs, tight_rows, tight_cols):
    """One row per pair over the unknown prices: t on ``tight_cols``, then
    q on ``tight_rows``."""
    unknown = np.r_[n + np.asarray(tight_cols, dtype=int), np.asarray(tight_rows, dtype=int)]
    return _pair_incidence(n, m, pairs).tocsr()[unknown].T


def _duals_from_support(vhat, n, m, support, tight_rows, tight_cols):
    """Least-squares prices from the support equalities, plus per-component
    shifts to repair sign constraints."""
    sol, *_ = np.linalg.lstsq(_price_system(n, m, support, tight_rows, tight_cols).toarray(),
                              vhat[support[:, 0], support[:, 1]], rcond=None)
    t = np.zeros(m)
    q = np.zeros(n)
    t[tight_cols] = sol[:len(tight_cols)]
    q[tight_rows] = sol[len(tight_cols):]
    _shift_components(vhat, t, q, support.tolist(), tight_rows, tight_cols)
    return Duals(t, q)


def _duals_by_lp(vhat, n, m, pairs, on_support, tight_rows, tight_cols):
    """Feasibility LP for the price system; minimizes the total violation
    eps.  Each pair gives the row vhat - t - q - eps <= 0, followed on the
    support by t + q - vhat - eps <= 0."""
    if not len(pairs):
        return Duals(np.zeros(m), np.zeros(n))
    k = np.arange(len(pairs))
    at = k + np.cumsum(on_support) - on_support        # each pair's first row
    nrows = len(pairs) + int(on_support.sum())
    sign = sparse.csr_matrix(               # row r is -1 or +1 times one pair
        (np.r_[-np.ones(k.size), np.ones(nrows - k.size)],
         (np.r_[at, at[on_support] + 1], np.r_[k, k[on_support]])), shape=(nrows, k.size))
    system = sign @ _price_system(n, m, pairs, tight_rows, tight_cols)
    nvar = system.shape[1]
    c = np.zeros(nvar + 1)
    c[nvar] = 1.0
    res = linprog(c, A_ub=sparse.hstack([system, -np.ones((nrows, 1))]),
                  b_ub=sign.data * vhat[pairs[:, 0], pairs[:, 1]][sign.indices],
                  bounds=[(0, None)] * (nvar + 1), method="highs")
    if not res.success:
        return None
    t = np.zeros(m)
    q = np.zeros(n)
    t[tight_cols] = res.x[:len(tight_cols)]
    q[tight_rows] = res.x[len(tight_cols):nvar]
    return Duals(t, q)


# ---------------------------------------------------------------------------
# Degeneracy screening
# ---------------------------------------------------------------------------

def _solo_max_utility(v_row: np.ndarray, budget: float, c: np.ndarray) -> float:
    """Best utility an agent could get with the whole supply to herself."""
    order = np.argsort(-v_row, kind="stable")
    left, total = budget, 0.0
    for j in order:
        if v_row[j] <= 0 or left <= 0:
            break
        take = min(left, c[j])
        total += take * v_row[j]
        left -= take
    return total


def _screen_degenerate(V, b, c, o, deg_tol, hint):
    """Split rows into (non-degenerate, degenerate) and find a base point.

    Returns ``(live, degenerate, base, warm)``: ``base`` is a feasible point
    with positive surplus on every live row (None when no row is live), and
    ``warm`` says it is the clipped ``hint``.  Raises Infeasible when no
    point gives every row non-negative surplus.
    """
    na, mk = V.shape
    degenerate: set[int] = set()
    for i in range(na):
        solo = _solo_max_utility(V[i], b[i], c) - o[i]
        if solo < -deg_tol:
            raise Infeasible(
                f"agent row {i} cannot reach non-negative surplus "
                f"(deficit {solo:.3e})")
        if solo <= deg_tol:
            degenerate.add(i)

    live = [i for i in range(na) if i not in degenerate]
    if not live:
        return [], degenerate, None, False

    # A strictly positive point certifies that no live agent is
    # degenerate; only borderline problems need the LP screen.
    Vl, bl, ol = V[live], b[live], o[live]
    if hint is not None:
        h = np.minimum(np.maximum(hint[live], 0.0), c)
        if (np.min(_surplus(Vl, h, ol)) > 10 * deg_tol
                and np.all(h.sum(axis=1) <= bl + 1e-9)
                and np.all(h.sum(axis=0) <= c + 1e-9)):
            return live, degenerate, h, True

    if np.all(ol <= deg_tol):
        # Zero offsets: every live row values some item positively.
        match = _capped_assignment(Vl, bl, c)
        if match is not None and np.min(_surplus(Vl, match, ol)) > 0:
            return live, degenerate, match, False
        return live, degenerate, _proportional_point(bl, c), False

    p_h = _heuristic_positive_point(Vl, bl, c, ol, deg_tol)
    if p_h is not None:
        return live, degenerate, p_h, False

    while True:
        x, delta = _max_min_surplus_lp(V[live], b[live], c, o[live])
        if delta < -deg_tol:
            raise Infeasible(
                "no feasible point gives every active agent non-negative "
                f"surplus (max-min surplus {delta:.3e})")
        if delta > deg_tol:
            return live, degenerate, x, False
        # Borderline: find which rows are stuck at zero surplus.
        newly = []
        keep_points = []
        for k, i in enumerate(live):
            xi, best = _max_one_surplus_lp(V[live], b[live], c, o[live], k)
            if best <= deg_tol:
                newly.append(i)
            else:
                keep_points.append(xi)
        if not newly:
            # Each alone can be positive; their average is positive for all.
            return live, degenerate, np.mean(keep_points, axis=0), False
        degenerate.update(newly)
        live = [i for i in live if i not in degenerate]
        if not live:
            return [], degenerate, None, False


def _surplus(V, p, o):
    return np.einsum("ij,ij->i", V, p) - o


def _capped_assignment(V, b, c):
    """Each agent takes her best affordable item, capped by budget and
    supply; None when agents outnumber items."""
    na, mk = V.shape
    if na > mk:
        return None
    ri, cj = linear_sum_assignment(V * np.minimum(b[:, None], c[None, :]),
                                   maximize=True)
    match = np.zeros((na, mk))
    match[ri, cj] = np.minimum(b[ri], c[cj])
    return match


def _heuristic_positive_point(V, b, c, o, deg_tol):
    """Capacity-capped assignment blended toward the proportional point.

    Returns a feasible point with every surplus comfortably positive, or
    None when none of the blends qualifies."""
    match = _capped_assignment(V, b, c)
    if match is None:
        return None
    prop = _proportional_point(b, c)
    scale = max(1.0, float(np.max(V)) if V.size else 1.0)
    floor = max(1e-6 * scale, 10 * deg_tol)
    for lam in (0.3, 0.1, 0.03, 0.01):
        p0 = (1 - lam) * match + lam * prop
        if np.all(_surplus(V, p0, o) > floor):
            return p0
    return None


def _surplus_lp(V, b, c, o, cost, delta):
    """``linprog`` over the pairs in row-major order, plus a last free
    variable when ``delta`` is 1: the transport rows are the pair incidence,
    and the surplus rows -V_i . x_i (+ delta) <= -o_i its agent rows scaled
    by -V."""
    na, mk = V.shape
    nvar = na * mk
    inc = _pair_incidence(na, mk, np.argwhere(np.ones((na, mk), dtype=bool)))
    agent = inc.row < na
    A = sparse.coo_matrix(
        (np.r_[inc.data, -V.ravel()[inc.col[agent]], np.ones(na * delta)],
         (np.r_[inc.row, na + mk + inc.row[agent], na + mk + np.arange(na * delta)],
          np.r_[inc.col, inc.col[agent], np.full(na * delta, nvar)])),
        shape=(2 * na + mk, nvar + delta))
    A.eliminate_zeros()                 # as from a dense matrix: no zero values
    return linprog(cost, A_ub=A, b_ub=np.concatenate([b, c, -o]),
                   bounds=[(0, None)] * nvar + [(None, None)] * delta, method="highs")


def _max_min_surplus_lp(V, b, c, o):
    """maximize delta s.t. surplus_i >= delta for all i, feasibility."""
    na, mk = V.shape
    cost = np.zeros(na * mk + 1)
    cost[-1] = -1.0
    res = _surplus_lp(V, b, c, o, cost, 1)
    if not res.success:
        raise Infeasible("surplus feasibility program failed")
    return res.x[:-1].reshape(na, mk), float(res.x[-1])


def _max_one_surplus_lp(V, b, c, o, k):
    """maximize surplus_k s.t. surplus_i >= 0 for all i, feasibility."""
    na, mk = V.shape
    cost = np.zeros((na, mk))
    cost[k] = -V[k]
    res = _surplus_lp(V, b, c, o, cost.ravel(), 0)
    if not res.success:
        raise Infeasible("per-agent surplus program is infeasible")
    x = res.x.reshape(na, mk)
    return x, float(V[k] @ x[k] - o[k])


# ---------------------------------------------------------------------------
# Barrier stage
# ---------------------------------------------------------------------------

def _proportional_point(b, c):
    total = max(b.sum(), c.sum(), 1e-300)
    return 0.5 * np.outer(b, c) / total


def _interior_start(V, b, c, o, base):
    """A strictly interior point with positive surplus for every row.

    Blends the positive-surplus ``base`` toward the strictly interior
    proportional point; the blend weight is chosen so the minimum surplus
    stays at least half the base point's minimum, never at float noise.
    Returns None when the blend is not strictly interior.
    """
    prop = _proportional_point(b, c)
    neg = max(0.0, -float(np.min(_surplus(V, prop, o))))
    m = float(np.min(_surplus(V, base, o)))
    lam = 0.45 if neg == 0.0 else min(0.45, m / (2.0 * (m + neg)))
    lam = max(lam, 1e-7)
    p0 = (1 - lam) * base + lam * prop
    if (np.min(_surplus(V, p0, o)) >= 0.25 * (1 - lam) * m and np.all(p0 > 0)
            and np.all(p0.sum(axis=1) < b - 1e-15)
            and np.all(p0.sum(axis=0) < c - 1e-15)):
        return p0
    return None


def _dense_hessians(V, p, s, r, d, mu):
    """The barrier's negative Hessians of K problems, explicitly.

    Arguments carry a leading batch axis (``p`` is (K, na, mk)); returns
    the (K, na*mk, na*mk) matrices H = diag(mu/p^2) + W W^T of
    :func:`_structured_step`, filled without a loop over items.
    """
    K, na, mk = p.shape
    ia, jm = np.arange(na), np.arange(mk)
    dg = np.arange(na * mk)
    H = np.zeros((K, na, mk, na, mk))
    # Agent blocks V_ij V_il / s_i^2 + mu / r_i^2 (the index arrays move
    # the agent axis to the front).
    H[:, ia, :, ia, :] = (V[:, :, :, None] * V[:, :, None, :]
                          / (s ** 2)[:, :, None, None]
                          + (mu / r ** 2)[:, :, None, None]).transpose(1, 0, 2, 3)
    Hf = H.reshape(K, na * mk, na * mk)
    Hf[:, dg, dg] += (mu / p ** 2).reshape(K, na * mk)
    H[:, :, jm, :, jm] += (mu / d ** 2).T[:, :, None, None]   # item coupling
    return Hf


def _dense_steps(V, p, s, r, d, mu, g):
    """Solve H x = g for every problem of the batch with one stacked solve."""
    K, na, mk = p.shape
    H = _dense_hessians(V, p, s, r, d, mu)
    rhs = g.reshape(K, na * mk, 1)
    try:
        x = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        # A numerically singular H: regularize each matrix as the solve of
        # a lone problem would.
        x = np.empty_like(rhs)
        for k in range(K):
            try:
                x[k] = np.linalg.solve(H[k], rhs[k])
            except np.linalg.LinAlgError:
                H[k][np.diag_indices(na * mk)] += 1e-12 * np.max(np.abs(H[k]))
                x[k] = np.linalg.solve(H[k], rhs[k])
    return x.reshape(p.shape)


def _structured_step(V, p, s, r, d, mu, g):
    """Solve H x = g by block elimination, or return None.

    The barrier's negative Hessian is H = diag(mu/p^2) + W W^T, where row
    (i, j) of W has three nonzeros: V_ij/s_i in agent i's value column,
    sqrt(mu)/r_i in agent i's budget column and sqrt(mu)/d_j in item j's
    column (2 na + mk columns in all).  Pairs with p_ij > sqrt(mu) form the
    set B; the rest, S, have diag(mu/p^2) >= 1 dominating their rows.  S is
    eliminated by the matrix inversion lemma through the capacitance
    C = I + W_S^T D_S^-1 W_S, and the |B| x |B| Schur complement
    D_B + W_B C^-1 W_B^T is solved densely.  (Plain Woodbury over all
    pairs cancels catastrophically late on the path, where each agent's
    support holds one or two items.)  Refinement passes against the exact
    O(na*mk) product H x follow, a second one only when the first falls
    short.  The step is returned only when g^T x > 0 and its componentwise
    (Oettli-Prager) backward error max |g - H x| / (H |x| + |g|) is at most
    _STEP_BACKWARD_TOL; H is entrywise non-negative, so |H| |x| is
    h_times(|x|).  Late on the path H holds entries near mu / p^2, and a
    normwise bound on g - H x would decline backward-stable steps.
    """
    na, mk = p.shape
    root = math.sqrt(mu)
    u = V / s[:, None]
    beta = root / r
    gamma = root / d
    big = p > root
    e = np.where(big, 0.0, p * p / mu)            # D_S^-1, zero on B

    def wt(x):                                    # W^T x
        return np.concatenate([(u * x).sum(axis=1), beta * x.sum(axis=1),
                               gamma * x.sum(axis=0)])

    def wz(z):                                    # W z
        return (u * z[:na, None] + (beta * z[na:2 * na])[:, None]
                + (gamma * z[2 * na:])[None, :])

    # Capacitance C = I + W_S^T D_S^-1 W_S; agents couple only via items.
    eu = e * u
    a_item = eu * gamma
    b_item = beta[:, None] * e * gamma
    cap = np.zeros((2 * na + mk, 2 * na + mk))
    ia, ib = np.arange(na), np.arange(na, 2 * na)
    ic = np.arange(2 * na, 2 * na + mk)
    cap[ia, ia] = (eu * u).sum(axis=1)
    cap[ia, ib] = cap[ib, ia] = beta * eu.sum(axis=1)
    cap[ib, ib] = beta ** 2 * e.sum(axis=1)
    cap[ic, ic] = gamma ** 2 * e.sum(axis=0)
    cap[:na, 2 * na:] = a_item
    cap[2 * na:, :na] = a_item.T
    cap[na:2 * na, 2 * na:] = b_item
    cap[2 * na:, na:2 * na] = b_item.T
    cap[np.diag_indices_from(cap)] += 1.0

    chol, info = dpotrf(cap)
    if info:
        return None
    bi, bj = np.nonzero(big)
    nb = bi.size
    if nb:
        w_b = np.zeros((nb, 2 * na + mk))
        rows = np.arange(nb)
        w_b[rows, bi] = u[bi, bj]
        w_b[rows, na + bi] = beta[bi]
        w_b[rows, 2 * na + bj] = gamma[bj]
        schur = w_b @ dpotrs(chol, w_b.T)[0]
        schur[rows, rows] += mu / p[bi, bj] ** 2
        lu, piv, info = dgetrf(schur)
        if info:
            return None

    def solve_h(rhs):
        x_b = np.zeros_like(rhs)
        y = rhs
        if nb:
            w = dpotrs(chol, wt(e * rhs))[0]
            x_b[bi, bj] = dgetrs(lu, piv, rhs[bi, bj] - w_b @ w)[0]
            y = rhs - wz(wt(x_b))
        ey = e * y
        return ey - e * wz(dpotrs(chol, wt(ey))[0]) + x_b

    def h_times(x):
        return mu / p ** 2 * x + wz(wt(x))

    with np.errstate(all="ignore"):    # a non-finite x fails the test below
        x = solve_h(g)
        for _ in range(_REFINE_PASSES):
            x += solve_h(g - h_times(x))
            backward = np.abs(g - h_times(x)) / (h_times(np.abs(x)) + np.abs(g))
            if float(np.max(backward)) <= _STEP_BACKWARD_TOL:
                return x if float(np.vdot(g, x)) > 0 else None
    return None


def _barrier_solve(V, b, c, o, p0, mu_start, mu_end, budget, trace):
    """Follow the log-barrier central path from ``mu_start`` to ``mu_end``.

    Every argument but the scalars carries a leading batch axis: K problems
    of one shape follow the same mu schedule in lockstep, and a problem
    that has finished centering at the current mu is masked (step length
    0) until mu moves on.  Returns (p, t, q, iterations), each with the
    batch axis.  Problems with at least ``_STRUCTURED_MIN_PAIRS`` pairs
    take structured Newton steps, and a declined step ends that problem's
    centering at the current mu, as a step with no feasible length does;
    smaller problems take dense steps, all K in one stacked solve.
    ``trace``, when given, gets one row per Newton step of a lone problem.
    """
    K, na, mk = V.shape
    p = p0.copy()
    iters = np.zeros(K, dtype=int)
    mu = mu_start
    mu_last = np.full(K, mu_start)     # the mu at which each problem stopped
    running = np.ones(K, dtype=bool)
    dense = na * mk < _STRUCTURED_MIN_PAIRS

    def surplus(pt):
        return np.einsum("kij,kij->ki", V, pt) - o

    def phi(pt, mu):
        # -inf or nan outside the domain (a log of a value <= 0), and no
        # comparison accepts either.
        return (np.log(surplus(pt)).sum(axis=1)
                + mu * (np.log(pt).sum(axis=(1, 2)) + np.log(b - pt.sum(axis=2)).sum(axis=1)
                        + np.log(c - pt.sum(axis=1)).sum(axis=1)))

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            centering = running & (iters < budget)
            phi_p = np.full(K, np.nan)     # phi(p, mu) where known
            for _ in range(60):
                centering &= iters < budget
                if not centering.any():
                    break
                s = surplus(p)
                r = b - p.sum(axis=2)
                d = c - p.sum(axis=1)
                g = (V / s[:, :, None] + mu / p - mu / r[:, :, None]
                     - mu / d[:, None, :])

                if dense:
                    dp = _dense_steps(V, p, s, r, d, mu, g)
                else:
                    dp = np.zeros_like(p)
                    declined = False
                    for k in np.flatnonzero(centering):
                        step = _structured_step(V[k], p[k], s[k], r[k], d[k], mu, g[k])
                        if step is None:
                            centering[k], declined = False, True
                        else:
                            dp[k] = step
                    if declined and not centering.any():
                        break
                decrement = (g.reshape(K, 1, -1) @ dp.reshape(K, -1, 1)).reshape(K)
                iters += centering

                # Largest feasible step: the min of -vals / dvals over dvals < 0
                # (vals > 0, and vals / -0.0 = -inf drops the other entries).
                vals = np.concatenate([p.reshape(K, -1), s, r, d], axis=1)
                dvals = np.concatenate([dp.reshape(K, -1), np.einsum("kij,kij->ki", V, dp),
                                        -dp.sum(axis=2), -dp.sum(axis=1)], axis=1)
                ratio = vals / np.minimum(dvals, -0.0)
                alpha = np.minimum(1.0, 0.99 * -ratio.max(axis=1))
                centering &= alpha > 0
                alpha[~centering] = 0.0

                # Armijo backtracking from phi(p), known unless mu just moved
                # or the last search ran out.
                if np.isnan(phi_p[centering]).any():
                    phi_p = phi(p, mu)
                trial = phi_p
                searching = centering & (alpha > 1e-14)
                while searching.any():
                    trial = phi(p + alpha[:, None, None] * dp, mu)
                    searching &= ~(trial >= phi_p + 0.25 * alpha * decrement)
                    if not searching.any():
                        break
                    alpha[searching] *= 0.5
                    searching &= alpha > 1e-14
                p = p + alpha[:, None, None] * dp
                # An accepted search kept its alpha, so the last trial is phi
                # at the new p; a search that ran out left alpha <= 1e-14,
                # and a masked problem (alpha 0) stays masked at this mu.
                phi_p = np.where(alpha > 1e-14, trial, np.nan)
                if trace is not None and centering[0]:
                    trace.append((int(iters[0]), float(np.log(surplus(p)[0]).sum()),
                                  float(decrement[0])))
                loose = 1.0 if mu > mu_end else 0.3
                centering &= ~(decrement < max(loose * mu, 1e-16))
            mu_last[running] = mu
            running &= iters < budget
            if mu <= mu_end or not running.any():
                break
            mu = max(mu * 0.02, mu_end)

    r = b - p.sum(axis=2)
    d = c - p.sum(axis=1)
    return p, mu_last[:, None] / d, mu_last[:, None] / r, iters


# ---------------------------------------------------------------------------
# Active-set polish
# ---------------------------------------------------------------------------

def _polish(V, b, c, o, p_in, support_tol, t0, q0, rounds=40):
    """Newton on the stationarity system of a guessed active set.

    Iteratively repairs the guess (dropping negative variables or prices,
    adding violated constraints or support pairs) and returns the best
    (p, t, q) found, with exact zeros off support.  Prices are warmstarted
    from the barrier duals so underdetermined price components stay near
    the central-path values.  Returns None only when no usable iterate
    exists.
    """
    na, mk = V.shape
    scale = max(1.0, float(np.max(V)) if V.size else 1.0)
    S = set(zip(*(idx.tolist() for idx in np.nonzero(p_in > support_tol))))
    R = set(np.flatnonzero(b - p_in.sum(axis=1) < support_tol).tolist())
    C = set(np.flatnonzero(c - _column_sums(p_in) < support_tol).tolist())
    p = np.where(p_in > support_tol, p_in, 0.0)

    best = None
    for _ in range(rounds):
        out = _polish_newton(V, b, c, o, p, S, R, C, t0, q0)
        if out is None:
            break
        p, t, q = out
        t0, q0 = t, q
        s_cur = np.einsum("ij,ij->i", V, p) - o
        if np.all(s_cur > 0):
            _shift_components(V / s_cur[:, None], t, q, sorted(S), sorted(R),
                              sorted(C))
        cand = (np.maximum(p, 0.0), np.maximum(t, 0.0), np.maximum(q, 0.0))
        resid = _quick_residual(V, b, c, o, *cand)
        if best is None or resid < best[0]:
            best = (resid, cand)
        if resid < 1e-12 * scale:
            break

        changed = False
        # Negative or collapsed support pairs (degenerate complementarity
        # leaves pairs hovering at zero; their equality constraint must go).
        drop_p = [(i, j) for (i, j) in S if p[i, j] < 1e-11]
        if drop_p:
            worst = min(drop_p, key=lambda ij: p[ij])
            S.discard(worst)
            p[worst] = 0.0
            changed = True
        for j in list(C):
            if t[j] < -1e-11:
                C.discard(j)
                changed = True
        for i in list(R):
            if q[i] < -1e-11:
                R.discard(i)
                changed = True
        if not changed:
            rs = p.sum(axis=1)
            cs = p.sum(axis=0)
            for i in range(na):
                if i not in R and rs[i] > b[i] + 1e-11:
                    R.add(i)
                    changed = True
            for j in range(mk):
                if j not in C and cs[j] > c[j] + 1e-11:
                    C.add(j)
                    changed = True
        if not changed:
            for pair in _violated_pairs(V, o, p, t, q, S, R, C, 1e-10 * scale):
                S.add(pair)
                p[pair] = 0.0
                changed = True
        if not changed:
            break
    return None if best is None else best[1]


def _violated_pairs(V, o, p, t, q, S, R, C, threshold):
    """Up to three off-support pairs whose price gap V_ij / s_i - t_j - q_i
    (prices counted on C and R only) exceeds ``threshold``: the largest
    gaps first, ties to the larger pair."""
    mk = V.shape[1]
    s = np.einsum("ij,ij->i", V, p) - o
    gap = (V / s[:, None] - _on(t, C)[None, :]) - _on(q, R)[:, None]
    if S:
        gap[tuple(np.array(sorted(S)).T)] = -math.inf
    gi, gj = np.nonzero(gap > threshold)
    order = np.lexsort((gi * mk + gj, gap[gi, gj]))[::-1][:3]
    return list(zip(gi[order].tolist(), gj[order].tolist()))


def _on(x, index_set):
    """``x`` on ``index_set`` and 0.0 elsewhere."""
    out = np.zeros_like(x)
    keep = list(index_set)
    out[keep] = x[keep]
    return out


def _polish_residual(V, b, c, o, p, t, q, Si, Sj, rows, cols):
    """Residual F of the polish's square system and the surpluses s, or
    (None, s) when a surplus is not positive.

    F stacks the support equalities V_ij / s_i - t_j - q_i (prices counted
    only on the tight ``cols`` and ``rows``), the tight row sums minus
    their budgets and the tight column sums minus their supplies.  The
    support is the pairs (Si[k], Sj[k]) in sorted order.
    """
    s = np.einsum("ij,ij->i", V, p) - o
    if np.any(s <= 0):
        return None, s
    F = np.concatenate([(V[Si, Sj] / s[Si] - _on(t, cols)[Sj]) - _on(q, rows)[Si],
                        p[rows].sum(axis=1) - b[rows],
                        _column_sums(p)[cols] - c[cols]])
    return F, s


def _column_sums(p):
    """Column sums added in the same order as ``p[:, j].sum()``, which
    ``p.sum(axis=0)`` does not keep."""
    return np.ascontiguousarray(p.T).sum(axis=1)


def _polish_jacobian(V, s, Si, Sj, rows, cols):
    """Jacobian of :func:`_polish_residual` in (p on the support, t on
    ``cols``, q on ``rows``)."""
    na, mk = V.shape
    nS, nR, nC = len(Si), len(rows), len(cols)
    r_at = np.full(na, -1)
    r_at[rows] = np.arange(nR)
    c_at = np.full(mk, -1)
    c_at[cols] = np.arange(nC)
    J = np.zeros((nS + nR + nC, nS + nC + nR))
    v = V[Si, Sj]
    # s_i ** 2 by the scalar operator (C pow): the array square x * x
    # differs from it in the last bit for about one x in a thousand, and
    # the polish path can turn on that bit.
    s2 = np.array([x ** 2 for x in s.tolist()])
    same_agent = Si[:, None] == Si[None, :]
    J[:nS, :nS] += np.where(same_agent, -v[:, None] * v[None, :] / s2[Si][:, None], 0.0)
    k = np.arange(nS)
    on_c, on_r = c_at[Sj] >= 0, r_at[Si] >= 0
    J[k[on_c], nS + c_at[Sj[on_c]]] = -1.0
    J[k[on_r], nS + nC + r_at[Si[on_r]]] = -1.0
    J[nS + r_at[Si[on_r]], k[on_r]] = 1.0
    J[nS + nR + c_at[Sj[on_c]], k[on_c]] = 1.0
    return J


def _polish_newton(V, b, c, o, p_in, S, R, C, t0, q0, iters=40):
    na, mk = V.shape
    pairs = np.array(sorted(S), dtype=int).reshape(-1, 2)
    Si, Sj = pairs[:, 0], pairs[:, 1]
    rows = np.array(sorted(R), dtype=int)
    cols = np.array(sorted(C), dtype=int)
    nS, nC = len(Si), len(cols)
    if nS + len(rows) + nC == 0:
        return np.zeros_like(p_in), np.zeros(mk), np.zeros(na)

    p = p_in.copy()
    t = np.zeros(mk)
    q = np.zeros(na)
    t[cols] = np.maximum(t0[cols], 0.0)
    q[rows] = np.maximum(q0[rows], 0.0)

    for _ in range(iters):
        F, s = _polish_residual(V, b, c, o, p, t, q, Si, Sj, rows, cols)
        if F is None:
            return None
        if np.max(np.abs(F)) < 1e-13 * max(1.0, float(np.max(np.abs(V / s[:, None])))):
            return p, t, q
        J = _polish_jacobian(V, s, Si, Sj, rows, cols)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)

        # Damp to keep every surplus positive.
        dp = np.zeros_like(p)
        dp[Si, Sj] = step[:nS]
        ds = np.einsum("ij,ij->i", V, dp)
        alpha = 1.0
        neg = ds < 0
        if np.any(neg):
            alpha = min(alpha, 0.9 * float(np.min(-s[neg] / ds[neg])))
        if alpha <= 0:
            return None
        p = p + alpha * dp
        t[cols] += alpha * step[nS:nS + nC]
        q[rows] += alpha * step[nS + nC:]
    # Not fully converged: hand the best iterate to the repair loop anyway.
    if _polish_residual(V, b, c, o, p, t, q, Si, Sj, rows, cols)[0] is None:
        return None
    return p, t, q


# ---------------------------------------------------------------------------
# Deterministic fills
# ---------------------------------------------------------------------------

def _saturate_rows(V, b, c, p, tol=1e-12):
    """Top up under-filled rows with worthless residual capacity.

    Only pairs with (numerically) zero value are used, so utilities and the
    price certificate are unchanged; at an optimum any residual capacity
    facing an under-filled row is worthless to it.
    """
    scale = max(1.0, float(np.max(V)) if V.size else 1.0)
    spare = c - p.sum(axis=0)
    for i in range(p.shape[0]):
        deficit = b[i] - p[i].sum()
        if deficit <= tol:
            continue
        for j in range(p.shape[1]):
            if deficit <= tol:
                break
            if V[i, j] > 1e-12 * scale or spare[j] <= tol:
                continue
            take = min(deficit, spare[j])
            p[i, j] += take
            spare[j] -= take
            deficit -= take
    return p


def _degenerate_fill(full_p, degenerate, budgets, supplies):
    """Pro-rata share of each item's residual supply for degenerate rows."""
    if not degenerate:
        return full_p
    residual = np.maximum(np.asarray(supplies) - full_p.sum(axis=0), 0.0)
    k = len(degenerate)
    share = residual / k
    for i in sorted(degenerate):
        row = share.copy()
        total = row.sum()
        if total > budgets[i]:
            row *= budgets[i] / total
        full_p[i] = row
    return full_p


# ---------------------------------------------------------------------------
# Main entry point
# ---------------------------------------------------------------------------

@dataclass
class _Start:
    """A problem reduced to its active rows and kept (positive-supply)
    columns, screened, with the interior start of its live rows."""

    V: np.ndarray
    b: np.ndarray
    c: np.ndarray
    o: np.ndarray
    keep: np.ndarray
    live: list[int]
    degenerate: set[int]
    p0: np.ndarray | None      # None when no row is live
    mu0: float                 # the barrier's first mu


def _start(problem: NswProblem, warm_start: np.ndarray | None) -> _Start:
    """The stages before the barrier: degeneracy screen and interior start."""
    inst = problem.instance
    active = list(problem.active_agents)
    V_full = np.asarray(inst.values)
    scale = max(1.0, float(np.max(V_full)) if V_full.size else 1.0)
    deg_tol = 1e-9 * scale

    c_full = np.asarray(inst.supplies, dtype=float)
    keep = np.where(c_full > _SUPPLY_EPS)[0]
    V = V_full[np.ix_(active, keep)]
    c = c_full[keep]
    b = np.asarray(problem.row_budget, dtype=float)
    o = np.asarray(problem.offsets, dtype=float)
    hint = None
    if warm_start is not None and warm_start.shape == (inst.n_agents, inst.n_items):
        hint = np.asarray(warm_start, dtype=float)[np.ix_(active, keep)]

    live, degenerate, base, warm = _screen_degenerate(V, b, c, o, deg_tol, hint)
    p0 = None
    if live:
        p0 = _interior_start(V[live], b[live], c, o[live], base)
        if p0 is None:
            raise Infeasible("no strictly interior point with positive surplus")
    return _Start(V=V, b=b, c=c, o=o, keep=keep, live=live,
                  degenerate=degenerate, p0=p0, mu0=5e-3 if warm else 0.05)


def _first_rungs(starts: list[_Start], max_iter: int, trace=None):
    """The first barrier rung of problems with one live shape and one
    ``mu0``, in lockstep; one (p, t, q, iterations) per problem."""
    V, b, c, o, p0 = (np.stack(x) for x in zip(*[
        (st.V[st.live], st.b[st.live], st.c, st.o[st.live], st.p0) for st in starts]))
    p, t, q, iters = _barrier_solve(V, b, c, o, p0, starts[0].mu0, _RUNGS[0][0],
                                    max_iter, trace)
    return [(p[k], t[k], q[k], int(iters[k])) for k in range(len(starts))]


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise DimensionMismatch("tol must be finite and positive")


def solve_many(problems: Sequence[NswProblem], tol: float = DEFAULT_KKT_TOL,
               max_iter: int = ITERATION_CAP,
               warm_start: np.ndarray | None = None) -> list[NswSolution]:
    """``[solve(problem, tol, max_iter, warm_start) for problem in problems]``, faster.

    Each problem is screened and started on its own; then problems of one
    live shape and one warm flag run their first barrier rung in one
    lockstep call (several when their dense Hessians would pass
    ``_LOCKSTEP_BYTES``), and :func:`solve` finishes each from there.
    Results are those of the sequential loop, which also decides which
    exception is raised: the first failing problem's.
    ``metadata["barrier_batch"]`` counts the problems of each first-rung
    call.
    """
    _check_tol(tol)
    starts: list[_Start | MatchingError] = []
    for problem in problems:
        try:
            starts.append(_start(problem, warm_start))
        except MatchingError as err:     # raised in turn, by solve
            starts.append(err)
    groups: dict[tuple, list[int]] = {}
    for k, st in enumerate(starts):
        if isinstance(st, _Start) and st.p0 is not None:
            groups.setdefault((st.p0.shape, st.mu0), []).append(k)
    prepared = [(st, None, 1) for st in starts]
    for (shape, _), group in groups.items():
        per_call = max(1, _LOCKSTEP_BYTES // (8 * (shape[0] * shape[1]) ** 2))
        for at in range(0, len(group), per_call):
            ks = group[at:at + per_call]
            for k, rung in zip(ks, _first_rungs([starts[k] for k in ks], max_iter)):
                prepared[k] = (starts[k], rung, len(ks))
    # ``solve`` is looked up at call time, so a wrapper around nsw.solve
    # sees every problem finished.
    return [solve(problem, tol=tol, max_iter=max_iter, _prepared=prep)
            for problem, prep in zip(problems, prepared)]


def solve(problem: NswProblem, tol: float = DEFAULT_KKT_TOL,
          max_iter: int = ITERATION_CAP,
          warm_start: np.ndarray | None = None,
          trace: list | None = None, *, _prepared=None) -> NswSolution:
    """Solve the welfare program and certify the result.

    The returned solution satisfies ``kkt_residual <= tol``; by concavity
    plus the certificate its objective is within ``tol`` of optimal.
    ``warm_start`` (a full n_agents-by-n_items matrix, for instance the
    solution of a nearby problem) only speeds up the search.  Raises
    :class:`Infeasible` when an active agent cannot reach non-negative
    surplus, and :class:`NoConvergence` when the certificate tolerance
    cannot be met inside the iteration budget.  ``metadata["polish"]`` is
    the ``(mu_end, tau)`` rung and support threshold of the winning
    candidate, and ``metadata["barrier_batch"]`` the number of problems
    whose first barrier rung ran in one lockstep call (1 here; see
    :func:`solve_many`).
    """
    _check_tol(tol)
    if _prepared is None:               # a lone problem: a batch of one
        start = _start(problem, warm_start)
        first = (None if start.p0 is None
                 else _first_rungs([start], max_iter, trace)[0])
        batch = 1
    else:                               # from solve_many
        start, first, batch = _prepared
        if isinstance(start, MatchingError):
            raise start
    inst = problem.instance
    active = list(problem.active_agents)
    V_full = np.asarray(inst.values)
    V, b, c, o, keep = start.V, start.b, start.c, start.o, start.keep
    live_local = start.live
    degenerate = frozenset(active[i] for i in start.degenerate)
    c_full = np.asarray(inst.supplies, dtype=float)

    na_live = len(live_local)
    p_live = np.zeros((na_live, len(keep)))
    t_kept = np.zeros(len(keep))
    q_live = np.zeros(na_live)
    iters_used = 0
    winner = None

    if na_live > 0:
        Vl, bl, ol = V[live_local], b[live_local], o[live_local]
        best_resid, best = math.inf, None
        mu_reached = start.mu0
        for rung, (mu_end, taus) in enumerate(_RUNGS):
            if iters_used >= max_iter:
                break
            if rung == 0:
                p_bar, t_bar, q_bar, it = first
            else:                       # the few problems that get here go alone
                p_bar, t_bar, q_bar, its = (x[0] for x in _barrier_solve(
                    Vl[None], bl[None], c[None], ol[None], p_path[None],
                    mu_reached, mu_end, max_iter - iters_used, trace))
                it = int(its)
            iters_used += it
            p_path, mu_reached = p_bar, mu_end
            for tau in taus:
                polished = _polish(Vl, bl, c, ol, p_bar, tau, t_bar, q_bar)
                if polished is None:
                    continue
                resid = _quick_residual(Vl, bl, c, ol, *polished)
                if resid < best_resid:
                    best_resid, best, winner = resid, polished, (mu_end, tau)
                if resid <= 0.5 * tol:
                    break
            if best_resid <= 0.5 * tol:
                break
        if best_resid > tol:
            # The best candidate is not certified and may not even be
            # feasible, so it is never assembled or validated.
            raise NoConvergence(iters_used, best_resid)
        p_live, t_kept, q_live = best

    # Assemble the full assignment.
    n, m = inst.n_agents, inst.n_items
    live_global = [active[i] for i in live_local]
    full_p = np.zeros((n, m))
    full_p[np.ix_(live_global, keep)] = _saturate_rows(
        V[live_local], b[live_local], c, np.maximum(p_live, 0.0))
    budgets_full = np.zeros(n)
    budgets_full[active] = problem.row_budget
    full_p = _degenerate_fill(full_p, degenerate, budgets_full, c_full)

    t_full = np.zeros(m)
    t_full[keep] = np.maximum(t_kept, 0.0)
    q_full = np.zeros(n)
    q_full[live_global] = np.maximum(q_live, 0.0)

    offsets_full = np.zeros(n)
    offsets_full[active] = problem.offsets

    # Dropped zero-supply columns: price them at the best unmet demand.
    dropped = [j for j in range(m) if j not in set(keep.tolist())]
    if dropped and live_global:
        u_live = np.einsum("ij,ij->i", V_full[live_global], full_p[live_global])
        s_live = u_live - offsets_full[live_global]
        for j in dropped:
            t_full[j] = max(0.0, float(np.max(
                V_full[live_global, j] / s_live - q_full[live_global])))

    assignment = FractionalAssignment.from_probs(
        full_p, row_budget=budgets_full, tolerance=1e-9)
    assignment.check_valid(supplies=c_full)
    util = core_utilities(inst, assignment)
    surplus = util - offsets_full
    skip = set(range(n)) - set(live_global)
    duals = Duals(t_full, q_full)
    if live_global:
        residual = kkt_check(inst, assignment, duals, offsets_full,
                             skip_agents=skip)
        objective = float(np.sum(np.log(surplus[live_global])))
    else:
        residual = 0.0
        objective = 0.0

    if residual > tol:
        raise NoConvergence(iters_used, residual)

    structured = na_live * len(keep) >= _STRUCTURED_MIN_PAIRS   # every step
    return NswSolution(
        problem=problem,
        assignment=assignment,
        utilities=util,
        surplus=surplus,
        objective=objective,
        duals=duals,
        kkt_residual=residual,
        degenerate_agents=degenerate,
        metadata={"iterations": iters_used,
                  "structured_steps": iters_used if structured else 0,
                  "dense_steps": 0 if structured else iters_used,
                  "polish": winner,
                  "barrier_batch": batch,
                  "active_agents": tuple(active),
                  "offsets": offsets_full.tolist()},
    )

