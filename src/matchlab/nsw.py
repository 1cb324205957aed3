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
1e-13 ends the path instead.  It then polishes primal variables and prices
together on that support by Newton on the square stationarity system, with
an active-set repair loop, over a short ladder of final barrier weights and
support thresholds, until a candidate's certificate is well within tolerance.

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
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs
from scipy.optimize import linear_sum_assignment, linprog

from .core import (
    DegenerateNormalization,
    DimensionMismatch,
    FractionalAssignment,
    Infeasible,
    Instance,
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
        if np.any(budget <= 0) or np.any(budget > 1 + 1e-12):
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
    support = [(i, j) for i in checked for j in range(m)
               if p[i, j] > support_tol]

    duals = _duals_from_support(vhat, n, m, support, tight_rows, tight_cols)
    if duals is not None:
        resid = kkt_check(inst, assignment, duals, offsets, skip_agents=skip)
        if resid <= tol:
            return duals

    duals = _duals_by_lp(vhat, n, m, checked, support, tight_rows, tight_cols)
    if duals is not None:
        resid = kkt_check(inst, assignment, duals, offsets, skip_agents=skip)
        if resid <= tol:
            return duals

    # No certificate: report the worst support/feasibility violation.
    best = duals if duals is not None else Duals(np.zeros(m), np.zeros(n))
    worst_pair, worst = (0, 0), 0.0
    for i in checked:
        for j in range(m):
            gap = vhat[i, j] - best.t[j] - best.q[i]
            viol = abs(gap) if p[i, j] > support_tol else max(0.0, gap)
            if viol > worst:
                worst, worst_pair = viol, (i, j)
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


def _duals_from_support(vhat, n, m, support, tight_rows, tight_cols):
    """Least-squares prices from the support equalities, plus per-component
    shifts to repair sign constraints.  Returns None if the system is empty."""
    t_idx = {j: k for k, j in enumerate(tight_cols)}
    q_idx = {i: len(tight_cols) + k for k, i in enumerate(tight_rows)}
    nvar = len(tight_cols) + len(tight_rows)
    rows, rhs = [], []
    for (i, j) in support:
        row = np.zeros(nvar)
        if j in t_idx:
            row[t_idx[j]] = 1.0
        if i in q_idx:
            row[q_idx[i]] = 1.0
        rows.append(row)
        rhs.append(vhat[i, j])
    if nvar == 0:
        return Duals(np.zeros(m), np.zeros(n))
    if rows:
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    else:
        sol = np.zeros(nvar)

    t = np.zeros(m)
    q = np.zeros(n)
    for j, k in t_idx.items():
        t[j] = sol[k]
    for i, k in q_idx.items():
        q[i] = sol[k]
    _shift_components(vhat, t, q, support, tight_rows, tight_cols)
    return Duals(t, q)


def _duals_by_lp(vhat, n, m, checked, support, tight_rows, tight_cols):
    """Feasibility LP for the price system; minimizes the total violation."""
    t_idx = {j: k for k, j in enumerate(tight_cols)}
    q_idx = {i: len(tight_cols) + k for k, i in enumerate(tight_rows)}
    nvar = len(tight_cols) + len(tight_rows)
    eps = nvar  # one violation variable
    A_ub, b_ub = [], []
    sup_set = set(support)
    for i in checked:
        for j in range(m):
            row = np.zeros(nvar + 1)
            if j in t_idx:
                row[t_idx[j]] = -1.0
            if i in q_idx:
                row[q_idx[i]] = -1.0
            row[eps] = -1.0
            A_ub.append(row)             # vhat - t - q - eps <= 0
            b_ub.append(-vhat[i, j])
            if (i, j) in sup_set:
                row2 = np.zeros(nvar + 1)
                if j in t_idx:
                    row2[t_idx[j]] = 1.0
                if i in q_idx:
                    row2[q_idx[i]] = 1.0
                row2[eps] = -1.0
                A_ub.append(row2)        # t + q - vhat - eps <= 0
                b_ub.append(vhat[i, j])
    if not A_ub:
        return Duals(np.zeros(m), np.zeros(n))
    c = np.zeros(nvar + 1)
    c[eps] = 1.0
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  bounds=[(0, None)] * (nvar + 1), method="highs")
    if not res.success:
        return None
    t = np.zeros(m)
    q = np.zeros(n)
    for j, k in t_idx.items():
        t[j] = res.x[k]
    for i, k in q_idx.items():
        q[i] = res.x[k]
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


def _transport_constraints(V, b, c):
    na, mk = V.shape
    nvar = na * mk
    rows = []
    for i in range(na):
        r = np.zeros(nvar)
        r[i * mk:(i + 1) * mk] = 1.0
        rows.append(r)
    cols = []
    for j in range(mk):
        r = np.zeros(nvar)
        r[j::mk] = 1.0
        cols.append(r)
    A = np.vstack(rows + cols)
    ub = np.concatenate([b, c])
    return A, ub


def _max_min_surplus_lp(V, b, c, o):
    """maximize delta s.t. surplus_i >= delta for all i, feasibility."""
    na, mk = V.shape
    nvar = na * mk
    A_tr, ub_tr = _transport_constraints(V, b, c)
    A_s = np.zeros((na, nvar + 1))
    for i in range(na):
        A_s[i, i * mk:(i + 1) * mk] = -V[i]
        A_s[i, nvar] = 1.0
    A = np.vstack([np.hstack([A_tr, np.zeros((A_tr.shape[0], 1))]), A_s])
    ub = np.concatenate([ub_tr, -o])
    cost = np.zeros(nvar + 1)
    cost[nvar] = -1.0
    res = linprog(cost, A_ub=A, b_ub=ub,
                  bounds=[(0, None)] * nvar + [(None, None)], method="highs")
    if not res.success:
        raise Infeasible("surplus feasibility program failed")
    return res.x[:nvar].reshape(na, mk), float(res.x[nvar])


def _max_one_surplus_lp(V, b, c, o, k):
    """maximize surplus_k s.t. surplus_i >= 0 for all i, feasibility."""
    na, mk = V.shape
    nvar = na * mk
    A_tr, ub_tr = _transport_constraints(V, b, c)
    A_s = np.zeros((na, nvar))
    for i in range(na):
        A_s[i, i * mk:(i + 1) * mk] = -V[i]
    A = np.vstack([A_tr, A_s])
    ub = np.concatenate([ub_tr, -o])
    cost = np.zeros(nvar)
    cost[k * mk:(k + 1) * mk] = -V[k]
    res = linprog(cost, A_ub=A, b_ub=ub, bounds=[(0, None)] * nvar,
                  method="highs")
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


class _DenseHessian:
    """The barrier's negative Hessian as an explicit (na*mk)^2 matrix.

    Used only below ``_STRUCTURED_MIN_PAIRS`` pairs; the buffer is allocated
    once and reused across Newton steps.
    """

    def __init__(self, V):
        na, mk = V.shape
        self.vout = np.einsum("ik,il->ikl", V, V)     # constant row blocks
        self.M = np.empty((na, mk, na, mk))
        self.rows_i = np.arange(na)
        self.diag = (np.arange(na * mk), np.arange(na * mk))

    def fill(self, p, s, r, d, mu):
        """The Hessian at p as an (na*mk, na*mk) view of the buffer."""
        na, mk = p.shape
        M, rows_i, diag = self.M, self.rows_i, self.diag
        M[:] = 0.0
        M[rows_i, :, rows_i, :] = (self.vout / (s ** 2)[:, None, None]
                                   + (mu / r ** 2)[:, None, None])
        Mf = M.reshape(na * mk, na * mk)
        Mf[diag] += mu / p.ravel() ** 2
        dd_coup = mu / d ** 2
        for j in range(mk):
            M[:, j, :, j] += dd_coup[j]
        return Mf

    def step(self, p, s, r, d, mu, g):
        """Solve H x = g."""
        Mf, diag = self.fill(p, s, r, d, mu), self.diag
        gv = g.ravel()
        try:
            step = np.linalg.solve(Mf, gv)
        except np.linalg.LinAlgError:
            Mf[diag] += 1e-12 * np.max(np.abs(Mf))
            step = np.linalg.solve(Mf, gv)
        return step.reshape(p.shape)


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

    Returns (p, t, q, iterations).  Problems with at least
    ``_STRUCTURED_MIN_PAIRS`` pairs take structured Newton steps, and a
    declined step ends the centering at the current mu, as a step with no
    feasible length does; smaller problems take dense steps.
    """
    na, mk = V.shape
    p = p0.copy()
    iters = 0
    mu = mu_start
    dense = None if na * mk >= _STRUCTURED_MIN_PAIRS else _DenseHessian(V)

    def phi(pt, mu):
        st = np.einsum("ij,ij->i", V, pt)
        st -= o
        rt = b - pt.sum(axis=1)
        dt = c - pt.sum(axis=0)
        if min(st.min(), pt.min(), rt.min(), dt.min()) <= 0:
            return -math.inf
        return (np.log(st).sum()
                + mu * (np.log(pt).sum() + np.log(rt).sum() + np.log(dt).sum()))

    while True:
        for _ in range(60):
            if iters >= budget:
                break
            s = np.einsum("ij,ij->i", V, p) - o
            r = b - p.sum(axis=1)
            d = c - p.sum(axis=0)
            g = V / s[:, None] + mu / p - mu / r[:, None] - mu / d[None, :]

            if dense is not None:
                dp = dense.step(p, s, r, d, mu, g)
            else:
                dp = _structured_step(V, p, s, r, d, mu, g)
                if dp is None:
                    break
            decrement = float(g.ravel() @ dp.ravel())
            iters += 1

            # Largest feasible step, then Armijo backtracking.
            alpha = 1.0
            ds = np.einsum("ij,ij->i", V, dp)
            dr = -dp.sum(axis=1)
            dd = -dp.sum(axis=0)
            for vals, dvals in ((p.ravel(), dp.ravel()), (s, ds), (r, dr), (d, dd)):
                neg = dvals < 0
                if neg.any():
                    alpha = min(alpha, 0.99 * float(np.min(-vals[neg] / dvals[neg])))
            if alpha <= 0:
                break
            base = phi(p, mu)
            while alpha > 1e-14:
                if phi(p + alpha * dp, mu) >= base + 0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            p = p + alpha * dp
            if trace is not None:
                s_now = np.einsum("ij,ij->i", V, p) - o
                trace.append((iters, float(np.log(s_now).sum()),
                              float(decrement)))
            loose = 1.0 if mu > mu_end else 0.3
            if decrement < max(loose * mu, 1e-16):
                break
        if mu <= mu_end or iters >= budget:
            break
        mu = max(mu * 0.02, mu_end)

    r = b - p.sum(axis=1)
    d = c - p.sum(axis=0)
    return p, mu / d, mu / r, iters


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
    S = {(i, j) for i in range(na) for j in range(mk)
         if p_in[i, j] > support_tol}
    R = {i for i in range(na) if b[i] - p_in[i].sum() < support_tol}
    C = {j for j in range(mk) if c[j] - p_in[:, j].sum() < support_tol}
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
            s = np.einsum("ij,ij->i", V, p) - o
            gaps = []
            for i in range(na):
                for j in range(mk):
                    if (i, j) in S:
                        continue
                    gap = (V[i, j] / s[i] - (t[j] if j in C else 0.0)
                           - (q[i] if i in R else 0.0))
                    if gap > 1e-10 * scale:
                        gaps.append((gap, (i, j)))
            for _, pair in sorted(gaps, reverse=True)[:3]:
                S.add(pair)
                p[pair] = 0.0
                changed = True
        if not changed:
            break
    return None if best is None else best[1]


def _polish_newton(V, b, c, o, p_in, S, R, C, t0, q0, iters=40):
    na, mk = V.shape
    S_list = sorted(S)
    R_list = sorted(R)
    C_list = sorted(C)
    s_pos = {ij: k for k, ij in enumerate(S_list)}
    c_pos = {j: len(S_list) + k for k, j in enumerate(C_list)}
    r_pos = {i: len(S_list) + len(C_list) + k for k, i in enumerate(R_list)}
    nvar = len(S_list) + len(C_list) + len(R_list)
    if nvar == 0:
        return np.zeros_like(p_in), np.zeros(mk), np.zeros(na)

    p = p_in.copy()
    t = np.zeros(mk)
    q = np.zeros(na)
    for j in C_list:
        t[j] = max(t0[j], 0.0)
    for i in R_list:
        q[i] = max(q0[i], 0.0)

    def residuals():
        s = np.einsum("ij,ij->i", V, p) - o
        if np.any(s <= 0):
            return None, None
        F = np.empty(len(S_list) + len(R_list) + len(C_list))
        for k, (i, j) in enumerate(S_list):
            F[k] = V[i, j] / s[i] - (t[j] if j in C else 0.0) - (q[i] if i in R else 0.0)
        base = len(S_list)
        for k, i in enumerate(R_list):
            F[base + k] = p[i].sum() - b[i]
        base += len(R_list)
        for k, j in enumerate(C_list):
            F[base + k] = p[:, j].sum() - c[j]
        return F, s

    for _ in range(iters):
        F, s = residuals()
        if F is None:
            return None
        if np.max(np.abs(F)) < 1e-13 * max(1.0, float(np.max(np.abs(V / s[:, None])))):
            return p, t, q
        J = np.zeros((len(F), nvar))
        for k, (i, j) in enumerate(S_list):
            for (i2, l) in ((i, l) for l in range(mk) if (i, l) in S):
                J[k, s_pos[(i, l)]] += -V[i, j] * V[i, l] / s[i] ** 2
            if j in C:
                J[k, c_pos[j]] = -1.0
            if i in R:
                J[k, r_pos[i]] = -1.0
        base = len(S_list)
        for k, i in enumerate(R_list):
            for l in range(mk):
                if (i, l) in S:
                    J[base + k, s_pos[(i, l)]] = 1.0
        base += len(R_list)
        for k, j in enumerate(C_list):
            for i2 in range(na):
                if (i2, j) in S:
                    J[base + k, s_pos[(i2, j)]] = 1.0

        step, *_ = np.linalg.lstsq(J, -F, rcond=None)

        # Damp to keep every surplus positive.
        dp = np.zeros_like(p)
        for ij, k in s_pos.items():
            dp[ij] = step[k]
        ds = np.einsum("ij,ij->i", V, dp)
        alpha = 1.0
        neg = ds < 0
        if np.any(neg):
            alpha = min(alpha, 0.9 * float(np.min(-s[neg] / ds[neg])))
        if alpha <= 0:
            return None
        p = p + alpha * dp
        for j, k in c_pos.items():
            t[j] += alpha * step[k]
        for i, k in r_pos.items():
            q[i] += alpha * step[k]
    # Not fully converged: hand the best iterate to the repair loop anyway.
    if residuals()[0] is None:
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

def solve(problem: NswProblem, tol: float = DEFAULT_KKT_TOL,
          max_iter: int = ITERATION_CAP,
          warm_start: np.ndarray | None = None,
          trace: list | None = None) -> NswSolution:
    """Solve the welfare program and certify the result.

    The returned solution satisfies ``kkt_residual <= tol``; by concavity
    plus the certificate its objective is within ``tol`` of optimal.
    ``warm_start`` (a full n_agents-by-n_items matrix, for instance the
    solution of a nearby problem) only speeds up the search.  Raises
    :class:`Infeasible` when an active agent cannot reach non-negative
    surplus, and :class:`NoConvergence` when the certificate tolerance
    cannot be met inside the iteration budget.  ``metadata["polish"]`` is
    the ``(mu_end, tau)`` rung and support threshold of the winning
    candidate.
    """
    if tol <= 0:
        raise DimensionMismatch("tol must be positive")
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

    live_local, degenerate_local, base, warm = _screen_degenerate(
        V, b, c, o, deg_tol, hint)
    degenerate = frozenset(active[i] for i in degenerate_local)

    na_live = len(live_local)
    p_live = np.zeros((na_live, len(keep)))
    t_kept = np.zeros(len(keep))
    q_live = np.zeros(na_live)
    iters_used = 0
    winner = None

    if na_live > 0:
        Vl, bl, ol = V[live_local], b[live_local], o[live_local]
        p_path = _interior_start(Vl, bl, c, ol, base)
        if p_path is None:
            raise Infeasible("no strictly interior point with positive surplus")

        best_resid, best = math.inf, None
        mu_reached = 5e-3 if warm else 0.05
        for mu_end, taus in ((1e-8, (3e-5, 1e-6)), (1e-10, (1e-6, 1e-4)),
                             (1e-12, (1e-7, 3e-5))):
            if iters_used >= max_iter:
                break
            p_bar, t_bar, q_bar, it = _barrier_solve(
                Vl, bl, c, ol, p_path, mu_reached, mu_end,
                max_iter - iters_used, trace)
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
                  "active_agents": tuple(active),
                  "offsets": offsets_full.tolist()},
    )

