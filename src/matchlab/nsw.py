"""Nash-social-welfare maximization over the capacitated matching polytope.

Solves

    max  sum_i log(sum_j v_ij p_ij - o_i)
    s.t. sum_j p_ij <= 1            (unit demand)
         sum_i p_ij <= c_j          (per-item supply, in [0, 1])
         p_ij >= 0

for the active agents, where ``o_i`` is an optional disagreement offset.
The objective is strictly concave in the agent utilities, so the utilities
of an optimum are unique even when the assignment is not.

The contract is the certificate, not the algorithm: every solution carries
item prices ``t_j >= 0`` and agent prices ``q_i >= 0`` with

  * complementary slackness: ``t_j > 0`` only on fully allocated items and
    ``q_i > 0`` only on agents whose row sums to 1,
  * price feasibility: ``v_ij / s_i <= t_j + q_i`` everywhere, with
    equality wherever ``p_ij > 0``,

and the maximal violation of these conditions (the KKT residual) is
reported honestly.  Internally the solver follows the central path to
identify the optimal support, by Mehrotra's primal-dual predictor-corrector
method in (p, beta, t, q), beta = 1/s, whose Newton system reduces to a
matrix of order 2 na + mk, LU-factored once per iteration for both of its
solves.  A lone :func:`solve` and a batch of :func:`solve_many` (a
mechanism's leave-one-out or subset solves) take one preparation path:
problems of one shape run the path in lockstep, K systems solved at once,
down to mu = 1e-8, and a lone solve is a batch of one.  A lone solve below
150 (agent, item) pairs instead ends the path centred at mu = 1e-8, the
point of the central path there: where the optimum is not unique that
point fixes the assignment, which PA scales, while a batch's utilities
are the lone solve's to round-off but its assignment may be another
optimal one.  The solver then polishes primal variables and prices
together on a guessed support by Newton on the square stationarity
system, whose singular Jacobian takes minimum-norm least-squares steps by
QR with column pivoting, with an active-set repair loop.  Each of three
thresholds gives a support guess, and the polish tries the distinct
guesses in turn until a candidate's certificate is well within
tolerance; a problem that none of them certifies raises
:class:`NoConvergence`.

Agents whose maximum achievable surplus is zero (for instance constant
value rows under an average-value offset) cannot appear in the log
objective; they are detected up front, excluded, and afterwards assigned a
deterministic pro-rata share of each item's residual supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import linalg, sparse
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
    "solve",
    "solve_many",
    "kkt_check",
    "recover_duals",
    "renormalize",
]

DEFAULT_KKT_TOL = 1e-7

_SUPPLY_EPS = 1e-12
# Pairs above this mass count as support when a candidate is ranked.
_SUPPORT_TOL = 1e-9

# A lone solve below this many live (agent, item) pairs ends its barrier path
# centred at mu = _MU_END, every product p z, t d and q r equal to _MU_END to
# _CENTRE_TOL relative; batches and larger lone solves stop at mu <= _MU_END.
_CENTRE_PAIRS = 150
_CENTRE_TOL = 1e-6
# The primal-dual path stops a problem only once max |1 - beta s| is this small.
_PD_SURPLUS_TOL = 1e-6
# One lockstep barrier call holds at most this many bytes of Newton matrices
# (8 n^2 per problem of order n = 2 na + mk); a larger group of one shape is split.
_LOCKSTEP_BYTES = 2 ** 22
# The barrier's final mu, and the thresholds whose support guesses the polish
# tries there, in order: a pair is in a threshold's guess when its mass
# exceeds it, and a row or column is tight when its slack is below it.
_MU_END = 1e-8
_TAUS = (3e-5, 1e-3, 1e-7)
# Repair rounds of one polish, and Newton steps of one round.
_POLISH_ROUNDS = 40
_POLISH_NEWTON_ITERS = 40


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

    @classmethod
    def create(cls, instance: Instance,
               active_agents: Sequence[int] | None = None,
               offsets: Sequence[float] | np.ndarray | None = None) -> "NswProblem":
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
        return cls(instance=instance, active_agents=active, offsets=off)


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
    return _renormalize(inst, assignment, offsets, _checked_rows(inst.n_agents, skip_agents))


def _checked_rows(n, skip_agents):
    """The (n,) mask of the rows that ``skip_agents`` does not name."""
    skip = np.fromiter(map(int, skip_agents), dtype=np.intp)
    checked = np.ones(n, dtype=bool)
    checked[skip[(skip >= 0) & (skip < n)]] = False
    return checked


def _renormalize(inst, assignment, offsets, checked):
    """:func:`renormalize` of the rows of the mask ``checked``."""
    u = core_utilities(inst, assignment)
    o = np.zeros(inst.n_agents) if offsets is None else np.asarray(offsets, dtype=float)
    if o.shape != (inst.n_agents,):
        raise DimensionMismatch("offsets must have one entry per agent")
    s = u - o
    low = np.flatnonzero(checked & (s <= _value_scale(inst.values) * 1e-15))
    if len(low):
        raise DegenerateNormalization(
            f"agent {low[0]} has surplus {s[low[0]]:.3e}; cannot renormalize")
    vhat = np.array(inst.values, dtype=float)
    np.divide(vhat, s[:, None], out=vhat, where=checked[:, None])
    factors = np.ones(inst.n_agents)
    np.divide(1.0, s, out=factors, where=checked)
    return vhat, factors


def kkt_check(inst: Instance, assignment: FractionalAssignment,
              duals: Duals, offsets: np.ndarray | None = None,
              skip_agents: Iterable[int] = ()) -> float:
    """Maximal violation of the optimality conditions for ``assignment``.

    Checks, on values renormalized so every checked agent's surplus is 1:

      (a) non-negativity of the prices ``t`` and ``q``;
      (b) complementary slackness ``|t_j (c_j - col_sum_j)|`` and
          ``|q_i (1 - row_sum_i)|``;
      (c) price feasibility ``max(0, vhat_ij - t_j - q_i)`` for all pairs,
          plus ``|vhat_ij - t_j - q_i|`` wherever ``p_ij`` exceeds the
          support tolerance.

    The returned residual is never clamped.  Agents in ``skip_agents``
    (inactive or degenerate rows) are excluded from (c) and from the row
    part of (b); their consumption still counts toward column sums.
    """
    p = assignment.probs
    if p.shape != (inst.n_agents, inst.n_items):
        raise DimensionMismatch("assignment shape does not match instance")
    t = np.asarray(duals.t, dtype=float)
    q = np.asarray(duals.q, dtype=float)
    if t.shape != (inst.n_items,) or q.shape != (inst.n_agents,):
        raise DimensionMismatch("dual vector lengths do not match instance")
    checked = _checked_rows(inst.n_agents, skip_agents)
    vhat, _ = _renormalize(inst, assignment, offsets, checked)
    row_slack = 1.0 - p.sum(axis=1)
    col_slack = np.asarray(inst.supplies) - p.sum(axis=0)
    residual = _certificate_residual(vhat[checked], p[checked], t, q[checked],
                                     row_slack[checked], col_slack,
                                     max(assignment.tolerance, 1e-9))
    return max(residual, float(np.max(-q, initial=0.0)))   # skipped rows too


def _certificate_residual(vhat, p, t, q, row_slack, col_slack, support_tol):
    """Largest violation of conditions (a)-(c) of :func:`kkt_check`.

    Row-indexed arguments hold only the checked rows, and ``vhat`` is
    already renormalized; ``col_slack`` counts every row's consumption.
    """
    gap = vhat - t[None, :] - q[:, None]
    top = np.maximum.reduce          # np.max without its Python wrapper
    return max(0.0, float(top(-t, initial=0.0)), float(top(-q, initial=0.0)),
               float(top(np.abs(t * col_slack), initial=0.0)),
               float(top(np.abs(q * row_slack), initial=0.0)),
               float(top(gap, axis=None, initial=0.0)),
               float(top(np.abs(gap[p > support_tol]), initial=0.0)))


def _quick_residual(V, c, o, p, t, q):
    """Certificate residual of a candidate on the reduced (live rows, kept
    cols) problem, plus its primal infeasibility, so that an infeasible
    candidate never wins."""
    s = _surplus(V, p, o)
    if np.any(s <= 0):
        return math.inf
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    return max(_certificate_residual(V / s[:, None], p, t, q, 1.0 - rows, c - cols,
                                     _SUPPORT_TOL),
               float(np.maximum.reduce(-p, axis=None, initial=0.0)),
               float(np.maximum.reduce(rows - 1.0, initial=0.0)),
               float(np.maximum.reduce(cols - c, initial=0.0)))


def recover_duals(inst: Instance, assignment: FractionalAssignment,
                  offsets: np.ndarray | None = None,
                  tol: float = DEFAULT_KKT_TOL,
                  skip_agents: Iterable[int] = ()) -> Duals:
    """Find prices certifying ``assignment`` as an optimum, or fail.

    Solves the linear feasibility system {vhat_ij = t_j + q_i on the
    support, vhat_ij <= t_j + q_i off it, t >= 0, q >= 0, complementary
    slackness} by one LP that minimizes its largest violation, and accepts
    the prices when :func:`kkt_check` puts them within ``tol``.  Raises
    :class:`NotOptimal` with the worst-violating (agent, item) pair when
    no prices exist within ``tol``.
    """
    skip = set(int(i) for i in skip_agents)
    n, m = inst.n_agents, inst.n_items
    p = assignment.probs
    vhat, _ = renormalize(inst, assignment, offsets, skip_agents=skip)
    checked = [i for i in range(n) if i not in skip]

    support_tol = max(assignment.tolerance, 1e-9)
    slack_tol = max(tol, 1e-9)
    tight_rows = [i for i in checked if 1.0 - p[i].sum() <= slack_tol]
    tight_cols = [j for j in range(m)
                  if inst.supplies[j] - p[:, j].sum() <= slack_tol]
    pairs = np.column_stack([np.repeat(np.array(checked, dtype=int), m),
                             np.tile(np.arange(m), len(checked))])
    pi, pj = pairs.T
    on_support = p[pi, pj] > support_tol

    duals = _duals_by_lp(vhat, n, m, pairs, on_support, tight_rows, tight_cols)
    if duals is not None and kkt_check(inst, assignment, duals, offsets,
                                       skip_agents=skip) <= tol:
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
    ``support`` is an (n, m) bool mask, and ``tight_rows`` and ``tight_cols``
    are (n,) and (m,) masks of the unknown prices.  Mutates ``t`` and ``q``
    in place.
    """
    # The groups are numbered in the iteration order of these sets.
    R = set(np.flatnonzero(tight_rows).tolist())
    C = set(np.flatnonzero(tight_cols).tolist())
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
    for i, j in np.argwhere(support & tight_rows[:, None] & tight_cols).tolist():
        union(("r", i), ("c", j))
    # A support equation with one unknown price pins it: q_i = vhat_ij or
    # t_j = vhat_ij.
    frozen = ({find(("r", i)) for i in np.flatnonzero(
                  tight_rows & (support & ~tight_cols).any(axis=1)).tolist()}
              | {find(("c", j)) for j in np.flatnonzero(
                  tight_cols & (support & ~tight_rows[:, None]).any(axis=0)).tolist()})

    groups: dict[tuple[str, int], list] = {}
    for node in list(parent):
        groups.setdefault(find(node), []).append(node)

    # Number the free components in group order and bound every one's
    # shift d in one pass over the off-support pairs with one endpoint
    # inside.  A component's bounds move only when an earlier one shifts,
    # so after the first shift only the later components are bounded again.
    n, m = q.shape[0], t.shape[0]
    comp_r, comp_c = np.full(n, -1), np.full(m, -1)
    free = [members for root, members in groups.items() if root not in frozen]
    for g, members in enumerate(free):
        for kind, idx in members:
            (comp_r if kind == "r" else comp_c)[idx] = g
    across = ~support & (comp_r[:, None] != comp_c[None, :])
    first = 0
    while first < len(free):
        rows, cols = np.flatnonzero(comp_r >= first), np.flatnonzero(comp_c >= first)
        # Off-support feasibility vhat <= t + q with one endpoint inside.
        gap = np.where(across, vhat - t[None, :] - q[:, None], -math.inf)
        lo_t = np.full(len(free), -math.inf)                      # t_j + d >= 0
        np.maximum.at(lo_t, comp_c[cols], -t[cols])
        lo_gap = np.full(len(free), -math.inf)                    # d >= vhat - t - q
        np.maximum.at(lo_gap, comp_c[cols], gap[:, cols].max(axis=0, initial=-math.inf))
        hi_q = np.full(len(free), math.inf)                       # q_i - d >= 0
        np.minimum.at(hi_q, comp_r[rows], q[rows])
        hi_gap = np.full(len(free), -math.inf)                    # d <= t + q - vhat
        np.maximum.at(hi_gap, comp_r[rows], gap[rows].max(axis=1, initial=-math.inf))
        # Python's max(a, b) and min(a, b), which keep a unless b is beyond it.
        lo = np.where(lo_gap > lo_t, lo_gap, lo_t)
        hi = np.where(-hi_gap < hi_q, -hi_gap, hi_q)
        floor = np.where(lo > 0.0, lo, 0.0)
        d = np.where(hi < floor, hi, floor)
        # Components before ``first`` are unbounded here, so their d is 0.
        shifting = np.flatnonzero(~(lo > hi) & (d != 0.0))
        if not len(shifting):
            break
        g = int(shifting[0])
        t[comp_c == g] += d[g]
        q[comp_r == g] -= d[g]
        first = g + 1


def _pair_incidence(n, m, pairs):
    """The (n + m) x len(pairs) incidence of (agent, item) pairs: column k
    holds a 1 in agent row i and in item row n + j for pairs[k] = (i, j)."""
    i, j = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    k = np.arange(i.size)
    return sparse.coo_matrix((np.ones(2 * i.size), (np.r_[i, n + j], np.r_[k, k])),
                             shape=(n + m, i.size))


def _duals_by_lp(vhat, n, m, pairs, on_support, tight_rows, tight_cols):
    """Feasibility LP for the price system: t >= 0 on ``tight_cols`` and
    q >= 0 on ``tight_rows`` (zero elsewhere) minimizing the largest
    violation eps.  Each pair gives the row vhat - t - q - eps <= 0,
    followed on the support by t + q - vhat - eps <= 0."""
    if not len(pairs):
        return Duals(np.zeros(m), np.zeros(n))
    k = np.arange(len(pairs))
    at = k + np.cumsum(on_support) - on_support        # each pair's first row
    nrows = len(pairs) + int(on_support.sum())
    sign = sparse.csr_matrix(               # row r is -1 or +1 times one pair
        (np.r_[-np.ones(k.size), np.ones(nrows - k.size)],
         (np.r_[at, at[on_support] + 1], np.r_[k, k[on_support]])), shape=(nrows, k.size))
    unknown = np.r_[n + np.asarray(tight_cols, dtype=int), np.asarray(tight_rows, dtype=int)]
    system = sign @ _pair_incidence(n, m, pairs).tocsr()[unknown].T
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

def _solo_max_utilities(V, c):
    """Best utility each agent could get with the whole supply to herself:
    her items by decreasing value (a stable order), each taken up to its
    supply until her unit of demand is met or the values stop being
    positive, with the demand left and the utility accumulated item by
    item."""
    order = np.argsort(-V, axis=1, kind="stable")
    v = np.take_along_axis(V, order, axis=1)
    cs = c[order]
    # The demand left before each item is 1 - c_1 - c_2 - ..., subtracted
    # in turn; where it runs out it becomes <= 0, and stays so.
    left = np.subtract.accumulate(np.column_stack([np.ones(len(V)), cs]), axis=1)[:, :-1]
    taking = np.logical_and.accumulate((v > 0) & (left > 0), axis=1)
    gain = np.where(taking, np.minimum(left, cs) * v, 0.0)
    return np.cumsum(np.column_stack([np.zeros(len(V)), gain]), axis=1)[:, -1]


def _screen_degenerate(V, c, o, deg_tol, hint):
    """Split rows into (non-degenerate, degenerate) and find a base point.

    Returns ``(live, degenerate, base)``: ``base`` is a feasible point with
    positive surplus on every live row (None when no row is live), the
    clipped ``hint`` when that qualifies.  Raises Infeasible when no point
    gives every row non-negative surplus.
    """
    na, mk = V.shape
    solo = _solo_max_utilities(V, c) - o
    short = np.flatnonzero(solo < -deg_tol)
    if len(short):
        raise Infeasible(
            f"agent row {short[0]} cannot reach non-negative surplus "
            f"(deficit {solo[short[0]]:.3e})")
    degenerate = set(np.flatnonzero(solo <= deg_tol).tolist())

    live = [i for i in range(na) if i not in degenerate]
    if not live:
        return [], degenerate, None

    # A strictly positive point certifies that no live agent is
    # degenerate; only borderline problems need the LP screen.
    Vl, ol = V[live], o[live]
    if hint is not None:
        h = np.minimum(np.maximum(hint[live], 0.0), c)
        if (np.min(_surplus(Vl, h, ol)) > 10 * deg_tol
                and np.all(h.sum(axis=1) <= 1 + 1e-9)
                and np.all(h.sum(axis=0) <= c + 1e-9)):
            return live, degenerate, h

    if np.all(ol <= deg_tol):
        # Zero offsets: every live row values some item positively.
        match = _capped_assignment(Vl, c)
        if match is not None and np.min(_surplus(Vl, match, ol)) > 0:
            return live, degenerate, match
        return live, degenerate, _proportional_point(len(live), c)

    p_h = _heuristic_positive_point(Vl, c, ol, deg_tol)
    if p_h is not None:
        return live, degenerate, p_h

    while True:
        x, delta = _max_min_surplus_lp(V[live], c, o[live])
        if delta < -deg_tol:
            raise Infeasible(
                "no feasible point gives every active agent non-negative "
                f"surplus (max-min surplus {delta:.3e})")
        if delta > deg_tol:
            return live, degenerate, x
        # Borderline: find which rows are stuck at zero surplus.
        newly = []
        keep_points = []
        for k, i in enumerate(live):
            xi, best = _max_one_surplus_lp(V[live], c, o[live], k)
            if best <= deg_tol:
                newly.append(i)
            else:
                keep_points.append(xi)
        if not newly:
            # Each alone can be positive; their average is positive for all.
            return live, degenerate, np.mean(keep_points, axis=0)
        degenerate.update(newly)
        live = [i for i in live if i not in degenerate]
        if not live:
            return [], degenerate, None


def _surplus(V, p, o):
    """The surpluses V_i . p_i - o_i, with any leading batch axes."""
    return np.einsum("...ij,...ij->...i", V, p) - o


def _value_scale(V):
    """The largest value, or 1 when that is smaller or there is none."""
    return max(1.0, float(np.max(V)) if V.size else 1.0)


def _capped_assignment(V, c):
    """A maximum-weight matching of values times supplies, each matched
    agent taking her item's whole supply; None when agents outnumber
    items."""
    na, mk = V.shape
    if na > mk:
        return None
    ri, cj = linear_sum_assignment(V * c, maximize=True)
    match = np.zeros((na, mk))
    match[ri, cj] = c[cj]
    return match


def _heuristic_positive_point(V, c, o, deg_tol):
    """Capacity-capped assignment blended toward the proportional point.

    Returns a feasible point with every surplus comfortably positive, or
    None when none of the blends qualifies."""
    match = _capped_assignment(V, c)
    if match is None:
        return None
    prop = _proportional_point(len(V), c)
    scale = _value_scale(V)
    floor = max(1e-6 * scale, 10 * deg_tol)
    for lam in (0.3, 0.1, 0.03, 0.01):
        p0 = (1 - lam) * match + lam * prop
        if np.all(_surplus(V, p0, o) > floor):
            return p0
    return None


def _surplus_lp(V, c, o, cost, delta):
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
    return linprog(cost, A_ub=A, b_ub=np.concatenate([np.ones(na), c, -o]),
                   bounds=[(0, None)] * nvar + [(None, None)] * delta, method="highs")


def _max_min_surplus_lp(V, c, o):
    """maximize delta s.t. surplus_i >= delta for all i, feasibility."""
    na, mk = V.shape
    cost = np.zeros(na * mk + 1)
    cost[-1] = -1.0
    res = _surplus_lp(V, c, o, cost, 1)
    if not res.success:
        raise Infeasible("surplus feasibility program failed")
    return res.x[:-1].reshape(na, mk), float(res.x[-1])


def _max_one_surplus_lp(V, c, o, k):
    """maximize surplus_k s.t. surplus_i >= 0 for all i, feasibility."""
    na, mk = V.shape
    cost = np.zeros((na, mk))
    cost[k] = -V[k]
    res = _surplus_lp(V, c, o, cost.ravel(), 0)
    if not res.success:
        raise Infeasible("per-agent surplus program is infeasible")
    x = res.x.reshape(na, mk)
    return x, float(V[k] @ x[k] - o[k])


# ---------------------------------------------------------------------------
# Barrier stage
# ---------------------------------------------------------------------------

def _proportional_point(na, c):
    """The point whose na rows all equal 0.5 c / max(na, sum c): each row
    sums to at most 1/2 and each column to at most half its supply."""
    return np.tile(0.5 * c / max(na, c.sum()), (na, 1))


def _interior_start(V, c, o, base):
    """A strictly interior point with positive surplus for every row.

    Blends the positive-surplus ``base`` toward the strictly interior
    proportional point; the blend weight is chosen so the minimum surplus
    stays at least half the base point's minimum, never at float noise.
    Returns None when the blend is not strictly interior.
    """
    prop = _proportional_point(len(V), c)
    neg = max(0.0, -float(np.min(_surplus(V, prop, o))))
    m = float(np.min(_surplus(V, base, o)))
    lam = 0.45 if neg == 0.0 else min(0.45, m / (2.0 * (m + neg)))
    lam = max(lam, 1e-7)
    p0 = (1 - lam) * base + lam * prop
    if (np.min(_surplus(V, p0, o)) >= 0.25 * (1 - lam) * m and np.all(p0 > 0)
            and np.all(p0.sum(axis=1) < 1 - 1e-15)
            and np.all(p0.sum(axis=0) < c - 1e-15)):
        return p0
    return None


def _max_step(vals, dvals):
    """The largest step along ``dvals`` that keeps the positive ``vals``
    positive, per problem (inf when none decreases); both are (K, n)."""
    # The min of -vals / dvals over dvals < 0: vals / -0.0 = -inf drops
    # the other entries.
    ratio = np.minimum(dvals, -0.0)
    return -np.maximum.reduce(np.divide(vals, ratio, out=ratio), axis=1)


def _mu(xy, na, mk):
    """Average complementarity (p.z + t.d + q.r) / (na mk + na + mk) of
    the products xy = (p z, beta s, t d, q r), summed in that order."""
    n = na * mk
    total = (np.add.reduce(xy[:, :n], axis=1) + np.add.reduce(xy[:, n + na:n + na + mk], axis=1)
             + np.add.reduce(xy[:, n + na + mk:], axis=1))
    return total / (n + na + mk)


def _strided(base, offset, shape, steps):
    """The view of the C-contiguous (K, L) array ``base`` whose entry
    [k, i, j, ...] is base[k, offset + i steps[0] + j steps[1] + ...];
    ``steps`` are in entries, one per axis of ``shape``."""
    size = base.itemsize
    return np.ndarray((len(base), *shape), base.dtype, buffer=base, offset=offset * size,
                      strides=(base.strides[0], *(step * size for step in steps)))


class _PdPlan:
    """The buffers of one lockstep barrier call over K problems of one
    (na, mk) shape, with every view of them built once.

    ``P`` is the flat (K, 2 L) state: x = (p, beta, t, q) in its first
    half and the partners y = (z, s, d, r) in its second, L = na mk + 2 na
    + mk wide each, so ``x * y`` holds every product (p z, beta s, t d,
    q r) at once.  ``D`` holds a direction's derivatives in the same layout
    and ``M`` the scaled Newton matrices in (dbeta, dt, dq).  The beta and
    q rows of the matrix, and the beta and q parts of its diagonal, scale
    and right-hand side, are paired by strided views, so that each pair is
    one operation.  Each value is computed by the IEEE operations of the
    plain formulas (``-V`` enters where they subtract a multiple of V), so
    a problem's path does not depend on the others of its call.
    """

    def __init__(self, V, c, o, P):
        K, na, mk = V.shape
        n = na * mk
        nx = n + 2 * na + mk
        N = 2 * na + mk
        self.shape = na, mk
        self.V, self.Vn, self.o, self.P = V, -V, o, P
        # (d, r) = (c, 1) - (column sums, row sums).
        self.cr = np.concatenate([c, np.ones((K, na))], axis=1)
        self.D = np.empty_like(P)
        self.x, self.y = P[:, :nx], P[:, nx:]
        self.p, self.z = P[:, :n].reshape(K, na, mk), P[:, nx:nx + n].reshape(K, na, mk)
        self.beta, self.t, self.q = P[:, n:n + na], P[:, n + na:n + na + mk], P[:, n + na + mk:nx]
        self.s, self.dr = P[:, nx + n:nx + n + na], P[:, nx + n + na:]
        self.xtail, self.ytail = P[:, n:nx], P[:, nx + n:]     # (beta, t, q), (s, d, r)
        D = self.D
        self.dx, self.dp = D[:, :nx], D[:, :n].reshape(K, na, mk)
        self.dz = D[:, nx:nx + n].reshape(K, na, mk)
        self.dbeta, self.dt, self.dq = D[:, n:n + na], D[:, n + na:n + na + mk], D[:, n + na + mk:nx]
        self.dtail, self.ds, self.ddr = D[:, n:nx], D[:, nx + n:nx + n + na], D[:, nx + n + na:]
        self.xy = np.empty((K, nx))
        self.sums = np.empty((K, mk + na))
        self.tmp = np.empty((K, na, mk))
        # Pairs over (beta, q): (-w V, w) with w = p/z, (-V, 1) to weigh
        # them, and a direction's (-V a, a).
        self.w2, self.a2, self.tmp2 = (np.empty((K, 2, na, mk)) for _ in range(3))
        self.nwv, self.w, self.a = self.w2[:, 0], self.w2[:, 1], self.a2[:, 1]
        self.vn1 = np.stack([self.Vn, np.ones_like(V)], axis=1)
        self.diag, self.scale, self.g = (np.empty((K, N)) for _ in range(3))
        self.diag_bq, self.scale_bq, self.g_bq = (
            _strided(x, 0, (2, na), (na + mk, 1)) for x in (self.diag, self.scale, self.g))
        # One matrix buffer for the call; the zero blocks are never written.
        self.M = np.zeros((K, N, N))
        flat = self.M.reshape(K, N * N)
        self.mdiag = flat[:, ::N + 1]
        self.bq = _strided(flat, na + mk, (2, na), ((na + mk) * (N - 1), N + 1))  # beta-q, q-beta
        self.blocks = _strided(flat, na, (2, na, mk), ((na + mk) * N, N, 1))      # beta-t, q-t
        self.blocks_t = _strided(flat, na * N, (2, mk, na), (na + mk, N, 1))      # t-beta, t-q

    def gather(self, keep):
        """The plan of the problems ``keep`` (a mask) selects, with their
        state and products."""
        plan = _PdPlan(self.V[keep], self.cr[keep, :self.V.shape[2]], self.o[keep],
                       self.P[keep])
        plan.xy[...] = self.xy[keep]
        return plan

    def fill(self):
        """Compute y = (z, s, d, r) and the products ``xy`` from the state
        x, and return each problem's :func:`_mu`."""
        na, mk = self.shape
        p, xy = self.p, self.xy
        np.subtract(np.einsum("kij,kij->ki", self.V, p), self.o, out=self.s)
        np.add.reduce(p, axis=1, out=self.sums[:, :mk])
        np.add.reduce(p, axis=2, out=self.sums[:, mk:])
        np.subtract(self.cr, self.sums, out=self.dr)
        np.add(self.t[:, None, :], self.q[:, :, None], out=self.z)
        self.z += np.multiply(self.beta[:, :, None], self.Vn, out=self.tmp)
        return _mu(np.multiply(self.x, self.y, out=xy), na, mk)

    def matrix(self):
        """LU factors of the reduced Newton matrix of the perturbed KKT
        system in (dbeta, dt, dq), scaled to a unit diagonal, one (lu, piv)
        per problem, and the scale.  With w = p/z its blocks are beta-beta
        diag(s/beta + sum_j w V^2), beta-t -w V, beta-q diag(-sum_j w V),
        t-t diag(sum_i w + d/t), t-q w^T and q-q diag(sum_j w + r/q).  The
        diagonal comes first, and each block is written already divided by
        its rows' and columns' scales.  The matrix is symmetric, so
        ``dgetrf`` factors its transpose, a Fortran-order view; an exactly
        singular matrix is factored once more with 1e-12 of its largest
        entry added to its diagonal."""
        na, mk = self.shape
        w2, w = self.w2, self.w
        np.divide(self.p, self.z, out=w)
        np.multiply(w, self.Vn, out=self.nwv)
        diag = np.divide(self.ytail, self.xtail, out=self.diag)      # s/beta, d/t, r/q
        self.diag_bq += np.add.reduce(np.multiply(w2, self.vn1, out=self.tmp2), axis=3)
        diag[:, na:na + mk] += np.add.reduce(w, axis=1)
        scale = np.sqrt(diag, out=self.scale)
        sbq = self.scale_bq
        np.divide(diag, scale * scale, out=self.mdiag)
        np.divide(np.add.reduce(self.nwv, axis=2)[:, None], (sbq[:, 0] * sbq[:, 1])[:, None],
                  out=self.bq)
        np.divide(w2, np.multiply(sbq[:, :, :, None], scale[:, None, None, na:na + mk],
                                  out=self.tmp2), out=self.blocks)
        self.blocks_t[...] = self.blocks.transpose(0, 1, 3, 2)
        factors = []
        for Mk in self.M:
            lu, piv, info = linalg.lapack.dgetrf(Mk.T)
            if info > 0:
                Mk.reshape(-1)[::len(Mk) + 1] += 1e-12 * np.max(np.abs(Mk))
                lu, piv, info = linalg.lapack.dgetrf(Mk.T)
            factors.append((lu, piv))
        return factors, scale

    def direction(self, factors, scale, rhs):
        """Write into ``D`` the Newton direction that meets the linearized
        equations z dp + p dz = rz, beta ds + s dbeta = rb, d dt + t dd = rt
        and r dq + q dr = rq, where ``rhs`` = (rz, rb, rt, rq) is laid out
        like x; ``factors`` and ``scale`` come from :meth:`matrix`, whose w
        = p/z it reuses, so both of an iteration's directions share one
        factorization."""
        na, mk = self.shape
        n = na * mk
        a = np.divide(rhs[:, :n].reshape(self.a.shape), self.z, out=self.a)  # dp = a - w dz
        np.multiply(self.Vn, a, out=self.a2[:, 0])
        g = np.divide(rhs[:, n:], self.xtail, out=self.g)          # rb/beta, rt/t, rq/q
        self.g_bq += np.add.reduce(self.a2, axis=3)
        g[:, na:na + mk] += np.add.reduce(a, axis=1)
        g /= scale
        dtail = self.dtail
        for k, (lu, piv) in enumerate(factors):
            dtail[k] = linalg.lapack.dgetrs(lu, piv, g[k])[0]
        dtail /= scale
        dz = np.add(self.dt[:, None, :], self.dq[:, :, None], out=self.dz)
        dz += np.multiply(self.dbeta[:, :, None], self.Vn, out=self.tmp)
        dp = np.subtract(a, np.multiply(self.w, dz, out=self.tmp), out=self.dp)
        np.einsum("kij,kij->ki", self.V, dp, out=self.ds)
        np.add.reduce(dp, axis=1, out=self.ddr[:, :mk])
        np.add.reduce(dp, axis=2, out=self.ddr[:, mk:])
        np.negative(self.ddr, out=self.ddr)


def _primal_dual_solve(V, c, o, x0, trace, centre=False):
    """Mehrotra's predictor-corrector path, with the batch axis.

    The state x = (p, beta, t, q) keeps p, the surplus s = V.p - o, the
    slacks r = 1 - sum_j p and d = c - sum_i p, beta, z, t and q strictly
    positive, and each iteration drives (p z, 1 - beta s, t d, q r) toward
    (sigma mu, 0, sigma mu, sigma mu): one LU of the reduced matrix, two
    solves with it (the affine step, then the corrector with
    sigma = (mu_aff / mu)^3 and the second-order terms of the three
    products), and one step length for all variables, 0.99 of the largest
    that keeps them positive.  The state and its partners live in one flat
    buffer and each direction's derivatives in a second one (see
    :class:`_PdPlan`), so the products, the right-hand sides and a step
    length are each one or two operations over the pair.  With ``centre``
    the path ends on the central path at mu = ``_MU_END``: the corrector's
    target sigma mu is floored at ``_MU_END``, and once it reaches it the
    second-order terms are dropped, so the step only centres.  A problem
    stops once its surpluses meet beta s = 1 to ``_PD_SURPLUS_TOL`` and
    its mu is at most ``_MU_END`` (with ``centre``: its products p z, t d
    and q r are all ``_MU_END`` to ``_CENTRE_TOL`` relative), or when its
    step is shorter than 1e-8 or not finite, or after 60 steps.  The call
    then carries on with a plan of the problems still running.  Returns
    (p, t, q, iterations), each with the batch axis.  ``trace``, when
    given, gets one row per Newton step of the first problem.
    """
    K, na, mk = V.shape
    n, nx = na * mk, x0.shape[1]
    out = x0.copy()
    iters = np.zeros(K, dtype=int)
    ids = np.arange(K)                   # the problems of the plan
    P = np.empty((K, 2 * nx))
    P[:, :nx] = x0
    plan = _PdPlan(V, c, o, P)
    steps = 0
    moving = True
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = plan.fill()
        while True:
            xy = plan.xy
            rb = 1.0 - xy[:, n:n + na]
            if centre:
                gap = np.abs(xy - _MU_END)
                gap[:, n:n + na] = 0.0
                ended = np.maximum.reduce(gap, axis=1) <= _CENTRE_TOL * _MU_END
            else:
                ended = mu <= _MU_END
            if ended.any():
                ended &= np.maximum.reduce(np.abs(rb), axis=1) <= _PD_SURPLUS_TOL
            running = ~ended & moving
            if steps == 60:
                running[:] = False
            if not running.all():
                out[ids[~running]] = plan.x[~running]
                iters[ids[~running]] = steps
                if not running.any():
                    break
                ids, plan, mu, rb = ids[running], plan.gather(running), mu[running], rb[running]
                xy = plan.xy
            P, D, dx = plan.P, plan.D, plan.dx
            factors, scale = plan.matrix()
            rhs = np.negative(xy)
            rhs[:, n:n + na] = rb
            plan.direction(factors, scale, rhs)
            a_aff = np.minimum(1.0, _max_step(P, D))
            aff = P + a_aff[:, None] * D
            mu_aff = _mu(np.multiply(aff[:, :nx], aff[:, nx:], out=aff[:, :nx]), na, mk)
            target = (mu_aff / mu) ** 3 * mu
            second = dx * D[:, nx:]
            if centre:
                target = np.maximum(target, _MU_END)
                second[target <= _MU_END] = 0.0
            np.subtract(target[:, None], xy, out=rhs)
            rhs -= second
            rhs[:, n:n + na] = rb
            plan.direction(factors, scale, rhs)
            alpha = np.minimum(1.0, 0.99 * _max_step(P, D))
            moving = (alpha > 1e-8) & np.logical_and.reduce(np.isfinite(dx), axis=1)
            # Only where moving: a stopped problem's direction may not be
            # finite, and 0 * inf would write nan into its state.
            move = np.multiply(alpha[:, None], dx, out=second)
            if not moving.all():
                move[~moving] = 0.0
            plan.x += move
            steps += 1
            mu = plan.fill()
            if trace is not None and ids[0] == 0:
                trace.append((steps, float(np.log(plan.s[0]).sum()), float(mu[0])))
    return out[:, :n].reshape(K, na, mk), out[:, n + na:n + na + mk], out[:, n + na + mk:], iters


def _pd_start(V, o, p):
    """The primal-dual start at an interior primal point p: beta = 1/s and
    t = q = max_ij beta_i V_ij, so that every z_ij is at least that max."""
    beta = 1.0 / _surplus(V, p, o)
    top = float(np.max(beta[:, None] * V))
    return np.concatenate([p.ravel(), beta, np.full(V.shape[1] + V.shape[0], top)])


# ---------------------------------------------------------------------------
# Active-set polish
# ---------------------------------------------------------------------------

def _polish(V, c, o, p_in, S, R, C, t0, q0):
    """Newton on the stationarity system of a guessed active set.

    The guess is three bool masks: the support S (na, mk), the tight rows
    R (na,) and the tight columns C (mk,); the masks passed in are not
    changed.  Starting from ``p_in`` on S, it iteratively repairs the
    guess (dropping negative variables or prices, adding violated
    constraints or support pairs) and returns the best (p, t, q) found,
    with exact zeros off support.  Prices are warmstarted from the barrier
    duals ``t0`` and ``q0`` so underdetermined price components stay near
    the central-path values.  A round whose candidate is already within
    1e-12 of the value scale ends the polish; any other round first moves
    its prices by :func:`_shift_components` and ranks the shifted
    candidate.  Returns the candidate (None only when no usable iterate
    exists), its :func:`_quick_residual` (inf for None) and the number of
    least-squares steps taken.
    """
    scale = _value_scale(V)
    S, R, C = S.copy(), R.copy(), C.copy()
    p = np.where(S, p_in, 0.0)

    best = None
    steps = 0
    for _ in range(_POLISH_ROUNDS):
        out, taken = _polish_newton(V, c, o, p, S, R, C, t0, q0)
        steps += taken
        if out is None:
            break
        p, t, q = out
        t0, q0 = t, q
        cand = (np.maximum(p, 0.0), np.maximum(t, 0.0), np.maximum(q, 0.0))
        resid = _quick_residual(V, c, o, *cand)
        if resid >= 1e-12 * scale:
            # The round missed: shift the prices and rank the shifted candidate.
            s_cur = _surplus(V, p, o)
            if np.all(s_cur > 0):
                _shift_components(V / s_cur[:, None], t, q, S, R, C)
                cand = (cand[0], np.maximum(t, 0.0), np.maximum(q, 0.0))
                resid = _quick_residual(V, c, o, *cand)
        if best is None or resid < best[0]:
            best = (resid, cand)
        if resid < 1e-12 * scale:
            break

        # Negative or collapsed support pairs (degenerate complementarity
        # leaves pairs hovering at zero; their equality constraint must go):
        # drop the smallest, the first in row-major order on a tie.
        collapsed = S & (p < 1e-11)
        changed = bool(collapsed.any())
        if changed:
            worst = np.argmin(np.where(collapsed, p, math.inf))
            S.flat[worst] = False
            p.flat[worst] = 0.0
        negative_t, negative_q = C & (t < -1e-11), R & (q < -1e-11)
        C &= ~negative_t
        R &= ~negative_q
        changed |= bool(negative_t.any() or negative_q.any())
        if not changed:
            over_r = ~R & (p.sum(axis=1) > 1 + 1e-11)
            over_c = ~C & (p.sum(axis=0) > c + 1e-11)
            R |= over_r
            C |= over_c
            changed = bool(over_r.any() or over_c.any())
        if not changed:
            violated = _violated_pairs(V, o, p, t, q, S, R, C, 1e-10 * scale)
            S[violated] = True
            p[violated] = 0.0
            changed = len(violated[0]) > 0
        if not changed:
            break
    if best is None:
        return None, math.inf, steps
    return best[1], best[0], steps


def _price_gap(V, s, t, q, R, C):
    """V_ij / s_i - t_j - q_i over every pair, with prices counted on the
    tight columns C and rows R only."""
    return (V / s[:, None] - np.where(C, t, 0.0)) - np.where(R, q, 0.0)[:, None]


def _violated_pairs(V, o, p, t, q, S, R, C, threshold):
    """The (rows, cols) of up to three pairs off the support S whose
    :func:`_price_gap` exceeds ``threshold``: the largest gaps first, ties
    to the larger pair."""
    mk = V.shape[1]
    gap = np.where(S, -math.inf, _price_gap(V, _surplus(V, p, o), t, q, R, C))
    gi, gj = np.nonzero(gap > threshold)
    order = np.lexsort((gi * mk + gj, gap[gi, gj]))[::-1][:3]
    return gi[order], gj[order]


def _polish_residual(V, c, o, p, t, q, S, R, C):
    """Residual F of the polish's square system and the surpluses s, or
    (None, s) when a surplus is not positive.

    F stacks the :func:`_price_gap` of the support pairs, in row-major
    order, the tight row sums minus 1 and the tight column sums minus
    their supplies.
    """
    s = _surplus(V, p, o)
    if np.any(s <= 0):
        return None, s
    F = np.concatenate([_price_gap(V, s, t, q, R, C)[S], p[R].sum(axis=1) - 1,
                        _column_sums(p)[C] - c[C]])
    return F, s


def _column_sums(p):
    """Column sums added in the same order as ``p[:, j].sum()``, which
    ``p.sum(axis=0)`` does not keep."""
    return np.ascontiguousarray(p.T).sum(axis=1)


def _jacobian_frame(V, S, R, C):
    """What the Jacobian of :func:`_polish_residual` keeps while the guess
    (S, R, C) stays: its shape and +-1 entries, in (p on the support S, t
    on the tight columns C, q on the tight rows R), and the parts of its
    support block, -v_a v_b / s_i^2 over pairs a, b of one agent i."""
    Si, Sj = np.nonzero(S)
    nS, nR, nC = len(Si), np.count_nonzero(R), np.count_nonzero(C)
    r_at, c_at = np.cumsum(R) - 1, np.cumsum(C) - 1    # positions within R and C
    v = V[Si, Sj]
    k = np.arange(nS)
    on_c, on_r = C[Sj], R[Si]
    kc, kr = k[on_c], k[on_r]
    tc, tr = c_at[Sj[on_c]], r_at[Si[on_r]]
    ones = (np.concatenate([kc, kr, nS + tr, nS + nR + tc]),
            np.concatenate([nS + tc, nS + nC + tr, kr, kc]),
            np.repeat([-1.0, 1.0], len(kc) + len(kr)))
    return (nS + nR + nC, nS + nC + nR), ones, Si, Si[:, None] == Si[None, :], \
        -v[:, None] * v[None, :]


def _polish_jacobian(frame, s):
    """Jacobian of :func:`_polish_residual` at the surpluses s, from the
    :func:`_jacobian_frame` of its guess."""
    shape, (rows, cols, ones), Si, same_agent, vv = frame
    J = np.zeros(shape)
    # s_i ** 2 by the scalar operator (C pow): the array square x * x
    # differs from it in the last bit for about one x in a thousand, and
    # the polish path can turn on that bit.
    s2 = np.array([x ** 2 for x in s.tolist()])
    J[:len(Si), :len(Si)] += np.where(same_agent, vv / s2[Si][:, None], 0.0)
    J[rows, cols] = ones
    return J


def _polish_step(J, F):
    """The minimum-norm least-squares solution of J x = -F, by QR with
    column pivoting (LAPACK ``dgelsy``, called directly with the workspace
    ``dgelsy_lwork`` asks for, as ``scipy.linalg.lstsq`` calls it).  J is
    square and rank deficient whenever row and column sums are redundant or
    prices can shift along a component, so its rank is cut at numpy's
    ``rcond=None`` rule, eps * max(J.shape)."""
    cond = np.finfo(float).eps * max(J.shape)
    lwork = int(linalg.lapack.dgelsy_lwork(*J.shape, 1, cond)[0])
    return linalg.lapack.dgelsy(J, -F, np.zeros(J.shape[1], dtype=np.int32), cond, lwork)[1]


def _polish_newton(V, c, o, p_in, S, R, C, t0, q0):
    """Damped Newton on the square system of :func:`_polish_residual`:
    ((p, t, q) or None, the number of least-squares steps taken)."""
    na, mk = V.shape
    nS, nC = np.count_nonzero(S), np.count_nonzero(C)
    if nS + np.count_nonzero(R) + nC == 0:
        return (np.zeros_like(p_in), np.zeros(mk), np.zeros(na)), 0

    p = p_in.copy()
    t = np.zeros(mk)
    q = np.zeros(na)
    t[C] = np.maximum(t0[C], 0.0)
    q[R] = np.maximum(q0[R], 0.0)

    frame = _jacobian_frame(V, S, R, C)
    for it in range(_POLISH_NEWTON_ITERS):
        F, s = _polish_residual(V, c, o, p, t, q, S, R, C)
        if F is None:
            return None, it
        if (np.maximum.reduce(np.abs(F)) < 1e-13 * max(
                1.0, float(np.maximum.reduce(np.abs(V / s[:, None]), axis=None)))):
            return (p, t, q), it
        step = _polish_step(_polish_jacobian(frame, s), F)

        # Damp to keep every surplus positive.
        dp = np.zeros_like(p)
        dp[S] = step[:nS]
        ds = np.einsum("ij,ij->i", V, dp)
        alpha = 1.0
        neg = ds < 0
        if np.any(neg):
            alpha = min(alpha, 0.9 * float(np.min(-s[neg] / ds[neg])))
        if alpha <= 0:
            return None, it + 1
        p = p + alpha * dp
        t[C] += alpha * step[nS:nS + nC]
        q[R] += alpha * step[nS + nC:]
    # Not fully converged: hand the best iterate to the repair loop anyway.
    if _polish_residual(V, c, o, p, t, q, S, R, C)[0] is None:
        return None, _POLISH_NEWTON_ITERS
    return (p, t, q), _POLISH_NEWTON_ITERS


# ---------------------------------------------------------------------------
# Deterministic fills
# ---------------------------------------------------------------------------

def _saturate_rows(V, c, p, tol=1e-12):
    """Top up under-filled rows with worthless residual capacity.

    Only pairs with (numerically) zero value are used, so utilities and the
    price certificate are unchanged; at an optimum any residual capacity
    facing an under-filled row is worthless to it.
    """
    scale = _value_scale(V)
    spare = c - p.sum(axis=0)
    deficits = 1 - p.sum(axis=1)
    for i in np.flatnonzero(deficits > tol):
        deficit = deficits[i]
        for j in np.flatnonzero(V[i] <= 1e-12 * scale):
            if deficit <= tol:
                break
            if spare[j] <= tol:
                continue
            take = min(deficit, spare[j])
            p[i, j] += take
            spare[j] -= take
            deficit -= take
    return p


def _degenerate_fill(full_p, degenerate, supplies):
    """Pro-rata share of each item's residual supply for degenerate rows,
    scaled down to a row sum of 1 where it would pass that."""
    if not degenerate:
        return full_p
    residual = np.maximum(np.asarray(supplies) - full_p.sum(axis=0), 0.0)
    row = residual / len(degenerate)       # every degenerate row gets this one
    total = row.sum()
    if total > 1:
        row *= 1 / total
    full_p[sorted(degenerate)] = row
    return full_p


# ---------------------------------------------------------------------------
# Main entry point
# ---------------------------------------------------------------------------

@dataclass
class _Start:
    """A problem reduced to its active rows and kept (positive-supply)
    columns, screened, with the barrier's start for its live rows and,
    once :func:`_prepare` has run the barrier, its end point."""

    V: np.ndarray
    c: np.ndarray
    o: np.ndarray
    keep: np.ndarray
    live: list[int]
    degenerate: set[int]
    x0: np.ndarray | None      # None when no row is live
    seconds: float             # wall time of these stages
    end: tuple | None = None   # the barrier's (p, t, q) on the live rows
    iterations: int = 0        # its Newton steps
    batch: int = 1             # the problems of its lockstep call
    barrier_s: float = 0.0     # that call's wall time


def _start(problem: NswProblem, warm_start: np.ndarray | None = None) -> _Start:
    """The stages of :func:`_prepare` before the barrier, for one problem:
    degeneracy screen and start point, and an interior primal point,
    extended to the primal-dual state of :func:`_pd_start`.  ``warm_start``, a finite n_agents-by-n_items matrix,
    is the screen's hint; any other raises :class:`DimensionMismatch`."""
    began = perf_counter()
    inst = problem.instance
    active = list(problem.active_agents)
    V_full = np.asarray(inst.values)
    scale = _value_scale(V_full)
    deg_tol = 1e-9 * scale

    c_full = np.asarray(inst.supplies, dtype=float)
    keep = np.where(c_full > _SUPPLY_EPS)[0]
    V = V_full[np.ix_(active, keep)]
    c = c_full[keep]
    o = np.asarray(problem.offsets, dtype=float)
    hint = None
    if warm_start is not None:
        hint = np.asarray(warm_start, dtype=float)
        if hint.shape != (inst.n_agents, inst.n_items) or not np.all(np.isfinite(hint)):
            raise DimensionMismatch(
                f"warm_start must be a finite ({inst.n_agents}, {inst.n_items}) matrix")
        hint = hint[np.ix_(active, keep)]

    live, degenerate, base = _screen_degenerate(V, c, o, deg_tol, hint)
    x0 = None
    if live:
        x0 = _interior_start(V[live], c, o[live], base)
        if x0 is None:
            raise Infeasible("no strictly interior point with positive surplus")
        x0 = _pd_start(V[live], o[live], x0)
    return _Start(V=V, c=c, o=o, keep=keep, live=live, degenerate=degenerate,
                  x0=x0, seconds=perf_counter() - began)


def _prepare(problems, warm_start=None, trace=None, centre=False):
    """Screen and start every problem, then run the barrier of each one
    that has a live row; one :class:`_Start` per problem, or the
    :class:`MatchingError` its start raised, kept so that :func:`solve`
    raises it in turn.

    Problems of one live shape run :func:`_primal_dual_solve` in one
    lockstep call, several when their Newton matrices would pass
    ``_LOCKSTEP_BYTES``.  With ``centre`` a call below ``_CENTRE_PAIRS``
    live pairs ends its path centred; ``trace`` gets the Newton steps of a
    call's first problem.  Each start records its end point, its Newton
    steps, the problems of its call and that call's wall time.
    """
    starts: list[_Start | MatchingError] = []
    for problem in problems:
        try:
            starts.append(_start(problem, warm_start))
        except MatchingError as err:
            starts.append(err)
    groups: dict[tuple, list[_Start]] = {}
    for st in starts:
        if isinstance(st, _Start) and st.x0 is not None:
            groups.setdefault((len(st.live), len(st.keep)), []).append(st)
    for (na, mk), group in groups.items():
        per_call = max(1, _LOCKSTEP_BYTES // (8 * (2 * na + mk) ** 2))
        for at in range(0, len(group), per_call):
            part = group[at:at + per_call]
            began = perf_counter()
            V, c, o, x0 = (np.stack(x) for x in zip(
                *[(st.V[st.live], st.c, st.o[st.live], st.x0) for st in part]))
            p, t, q, iters = _primal_dual_solve(V, c, o, x0, trace,
                                                centre and na * mk < _CENTRE_PAIRS)
            seconds = perf_counter() - began
            for k, st in enumerate(part):
                st.end, st.iterations = (p[k], t[k], q[k]), int(iters[k])
                st.batch, st.barrier_s = len(part), seconds
    return starts


def _best_polish(start: _Start, tol):
    """Polish the barrier's end point on the support guess of each
    threshold of ``_TAUS`` in turn, until a candidate's residual is at
    most tol / 2.  A threshold's guess is the pairs whose mass exceeds it,
    with the rows and columns whose slack is below it tight; a guess
    equal to one already polished is skipped, since its polish would
    repeat bit for bit.  Returns the best candidate's (residual, (p, t, q),
    tau), which is (inf, None, None) when no polish gave one, and the
    least-squares steps taken."""
    live = start.live
    Vl, ol, c = start.V[live], start.o[live], start.c
    p_bar, t_bar, q_bar = start.end
    best = (math.inf, None, None)
    steps = 0
    tried = []
    for tau in _TAUS:
        guess = (p_bar > tau, 1 - p_bar.sum(axis=1) < tau, c - _column_sums(p_bar) < tau)
        if any(all(map(np.array_equal, guess, seen)) for seen in tried):
            continue
        tried.append(guess)
        polished, resid, taken = _polish(Vl, c, ol, p_bar, *guess, t_bar, q_bar)
        steps += taken
        if polished is not None and resid < best[0]:
            best = (resid, polished, tau)
        if best[0] <= 0.5 * tol:
            break
    return best, steps


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise DimensionMismatch("tol must be finite and positive")


def solve_many(problems: Sequence[NswProblem], tol: float = DEFAULT_KKT_TOL,
               warm_start: np.ndarray | None = None) -> list[NswSolution]:
    """Solve each problem to the unique utilities of ``solve(problem,
    tol)``, bit for bit a batch of one, with one lockstep primal-dual
    barrier per live shape.

    :func:`_prepare` screens and starts each problem and runs the barriers
    of each live shape in lockstep (several calls when their Newton
    matrices would pass ``_LOCKSTEP_BYTES``), the path :func:`solve` takes
    for a lone problem, and :func:`solve` finishes each from there.  Every
    result is, bit for bit, that of a batch of one,
    ``solve_many([problem])[0]``; its utilities equal :func:`solve`'s to
    1e-9, but where the optimum is not unique its assignment may be
    another optimal one, since a lone solve below ``_CENTRE_PAIRS`` pairs
    ends its path centred and a batch does not.  ``warm_start`` (a full
    n_agents-by-n_items matrix, for instance the solution of the full
    market) is each problem's screen start point wherever it gives every
    live row a clearly positive surplus; it only changes where the barrier
    starts, and a warm_start that is not a finite matrix of that shape
    raises :class:`DimensionMismatch`.  The sequential loop decides which
    exception is raised: the first failing problem's.
    ``metadata["barrier_batch"]`` counts the problems of each lockstep
    call, and ``metadata["stage_s"]["barrier"]`` is that call's wall time,
    shared by its problems.
    """
    _check_tol(tol)
    # ``solve`` is looked up at call time, so a wrapper around nsw.solve
    # sees every problem finished.
    return [solve(problem, tol=tol, _prepared=start)
            for problem, start in zip(problems, _prepare(problems, warm_start))]


def solve(problem: NswProblem, tol: float = DEFAULT_KKT_TOL,
          trace: list | None = None, *, _prepared=None) -> NswSolution:
    """Solve the welfare program and certify the result.

    The returned solution satisfies ``kkt_residual <= tol``: on values
    renormalized to unit surplus for every live agent, its prices are
    non-negative, complementary slack and price feasible, tight on the
    support, each to within ``tol`` (see :func:`kkt_check`).  That bounds
    the violation of the optimality conditions; it does not put the
    objective within ``tol`` of the optimum.  By weak duality it puts the
    objective within about (2 n_agents + 2 n_items) times the residual.
    The solve makes one attempt: :func:`_prepare` screens the problem and runs
    one primal-dual barrier path, as for a batch of one, and the polish
    then tries the support guess of each threshold in turn.  Below
    ``_CENTRE_PAIRS`` live pairs the path ends centred at mu = ``_MU_END``
    here but not in :func:`solve_many`; both reach the unique optimal
    utilities, but where the optimal assignment is not unique they may
    reach different ones.
    Raises :class:`Infeasible` when an active agent cannot reach
    non-negative surplus, and :class:`NoConvergence` when no polished
    candidate meets ``tol``.
    ``metadata["barrier"]`` names the barrier path that ran,
    ``"primal-dual"`` (None when no row is live and no barrier ran);
    ``metadata["iterations"]`` counts its Newton steps and
    ``metadata["polish_steps"]`` the least-squares steps of every polish
    the solve tried; ``metadata["polish"]`` is the support threshold tau
    whose guess gave the winning candidate (None when no row is live);
    ``metadata["barrier_batch"]`` is the number of problems whose barrier
    ran in one lockstep call (1 here; see :func:`solve_many`); and
    ``metadata["stage_s"]`` holds the ``perf_counter`` seconds of the
    stages: ``start`` (screen and interior start), ``barrier``, ``polish``
    (every polish tried) and ``finish`` (assembly and the certificate
    check).  ``trace``, when given, gets one row per Newton step of the
    barrier: (iteration, sum_i log s_i, mu).
    """
    _check_tol(tol)
    start = (_prepare([problem], trace=trace, centre=True)[0] if _prepared is None
             else _prepared)
    if isinstance(start, MatchingError):
        raise start
    stages = {"start": start.seconds, "barrier": start.barrier_s, "polish": 0.0}
    iters_used = start.iterations
    polish_steps = 0
    winner = None

    if start.live:
        mark = perf_counter()
        (best_resid, best, winner), polish_steps = _best_polish(start, tol)
        stages["polish"] = perf_counter() - mark
        if best_resid > tol:
            # The best candidate is not certified and may not even be
            # feasible, so it is never assembled or validated.
            raise NoConvergence(iters_used, best_resid)
        p_live, t_kept, q_live = best
    mark = perf_counter()               # the end of the last timed stage

    # Assemble the full assignment.
    inst = problem.instance
    active = list(problem.active_agents)
    V_full = np.asarray(inst.values)
    V, c, keep, live_local = start.V, start.c, start.keep, start.live
    degenerate = frozenset(active[i] for i in start.degenerate)
    c_full = np.asarray(inst.supplies, dtype=float)
    n, m = inst.n_agents, inst.n_items
    live_global = [active[i] for i in live_local]
    full_p = np.zeros((n, m))
    t_full = np.zeros(m)
    q_full = np.zeros(n)
    if live_local:
        full_p[np.ix_(live_global, keep)] = _saturate_rows(
            V[live_local], c, np.maximum(p_live, 0.0))
        t_full[keep] = np.maximum(t_kept, 0.0)
        q_full[live_global] = np.maximum(q_live, 0.0)
    full_p = _degenerate_fill(full_p, degenerate, c_full)

    offsets_full = np.zeros(n)
    offsets_full[active] = problem.offsets

    # Dropped zero-supply columns: price them at the best unmet demand.
    kept = set(keep.tolist())
    dropped = [j for j in range(m) if j not in kept]
    if dropped and live_global:
        s_live = _surplus(V_full[live_global], full_p[live_global], offsets_full[live_global])
        for j in dropped:
            t_full[j] = max(0.0, float(np.max(
                V_full[live_global, j] / s_live - q_full[live_global])))

    assignment = FractionalAssignment.from_probs(full_p, tolerance=1e-9)
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

    stages["finish"] = perf_counter() - mark
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
                  "barrier": "primal-dual" if start.live else None,
                  "polish": winner,
                  "polish_steps": polish_steps,
                  "barrier_batch": start.batch,
                  "stage_s": stages,
                  "active_agents": tuple(active),
                  "offsets": offsets_full.tolist()},
    )
