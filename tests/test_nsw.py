import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
from scipy.optimize import linprog

from matchlab import instances, nsw
from matchlab.analysis import benchmark
from matchlab.core import (
    DegenerateNormalization,
    DimensionMismatch,
    FractionalAssignment,
    Infeasible,
    NoConvergence,
    NotOptimal,
    validate_instance,
    uniform_disagreement,
    utilities,
)
from matchlab.lottery import sinkhorn
from matchlab.mechanisms import pa_run
from matchlab.nsw import (
    DEFAULT_KKT_TOL,
    Duals,
    NswProblem,
    kkt_check,
    recover_duals,
    renormalize,
    solve,
)


def ident3():
    return FractionalAssignment.from_probs(np.eye(3))


class TestSolveExamples:
    def test_table1_full(self, table1):
        sol = solve(NswProblem.create(table1))
        assert np.allclose(sol.utilities, [1, 2, 1], atol=1e-9)
        assert np.allclose(sol.assignment.probs, np.eye(3), atol=1e-8)
        assert sol.kkt_residual <= 1e-7

    def test_table1_restricted_pair(self, table1):
        sol = solve(NswProblem.create(table1, active_agents=(0, 1)))
        assert np.allclose(sol.utilities[:2], [1.5, 1.5], atol=1e-9)
        assert np.allclose(sol.assignment.probs[0], [0.5, 0.5, 0.0], atol=1e-8)
        assert np.allclose(sol.assignment.probs[1], [0.0, 0.5, 0.5], atol=1e-8)
        assert np.array_equal(sol.assignment.probs[2], np.zeros(3))

    def test_single_agent_two_items(self):
        inst = validate_instance([[1.0, 0.0]])
        sol = solve(NswProblem.create(inst))
        assert np.allclose(sol.assignment.probs, [[1.0, 0.0]], atol=1e-9)
        assert sol.utilities[0] == pytest.approx(1.0, abs=1e-9)

    def test_identical_pair_splits_item(self):
        # Independent oracle: grid search over the one-dimensional split of
        # item 1 maximizing the utility product at resolution 1e-4.
        inst = validate_instance([[1.0, 0.0], [1.0, 0.0]])
        best_x, best = None, -1.0
        for k in range(1, 10_000):
            x = k * 1e-4
            if x >= 1.0:
                break
            prod = x * (1.0 - x)
            if prod > best:
                best, best_x = prod, x
        assert best_x == pytest.approx(0.5, abs=1e-4)
        sol = solve(NswProblem.create(inst))
        assert sol.utilities[0] == pytest.approx(best_x, abs=1e-4)
        assert np.allclose(sol.utilities, [0.5, 0.5], atol=1e-9)

    # Ties leave the optimal assignment open.  A lone solve of this size
    # ends its barrier path centred, and the polish keeps that point's
    # symmetric split; a batch stops off centre and may return another
    # optimal assignment, so only the lone solve is pinned.
    @pytest.mark.parametrize("values,tied,share", [
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 3, 1 / 3),
        ([[2, 2, 1], [2, 2, 1], [0, 0, 1]], 2, 0.5)])
    def test_lone_solve_splits_ties_evenly(self, values, tied, share):
        sol = solve(NswProblem.create(validate_instance(values)))
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert np.allclose(sol.assignment.probs[:tied, :tied], share, atol=1e-7)


class TestKktCheck:
    def test_printed_initial_duals_are_clean(self, table1):
        duals = Duals(t=np.array([0.0, 1.0, 1.0]), q=np.array([1.0, 0.0, 0.0]))
        resid = kkt_check(table1, ident3(), duals)
        assert resid <= 1e-9

    def test_final_duals_solved_by_hand(self, table1):
        # For the two-agent restriction, the complementary-slackness system
        # on the support {(a,A),(a,B),(b,B),(b,C)} with columns A and C
        # slack forces t=(0,2/3,0) and q=(2/3,2/3).
        p = FractionalAssignment.from_probs(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        duals = Duals(t=np.array([0.0, 2 / 3, 0.0]),
                      q=np.array([2 / 3, 2 / 3, 0.0]))
        resid = kkt_check(table1, p, duals, skip_agents={2})
        assert resid <= 1e-12

    def test_published_final_duals_violate_slackness(self, table1):
        # The alternative prices t=(2/3,4/3,2/3), q=(0,0) price item A
        # positively while it is only half allocated; the checker must
        # report that honestly (residual t_A * slack = 1/3).
        p = FractionalAssignment.from_probs(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        duals = Duals(t=np.array([2 / 3, 4 / 3, 2 / 3]),
                      q=np.array([0.0, 0.0, 0.0]))
        resid = kkt_check(table1, p, duals, skip_agents={2})
        assert resid == pytest.approx(1 / 3, abs=1e-12)

    def test_identity_on_diagonal_values(self):
        inst = validate_instance([[1, 0], [0, 1]])
        duals = Duals(t=np.ones(2), q=np.zeros(2))
        resid = kkt_check(inst, FractionalAssignment.from_probs(np.eye(2)),
                          duals)
        assert resid <= 1e-12

    def test_degenerate_agent_raises(self):
        inst = validate_instance([[0.0, 0.0], [1.0, 1.0]])
        duals = Duals(t=np.zeros(2), q=np.zeros(2))
        with pytest.raises(DegenerateNormalization):
            kkt_check(inst, FractionalAssignment.from_probs(np.eye(2)), duals)


class TestRenormalize:
    def test_agent_b_initial(self, table1):
        vhat, factors = renormalize(table1, ident3())
        assert np.allclose(vhat[1], [0.0, 1.0, 0.5])
        assert factors[1] == pytest.approx(0.5)

    def test_unit_utility_row_unchanged(self, table1):
        vhat, _ = renormalize(table1, ident3())
        assert np.allclose(vhat[0], table1.values[0])

    def test_final_agent_a(self, table1):
        p = FractionalAssignment.from_probs(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        vhat, _ = renormalize(table1, p, skip_agents={2})
        assert np.allclose(vhat[0], [2 / 3, 4 / 3, 0.0])

    def test_zero_surplus_raises(self):
        inst = validate_instance([[1.0, 1.0]])
        with pytest.raises(DegenerateNormalization):
            renormalize(inst, FractionalAssignment.from_probs([[0.0, 0.0]]))

    def test_rows_match_agent_loop(self):
        # The array expressions against the agent-by-agent loop, bit for
        # bit, with skip sets that hold agents out of range; where several
        # checked agents have no surplus, the error names the first.
        raised = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n, m = (int(x) for x in rng.integers(1, 8, size=2))
            inst = validate_instance(rng.uniform(0.0, 2.0, (n, m)))
            p = rng.uniform(size=(n, m)) / m
            p[rng.uniform(size=n) < 0.2] = 0.0                # no surplus
            assignment = FractionalAssignment.from_probs(p)
            offsets = rng.uniform(0.0, 0.05, n) * (seed % 2)
            skip = {int(i) for i in rng.integers(-2, n + 2, size=rng.integers(0, n + 1))}
            try:
                want = _renormalize_loop(inst, assignment, offsets, skip)
            except DegenerateNormalization as err:
                with pytest.raises(DegenerateNormalization) as got:
                    renormalize(inst, assignment, offsets, skip_agents=skip)
                assert str(got.value) == str(err)
                raised += 1
                continue
            for a, b in zip(renormalize(inst, assignment, offsets, skip_agents=skip), want):
                assert a.tobytes() == b.tobytes()
        assert 20 <= raised <= 180


def _renormalize_loop(inst, assignment, offsets, skip):
    """Reference for ``nsw.renormalize``: one agent at a time."""
    s = utilities(inst, assignment) - offsets
    scale = max(1.0, float(np.max(inst.values)))
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


class TestRecoverDuals:
    def test_table1_initial(self, table1):
        duals = recover_duals(table1, ident3())
        assert kkt_check(table1, ident3(), duals) <= 1e-9

    def test_table1_final(self, table1):
        p = FractionalAssignment.from_probs(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        duals = recover_duals(table1, p, skip_agents={2})
        assert kkt_check(table1, p, duals, skip_agents={2}) <= 1e-9

    def test_perturbed_assignment_not_optimal(self, table1):
        # Swap eps of mass between agents a,b on items A,B; the objective
        # strictly drops, so no price certificate can exist.
        eps = 0.05
        p_good = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        p_bad = p_good.copy()
        p_bad[0, 0] -= eps
        p_bad[0, 1] += eps
        p_bad[1, 1] -= eps
        p_bad[1, 0] += eps
        u_good = utilities(table1, p_good)[:2]
        u_bad = utilities(table1, p_bad)[:2]
        assert np.prod(u_bad) < np.prod(u_good) - 1e-6
        with pytest.raises(NotOptimal):
            recover_duals(table1, FractionalAssignment.from_probs(p_bad),
                          skip_agents={2}, tol=1e-7)

    def test_one_by_one(self):
        inst = validate_instance([[2.0]])
        p = FractionalAssignment.from_probs([[1.0]])
        duals = recover_duals(inst, p)
        # Normalized value is 1 on a tight row and column: t + q = 1.
        assert duals.t[0] + duals.q[0] == pytest.approx(1.0, abs=1e-9)
        assert kkt_check(inst, p, duals) <= 1e-12

    def test_component_shift_matches_pairwise_scan(self):
        # The one-pass bounds take max/min over the same values as the
        # pair-by-pair loop, and after a shift only later components are
        # bounded again, so prices agree bit for bit.
        shifted = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n, m = rng.integers(2, 7, size=2)
            vhat = rng.uniform(0.0, 2.0, (n, m))
            t0 = rng.uniform(-0.3, 1.0, m)
            q0 = rng.uniform(-0.3, 1.0, n)
            pairs = [(i, j) for i in range(n) for j in range(m)]
            support = [pairs[k] for k in sorted(rng.choice(
                len(pairs), size=rng.integers(1, len(pairs)), replace=False))]
            rows = sorted(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
            cols = sorted(rng.choice(m, size=rng.integers(0, m + 1), replace=False))
            t, q = t0.copy(), q0.copy()
            nsw._shift_components(vhat, t, q, *_masks((n, m), support, rows, cols))
            t_ref, q_ref = t0.copy(), q0.copy()
            _shift_components_loop(vhat, t_ref, q_ref, support, rows, cols)
            assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)
            shifted += not np.array_equal(t, t0)
        assert shifted >= 20
        # Markets up to 40 x 40 with a permutation support plus a few extra
        # pairs, as a polish leaves them: one free component per matched
        # pair.  Prices are drawn so that many cases shift two or more
        # components, where a later component's bounds depend on the
        # earlier shifts.
        several = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            n, m = (int(x) for x in rng.integers(8, 41, size=2))
            vhat = rng.uniform(0.0, 1.0, (n, m))
            k = min(n, m)
            support = set(zip(rng.permutation(n)[:k].tolist(), rng.permutation(m)[:k].tolist()))
            support |= {(int(rng.integers(n)), int(rng.integers(m)))
                        for _ in range(rng.integers(0, 4))}
            support = sorted(support)
            t0 = rng.uniform(-0.6, 0.4, m)
            q0 = rng.uniform(0.8, 1.6, n)
            rows = [i for i in range(n) if rng.uniform() < 0.95]
            cols = [j for j in range(m) if rng.uniform() < 0.95]
            t, q = t0.copy(), q0.copy()
            nsw._shift_components(vhat, t, q, *_masks((n, m), support, rows, cols))
            t_ref, q_ref = t0.copy(), q0.copy()
            _shift_components_loop(vhat, t_ref, q_ref, support, rows, cols)
            assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)
            # Each shifted component moves its columns by its own d.
            several += len(np.unique(np.round((t - t0)[t != t0], 9))) >= 2
        assert several >= 20


    def test_worst_pair_matches_pair_loop(self, monkeypatch):
        # Prices that certify nothing: the witness is the first largest
        # violation in row-major order over checked pairs, or (0, 0).
        zero_witness = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m = (int(x) for x in rng.integers(1, 6, size=2))
            inst = validate_instance(rng.integers(1, 4, (n, m)).astype(float))
            p = rng.uniform(size=(n, m)) * (rng.uniform(size=(n, m)) < 0.5) / (n * m)
            assignment = FractionalAssignment.from_probs(p + 0.01 / (n * m))
            skip = set(range(0, n, 3)) if seed % 2 else set()
            prices = Duals(rng.integers(0, 3, m) / 2.0, rng.integers(0, 3, n) / 2.0)
            if seed % 10 == 0:
                prices = Duals(np.full(m, 1e3), np.zeros(n))    # nothing violates
            monkeypatch.setattr(nsw, "_duals_by_lp", lambda *a: prices)
            vhat, _ = renormalize(inst, assignment, skip_agents=skip)
            worst, witness = 0.0, (0, 0)
            for i in (i for i in range(n) if i not in skip):
                for j in range(m):
                    gap = vhat[i, j] - prices.t[j] - prices.q[i]
                    viol = abs(gap) if assignment.probs[i, j] > 1e-9 else max(0.0, gap)
                    if viol > worst:
                        worst, witness = viol, (i, j)
            with pytest.raises(NotOptimal) as err:
                recover_duals(inst, assignment, skip_agents=skip, tol=1e-300)
            assert err.value.witness == witness and err.value.violation == worst
            zero_witness += witness == (0, 0)
        assert zero_witness >= 6


def _solo_max_utility_loop(v_row, budget, c):
    """Reference for ``nsw._solo_max_utilities``: one agent, item by item."""
    order = np.argsort(-v_row, kind="stable")
    left, total = budget, 0.0
    for j in order:
        if v_row[j] <= 0 or left <= 0:
            break
        take = min(left, c[j])
        total += take * v_row[j]
        left -= take
    return total


def _masks(shape, support, rows, cols):
    """The bool masks (support, tight rows, tight columns) of an (n, m)
    market, from a collection of pairs and two of indices."""
    n, m = shape
    S = np.zeros((n, m), dtype=bool)
    S[tuple(np.array(sorted(support), dtype=int).reshape(-1, 2).T)] = True
    return S, np.isin(np.arange(n), sorted(rows)), np.isin(np.arange(m), sorted(cols))


def _shift_components_loop(vhat, t, q, support, tight_rows, tight_cols):
    """Reference for ``nsw._shift_components``: one loop over every pair."""
    R, C = set(tight_rows), set(tight_cols)
    parent = {**{("r", i): ("r", i) for i in R}, **{("c", j): ("c", j) for j in C}}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    frozen = set()
    for (i, j) in support:
        if i in R and j in C:
            ra, rb = find(("r", i)), find(("c", j))
            if ra != rb:
                parent[ra] = rb
        elif i in R:
            frozen.add(find(("r", i)))
        elif j in C:
            frozen.add(find(("c", j)))
    frozen = {find(node) for node in frozen}
    groups = {}
    for node in list(parent):
        groups.setdefault(find(node), []).append(node)
    sup_set = set(support)
    for root, members in groups.items():
        if root in frozen:
            continue
        comp_rows = {idx for kind, idx in members if kind == "r"}
        comp_cols = {idx for kind, idx in members if kind == "c"}
        lo = max([-math.inf] + [-t[j] for j in comp_cols])
        hi = min([math.inf] + [q[i] for i in comp_rows])
        for i in range(len(q)):
            for j in range(len(t)):
                if (i, j) in sup_set or (i in comp_rows) == (j in comp_cols):
                    continue
                gap = vhat[i, j] - t[j] - q[i]
                if j in comp_cols:
                    lo = max(lo, gap)
                else:
                    hi = min(hi, -gap)
        if lo > hi:
            continue
        d = min(max(0.0, lo), hi)
        for j in comp_cols:
            t[j] += d
        for i in comp_rows:
            q[i] -= d


def _infeasible_polish(monkeypatch):
    """Make every polish return the barrier point doubled, a candidate whose
    rows sum to about 2, with its residual and no least-squares steps."""
    def doubled(V, c, o, p_in, S, R, C, t0, q0):
        cand = (2.0 * p_in, t0, q0)
        return cand, nsw._quick_residual(V, c, o, *cand), 0

    monkeypatch.setattr(nsw, "_polish", doubled)


class TestSolveContracts:
    def test_certificate_soundness_random(self, rng):
        # recover_duals certifies every solver output: uniform, grid and
        # sparse markets, plain and bargaining offsets, and a market whose
        # constant rows are degenerate under the bargaining offsets.
        markets = [validate_instance(rng.uniform(size=(n, n)))
                   for n in (3, 4, 5) for _ in range(5)]
        markets += [instances.gen_random(n, dist, seed) for n in (4, 6)
                    for dist in ("grid", "sparse") for seed in range(3)]
        flat = rng.uniform(size=(5, 5))
        flat[[1, 3]] = 0.5
        markets.append(validate_instance(flat))
        degenerate = 0
        for inst in markets:
            for offsets in (None, uniform_disagreement(inst)):
                sol = solve(NswProblem.create(inst, offsets=offsets))
                duals = recover_duals(inst, sol.assignment, offsets=offsets,
                                      skip_agents=sol.degenerate_agents)
                resid = kkt_check(inst, sol.assignment, duals, offsets=offsets,
                                  skip_agents=sol.degenerate_agents)
                assert resid <= 1e-7
                degenerate += len(sol.degenerate_agents)
        assert degenerate >= 2

    def test_concavity_oracle(self, rng):
        # The solver's objective must beat thousands of random feasible
        # points (rejection-sampled then Sinkhorn-balanced).
        for n, reps in ((3, 2), (4, 1)):
            for _ in range(reps):
                inst = validate_instance(
                    rng.integers(1, 7, size=(n, n)) / 6.0)
                sol = solve(NswProblem.create(inst))
                best = -math.inf
                for _ in range(10_000):
                    p = sinkhorn(rng.uniform(0.05, 1.0, size=(n, n)),
                                 iterations=40)
                    u = utilities(inst, p)
                    if np.all(u > 0):
                        best = max(best, float(np.log(u).sum()))
                assert sol.objective >= best - 1e-7

    def test_scale_invariance(self, rng):
        inst = validate_instance(rng.uniform(0.1, 1.0, size=(4, 4)))
        sol = solve(NswProblem.create(inst))
        scaled_values = np.asarray(inst.values).copy()
        scaled_values[1] *= 7.5
        sol2 = solve(NswProblem.create(inst.with_values(scaled_values)))
        assert np.array_equal(sol.assignment.probs > 1e-6,
                              sol2.assignment.probs > 1e-6)
        others = [0, 2, 3]
        assert np.allclose(sol.utilities[others], sol2.utilities[others],
                           atol=1e-6)

    def test_shift_invariance_with_average_offsets(self, rng):
        inst = validate_instance(rng.uniform(0.1, 1.0, size=(4, 4)))
        sol = solve(NswProblem.create(inst,
                                      offsets=uniform_disagreement(inst)))
        shifted = np.asarray(inst.values).copy()
        shifted[2] += 3.0
        inst2 = inst.with_values(shifted)
        sol2 = solve(NswProblem.create(inst2,
                                       offsets=uniform_disagreement(inst2)))
        assert np.allclose(sol.assignment.probs, sol2.assignment.probs,
                           atol=1e-6)

    def test_monotone_objective_in_supply(self, rng):
        values = rng.uniform(size=(3, 4))
        lo = validate_instance({"values": values,
                                "supplies": [1.0, 0.4, 1.0, 0.7]})
        hi = validate_instance({"values": values,
                                "supplies": [1.0, 0.8, 1.0, 0.7]})
        s_lo = solve(NswProblem.create(lo))
        s_hi = solve(NswProblem.create(hi))
        assert s_hi.objective >= s_lo.objective - 1e-7

    def test_degenerate_identical_rows_uniform(self):
        inst = validate_instance([[3.0, 1.0], [3.0, 1.0]])
        sol = solve(NswProblem.create(inst,
                                      offsets=uniform_disagreement(inst)))
        assert sol.degenerate_agents == frozenset({0, 1})
        assert np.allclose(sol.assignment.probs, 0.5)

    def test_infeasible_offsets(self):
        inst = validate_instance([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Infeasible):
            solve(NswProblem.create(inst, offsets=np.array([0.9, 0.9])))

    def test_solo_max_utilities_match_item_loop(self):
        # Supplies from {1/4, 1/2, 1} make the unit of demand run out
        # exactly on an item; rounded values give ties and zeros.
        exact = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            na, mk = (int(x) for x in rng.integers(1, 12, size=2))
            V = np.round(rng.uniform(-0.2, 2.0, (na, mk)).clip(0.0), int(seed % 3))
            grid = seed % 2 == 0
            c = rng.choice([0.25, 0.5, 1.0], mk) if grid else rng.uniform(0.05, 1.0, mk)
            got = nsw._solo_max_utilities(V, c)
            want = [_solo_max_utility_loop(V[i], 1.0, c) for i in range(na)]
            assert np.array_equal(got, want)
            exact += grid
        assert exact >= 50

    @pytest.mark.parametrize("n,seed", [(5, 0), (13, 1), (4, 4)])
    def test_stage_times_fit_in_the_solve(self, n, seed):
        # (4, 4) is won only at tau = 1e-3, after two failed polishes.
        inst = instances.gen_random(n, seed=seed)
        began = time.perf_counter()
        sol = solve(NswProblem.create(inst))
        wall = time.perf_counter() - began
        stages = sol.metadata["stage_s"]
        assert set(stages) == {"start", "barrier", "polish", "finish"}
        assert all(x >= 0 for x in stages.values()) and sum(stages.values()) <= wall
        # A lockstep barrier is timed once for its whole call.
        barriers = {one.metadata["stage_s"]["barrier"] for one in nsw.solve_many(
            _loo_problems(inst)[1])}
        assert len(barriers) == 1 and min(barriers) >= 0

    def test_utilities_unique_across_reruns(self, rng):
        inst = validate_instance(rng.uniform(size=(5, 5)))
        u1 = solve(NswProblem.create(inst)).utilities
        u2 = solve(NswProblem.create(inst)).utilities
        assert np.allclose(u1, u2, atol=1e-9)

    def test_iteration_budget_raises_no_convergence(self, monkeypatch):
        # A polish whose every candidate is uncertified (and infeasible:
        # its rows sum to twice the barrier point's) raises NoConvergence
        # with the barrier's Newton steps and that candidate's residual,
        # not a validation error from assembling it.
        problem = NswProblem.create(instances.gen_random(4, seed=0))
        iterations = solve(problem).metadata["iterations"]
        _infeasible_polish(monkeypatch)
        with pytest.raises(NoConvergence) as err:
            solve(problem)
        assert err.value.iterations == iterations
        assert err.value.best_residual > DEFAULT_KKT_TOL

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_tol_rejected(self, tol):
        problem = NswProblem.create(instances.gen_random(5, seed=0))
        with pytest.raises(DimensionMismatch):
            solve(problem, tol=tol)
        with pytest.raises(DimensionMismatch):
            nsw.solve_many([problem], tol=tol)

    @pytest.mark.parametrize("bargaining", [False, True])
    def test_n64_certifies(self, bargaining):
        _assert_certifies_structured(64, 0, bargaining)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bargaining", [False, True])
    def test_n128_certifies(self, bargaining, seed):
        _assert_certifies_structured(128, seed, bargaining)

    def test_n256_certifies_in_bounded_time_and_memory(self):
        record = _solve_in_child(256, seed=0)
        assert record["kkt_residual"] <= DEFAULT_KKT_TOL
        assert record["seconds"] <= 10.0
        assert record["peak_mb"] < 500.0

    def test_n192_seed1_certifies_in_bounded_time(self):
        # Its first polish starts from 248 support pairs, 48 of which
        # collapse; a barrier point that sends it through all 40 repair
        # rounds costs minutes in the next polishes' lstsq.
        record = _solve_in_child(192, seed=1)
        assert record["kkt_residual"] <= DEFAULT_KKT_TOL
        assert record["seconds"] <= 20.0

    # Each of these is certified only after the polish at the first
    # support threshold, tau = 3e-5, has failed.  With the first-threshold
    # wins they pin every tau of the polish, so that none is trimmed
    # unnoticed.  The last case is one of AC-09's rho_exact subset solves,
    # agents 1, 3 and 4 of a 5 x 5 market, in a batch as rho_exact solves
    # it; only the last threshold certifies it.
    @pytest.mark.parametrize("n,seed,agents,bargaining,batched,winner", [
        pytest.param(4, 4, None, False, False, 1e-3, id="4-4-False"),
        pytest.param(4, 4, None, True, False, 1e-3, id="4-4-True"),
        pytest.param(4, 62, None, True, False, 1e-3, id="4-62-True"),
        pytest.param(5, 2197912127921429414, (1, 3, 4), False, True, 1e-7,
                     id="5-ac09-agents134-batched")])
    def test_won_past_the_first_rung(self, n, seed, agents, bargaining, batched, winner):
        inst = instances.gen_random(n, seed=seed)
        off = uniform_disagreement(inst) if bargaining else np.zeros(n)
        agents = list(range(n) if agents is None else agents)
        problem = NswProblem.create(inst, agents, off[agents])
        sol = nsw.solve_many([problem])[0] if batched else solve(problem)
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert sol.metadata["polish"] == winner
        assert winner in nsw._TAUS

    def test_each_distinct_guess_polished_once(self, monkeypatch):
        # On AC-09's batched subset solve the guesses of tau = 3e-5 and
        # 1e-3 are equal, so only two polishes run, on different guesses,
        # and the last threshold's still wins.
        guesses = []
        polish = nsw._polish

        def recording(V, c, o, p_in, S, R, C, t0, q0):
            guesses.append((S.copy(), R.copy(), C.copy()))
            return polish(V, c, o, p_in, S, R, C, t0, q0)

        monkeypatch.setattr(nsw, "_polish", recording)
        inst = instances.gen_random(5, seed=2197912127921429414)
        sol = nsw.solve_many([NswProblem.create(inst, (1, 3, 4))])[0]
        assert len(guesses) == 2
        assert not all(map(np.array_equal, *guesses))
        assert sol.metadata["polish"] == 1e-7
        assert sol.kkt_residual <= DEFAULT_KKT_TOL

    def test_prices_shift_only_where_a_round_misses(self, monkeypatch):
        # Each polish round ranks its unshifted candidate first.  One within
        # 1e-12 of the value scale ends the polish unshifted; only a round
        # that misses calls _shift_components, as rounds of AC-09's batched
        # subset solve do.
        events = []
        quick, shift = nsw._quick_residual, nsw._shift_components

        def ranking(V, c, o, p, t, q):
            resid = quick(V, c, o, p, t, q)
            events.append("hit" if resid < 1e-12 * nsw._value_scale(V) else "miss")
            return resid

        def shifting(*args):
            events.append("shift")
            return shift(*args)

        monkeypatch.setattr(nsw, "_quick_residual", ranking)
        monkeypatch.setattr(nsw, "_shift_components", shifting)
        sol = solve(NswProblem.create(instances.gen_random(13, seed=1)))
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert events[-1] == "hit" and "shift" not in events
        events.clear()
        inst = instances.gen_random(5, seed=2197912127921429414)
        sol = nsw.solve_many([NswProblem.create(inst, (1, 3, 4))])[0]
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert events.count("shift") > 0
        assert all(before == "miss" for before, now in zip(events, events[1:])
                   if now == "shift")

    @pytest.mark.parametrize("n,seed", [(5, 0), (13, 1)])
    def test_first_rung_win_records_one_rung(self, n, seed):
        # Won by the first threshold: one barrier, timed once.
        sol = solve(NswProblem.create(instances.gen_random(n, seed=seed)))
        assert sol.metadata["polish"] == nsw._TAUS[0]
        assert isinstance(sol.metadata["stage_s"]["barrier"], float)
        assert sol.metadata["iterations"] > 0

    # (4, 4) is won only at tau = 1e-3, so its count spans two polishes.
    @pytest.mark.parametrize("n,seed", [(32, 0), (4, 4)])
    def test_polish_steps_count_every_least_squares_step(self, n, seed, monkeypatch):
        calls = []
        gelsy = nsw.linalg.lapack.dgelsy

        def counting(*args, **kwargs):
            calls.append(1)
            return gelsy(*args, **kwargs)

        monkeypatch.setattr(nsw.linalg.lapack, "dgelsy", counting)
        sol = solve(NswProblem.create(instances.gen_random(n, seed=seed)))
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert sol.metadata["polish_steps"] == len(calls) > 0


def _solve_in_child(n, seed):
    """Solve ``gen_random(n, seed)`` with plain offsets in a fresh
    interpreter, so that earlier tests' memory does not count toward the
    peak, on one BLAS thread, as the benchmark times every solve.  Returns
    its seconds, kkt_residual and peak_mb."""
    script = textwrap.dedent(f"""
        import json, resource, time
        from matchlab import instances, nsw
        inst = instances.gen_random({n}, seed={seed})
        start = time.perf_counter()
        sol = nsw.solve(nsw.NswProblem.create(inst))
        print(json.dumps({{
            "seconds": time.perf_counter() - start,
            "kkt_residual": sol.kkt_residual,
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsw.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def _assert_certifies_structured(n, seed, bargaining):
    inst = instances.gen_random(n, seed=seed)
    sol = (benchmark(inst).solution if bargaining
           else solve(NswProblem.create(inst)))
    assert sol.kkt_residual <= DEFAULT_KKT_TOL
    meta = sol.metadata
    assert meta["barrier"] == "primal-dual" and meta["iterations"] > 0


def _pd_state(seed, K, n=13):
    """K random n x n problems with a random strictly interior primal-dual
    state x = (p, beta, t, q): (V, c, o, x), each with the batch axis."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.0, 1.0, (K, n, n))
    c = rng.uniform(0.8, 1.0, (K, n))
    o = rng.uniform(0.0, 0.05, (K, n))
    p = rng.uniform(0.01, 0.06, (K, n, n))
    beta = rng.uniform(0.5, 5.0, (K, n))
    top = (beta[:, :, None] * V).max(axis=(1, 2))[:, None]
    t, q = top + rng.uniform(0.1, 1.0, (K, n)), top + rng.uniform(0.1, 1.0, (K, n))
    return V, c, o, np.concatenate([p.reshape(K, -1), beta, t, q], axis=1)


def _pd_plan(V, c, o, x):
    """A barrier plan whose state is x, its partners computed."""
    P = np.empty((len(x), 2 * x.shape[1]))
    P[:, :x.shape[1]] = x
    plan = nsw._PdPlan(V, c, o, P)
    plan.fill()
    return plan


def _pd_step(V, c, o, x, mu):
    """The plan at x, the right-hand side toward mu laid out like x,
    (mu - p z, 1 - beta s, mu - t d, mu - q r), and a copy of the direction
    the path computes for it."""
    plan = _pd_plan(V, c, o, x)
    n, na = V[0].size, V.shape[1]
    rhs = mu - plan.xy
    rhs[:, n:n + na] = 1.0 - plan.xy[:, n:n + na]
    factors, scale = plan.matrix()
    plan.direction(factors, scale, rhs)
    return plan, rhs, plan.D.copy()


# The barrier loop as it was before the complementary-pair layout: the
# state x = (p, beta, t, q) followed by (s, r, d, z), the Newton matrix
# scattered by fancy indices and divided by its scales in full, and every
# problem's state filled on each step.  The path must match it bit for bit.

def _ref_views(buf, na, mk):
    K, n = len(buf), na * mk
    nx = n + 2 * na + mk
    return (buf[:, :n].reshape(K, na, mk), buf[:, nx:nx + na],
            buf[:, nx + na:nx + 2 * na], buf[:, nx + 2 * na:nx + 2 * na + mk],
            buf[:, n:n + na], buf[:, nx + 2 * na + mk:].reshape(K, na, mk),
            buf[:, n + na:n + na + mk], buf[:, n + na + mk:nx])


def _ref_fill(V, c, o, buf):
    vals = _ref_views(buf, *V.shape[1:])
    p, s, r, d, beta, z, t, q = vals
    np.subtract(np.einsum("kij,kij->ki", V, p), o, out=s)
    np.subtract(1.0, p.sum(axis=2), out=r)
    np.subtract(c, p.sum(axis=1), out=d)
    np.subtract(t[:, None, :] + q[:, :, None], beta[:, :, None] * V, out=z)
    return vals


def _ref_mu(vals):
    p, s, r, d, beta, z, t, q = vals
    total = (p * z).sum(axis=(1, 2)) + (t * d).sum(axis=1) + (q * r).sum(axis=1)
    return total / (p[0].size + r.shape[1] + d.shape[1])


def _ref_max_step(vals, dvals):
    return -(vals / np.minimum(dvals, -0.0)).max(axis=1)


def _ref_matrix(V, vals):
    p, s, r, d, beta, z, t, q = vals
    K, na, mk = V.shape
    w = p / z
    wv = w * V
    ib, it = np.arange(na), na + np.arange(mk)
    iq = na + mk + ib
    M = np.zeros((K, 2 * na + mk, 2 * na + mk))
    M[:, ib, ib] = s / beta + (wv * V).sum(axis=2)
    M[:, ib, iq] = M[:, iq, ib] = -wv.sum(axis=2)
    M[:, it, it] = w.sum(axis=1) + d / t
    M[:, iq, iq] = w.sum(axis=2) + r / q
    M[:, :na, na:na + mk] = -wv
    M[:, na:na + mk, :na] = -wv.transpose(0, 2, 1)
    M[:, na:na + mk, na + mk:] = w.transpose(0, 2, 1)
    M[:, na + mk:, na:na + mk] = w
    dg = np.arange(2 * na + mk)
    scale = np.sqrt(M[:, dg, dg])
    M /= scale[:, :, None] * scale[:, None, :]
    factors = []
    for Mk in M:
        lu, piv, info = scipy_linalg.lapack.dgetrf(Mk.T)
        if info > 0:
            Mk[dg, dg] += 1e-12 * np.max(np.abs(Mk))
            lu, piv, info = scipy_linalg.lapack.dgetrf(Mk.T)
        factors.append((lu, piv))
    return factors, scale


def _ref_direction(V, vals, factors, scale, rz, rt, rq, rb, out):
    p, s, r, d, beta, z, t, q = vals
    K, na, mk = V.shape
    n = na * mk
    dvals = _ref_views(out, na, mk)
    dp, ds, dr, dd, dbeta, dz, dt, dq = dvals
    a = rz / z
    g = np.concatenate([rb / beta - (V * a).sum(axis=2),
                        rt / t + a.sum(axis=1),
                        rq / q + a.sum(axis=2)], axis=1) / scale
    dx = out[:, n:n + 2 * na + mk]
    for k, (lu, piv) in enumerate(factors):
        dx[k] = scipy_linalg.lapack.dgetrs(lu, piv, g[k])[0]
    dx /= scale
    np.subtract(dt[:, None, :] + dq[:, :, None], dbeta[:, :, None] * V, out=dz)
    np.subtract(a, p / z * dz, out=dp)
    np.einsum("kij,kij->ki", V, dp, out=ds)
    np.negative(dp.sum(axis=2), out=dr)
    np.negative(dp.sum(axis=1), out=dd)
    return dvals


def _ref_done(vals, mu, centre):
    p, s, r, d, beta, z, t, q = vals
    if centre:
        products = np.concatenate([(p * z).reshape(len(p), -1), t * d, q * r], axis=1)
        ended = np.abs(products - 1e-8).max(axis=1) <= 1e-6 * 1e-8
    else:
        ended = mu <= 1e-8
    return ended & (np.abs(1.0 - beta * s).max(axis=1) <= 1e-6)


def _primal_dual_solve_loop(V, c, o, x0, trace, centre=False):
    """Reference for ``nsw._primal_dual_solve``."""
    K, na, mk = V.shape
    nx = x0.shape[1]
    P = np.empty((K, 2 * nx))
    P[:, :nx] = x0
    x = P[:, :nx]
    vals = _ref_fill(V, c, o, P)
    D = np.empty_like(P)
    iters = np.zeros(K, dtype=int)
    mu = _ref_mu(vals)
    running = ~_ref_done(vals, mu, centre)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            running &= iters < 60
            if not running.any():
                break
            k = np.flatnonzero(running)
            if len(k) == K:
                Vk, Pk, Dk, cur = V, P, D, vals
            else:
                Vk, Pk = V[k], P[k]
                Dk = np.empty_like(Pk)
                cur = _ref_views(Pk, na, mk)
            p, s, r, d, beta, z, t, q = cur
            factors, scale = _ref_matrix(Vk, cur)
            rb = 1.0 - beta * s
            dp_a, _, dr_a, dd_a, _, dz_a, dt_a, dq_a = _ref_direction(
                Vk, cur, factors, scale, -p * z, -t * d, -q * r, rb, out=Dk)
            a_aff = np.minimum(1.0, _ref_max_step(Pk, Dk))
            a2, a3 = a_aff[:, None], a_aff[:, None, None]
            mu_aff = _ref_mu((p + a3 * dp_a, None, r + a2 * dr_a, d + a2 * dd_a, None,
                              z + a3 * dz_a, t + a2 * dt_a, q + a2 * dq_a))
            mu_k = mu[k]
            target = (mu_aff / mu_k) ** 3 * mu_k
            second = dp_a * dz_a, dt_a * dd_a, dq_a * dr_a
            if centre:
                target = np.maximum(target, 1e-8)
                for term in second:
                    term[target <= 1e-8] = 0.0
            _ref_direction(Vk, cur, factors, scale,
                           target[:, None, None] - p * z - second[0],
                           target[:, None] - t * d - second[1],
                           target[:, None] - q * r - second[2], rb, out=Dk)
            dx = Dk[:, :nx]
            alpha = np.minimum(1.0, 0.99 * _ref_max_step(Pk, Dk))
            moving = (alpha > 1e-8) & np.isfinite(dx).all(axis=1)
            move = np.where(moving[:, None], alpha[:, None] * dx, 0.0)
            if Pk is P:
                x += move
            else:
                x[k] += move
            iters[k] += 1
            vals = _ref_fill(V, c, o, P)
            mu = _ref_mu(vals)
            if trace is not None and running[0]:
                trace.append((int(iters[0]), float(np.log(vals[1][0]).sum()), float(mu[0])))
            running[k[~moving]] = False
            running &= ~_ref_done(vals, mu, centre)
    p, _, _, _, _, _, t, q = vals
    return p, t, q, iters


def _pd_group(n, dist, K, seed=0):
    """The barrier inputs (V, c, o, x0) of up to K solves of
    ``gen_random(n, dist)`` markets, plain and bargaining by turns, whose
    rows are all live, stacked as one lockstep call stacks them."""
    starts = []
    for k in range(4 * K):
        inst = instances.gen_random(n, dist, seed=seed + k)
        off = uniform_disagreement(inst) if k % 2 else None
        st = nsw._start(NswProblem.create(inst, offsets=off), None)
        if st.x0 is not None and len(st.live) == n:
            starts.append(st)
        if len(starts) == K:
            break
    return (np.stack(x) for x in zip(*[(st.V[st.live], st.c, st.o[st.live], st.x0)
                                       for st in starts]))


_PD_MARKETS = {
    "random13": (instances.gen_random(13, seed=0), False),
    "sparse13-bargaining": (instances.gen_random(13, "sparse", seed=1), True),
    "grid14-bargaining": (instances.gen_random(14, "grid", seed=2), True),
    "fractional11x16": (validate_instance({
        "values": np.random.default_rng(3).uniform(size=(11, 16)),
        "supplies": np.linspace(0.4, 1.0, 16)}), False),
}


class TestNewtonStep:
    @pytest.mark.parametrize("mu", [1e-2, 1e-6, 1e-10])
    def test_pd_direction_meets_linearized_equations(self, mu):
        # At random interior states of a batch, the direction meets
        # z dp + p dz = mu - p z, d dt + t dd = mu - t d,
        # r dq + q dr = mu - q r and beta ds + s dbeta = 1 - beta s, with
        # dz, ds, dr and dd recomputed from (dp, dbeta, dt, dq); and each
        # problem of the batch gets the direction it gets alone.
        V, c, o, x = _pd_state(0, K=3)
        plan, rhs, step = _pd_step(V, c, o, x, mu)
        n, na, mk = V[0].size, *V.shape[1:]
        p, z, beta, s, t, q = plan.p, plan.z, plan.beta, plan.s, plan.t, plan.q
        d, r = plan.dr[:, :mk], plan.dr[:, mk:]
        dp, dbeta, dt, dq = plan.dp, plan.dbeta, plan.dt, plan.dq
        dz = dt[:, None, :] + dq[:, :, None] - dbeta[:, :, None] * V
        ds, dr, dd = (V * dp).sum(axis=2), -dp.sum(axis=2), -dp.sum(axis=1)
        rz, rb, rt, rq = (rhs[:, :n].reshape(p.shape), rhs[:, n:n + na],
                          rhs[:, n + na:n + na + mk], rhs[:, n + na + mk:])
        for (u, du, w, dw), want in zip([(z, dp, p, dz), (d, dt, t, dd), (r, dq, q, dr),
                                         (beta, ds, s, dbeta)], [rz, rt, rq, rb]):
            lhs = u * du + w * dw
            size = np.abs(u * du) + np.abs(w * dw) + np.abs(want)
            assert np.max(np.abs(lhs - want)) <= 1e-10 * np.max(size)
        for k in range(len(x)):
            alone = _pd_step(V[k:k + 1], c[k:k + 1], o[k:k + 1], x[k:k + 1], mu)[2]
            assert np.array_equal(step[k], alone[0])

    @pytest.mark.parametrize("n", [13, 32])
    def test_pd_lu_direction_matches_dense_solve(self, n, monkeypatch):
        # The direction from one dgetrf and dgetrs against np.linalg.solve
        # on the same scaled matrix, at random interior states of a batch.
        V, c, o, x = _pd_state(1, K=3, n=n)
        step = _pd_step(V, c, o, x, 1e-6)[2]
        monkeypatch.setattr(nsw.linalg.lapack, "dgetrf", lambda A: (A.copy(), None, 0))
        monkeypatch.setattr(nsw.linalg.lapack, "dgetrs",
                            lambda M, piv, g: (np.linalg.solve(M, g), 0))
        dense = _pd_step(V, c, o, x, 1e-6)[2]
        n, na, mk = n * n, n, n
        nx = n + 2 * na + mk
        at = [n, n + na, n + na + mk, nx, nx + n, nx + n + na, nx + n + na + mk]
        for got, want in zip(np.split(step, at, axis=1), np.split(dense, at, axis=1)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_pd_singular_matrix_takes_the_diagonal_retry(self, monkeypatch):
        # One agent and one item with w = p/z = 1 and V = 1, where s/beta,
        # d/t and r/q vanish beside 1: the scaled matrix is exactly
        # [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]], of rank 1.
        V = np.ones((1, 1, 1))
        # x = (p, beta, t, q) = 1 and y = (z, s, d, r) = (1, tiny, tiny, tiny).
        plan = nsw._PdPlan(V, np.ones((1, 1)), np.zeros((1, 1)),
                           np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1e-40, 1e-40, 1e-40]]))
        seen = []
        dgetrf = nsw.linalg.lapack.dgetrf

        def recording(A):
            out = dgetrf(A)
            seen.append((A.copy(), out[2]))
            return out

        monkeypatch.setattr(nsw.linalg.lapack, "dgetrf", recording)
        factors, scale = plan.matrix()
        (first, info), (retry, retry_info) = seen
        assert np.array_equal(first, [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]])
        assert info > 0 and retry_info == 0
        assert np.array_equal(retry, first + 1e-12 * np.eye(3))
        plan.direction(factors, scale, np.ones((1, 4)))
        assert np.all(np.isfinite(plan.D))

    def test_max_step_over_flat_buffer_matches_concatenation(self):
        # One reduction over the flat buffers against the max over the eight
        # quantities concatenated in (p, s, r, d, beta, z, t, q) order, with
        # nan, inf and zero entries scattered through values and derivatives.
        rng = np.random.default_rng(5)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        for trial in range(200):
            K, na, mk = (int(x) for x in rng.integers(1, 5, size=3))
            width = 2 * (na * mk + 2 * na + mk)
            plan = nsw._PdPlan(np.zeros((K, na, mk)), np.zeros((K, mk)), np.zeros((K, na)),
                               rng.uniform(1e-3, 2.0, (K, width)))
            plan.D[...] = rng.normal(size=(K, width))
            for buf in (plan.P, plan.D):
                at = rng.uniform(size=buf.shape) < 0.2 * (trial % 3 != 0)
                buf[at] = rng.choice(special, size=int(at.sum()))
            flat = [np.concatenate([v.reshape(K, -1) for v in views], axis=1) for views in (
                (plan.p, plan.s, plan.dr[:, mk:], plan.dr[:, :mk], plan.beta, plan.z,
                 plan.t, plan.q),
                (plan.dp, plan.ds, plan.ddr[:, mk:], plan.ddr[:, :mk], plan.dbeta, plan.dz,
                 plan.dt, plan.dq))]
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.array_equal(nsw._max_step(plan.P, plan.D), nsw._max_step(*flat),
                                      equal_nan=True)

    @pytest.mark.parametrize("market,centre", [
        *(pytest.param(market, False, id=market) for market in sorted(_PD_MARKETS)),
        *(pytest.param(market, True, id=f"{market}-centred") for market in sorted(_PD_MARKETS))])
    def test_pd_path_stops_interior(self, market, centre, monkeypatch):
        # The path ends strictly interior, with mu <= 1e-8 (centred: every
        # product p z, t d and q r 1e-8 to 1e-6 relative) and beta s = 1 to
        # 1e-6, and the solve certifies.  The final state is the one the
        # path's last fill computed.
        inst, bargaining = _PD_MARKETS[market]
        off = uniform_disagreement(inst) if bargaining else None
        problem = NswProblem.create(inst, offsets=off)
        st = nsw._start(problem, None)
        V, c, o = st.V[st.live], st.c, st.o[st.live]
        filled = []
        fill = nsw._PdPlan.fill

        def recording(plan):
            mu = fill(plan)
            filled.append((plan, mu))
            return mu

        monkeypatch.setattr(nsw._PdPlan, "fill", recording)
        *_, iters = nsw._primal_dual_solve(V[None], c[None], o[None], st.x0[None], None,
                                           centre)
        monkeypatch.undo()
        plan, mu = filled[-1]
        n, na = V.size, V.shape[0]
        assert 0 < iters[0] < 60
        assert np.all(plan.P > 0)
        if centre:
            products = np.delete(plan.xy[0], np.s_[n:n + na])     # p z, t d, q r
            assert np.max(np.abs(products - 1e-8)) <= 1e-6 * 1e-8
        else:
            assert mu[0] <= 1e-8
        assert np.max(np.abs(1.0 - plan.beta * plan.s)) <= 1e-6
        assert solve(problem).kkt_residual <= DEFAULT_KKT_TOL

    @pytest.mark.parametrize("dist", ["uniform01", "sparse", "grid"])
    @pytest.mark.parametrize("centre", [False, True], ids=["end", "centred"])
    def test_path_matches_reference_loop(self, dist, centre):
        # Bit for bit the loop before the complementary-pair layout: the
        # end point, the Newton steps and the trace, for lone problems and
        # lockstep groups of three.  Some groups stop their problems at
        # different steps, so the path carries on with a gathered plan.
        staggered = 0
        for n in (4, 7, 12, 16, 24, 32):
            for K in (1, 3):
                V, c, o, x0 = _pd_group(n, dist, K, seed=10 * n)
                got_trace, want_trace = [], []
                got = nsw._primal_dual_solve(V, c, o, x0, got_trace, centre)
                want = _primal_dual_solve_loop(V, c, o, x0, want_trace, centre)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                assert got_trace == want_trace
                staggered += len(set(got[3].tolist())) > 1
        assert staggered >= 1

    @pytest.mark.parametrize("centre", [False, True], ids=["end", "centred"])
    def test_non_square_path_matches_reference_loop(self, centre):
        # The same on shapes with na != mk: the 8 x 9 leave-one-out
        # problems of a PA run in one group, and 11 agents on 16 items of
        # fractional supply alone.
        _, problems = _loo_problems(instances.gen_random(9, seed=3),
                                    uniform_disagreement(instances.gen_random(9, seed=3)))
        inst, _ = _PD_MARKETS["fractional11x16"]
        for group in (problems, [NswProblem.create(inst)]):
            starts = [nsw._start(problem, None) for problem in group]
            V, c, o, x0 = (np.stack(x) for x in zip(*[(st.V[st.live], st.c, st.o[st.live],
                                                      st.x0) for st in starts]))
            assert V.shape[1] != V.shape[2]
            got_trace, want_trace = [], []
            got = nsw._primal_dual_solve(V, c, o, x0, got_trace, centre)
            want = _primal_dual_solve_loop(V, c, o, x0, want_trace, centre)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert got_trace == want_trace

    def test_small_problems_take_dense_steps(self):
        # 12 x 12 = 144 pairs: a lone solve below 150 pairs takes the
        # primal-dual path too, and ends it centred at mu = 1e-8.
        trace = []
        sol = solve(NswProblem.create(instances.gen_random(12, seed=0)), trace=trace)
        assert sol.metadata["barrier"] == "primal-dual"
        assert sol.metadata["iterations"] == len(trace) > 0
        assert trace[-1][2] == pytest.approx(1e-8, rel=1e-6)


class TestSolveTrace:
    def test_trace_rows_have_objective(self, table1):
        trace = []
        solve(NswProblem.create(table1), trace=trace)
        assert len(trace) > 0
        assert all(len(row) == 3 for row in trace)

    def test_pd_path_writes_one_row_per_iteration(self):
        # 13 x 13 = 169 pairs: rows of (iteration, sum log s, mu).
        trace = []
        sol = solve(NswProblem.create(instances.gen_random(13, seed=1)), trace=trace)
        assert len(trace) == sol.metadata["iterations"] > 0
        assert [row[0] for row in trace] == list(range(1, len(trace) + 1))
        assert all(len(row) == 3 and math.isfinite(row[1]) and row[2] > 0 for row in trace)
        assert trace[-1][2] <= 1e-8


def _polish_system_loop(V, b, c, o, p, t, q, S, R, C):
    """Reference for the polish's residual F and Jacobian J: the pair loops
    that ``nsw._polish_residual``, ``nsw._jacobian_frame`` and
    ``nsw._polish_jacobian`` replace."""
    na, mk = V.shape
    S_list, R_list, C_list = sorted(S), sorted(R), sorted(C)
    s_pos = {ij: k for k, ij in enumerate(S_list)}
    c_pos = {j: len(S_list) + k for k, j in enumerate(C_list)}
    r_pos = {i: len(S_list) + len(C_list) + k for k, i in enumerate(R_list)}
    s = np.einsum("ij,ij->i", V, p) - o
    F = np.empty(len(S_list) + len(R_list) + len(C_list))
    for k, (i, j) in enumerate(S_list):
        F[k] = V[i, j] / s[i] - (t[j] if j in C else 0.0) - (q[i] if i in R else 0.0)
    base = len(S_list)
    for k, i in enumerate(R_list):
        F[base + k] = p[i].sum() - b[i]
    base += len(R_list)
    for k, j in enumerate(C_list):
        F[base + k] = p[:, j].sum() - c[j]
    J = np.zeros((len(F), len(S_list) + len(C_list) + len(R_list)))
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
    return F, J


def _violated_pairs_loop(V, o, p, t, q, S, R, C, threshold):
    """Reference for ``nsw._violated_pairs``: the pair-by-pair gap scan."""
    na, mk = V.shape
    s = np.einsum("ij,ij->i", V, p) - o
    gaps = []
    for i in range(na):
        for j in range(mk):
            if (i, j) in S:
                continue
            gap = V[i, j] / s[i] - (t[j] if j in C else 0.0) - (q[i] if i in R else 0.0)
            if gap > threshold:
                gaps.append((gap, (i, j)))
    return [pair for _, pair in sorted(gaps, reverse=True)[:3]]


def _random_polish_state(seed):
    """A random support guess with positive surpluses, as the polish sees it."""
    rng = np.random.default_rng(seed)
    na, mk = (int(x) for x in rng.integers(1, 14, size=2))
    V = rng.uniform(0.0, 2.0, (na, mk)) * (rng.uniform(size=(na, mk)) > 0.3)
    V[:, 0] += 0.1                                   # every surplus positive
    if seed % 5 == 0:
        V = np.round(V, 1)                           # tied gaps
    S = {(i, j) for i in range(na) for j in range(mk) if rng.uniform() < 0.4}
    p = np.zeros((na, mk))
    for i, j in S:
        p[i, j] = rng.uniform(0.0, 1.0) * 10.0 ** -rng.integers(0, 12)
    p[:, 0] += 0.5 / na
    o = rng.uniform(0.0, 1e-3, na)
    R = {i for i in range(na) if rng.uniform() < 0.5}
    C = {j for j in range(mk) if rng.uniform() < 0.5}
    t = rng.uniform(-0.2, 1.0, mk)
    q = rng.uniform(-0.2, 1.0, na)
    c = rng.uniform(0.5, 1.0, mk)
    return V, c, o, p, t, q, S, R, C


class TestPolishSystem:
    def test_step_is_the_svd_minimum_norm_solution(self, monkeypatch):
        # The QR (gelsy) step against numpy's SVD least squares on the
        # systems of polishes that certify: n = 4-32 solves, plain and
        # bargaining, won by their first candidate.  These systems are all
        # singular (row and column sums are redundant, and prices can
        # shift along a component) with the rank cut well clear of the
        # kept singular values.  A polish that fails, such as the first
        # ones of gen_random(4, seed=4), ends on systems whose singular
        # values straddle the cut and whose solution is rounding noise, so
        # no two factorizations agree there to 1e-9.  Every step, failing
        # polishes included, is bit for bit SciPy's gelsy least squares,
        # which the direct dgelsy call replaces.
        seen, kept, same = [], [], []
        step = nsw._polish_step

        def recording(J, F):
            seen.append((J.copy(), F.copy()))
            x = step(J, F)
            same.append(np.array_equal(x, scipy_linalg.lstsq(
                J, -F, cond=np.finfo(float).eps * max(J.shape), lapack_driver="gelsy")[0]))
            return x

        monkeypatch.setattr(nsw, "_polish_step", recording)
        for n in (4, 5, 6, 7, 8, 10, 13, 16, 24, 32):
            for seed in range(6):
                inst = instances.gen_random(n, seed=seed)
                for offsets in (None, uniform_disagreement(inst)):
                    seen.clear()
                    sol = solve(NswProblem.create(inst, offsets=offsets))
                    if sol.metadata["polish"] == 3e-5:
                        kept += seen
        deficient = sum(np.linalg.matrix_rank(J) < J.shape[1] for J, _ in kept)
        assert len(kept) >= 200 and deficient >= 50
        assert len(same) > len(kept) and all(same)
        for J, F in kept:
            want = np.linalg.lstsq(J, -F, rcond=None)[0]
            assert np.linalg.norm(step(J, F) - want) <= 1e-9 * np.linalg.norm(want)

    def test_residual_and_jacobian_match_pair_loops(self):
        # Same float operations in the same order: bit-identical, signed
        # zeros included.
        for seed in range(300):
            V, c, o, p, t, q, S, R, C = _random_polish_state(seed)
            masks = _masks(V.shape, S, R, C)
            F, s = nsw._polish_residual(V, c, o, p, t, q, *masks)
            J = nsw._polish_jacobian(nsw._jacobian_frame(V, *masks), s)
            F_ref, J_ref = _polish_system_loop(V, np.ones(len(V)), c, o, p, t, q, S, R, C)
            assert F.tobytes() == F_ref.tobytes()
            assert J.shape == J_ref.shape and J.tobytes() == J_ref.tobytes()

    def test_collapsed_tie_drops_the_row_major_first(self, monkeypatch):
        # Support pairs (0, 0) and (1, 1) collapse to exactly the same p:
        # the repair drops the first of them in row-major order, (0, 0),
        # and the next Newton call sees the rest of the support.
        seen = []

        def newton(V, c, o, p, S, R, C, t0, q0):
            seen.append(S.copy())
            if len(seen) > 1:
                return None, 0
            return (np.array([[0.0, 0.5], [0.5, 0.0]]), np.zeros(2), np.zeros(2)), 1

        monkeypatch.setattr(nsw, "_polish_newton", newton)
        V, c, p_in = np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), np.full((2, 2), 0.25)
        # The guess of the threshold 1e-9: every pair, no tight row or column.
        S, R, C = p_in > 1e-9, 1 - p_in.sum(axis=1) < 1e-9, c - p_in.sum(axis=0) < 1e-9
        nsw._polish(V, c, np.zeros(2), p_in, S, R, C, np.zeros(2), np.zeros(2))
        assert len(seen) == 2 and seen[0].all()
        assert seen[1].tolist() == [[False, True], [True, True]]

    def test_violated_pairs_match_pair_loop(self):
        found = 0
        for seed in range(300):
            V, c, o, p, t, q, S, R, C = _random_polish_state(seed)
            for threshold in (1e-10, 0.5):
                gi, gj = nsw._violated_pairs(V, o, p, t, q, *_masks(V.shape, S, R, C),
                                             threshold)
                got = list(zip(gi.tolist(), gj.tolist()))
                assert got == _violated_pairs_loop(V, o, p, t, q, S, R, C, threshold)
                found += len(got)
        assert found > 300


def _loo_problems(inst, offsets=None, supplies=None):
    """The leave-one-out problems of a PA run on ``inst``."""
    if supplies is not None:
        inst = validate_instance({"values": np.asarray(inst.values), "supplies": supplies})
    n = inst.n_agents
    off = np.zeros(n) if offsets is None else np.asarray(offsets, dtype=float)
    return inst, [NswProblem.create(inst, rest, off[list(rest)])
                  for agent in range(n)
                  for rest in [tuple(a for a in range(n) if a != agent)]]


class TestSolveMany:
    @pytest.mark.parametrize("case", [
        "plain", "n_below_m", "fractional_supplies", "offsets",
        "degenerate_split", "structured"])
    def test_matches_sequential_solves(self, case):
        if case == "plain":
            inst, problems = _loo_problems(instances.gen_random(6, seed=3))
        elif case == "n_below_m":
            values = np.random.default_rng(1).uniform(size=(4, 7))
            inst, problems = _loo_problems(validate_instance(values))
        elif case == "fractional_supplies":
            inst, problems = _loo_problems(instances.gen_random(6, seed=4),
                                           supplies=[1.0, 0.3, 0.7, 0.55, 1.0, 0.2])
        elif case == "offsets":
            inst = instances.gen_random(7, "sparse", seed=5)
            inst, problems = _loo_problems(inst, offsets=uniform_disagreement(inst))
        elif case == "degenerate_split":
            # Agent 0's row is constant, so under average-value offsets it
            # is degenerate: the problems that keep it have one live row
            # less than the one that leaves it out.
            values = np.random.default_rng(2).uniform(size=(5, 5))
            values[0] = 0.5
            inst = validate_instance(values)
            inst, problems = _loo_problems(inst, offsets=uniform_disagreement(inst))
        else:                                 # 13 x 14 pairs and up
            inst, problems = _loo_problems(instances.gen_random(14, seed=0))
        warm = np.asarray(solve(NswProblem.create(inst)).assignment.probs)
        many = nsw.solve_many(problems, warm_start=warm)
        shapes = []
        for problem, sol in zip(problems, many):
            # Bit for bit a batch of one; utilities those of a lone cold
            # solve, which below 150 pairs ends its path centred.
            _assert_same_solution(sol, nsw.solve_many([problem], warm_start=warm)[0])
            alone = solve(problem)
            assert np.allclose(sol.utilities, alone.utilities, rtol=0.0, atol=1e-9)
            assert sol.kkt_residual <= DEFAULT_KKT_TOL
            assert alone.metadata["barrier_batch"] == 1
            if case == "structured":
                # From 150 pairs on a lone solve is not centred, and gives
                # a cold batch's result bit for bit.
                assert alone.metadata["barrier"] == "primal-dual"
                _assert_same_solution(nsw.solve_many([problem])[0], alone)
            shapes.append(len(problem.active_agents) - len(sol.degenerate_agents))
        for sol, live in zip(many, shapes):
            assert sol.metadata["barrier_batch"] == shapes.count(live)
        if case == "degenerate_split":
            assert len(set(shapes)) == 2
        if case == "structured":
            assert all(sol.metadata["barrier"] == "primal-dual" for sol in many)

    def test_stopped_problem_keeps_a_finite_state(self):
        # A leave-one-out problem here stops on a direction that is not
        # finite, and its state must stay as it was: a step of 0 times
        # that direction would be nan.
        inst = instances.gen_random(16, seed=1)
        out = pa_run(inst, offsets=uniform_disagreement(inst))
        assert out.base.kkt_residual <= DEFAULT_KKT_TOL
        assert np.all((out.fractions >= 0) & (out.fractions <= 1 + 1e-9))

    def test_grid_market_pa_certifies(self):
        # Grid values take five levels, so many tie and the optimal
        # assignment need not be unique; the batched leave-one-out solves,
        # warm-started from the base solve, certify in one attempt each.
        inst = instances.gen_random(10, "grid", seed=6)
        out = pa_run(inst, offsets=uniform_disagreement(inst))
        assert out.base.kkt_residual <= DEFAULT_KKT_TOL
        assert np.all((out.fractions >= 0) & (out.fractions <= 1 + 1e-9))

    @pytest.mark.parametrize("hint", ["rows", "columns", "nan", "inf"])
    def test_bad_warm_start_raises(self, hint):
        # A warm_start of the wrong shape, or with an entry that is not
        # finite, is rejected rather than ignored.
        inst, problems = _loo_problems(instances.gen_random(5, seed=1))
        warm = np.asarray(solve(NswProblem.create(inst)).assignment.probs)
        bad = {"rows": warm[:-1], "columns": warm[:, :-1],
               "nan": np.where(np.eye(5, dtype=bool), np.nan, warm),
               "inf": np.where(np.eye(5, dtype=bool), np.inf, warm)}[hint]
        with pytest.raises(DimensionMismatch, match="warm_start"):
            nsw.solve_many(problems, warm_start=bad)

    def test_groups_split_by_hessian_bytes(self, monkeypatch):
        # Six problems of 5 x 6 pairs with room for the primal-dual Newton
        # matrices (order 2 * 5 + 6) of two per call: three calls of two,
        # and the same results.
        _, problems = _loo_problems(instances.gen_random(6, seed=3))
        monkeypatch.setattr(nsw, "_LOCKSTEP_BYTES", 2 * 8 * 16 ** 2)
        many = nsw.solve_many(problems)
        assert [sol.metadata["barrier_batch"] for sol in many] == [2] * 6
        for problem, sol in zip(problems, many):
            _assert_same_solution(sol, nsw.solve_many([problem])[0])

    def test_barrier_names_the_path_that_ran(self):
        # A lone solve and a batch both take the primal-dual path; with no
        # live row no barrier runs.
        problem = NswProblem.create(instances.gen_random(5, seed=0))
        assert nsw.solve_many([problem])[0].metadata["barrier"] == "primal-dual"
        assert solve(problem).metadata["barrier"] == "primal-dual"
        inst = validate_instance([[3.0, 1.0], [3.0, 1.0]])
        flat = NswProblem.create(inst, offsets=uniform_disagreement(inst))
        assert solve(flat).metadata["barrier"] is None
        assert nsw.solve_many([flat])[0].metadata["barrier"] is None

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_raises_what_the_sequential_loop_raises_first(self, order, monkeypatch):
        # With every polish uncertified the live problem fails in its last
        # stage (NoConvergence) and the infeasible one in its first
        # (Infeasible); the earlier of the two in the list decides, as in a
        # loop.
        _infeasible_polish(monkeypatch)
        live = NswProblem.create(instances.gen_random(4, seed=0))
        inst = validate_instance([[1.0, 0.0], [1.0, 0.0]])
        infeasible = NswProblem.create(inst, offsets=np.array([0.9, 0.9]))
        problems = [(live, infeasible)[k] for k in order]
        expected = (NoConvergence, Infeasible)[order[0]]
        with pytest.raises(expected):
            for problem in problems:
                solve(problem)
        with pytest.raises(expected):
            nsw.solve_many(problems)

    def test_no_live_rows_and_empty_input(self):
        inst = validate_instance([[3.0, 1.0], [3.0, 1.0]])
        flat = NswProblem.create(inst, offsets=uniform_disagreement(inst))
        lone = NswProblem.create(inst, active_agents=(0,))
        many = nsw.solve_many([flat, lone, flat])
        assert many[0].degenerate_agents == frozenset({0, 1})
        assert np.allclose(many[0].assignment.probs, 0.5)
        assert np.allclose(many[1].utilities, solve(lone).utilities, atol=1e-9)
        assert [sol.metadata["barrier_batch"] for sol in many] == [1, 1, 1]
        assert nsw.solve_many([]) == []

    def test_finished_through_module_solve(self, monkeypatch):
        # Each result is returned by nsw.solve as the module attribute, so a
        # wrapper installed there (as the benchmark's tracer is) sees it.
        seen = []
        real = nsw.solve

        def recording(*args, **kwargs):
            sol = real(*args, **kwargs)
            seen.append(sol)
            return sol

        monkeypatch.setattr(nsw, "solve", recording)
        _, problems = _loo_problems(instances.gen_random(5, seed=1))
        many = nsw.solve_many(problems)
        assert [id(s) for s in seen] == [id(s) for s in many]


def _assert_same_solution(sol, ref):
    """``sol`` is ``ref`` bit for bit: utilities, assignment, prices and
    the barrier and polish counts."""
    assert np.array_equal(sol.utilities, ref.utilities)
    assert np.array_equal(sol.assignment.probs, ref.assignment.probs)
    assert np.array_equal(sol.duals.t, ref.duals.t)
    assert np.array_equal(sol.duals.q, ref.duals.q)
    for key in ("iterations", "polish", "polish_steps"):
        assert sol.metadata[key] == ref.metadata[key]


@pytest.mark.parametrize("shape", [(3, 4), (4, 4), (5, 6)])
class TestZeroSupply:
    """A zero-supply item is dropped from the solve and priced afterwards at
    the best unmet demand max_i (v_ij / s_i - q_i)^+ over live agents."""

    @staticmethod
    def _market(shape):
        rng = np.random.default_rng(sum(shape))
        supplies = np.ones(shape[1])
        supplies[shape[1] // 2] = 0.0
        return validate_instance({"values": rng.uniform(0.1, 1.0, shape),
                                  "supplies": supplies})

    @staticmethod
    def _assert_certified(sol):
        inst = sol.problem.instance
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        skip = set(range(inst.n_agents)) - set(sol.problem.active_agents)
        skip |= sol.degenerate_agents
        offsets = np.asarray(sol.metadata["offsets"])
        assert kkt_check(inst, sol.assignment, sol.duals, offsets,
                         skip_agents=skip) <= DEFAULT_KKT_TOL
        live = sorted(set(range(inst.n_agents)) - skip)
        j = int(np.flatnonzero(np.asarray(inst.supplies) == 0.0)[0])
        assert np.all(sol.assignment.probs[:, j] == 0.0)
        demand = (np.asarray(inst.values)[live, j] / sol.surplus[live]
                  - sol.duals.q[live])
        assert sol.duals.t[j] == pytest.approx(max(0.0, float(demand.max())),
                                               rel=1e-12, abs=1e-15)

    def test_solve_and_solve_many_certify(self, shape):
        inst = self._market(shape)
        self._assert_certified(solve(NswProblem.create(inst)))
        _, problems = _loo_problems(inst)
        for sol in nsw.solve_many(problems):
            self._assert_certified(sol)

    def test_pa_run_certifies(self, shape):
        inst = self._market(shape)
        out = pa_run(inst, offsets=uniform_disagreement(inst))
        self._assert_certified(out.base)
        assert np.all((out.fractions >= 0) & (out.fractions <= 1 + 1e-9))


def _transport_constraints_dense(V, b, c):
    """Reference for the screen LPs' transport rows, built densely."""
    na, mk = V.shape
    nvar = na * mk
    rows = []
    for i in range(na):
        r = np.zeros(nvar)
        r[i * mk:(i + 1) * mk] = 1.0
        rows.append(r)
    for j in range(mk):
        r = np.zeros(nvar)
        r[j::mk] = 1.0
        rows.append(r)
    return np.vstack(rows), np.concatenate([b, c])


def _max_min_surplus_lp_dense(V, b, c, o):
    """Reference for ``nsw._max_min_surplus_lp`` on a dense matrix."""
    na, mk = V.shape
    nvar = na * mk
    A_tr, ub_tr = _transport_constraints_dense(V, b, c)
    A_s = np.zeros((na, nvar + 1))
    for i in range(na):
        A_s[i, i * mk:(i + 1) * mk] = -V[i]
        A_s[i, nvar] = 1.0
    A = np.vstack([np.hstack([A_tr, np.zeros((A_tr.shape[0], 1))]), A_s])
    cost = np.zeros(nvar + 1)
    cost[nvar] = -1.0
    res = linprog(cost, A_ub=A, b_ub=np.concatenate([ub_tr, -o]),
                  bounds=[(0, None)] * nvar + [(None, None)], method="highs")
    assert res.success
    return res.x[:nvar].reshape(na, mk), float(res.x[nvar])


def _max_one_surplus_lp_dense(V, b, c, o, k):
    """Reference for ``nsw._max_one_surplus_lp`` on a dense matrix."""
    na, mk = V.shape
    nvar = na * mk
    A_tr, ub_tr = _transport_constraints_dense(V, b, c)
    A_s = np.zeros((na, nvar))
    for i in range(na):
        A_s[i, i * mk:(i + 1) * mk] = -V[i]
    cost = np.zeros(nvar)
    cost[k * mk:(k + 1) * mk] = -V[k]
    res = linprog(cost, A_ub=np.vstack([A_tr, A_s]), b_ub=np.concatenate([ub_tr, -o]),
                  bounds=[(0, None)] * nvar, method="highs")
    if not res.success:
        return None
    x = res.x.reshape(na, mk)
    return x, float(V[k] @ x[k] - o[k])


def _price_rows_loop(pairs, tight_rows, tight_cols, sign=1.0):
    """Reference price-system rows: t on ``tight_cols``, then q on ``tight_rows``."""
    t_idx = {j: k for k, j in enumerate(tight_cols)}
    q_idx = {i: len(tight_cols) + k for k, i in enumerate(tight_rows)}
    rows = []
    for (i, j) in pairs:
        row = np.zeros(len(tight_cols) + len(tight_rows))
        if j in t_idx:
            row[t_idx[j]] = sign
        if i in q_idx:
            row[q_idx[i]] = sign
        rows.append(row)
    return rows


def _duals_by_lp_loop(vhat, n, m, pairs, support, tight_rows, tight_cols):
    """Reference for ``nsw._duals_by_lp``: each pair's row, then its support row."""
    nvar = len(tight_cols) + len(tight_rows)
    A_ub, b_ub = [], []
    for (i, j) in pairs:
        A_ub.append(np.r_[_price_rows_loop([(i, j)], tight_rows, tight_cols, -1.0)[0], -1.0])
        b_ub.append(-vhat[i, j])
        if (i, j) in support:
            A_ub.append(np.r_[_price_rows_loop([(i, j)], tight_rows, tight_cols)[0], -1.0])
            b_ub.append(vhat[i, j])
    if not A_ub:
        return Duals(np.zeros(m), np.zeros(n))
    c = np.zeros(nvar + 1)
    c[nvar] = 1.0
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  bounds=[(0, None)] * (nvar + 1), method="highs")
    assert res.success
    t, q = np.zeros(m), np.zeros(n)
    t[tight_cols] = res.x[:len(tight_cols)]
    q[tight_rows] = res.x[len(tight_cols):nvar]
    return Duals(t, q)


def _random_screen_lp(seed):
    rng = np.random.default_rng(seed)
    na, mk = (int(x) for x in rng.integers(1, 9, size=2))
    V = (rng.integers(0, 4, (na, mk)).astype(float) if seed % 2
         else rng.uniform(size=(na, mk)) * (rng.uniform(size=(na, mk)) < 0.5))
    if seed % 5 == 0:
        V[rng.integers(na)] = 0.0                    # a zero row
    c = rng.choice([1.0, 0.7, 0.3, 0.0], mk)
    o = V.mean(axis=1) * rng.choice([0.0, 0.5, 1.0, 1.2])
    return V, c, o


class TestPairIncidence:
    def test_incidence_columns(self):
        A = nsw._pair_incidence(2, 3, [(1, 2), (0, 0), (1, 0)]).toarray()
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1],
                                  [0, 1, 1], [0, 0, 0], [1, 0, 0]])
        assert nsw._pair_incidence(2, 3, np.zeros((0, 2), dtype=int)).shape == (5, 0)

    def test_screen_lps_match_dense_builders(self):
        wide = tall = zero_row = feasible = 0
        for seed in range(150):
            V, c, o = _random_screen_lp(seed)
            b = np.ones(len(V))
            x, delta = nsw._max_min_surplus_lp(V, c, o)
            x_ref, delta_ref = _max_min_surplus_lp_dense(V, b, c, o)
            assert np.array_equal(x, x_ref) and delta == delta_ref
            k = seed % V.shape[0]
            o_one = np.minimum(o, 0.25 * V.mean(axis=1))
            ref = _max_one_surplus_lp_dense(V, b, c, o_one, k)
            if ref is None:
                with pytest.raises(Infeasible):
                    nsw._max_one_surplus_lp(V, c, o_one, k)
            else:
                x, best = nsw._max_one_surplus_lp(V, c, o_one, k)
                assert np.array_equal(x, ref[0]) and best == ref[1]
                feasible += 1
            tall += V.shape[0] > V.shape[1]
            wide += V.shape[0] < V.shape[1]
            zero_row += bool(np.any(V.sum(axis=1) == 0))
        assert min(tall, wide, zero_row) >= 20 and feasible >= 100

    def test_price_solvers_match_loops(self):
        empty_support = no_tight = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n, m = (int(x) for x in rng.integers(1, 7, size=2))
            vhat = rng.uniform(0.0, 2.0, (n, m)) * (rng.uniform(size=(n, m)) < 0.8)
            checked = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                        replace=False).tolist())
            pairs = np.array([(i, j) for i in checked for j in range(m)])
            on_support = rng.uniform(size=len(pairs)) < (0.0 if seed % 9 == 0 else 0.4)
            support = [tuple(pr) for pr in pairs[on_support].tolist()]
            rows, cols = [], []
            if seed % 7:
                rows = sorted(rng.choice(checked, size=int(rng.integers(0, len(checked) + 1)),
                                         replace=False).tolist())
                cols = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                         replace=False).tolist())
            got = nsw._duals_by_lp(vhat, n, m, pairs, on_support, rows, cols)
            ref = _duals_by_lp_loop(vhat, n, m, pairs.tolist(), set(support), rows, cols)
            assert np.array_equal(got.t, ref.t) and np.array_equal(got.q, ref.q)
            empty_support += not support
            no_tight += not rows and not cols
        assert min(empty_support, no_tight) >= 20

    def test_max_min_lp_memory_is_sparse(self):
        # Built from dense matrices, this LP peaked at 194 MiB at n = 128.
        V = np.asarray(instances.gen_random(128, seed=0).values)
        tracemalloc.start()
        try:
            nsw._max_min_surplus_lp(V, np.ones(128), 1.2 * V.mean(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
