import math
import tracemalloc

import numpy as np
import pytest

from matchlab import instances, nsw
from matchlab.analysis import benchmark
from matchlab.core import (
    DegenerateNormalization,
    FractionalAssignment,
    Infeasible,
    NoConvergence,
    NotOptimal,
    TooLarge,
    validate_instance,
    uniform_disagreement,
    utilities,
)
from matchlab.lottery import sinkhorn
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


class TestSolveContracts:
    def test_certificate_soundness_random(self, rng):
        for n in (3, 4, 5):
            for _ in range(5):
                inst = validate_instance(rng.uniform(size=(n, n)))
                sol = solve(NswProblem.create(inst))
                duals = recover_duals(inst, sol.assignment,
                                      skip_agents=sol.degenerate_agents)
                resid = kkt_check(inst, sol.assignment, duals,
                                  skip_agents=sol.degenerate_agents)
                assert resid <= 1e-7

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

    def test_row_budget_below_one(self):
        inst = validate_instance([[1.0, 0.5], [0.5, 1.0]])
        sol = solve(NswProblem.create(inst, row_budget=0.5))
        assert np.all(sol.assignment.row_sums() <= 0.5 + 1e-9)
        assert sol.kkt_residual <= 1e-7

    def test_utilities_unique_across_reruns(self, rng):
        inst = validate_instance(rng.uniform(size=(5, 5)))
        u1 = solve(NswProblem.create(inst)).utilities
        u2 = solve(NswProblem.create(inst)).utilities
        assert np.allclose(u1, u2, atol=1e-9)

    def test_iteration_budget_raises_no_convergence(self):
        # One Newton step leaves an uncertified (and infeasible) best
        # candidate; the documented error is NoConvergence, not a
        # validation error from assembling that candidate.
        inst = instances.gen_random(4, seed=0)
        with pytest.raises(NoConvergence) as err:
            solve(NswProblem.create(inst), max_iter=1)
        assert err.value.iterations == 1
        assert err.value.best_residual > DEFAULT_KKT_TOL

    @pytest.mark.parametrize("bargaining", [False, True])
    def test_n64_certifies(self, bargaining):
        inst = instances.gen_random(64, seed=0)
        sol = (benchmark(inst).solution if bargaining
               else solve(NswProblem.create(inst)))
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        meta = sol.metadata
        assert meta["structured_steps"] > 0
        assert meta["structured_steps"] + meta["dense_steps"] == meta["iterations"]


def _late_path_state(seed, mu, second_items=False, n=8):
    """A strictly interior point like those late on the barrier path.

    Each agent holds one item (a random permutation) or, with
    ``second_items``, also a second one along a path; every other pair and
    every row and column slack are of order ``mu``.  Returns the
    arguments of a Newton step: (V, p, s, r, d, g).
    """
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.0, 1.0, (n, n))
    noise = rng.uniform(0.5, 2.0, (n, n))
    perm = rng.permutation(n)
    P = np.eye(n)[perm]
    if second_items:
        Q = np.eye(n)[np.roll(perm, 1)]
        Q[0] = 0.0                      # break the cycle: agent 0 has one item
        P = 0.7 * P + 0.3 * Q
    alpha = 1.0 - mu * (max(noise.sum(axis=1).max(),
                            noise.sum(axis=0).max()) + 1.0)
    p = alpha * P + mu * noise
    s = (V * p).sum(axis=1)
    r = 1.0 - p.sum(axis=1)
    d = 1.0 - p.sum(axis=0)
    g = V / s[:, None] + mu / p - mu / r[:, None] - mu / d[None, :]
    return V, p, s, r, d, g


def _relative_residual(H, g, x):
    return np.max(np.abs(g.ravel() - H @ x.ravel())) / np.max(np.abs(g))


class TestNewtonStep:
    @pytest.mark.parametrize("mu", [1e-2, 1e-6, 1e-10])
    def test_structured_matches_dense(self, mu):
        for seed in range(10):
            V, p, s, r, d, g = _late_path_state(seed, mu)
            x = nsw._structured_step(V, p, s, r, d, mu, g)
            assert x is not None
            dense = nsw._DenseHessian(V)
            x_dense = dense.step(p, s, r, d, mu, g)
            H = dense.fill(p, s, r, d, mu)
            assert _relative_residual(H, g, x) <= 1e-10
            assert np.max(np.abs(x - x_dense)) <= 1e-8 * np.max(np.abs(x_dense))

    @pytest.mark.parametrize("mu", [1e-2, 1e-6, 1e-10])
    def test_two_item_supports(self, mu):
        # Two-item supports with tight rows and columns are the hard case.
        # At mu = 1e-10 the Hessian holds entries near 1e10, so evaluating
        # g - H x in doubles is itself off by more than 1e-10 |g|: the dense
        # solve's true residual reaches 3e-7 on these states, and the
        # structured step usually declines.  A step it does return must be
        # backward stable.
        for seed in range(10):
            V, p, s, r, d, g = _late_path_state(seed, mu, second_items=True)
            x = nsw._structured_step(V, p, s, r, d, mu, g)
            H = nsw._DenseHessian(V).fill(p, s, r, d, mu)
            if mu >= 1e-6:
                assert x is not None
                assert _relative_residual(H, g, x) <= 1e-10
            if x is not None:
                xv = x.ravel()
                backward = np.max(np.abs(g.ravel() - H @ xv)
                                  / (np.abs(H) @ np.abs(xv) + np.abs(g.ravel())))
                assert backward <= 1e-13
                assert float(np.vdot(g, x)) > 0

    def test_small_problems_take_dense_steps(self):
        sol = solve(NswProblem.create(instances.gen_random(12, seed=0)))
        assert sol.metadata["structured_steps"] == 0
        assert sol.metadata["dense_steps"] == sol.metadata["iterations"]

    def test_dense_hessian_size_guard(self):
        # 65 x 64 pairs would need a 69 Mi-entry (554 MB) Hessian.
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                nsw._DenseHessian(np.ones((65, 64)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        nsw._DenseHessian(np.ones((64, 64)))    # 4096 pairs: allowed


class TestSolveTrace:
    def test_trace_rows_have_objective(self, table1):
        trace = []
        solve(NswProblem.create(table1), trace=trace)
        assert len(trace) > 0
        assert all(len(row) == 3 for row in trace)
