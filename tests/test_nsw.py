import math
import tracemalloc

import numpy as np
import pytest
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

    def test_component_shift_matches_pairwise_scan(self):
        # The vectorised off-support scan takes max/min over the same
        # values as the pair-by-pair loop, so prices agree bit for bit.
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
            nsw._shift_components(vhat, t, q, support, rows, cols)
            t_ref, q_ref = t0.copy(), q0.copy()
            _shift_components_loop(vhat, t_ref, q_ref, support, rows, cols)
            assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)
            shifted += not np.array_equal(t, t0)
        assert shifted >= 20


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
            monkeypatch.setattr(nsw, "_duals_from_support", lambda *a: prices)
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_tol_rejected(self, tol):
        problem = NswProblem.create(instances.gen_random(5, seed=0))
        with pytest.raises(DimensionMismatch):
            solve(problem, tol=tol)
        with pytest.raises(DimensionMismatch):
            nsw.solve_many([problem], tol=tol)

    @pytest.mark.parametrize("budget", [math.nan, [1.0, math.nan, 1.0], math.inf, 0.0])
    def test_budget_outside_unit_interval_rejected(self, budget):
        with pytest.raises(DimensionMismatch):
            NswProblem.create(instances.gen_random(3, seed=0), row_budget=budget)

    @pytest.mark.parametrize("bargaining", [False, True])
    def test_n64_certifies(self, bargaining):
        _assert_certifies_structured(64, 0, bargaining)

    # Past 64 x 64 pairs a declined structured step used to fall back to
    # an explicit Hessian too large to allocate.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bargaining", [False, True])
    def test_n128_certifies(self, bargaining, seed):
        _assert_certifies_structured(128, seed, bargaining)

    # Each of these is certified only after the first polish of the first
    # barrier rung, (mu_end, tau) = (1e-8, 3e-5), has failed; they keep
    # the rest of the ladder from being trimmed unnoticed.
    @pytest.mark.parametrize("n,seed,bargaining", [
        (4, 4, False), (4, 4, True), (4, 62, True), (6, 98, True)])
    def test_won_past_the_first_rung(self, n, seed, bargaining):
        inst = instances.gen_random(n, seed=seed)
        sol = (benchmark(inst).solution if bargaining
               else solve(NswProblem.create(inst)))
        assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert sol.metadata["polish"] != (1e-8, 3e-5)


def _assert_certifies_structured(n, seed, bargaining):
    inst = instances.gen_random(n, seed=seed)
    sol = (benchmark(inst).solution if bargaining
           else solve(NswProblem.create(inst)))
    assert sol.kkt_residual <= DEFAULT_KKT_TOL
    meta = sol.metadata
    assert meta["structured_steps"] == meta["iterations"] > 0
    assert meta["dense_steps"] == 0


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


def _dense_hessian(V, p, s, r, d, mu):
    """The explicit Hessian of one problem, as the barrier builds it."""
    return nsw._dense_hessians(V[None], p[None], s[None], r[None], d[None], mu)[0]


class TestNewtonStep:
    @pytest.mark.parametrize("mu", [1e-2, 1e-6, 1e-10])
    def test_structured_matches_dense(self, mu):
        for seed in range(10):
            V, p, s, r, d, g = _late_path_state(seed, mu)
            x = nsw._structured_step(V, p, s, r, d, mu, g)
            assert x is not None
            x_dense = nsw._dense_steps(V[None], p[None], s[None], r[None],
                                       d[None], mu, g[None])[0]
            H = _dense_hessian(V, p, s, r, d, mu)
            assert _relative_residual(H, g, x) <= 1e-10
            assert np.max(np.abs(x - x_dense)) <= 1e-8 * np.max(np.abs(x_dense))

    def test_dense_hessians_are_diag_plus_w_wt(self):
        # The batched fill against H = diag(mu/p^2) + W W^T with W written
        # out column by column, and each problem of a batch against the
        # same problem filled alone.
        mu = 1e-4
        states = [_late_path_state(seed, mu, n=5) for seed in range(4)]
        V, p, s, r, d, g = (np.stack(x) for x in zip(*states))
        H = nsw._dense_hessians(V, p, s, r, d, mu)
        na, mk = V.shape[1:]
        for k in range(len(states)):
            W = np.zeros((na * mk, 2 * na + mk))
            for i in range(na):
                for j in range(mk):
                    W[i * mk + j, i] = V[k, i, j] / s[k, i]
                    W[i * mk + j, na + i] = math.sqrt(mu) / r[k, i]
                    W[i * mk + j, 2 * na + j] = math.sqrt(mu) / d[k, j]
            ref = np.diag(mu / p[k].ravel() ** 2) + W @ W.T
            assert np.allclose(H[k], ref, rtol=1e-12, atol=0.0)
            assert np.array_equal(H[k], _dense_hessian(V[k], p[k], s[k], r[k], d[k], mu))

    @pytest.mark.parametrize("mu", [1e-2, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_two_item_supports(self, mu):
        # Two-item supports with tight rows and columns are the hard case.
        # At mu <= 1e-8 the Hessian holds entries near mu / p^2 >= 1e8, so
        # g - H x in doubles is itself off by more than 1e-10 |g| (the
        # dense solve's true residual reaches 3e-7 at mu = 1e-10): only
        # the componentwise backward error can accept such a step.
        for seed in range(20):
            V, p, s, r, d, g = _late_path_state(seed, mu, second_items=True)
            x = nsw._structured_step(V, p, s, r, d, mu, g)
            assert x is not None
            H = _dense_hessian(V, p, s, r, d, mu)
            if mu >= 1e-6:
                assert _relative_residual(H, g, x) <= 1e-10
            xv = x.ravel()
            backward = np.max(np.abs(g.ravel() - H @ xv)
                              / (np.abs(H) @ np.abs(xv) + np.abs(g.ravel())))
            assert backward <= 1e-13
            assert float(np.vdot(g, x)) > 0

    def test_small_problems_take_dense_steps(self):
        sol = solve(NswProblem.create(instances.gen_random(12, seed=0)))
        assert sol.metadata["structured_steps"] == 0
        assert sol.metadata["dense_steps"] == sol.metadata["iterations"]

    def test_declined_steps_build_no_dense_hessian(self, monkeypatch):
        # Every step below mu = 1e-7 is declined, where the old normwise
        # guard declined steps; the path ends there and the certificate
        # alone decides the outcome.  (Declining from the first step on
        # ends in NoConvergence too, but polishing the start point costs
        # about a minute.)
        real_step, declined = nsw._structured_step, []

        def late_decline(V, p, s, r, d, mu, g):
            if mu < 1e-7:
                declined.append(mu)
                return None
            return real_step(V, p, s, r, d, mu, g)

        def no_dense(*args):
            raise AssertionError("dense Hessian built above the crossover")

        monkeypatch.setattr(nsw, "_structured_step", late_decline)
        monkeypatch.setattr(nsw, "_dense_hessians", no_dense)
        try:
            sol = solve(NswProblem.create(instances.gen_random(13, seed=1)))
        except NoConvergence as err:
            assert err.best_residual > DEFAULT_KKT_TOL
        else:
            assert sol.kkt_residual <= DEFAULT_KKT_TOL
        assert declined


class TestSolveTrace:
    def test_trace_rows_have_objective(self, table1):
        trace = []
        solve(NswProblem.create(table1), trace=trace)
        assert len(trace) > 0
        assert all(len(row) == 3 for row in trace)


def _polish_system_loop(V, b, c, o, p, t, q, S, R, C):
    """Reference for the polish's residual F and Jacobian J: the pair loops
    that ``nsw._polish_residual`` and ``nsw._polish_jacobian`` replace."""
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
    b = rng.uniform(0.5, 1.0, na)
    c = rng.uniform(0.5, 1.0, mk)
    return V, b, c, o, p, t, q, S, R, C


class TestPolishSystem:
    def test_residual_and_jacobian_match_pair_loops(self):
        # Same float operations in the same order: bit-identical, signed
        # zeros included.
        for seed in range(300):
            V, b, c, o, p, t, q, S, R, C = _random_polish_state(seed)
            pairs = np.array(sorted(S), dtype=int).reshape(-1, 2)
            rows, cols = np.array(sorted(R), dtype=int), np.array(sorted(C), dtype=int)
            F, s = nsw._polish_residual(V, b, c, o, p, t, q, pairs[:, 0], pairs[:, 1],
                                        rows, cols)
            J = nsw._polish_jacobian(V, s, pairs[:, 0], pairs[:, 1], rows, cols)
            F_ref, J_ref = _polish_system_loop(V, b, c, o, p, t, q, S, R, C)
            assert F.tobytes() == F_ref.tobytes()
            assert J.shape == J_ref.shape and J.tobytes() == J_ref.tobytes()

    def test_violated_pairs_match_pair_loop(self):
        found = 0
        for seed in range(300):
            V, b, c, o, p, t, q, S, R, C = _random_polish_state(seed)
            for threshold in (1e-10, 0.5):
                got = nsw._violated_pairs(V, o, p, t, q, S, R, C, threshold)
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
            alone = solve(problem, warm_start=warm)
            assert sol.metadata["iterations"] == alone.metadata["iterations"]
            assert sol.metadata["polish"] == alone.metadata["polish"]
            assert np.allclose(sol.utilities, alone.utilities, rtol=0.0, atol=1e-9)
            assert sol.kkt_residual <= DEFAULT_KKT_TOL
            assert alone.metadata["barrier_batch"] == 1
            shapes.append(len(problem.active_agents) - len(sol.degenerate_agents))
        for sol, live in zip(many, shapes):
            assert sol.metadata["barrier_batch"] == shapes.count(live)
        if case == "degenerate_split":
            assert len(set(shapes)) == 2
        if case == "structured":
            assert all(sol.metadata["structured_steps"] > 0 for sol in many)

    def test_groups_split_by_hessian_bytes(self, monkeypatch):
        # Six problems of 5 x 6 pairs with room for the Hessians of two
        # per call: three calls of two, and the same results.
        _, problems = _loo_problems(instances.gen_random(6, seed=3))
        monkeypatch.setattr(nsw, "_LOCKSTEP_BYTES", 2 * 8 * 30 ** 2)
        many = nsw.solve_many(problems)
        assert [sol.metadata["barrier_batch"] for sol in many] == [2] * 6
        for problem, sol in zip(problems, many):
            alone = solve(problem)
            assert sol.metadata["iterations"] == alone.metadata["iterations"]
            assert np.array_equal(sol.utilities, alone.utilities)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_raises_what_the_sequential_loop_raises_first(self, order):
        # With max_iter=1 the live problem fails in its last stage
        # (NoConvergence) and the infeasible one in its first (Infeasible);
        # the earlier of the two in the list decides, as in a loop.
        live = NswProblem.create(instances.gen_random(4, seed=0))
        inst = validate_instance([[1.0, 0.0], [1.0, 0.0]])
        infeasible = NswProblem.create(inst, offsets=np.array([0.9, 0.9]))
        problems = [(live, infeasible)[k] for k in order]
        expected = (NoConvergence, Infeasible)[order[0]]
        with pytest.raises(expected):
            for problem in problems:
                solve(problem, max_iter=1)
        with pytest.raises(expected):
            nsw.solve_many(problems, max_iter=1)

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


def _duals_from_support_loop(vhat, n, m, support, tight_rows, tight_cols):
    """Reference for ``nsw._duals_from_support``, one row per support pair."""
    nvar = len(tight_cols) + len(tight_rows)
    rows = _price_rows_loop(support, tight_rows, tight_cols)
    if nvar == 0:
        return Duals(np.zeros(m), np.zeros(n))
    sol = np.zeros(nvar)
    if rows:
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array([vhat[i, j] for i, j in support]),
                                  rcond=None)
    t, q = np.zeros(m), np.zeros(n)
    t[tight_cols] = sol[:len(tight_cols)]
    q[tight_rows] = sol[len(tight_cols):]
    nsw._shift_components(vhat, t, q, support, tight_rows, tight_cols)
    return Duals(t, q)


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
    b = rng.choice([1.0, 0.6, 0.25], na)
    c = rng.choice([1.0, 0.7, 0.3, 0.0], mk)
    o = V.mean(axis=1) * rng.choice([0.0, 0.5, 1.0, 1.2])
    return V, b, c, o


class TestPairIncidence:
    def test_incidence_columns(self):
        A = nsw._pair_incidence(2, 3, [(1, 2), (0, 0), (1, 0)]).toarray()
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1],
                                  [0, 1, 1], [0, 0, 0], [1, 0, 0]])
        assert nsw._pair_incidence(2, 3, np.zeros((0, 2), dtype=int)).shape == (5, 0)

    def test_screen_lps_match_dense_builders(self):
        wide = tall = zero_row = feasible = 0
        for seed in range(150):
            V, b, c, o = _random_screen_lp(seed)
            x, delta = nsw._max_min_surplus_lp(V, b, c, o)
            x_ref, delta_ref = _max_min_surplus_lp_dense(V, b, c, o)
            assert np.array_equal(x, x_ref) and delta == delta_ref
            k = seed % V.shape[0]
            o_one = np.minimum(o, 0.25 * V.mean(axis=1))
            ref = _max_one_surplus_lp_dense(V, b, c, o_one, k)
            if ref is None:
                with pytest.raises(Infeasible):
                    nsw._max_one_surplus_lp(V, b, c, o_one, k)
            else:
                x, best = nsw._max_one_surplus_lp(V, b, c, o_one, k)
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
            got = nsw._duals_from_support(vhat, n, m, pairs[on_support], rows, cols)
            ref = _duals_from_support_loop(vhat, n, m, support, rows, cols)
            assert np.array_equal(got.t, ref.t) and np.array_equal(got.q, ref.q)
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
            nsw._max_min_surplus_lp(V, np.ones(128), np.ones(128), 1.2 * V.mean(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
