import itertools
import math

import numpy as np
import pytest

from matchlab.core import DimensionMismatch, uniform_disagreement, validate_instance
from matchlab.analysis import (
    approx_ratio,
    benchmark,
    bounds_crossover,
    ordinal_lower_bound,
    rho_exact,
    rho_scan,
    rpi_expected_utilities,
    rpi_worst_case_bound,
    rho_star_upper_bound,
    truthfulness_audit,
)
from matchlab.instances import gen_random, gen_rsd_worst, parse_generator_spec
from matchlab.mechanisms import ps_run, rsd_run
from matchlab.nsw import NswProblem, solve, solve_many


class TestBenchmark:
    def test_identical_rows_uniform(self):
        inst = validate_instance([[2.0, 1.0, 3.0]] * 3)
        b = benchmark(inst)
        assert np.allclose(b.solution.assignment.probs, 1 / 3)
        assert np.allclose(b.benchmark_utilities, b.disagreement)

    def test_scaled_identity(self):
        # By hand: maximize (2p11 - 1 + eps terms)...(2p22 - 1): product of
        # surpluses (2p11-1)(2p22-1) over the bistochastic square is
        # maximized at the identity, utility 2 vs disagreement 1.
        inst = validate_instance([[2.0, 0.0], [0.0, 2.0]])
        b = benchmark(inst)
        assert np.allclose(b.solution.assignment.probs, np.eye(2), atol=1e-8)
        assert np.allclose(b.benchmark_utilities, [2.0, 2.0], atol=1e-8)
        assert np.allclose(b.disagreement, [1.0, 1.0])

    def test_single_agent_gets_unit_supply(self):
        inst = validate_instance([[0.7]])
        b = benchmark(inst)
        assert b.benchmark_utilities[0] == pytest.approx(0.7, abs=1e-9)

    def test_shift_scale_invariance(self):
        inst = gen_random(4, seed=3)
        b1 = benchmark(inst)
        v = np.asarray(inst.values).copy()
        v[1] = v[1] * 5.0 + 2.0
        b2 = benchmark(inst.with_values(v))
        others = [0, 2, 3]
        assert np.allclose(b1.benchmark_utilities[others],
                           b2.benchmark_utilities[others], atol=1e-6)
        assert np.array_equal(b1.solution.assignment.probs > 1e-6,
                              b2.solution.assignment.probs > 1e-6)


class TestApproxRatio:
    def test_benchmark_vs_itself_is_one(self):
        inst = gen_random(4, seed=6)
        b = benchmark(inst)
        rep = approx_ratio(inst, b.solution.assignment, b)
        assert np.allclose(rep.ratios, 1.0, atol=1e-7)

    def test_zero_mechanism_utility_reports_inf(self):
        inst = validate_instance([[1.0, 0.0], [0.0, 1.0]])
        b = benchmark(inst)
        anti = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = approx_ratio(inst, anti, b)
        assert math.isinf(rep.max_ratio)
        assert rep.jsonable_ratios()[0] == "inf"

    def test_rsd_worst_ratio_n(self):
        inst = gen_rsd_worst(5, 1e-3)
        b = benchmark(inst)
        rep = approx_ratio(inst, rsd_run(inst, mode="exact"), b)
        assert rep.ratios[0] == pytest.approx(5.0, rel=0.01)
        assert rep.max_ratio == pytest.approx(5.0, rel=0.02)
        assert rep.worst_agent == 0


class TestRhoExact:
    def test_worked_example_four_thirds(self, table1):
        rep = rho_exact(table1)
        assert rep.rho == pytest.approx(4 / 3, abs=1e-6)
        assert rep.witness_subset == (0, 1)
        assert rep.witness_agent == 1
        assert rep.utility_before == pytest.approx(2.0, abs=1e-6)
        assert rep.utility_after == pytest.approx(1.5, abs=1e-6)

    def test_identical_agents_monotone(self):
        inst = validate_instance([[1.0, 0.0], [1.0, 0.0]])
        rep = rho_exact(inst)
        assert rep.rho == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_identity_values_rho_one(self, n):
        # Every restricted solve keeps the remaining diagonal allocations,
        # so no agent ever drops: verified by the full enumeration itself.
        rep = rho_exact(validate_instance(np.eye(n)))
        assert rep.rho == pytest.approx(1.0, abs=1e-7)

    def test_half_size_variant_bounded_by_full(self, rng):
        inst = gen_random(4, seed=44)
        rep = rho_exact(inst)
        assert rep.rho_half <= rep.rho + 1e-12


def _rho_exact_sequential(inst, bargaining_offsets=False):
    """Reference for ``rho_exact``: one solve per subset, in mask order; a
    lone ``solve`` of the full market and a batch of one of each subset."""
    n = inst.n_agents
    o_full = uniform_disagreement(inst) if bargaining_offsets else None

    def problem(agents):
        off = np.array([o_full[a] for a in agents]) if o_full is not None else None
        return NswProblem.create(inst, agents, off)

    def solve_subset(agents, warm):
        return solve_many([problem(agents)], warm_start=warm)[0]

    full_agents = tuple(range(n))
    full = solve(problem(full_agents))
    warm = np.asarray(full.assignment.probs)
    half_size = -(-n // 2)
    best, best_half, skipped = (1.0, full_agents, -1, 1.0, 1.0), (1.0, full_agents), []
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
    return best, best_half, skipped


class TestRhoBatched:
    @pytest.mark.parametrize("spec,seed,bargaining", [
        ("random:5", 0, False), ("random:5,sparse,0.5", 1, False),
        ("random:5", 2, True), ("random:6,grid", 3, True)])
    def test_matches_one_solve_per_subset(self, spec, seed, bargaining):
        # Subsets of one size are solved together, but the scan, its
        # witnesses, ties and skipped pairs are those of one solve per mask.
        inst = parse_generator_spec(spec, seed=seed)
        rep = rho_exact(inst, bargaining_offsets=bargaining)
        best, best_half, skipped = _rho_exact_sequential(inst, bargaining)
        assert (rep.rho, rep.witness_subset, rep.witness_agent,
                rep.utility_before, rep.utility_after) == best
        assert (rep.rho_half, rep.witness_half) == best_half
        assert rep.skipped == skipped


class TestRhoScan:
    def test_deterministic_single_trial(self):
        a = rho_scan("random:3", trials=1, seed=5)
        b = rho_scan("random:3", trials=1, seed=5)
        assert a.values == b.values

    def test_injected_instance_raises_max(self, table1):
        scan = rho_scan("random:3", trials=3, seed=2,
                        extra_instances=[table1])
        assert scan.max_rho >= 4 / 3 - 1e-6

    def test_histogram_sums_to_trials(self):
        scan = rho_scan("random:3", trials=8, seed=1)
        assert sum(scan.histogram_counts) == 8

    def test_skipped_pairs_summed_over_trials(self):
        # Half-sparse markets leave agents degenerate in some subsets; the
        # scan reports the (subset, agent) pairs its rho_exact calls skip.
        scan = rho_scan("random:5,sparse,0.5", trials=40, seed=0)
        assert scan.skipped_pairs == 128
        assert scan.to_dict()["skipped_pairs"] == 128


class TestAudits:
    def test_pa_truthful(self):
        rep = truthfulness_audit(gen_random(4, seed=3), "pa", misreports=5,
                                 seed=11)
        assert rep.worst_gain <= 1e-5

    def test_ps_profitable_misreport_exists(self):
        # Search over rank permutations on a fixed grid-valued market until
        # a profitable deviation appears; probabilistic serial is famously
        # manipulable and this market exhibits it.
        values = np.array([[0.3, 1.0, 1.0],
                           [0.0, 0.3, 0.6],
                           [0.3, 0.0, 0.6]])
        inst = validate_instance(values)
        truthful = ps_run(inst)
        true_u = (values * truthful.probs).sum(axis=1)
        best_gain = -math.inf
        for agent in range(3):
            for perm in itertools.permutations(range(3)):
                row = np.zeros(3)
                for rank, j in enumerate(perm):
                    row[j] = 3.0 - rank
                w = values.copy()
                w[agent] = row
                out = ps_run(inst.with_values(w))
                gain = float(values[agent] @ out.probs[agent]) - true_u[agent]
                best_gain = max(best_gain, gain)
        assert best_gain > 1e-6

    def test_rsd_rank_permutations_never_gain(self):
        inst = gen_random(3, seed=7)
        values = np.asarray(inst.values)
        truthful = rsd_run(inst, mode="exact")
        for agent in range(3):
            true_u = float(values[agent] @ truthful.probs[agent])
            for perm in itertools.permutations(range(3)):
                row = np.zeros(3)
                for rank, j in enumerate(perm):
                    row[j] = 3.0 - rank
                w = values.copy()
                w[agent] = row
                out = rsd_run(inst.with_values(w), mode="exact")
                assert float(values[agent] @ out.probs[agent]) <= true_u + 1e-12

    def test_no_misreports_rejected(self):
        with pytest.raises(DimensionMismatch):
            truthfulness_audit(gen_random(3, seed=3), "pa", misreports=0)

    def test_rpi_audit_shares_realization(self):
        rep = truthfulness_audit(gen_random(4, seed=5), "rpi", misreports=4,
                                 seed=2)
        assert rep.worst_gain <= 1e-5
        assert len(rep.audited_agents) == 2  # outermost half of four agents


class TestRpiEstimates:
    def test_mean_reproducible(self):
        inst = gen_random(5, seed=4)
        m1, s1 = rpi_expected_utilities(inst, reps=30, seed=7)
        m2, _ = rpi_expected_utilities(inst, reps=30, seed=7)
        assert np.array_equal(m1, m2)
        assert np.all(s1 >= 0)

    def test_one_rep_rejected(self):
        # One draw has no standard error.
        with pytest.raises(DimensionMismatch):
            rpi_expected_utilities(gen_random(5, seed=4), reps=1)


class TestAsymptoticBounds:
    def test_rho_star_monotone(self):
        assert rho_star_upper_bound(16) < rho_star_upper_bound(256)

    def test_crossover_is_tight(self):
        n_star = bounds_crossover()
        assert rpi_worst_case_bound(n_star) < ordinal_lower_bound(n_star)
        assert not (rpi_worst_case_bound(n_star - 1)
                    < ordinal_lower_bound(n_star - 1))

    def test_dominance_up_to_2_64(self):
        n_star = bounds_crossover()
        checkpoints = [n_star, n_star + 1, 10 * n_star]
        checkpoints += [2 ** k for k in range(14, 65, 5)] + [2 ** 64]
        checkpoints = sorted(set(checkpoints))
        gaps = []
        for n in checkpoints:
            if n < n_star:
                continue
            assert rpi_worst_case_bound(n) < ordinal_lower_bound(n)
            gaps.append(math.log(ordinal_lower_bound(n))
                        - math.log(rpi_worst_case_bound(n)))
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
