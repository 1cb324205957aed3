import math
from fractions import Fraction

import numpy as np
import pytest

from matchlab.core import (
    DimensionMismatch,
    TooLargeForExact,
    utilities,
    validate_instance,
)
from matchlab.instances import gen_ordinal_worst, gen_random, gen_rsd_worst
from matchlab.mechanisms import (
    MECHANISMS,
    pa_run,
    ps_exact_matrix,
    ps_run,
    rpi_outer_sample,
    rpi_run,
    rsd_exact_matrix,
    rsd_run,
    run_mechanism,
)

INV_E = math.exp(-1)


def _with_supplies(inst, supplies):
    return validate_instance({"values": np.asarray(inst.values), "supplies": supplies})


class TestPartialAllocation:
    def test_no_externality_identity(self):
        inst = validate_instance([[1, 0], [0, 1]])
        out = pa_run(inst)
        assert np.allclose(out.fractions, 1.0, atol=1e-9)
        assert np.allclose(out.assignment.probs, np.eye(2), atol=1e-8)

    def test_contested_item_halves(self):
        # Leave-one-out utility is 1 (alone on the item), joint is 1/2.
        inst = validate_instance([[1, 0], [1, 0]])
        out = pa_run(inst)
        assert np.allclose(out.fractions, 0.5, atol=1e-7)
        assert out.assignment.probs[0, 0] == pytest.approx(0.25, abs=1e-7)
        assert out.assignment.probs[1, 0] == pytest.approx(0.25, abs=1e-7)

    def test_fraction_bounds_random(self):
        for seed in range(25):
            out = pa_run(gen_random(5, "uniform01", seed=seed))
            assert np.all(out.fractions > INV_E - 1e-9)
            assert np.all(out.fractions <= 1 + 1e-9)

    def test_scale_down_row_sums_equal_fractions(self):
        for seed in (3, 4):
            out = pa_run(gen_random(4, "uniform01", seed=seed))
            assert np.allclose(out.assignment.row_sums(), out.fractions,
                               atol=1e-7)

    def test_truthfulness_smoke(self):
        rng = np.random.default_rng(5)
        inst = gen_random(4, "uniform01", seed=9)
        values = np.asarray(inst.values)
        truthful = pa_run(inst)
        for agent in range(4):
            u_true = float(values[agent] @ truthful.assignment.probs[agent])
            for _ in range(6):
                w = values.copy()
                w[agent] = rng.uniform(size=4)
                out = pa_run(inst.with_values(w))
                u_lie = float(values[agent] @ out.assignment.probs[agent])
                assert u_lie <= u_true + 1e-5

    def test_leave_one_out_barriers_run_in_one_batch(self, monkeypatch):
        # The n leave-one-out solves share a shape: their barrier is one
        # lockstep call of n problems, and each solution still comes back
        # through nsw.solve.
        from matchlab import nsw
        loo = []
        real = nsw.solve

        def recording(*args, **kwargs):
            sol = real(*args, **kwargs)
            loo.append(sol)
            return sol

        monkeypatch.setattr(nsw, "solve", recording)
        n = 8
        out = pa_run(gen_random(n, seed=0))
        assert len(loo) == len(out.leave_one_out_utilities) == n
        assert [sol.metadata["barrier_batch"] for sol in loo] == [n] * n
        assert out.base.metadata["barrier_batch"] == 1

    @pytest.mark.parametrize("bargaining", [False, True])
    @pytest.mark.parametrize("dist", ["grid", "sparse", "uniform01"])
    def test_fractions_independent_of_the_barrier_path(self, dist, bargaining):
        # The leave-one-out solves run as a batch, on the primal-dual path;
        # PA reads only their utilities, which are unique, so its fractions
        # are those of one lone cold solve per agent.  The base solve is a lone
        # solve, bit for bit.
        from matchlab import nsw
        from matchlab.core import uniform_disagreement
        for n in range(4, 13):
            inst = gen_random(n, dist, seed=n)
            off = uniform_disagreement(inst) if bargaining else np.zeros(n)
            out = pa_run(inst, offsets=off)
            base = nsw.solve(nsw.NswProblem.create(inst, offsets=off))
            assert np.array_equal(out.base.assignment.probs, base.assignment.probs)
            assert np.array_equal(out.base.utilities, base.utilities)
            fractions = np.ones(n)
            for agent in sorted(set(range(n)) - base.degenerate_agents):
                rest = tuple(a for a in range(n) if a != agent)
                loo = nsw.solve(nsw.NswProblem.create(inst, rest, off[list(rest)]))
                for other in rest:
                    if not {other} & (base.degenerate_agents | loo.degenerate_agents):
                        fractions[agent] *= base.surplus[other] / loo.surplus[other]
            assert np.allclose(out.fractions, fractions, rtol=1e-12, atol=0.0)

    def test_one_active_agent_keeps_her_whole_share(self):
        # With one agent there is no one to leave out: her fraction is the
        # empty product, 1, and no leave-one-out problem is built.
        out = pa_run(validate_instance([[1.0]]))
        assert out.fractions.tolist() == [1.0]
        assert out.leave_one_out_utilities == {}
        assert np.allclose(out.assignment.probs, [[1.0]], atol=1e-8)
        inst = gen_random(4, seed=0)
        out = pa_run(inst, active_agents=(2,))
        assert out.fractions.tolist() == [1.0]
        assert np.array_equal(out.assignment.probs, out.base.assignment.probs)
        assert out.assignment.probs[2].sum() == pytest.approx(1.0, abs=1e-8)

    def test_all_degenerate_uniform(self):
        inst = validate_instance([[1.0, 1.0], [1.0, 1.0]])
        from matchlab.core import uniform_disagreement
        out = pa_run(inst, offsets=uniform_disagreement(inst))
        assert out.metadata.get("all_degenerate")
        assert np.allclose(out.fractions, 1.0)
        assert np.allclose(out.assignment.probs, 0.5)


class TestRpi:
    def test_base_case_uniform(self):
        inst = gen_random(3, seed=1)
        out = rpi_run(inst, n0=4, seed=0)
        assert np.allclose(out.probs, 1 / 3)

    def test_single_agent(self):
        inst = validate_instance([[0.7]])
        out = rpi_run(inst, n0=4, seed=0)
        assert np.allclose(out.probs, [[1.0]])

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 11, 12])
    def test_doubly_stochastic(self, n):
        inst = gen_random(n, seed=n)
        out = rpi_run(inst, n0=4, seed=17)
        assert np.abs(out.row_sums() - 1).max() <= 1e-8
        assert np.abs(out.col_sums() - 1).max() <= 1e-8

    def test_deterministic_per_seed(self):
        inst = gen_random(6, seed=2)
        a = rpi_run(inst, seed=5).probs
        b = rpi_run(inst, seed=5).probs
        assert np.array_equal(a, b)
        c = rpi_run(inst, seed=6).probs
        assert not np.allclose(a, c)

    def test_outer_sample_value_independent(self):
        inst = gen_random(6, seed=3)
        other = inst.with_values(np.asarray(inst.values)[::-1].copy())
        assert rpi_outer_sample(inst, seed=9) == rpi_outer_sample(other, seed=9)
        assert len(rpi_outer_sample(inst, seed=9)) == 3

    def test_conditional_truthfulness_smoke(self):
        inst = gen_random(4, seed=21)
        values = np.asarray(inst.values)
        seed = 3
        outer = rpi_outer_sample(inst, seed=seed)
        truthful = rpi_run(inst, seed=seed)
        rng = np.random.default_rng(0)
        for agent in outer:
            u_true = float(values[agent] @ truthful.probs[agent])
            for _ in range(8):
                w = values.copy()
                w[agent] = rng.uniform(size=4)
                out = rpi_run(inst.with_values(w), seed=seed)
                u_lie = float(values[agent] @ out.probs[agent])
                assert u_lie <= u_true + 1e-5

    def test_requires_square_unit(self):
        with pytest.raises(DimensionMismatch):
            rpi_run(validate_instance(np.ones((2, 3))))
        with pytest.raises(DimensionMismatch):
            rpi_run(validate_instance({"values": np.ones((2, 2)),
                                       "supplies": [1.0, 0.5]}))
        # Within numpy's default relative tolerance of 1, but not a unit.
        with pytest.raises(DimensionMismatch):
            rpi_run(_with_supplies(gen_random(4, seed=0), [1.0 - 1e-6, 1.0, 1.0, 1.0]))


class TestRsd:
    def test_worst_case_agent1_exact_third(self):
        inst = gen_rsd_worst(3, 0.25)
        exact = rsd_exact_matrix(inst)
        assert exact[0][0] == Fraction(1, 3)

    def test_identity_values(self):
        out = rsd_run(validate_instance(np.eye(3)), mode="exact")
        assert np.allclose(out.probs, np.eye(3))

    def test_two_agents_contested(self):
        # Enumerate both orders by hand: each gets item 1 half the time.
        out = rsd_run(validate_instance([[2, 1], [3, 1]]), mode="exact")
        assert np.allclose(out.probs, 0.5)

    def test_sampled_close_to_exact(self):
        inst = gen_random(4, seed=8)
        exact = rsd_run(inst, mode="exact").probs
        sampled = rsd_run(inst, mode="sampled", samples=4000, seed=1).probs
        assert np.abs(exact - sampled).max() < 0.05

    def test_exact_limit(self):
        with pytest.raises(TooLargeForExact):
            rsd_exact_matrix(gen_random(11, seed=0))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_rejects_fractional_supplies(self, mode):
        # Every draw hands out whole items, so a half supply would be
        # overspent.
        inst = _with_supplies(gen_random(4, seed=0), [0.5, 1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            rsd_run(inst, mode=mode)

    def test_rejects_zero_samples(self):
        with pytest.raises(DimensionMismatch):
            rsd_run(gen_random(4, seed=0), mode="sampled", samples=0)

    def test_ordinal_invariance(self):
        inst = gen_random(5, seed=12)
        transformed = inst.with_values(np.asarray(inst.values) ** 3 * 7 + 0.0)
        a = rsd_run(inst, mode="exact").probs
        b = rsd_run(transformed, mode="exact").probs
        assert np.array_equal(a, b)


class TestPs:
    def test_two_agents_same_top(self):
        out = ps_run(validate_instance([[2, 1], [3, 1]]))
        assert np.allclose(out.probs, 0.5)

    def test_identity_values(self):
        out = ps_run(validate_instance(np.eye(4)))
        assert np.allclose(out.probs, np.eye(4))

    def test_doubly_stochastic_exact(self):
        for seed in range(5):
            eaten = ps_exact_matrix(gen_random(5, seed=seed))
            for row in eaten:
                assert sum(row) == 1
            for j in range(5):
                assert sum(row[j] for row in eaten) == 1

    def test_rejects_fractional_supplies(self):
        inst = _with_supplies(gen_random(4, seed=0), [0.5, 1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            ps_run(inst)

    def test_ordinal_worst_top_share(self):
        inst = gen_ordinal_worst(4, 0.01)
        eaten = ps_exact_matrix(inst)
        assert eaten[0][0] == Fraction(1, 3)

    def test_ordinal_invariance(self):
        inst = gen_random(5, seed=13)
        transformed = inst.with_values(np.asarray(inst.values) * 11 + 2.0)
        a = ps_run(inst).probs
        b = ps_run(transformed).probs
        assert np.array_equal(a, b)


class TestRegistry:
    def test_names(self):
        assert set(MECHANISMS) == {"pa", "rpi", "rsd", "ps"}

    def test_dispatch(self):
        inst = gen_random(4, seed=2)
        for name in MECHANISMS:
            out = run_mechanism(name, inst, seed=1)
            assert out.probs.shape == (4, 4)

    def test_unknown(self):
        with pytest.raises(DimensionMismatch):
            run_mechanism("nope", gen_random(3, seed=0))
