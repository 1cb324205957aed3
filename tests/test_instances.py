import numpy as np
import pytest

from matchlab.core import DimensionMismatch
from matchlab.instances import (
    gen_ordinal_worst,
    gen_random,
    gen_rsd_worst,
    parse_generator_spec,
    worked_example,
)


class TestRandom:
    def test_deterministic(self):
        a = gen_random(3, "grid", seed=7, param=2)
        b = gen_random(3, "grid", seed=7, param=2)
        assert a == b

    def test_uniform_in_range(self):
        inst = gen_random(5, "uniform01", seed=1)
        v = np.asarray(inst.values)
        assert v.min() >= 0 and v.max() <= 1

    def test_grid_values_on_lattice(self):
        inst = gen_random(4, "grid", seed=3, param=5)
        v = np.asarray(inst.values) * 5
        assert np.allclose(v, np.round(v))

    def test_sparse_zero_count_binomial(self):
        # Binomial(36, 0.5): 3 sigma = 9.
        inst = gen_random(6, "sparse", seed=5, param=0.5)
        zeros = int((np.asarray(inst.values) == 0).sum())
        assert abs(zeros - 18) <= 9

    @pytest.mark.parametrize("k", [float("inf"), float("nan"), 2.5, 0.0])
    def test_grid_resolution_must_be_a_whole_number(self, k):
        with pytest.raises(DimensionMismatch):
            gen_random(5, "grid", seed=0, param=k)

    def test_whole_float_grid_resolution(self):
        assert gen_random(5, "grid", seed=0, param=4.0) == gen_random(5, "grid", seed=0)

    def test_bad_distribution(self):
        with pytest.raises(DimensionMismatch):
            gen_random(3, "weird", seed=0)


class TestAdversarial:
    def test_rsd_worst_matches_display(self):
        inst = gen_rsd_worst(3, 0.25)
        expected = [[1, 0, 0], [1, 0.75, 0], [1, 0, 0.75]]
        assert np.array_equal(np.asarray(inst.values), expected)

    def test_rsd_worst_single_agent(self):
        assert np.array_equal(np.asarray(gen_rsd_worst(1).values), [[1.0]])

    def test_ordinal_worst_matches_display(self):
        inst = gen_ordinal_worst(4, 0.1)
        expected = [
            [1.0, 0.1, 0.0, 0.0],
            [1.0, 0.0, 0.9, 0.0],
            [1.0, 0.0, 0.0, 0.9],
            [0.0, 1.0, 1.0, 1.0],
        ]
        assert np.allclose(np.asarray(inst.values), expected)

    def test_ordinal_worst_top_agents_share_ranking(self):
        inst = gen_ordinal_worst(6, 0.01)
        v = np.asarray(inst.values)
        for i in range(5):
            assert np.argmax(v[i]) == 0

    def test_symbolic_epsilon_structure(self):
        eps = 0.37
        inst = gen_ordinal_worst(5, eps)
        v = np.asarray(inst.values)
        assert v[0, 1] == eps
        for i in range(1, 4):
            assert v[i, i + 1] == 1 - eps


class TestSpecParsing:
    def test_specs(self):
        assert parse_generator_spec("random:4", seed=1).n_agents == 4
        assert parse_generator_spec("rsd-worst:5,0.001").n_agents == 5
        assert parse_generator_spec("ordinal-worst:6,0.01").n_agents == 6
        assert parse_generator_spec("table1") == worked_example()

    def test_bad_spec(self):
        with pytest.raises(DimensionMismatch):
            parse_generator_spec("random")
        with pytest.raises(DimensionMismatch):
            parse_generator_spec("nope:3")
