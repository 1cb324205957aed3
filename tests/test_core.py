import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab.core import (
    DimensionMismatch,
    FractionalAssignment,
    MechanismReport,
    NegativeValue,
    NonFiniteValue,
    ParseError,
    instance_hash,
    load_instance,
    load_report,
    save_instance,
    save_report,
    uniform_disagreement,
    utilities,
    validate_instance,
)


class TestValidateInstance:
    def test_table1_defaults_supplies(self, table1):
        assert table1.n_agents == 3 and table1.n_items == 3
        assert np.array_equal(table1.supplies, np.ones(3))
        assert table1.agent_labels == ("a", "b", "c")

    def test_all_zero_single_cell_is_valid(self):
        inst = validate_instance([[0.0]])
        assert inst.n_agents == 1
        assert inst.values[0, 0] == 0.0

    def test_supply_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_instance({"values": [[1, 0, 1], [0, 1, 1]],
                               "supplies": [1, 1]})

    def test_negative_value(self):
        with pytest.raises(NegativeValue):
            validate_instance([[1, -0.5], [0, 1]])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            validate_instance([[1, math.nan], [0, 1]])

    def test_immutable_arrays(self, table1):
        with pytest.raises(ValueError):
            table1.values[0, 0] = 9.0


class TestUtilities:
    def test_identity_assignment(self, table1):
        p = FractionalAssignment.from_probs(np.eye(3))
        assert np.allclose(utilities(table1, p), [1, 2, 1])

    def test_zero_assignment(self, table1):
        p = FractionalAssignment.from_probs(np.zeros((3, 3)))
        assert np.array_equal(utilities(table1, p), np.zeros(3))

    def test_half_half_rows(self, table1):
        # Independent oracle: plain per-entry summation.
        p = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        expected = []
        for i in range(3):
            acc = 0.0
            for j in range(3):
                acc += float(table1.values[i, j]) * p[i, j]
            expected.append(acc)
        assert expected[:2] == [1.5, 1.5]
        got = utilities(table1, FractionalAssignment.from_probs(p))
        assert np.allclose(got, expected)

    def test_dimension_mismatch(self, table1):
        with pytest.raises(DimensionMismatch):
            utilities(table1, np.zeros((2, 3)))

    @given(alpha=st.floats(0, 2), beta=st.floats(0, 2),
           seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        inst = validate_instance(rng.uniform(size=(3, 3)))
        p = rng.uniform(0, 0.5, size=(3, 3))
        q = rng.uniform(0, 0.5, size=(3, 3))
        direct = utilities(inst, alpha * p + beta * q)
        combo = alpha * utilities(inst, p) + beta * utilities(inst, q)
        assert np.allclose(direct, combo, atol=1e-12)


class TestDisagreement:
    def test_row_average_on_unit_supplies(self, table1):
        assert np.allclose(uniform_disagreement(table1), [1.0, 1.0, 1 / 3])

    def test_supply_weighted(self):
        inst = validate_instance({"values": [[1.0, 3.0]],
                                  "supplies": [1.0, 0.5]})
        assert np.allclose(uniform_disagreement(inst), [2.5])


class TestSerialization:
    def test_round_trip_table1(self, table1, tmp_path):
        path = tmp_path / "t1.json"
        save_instance(str(path), table1)
        assert load_instance(str(path)) == table1

    def test_random_round_trip_exact(self, tmp_path, rng):
        inst = validate_instance(rng.uniform(size=(5, 5)))
        path = tmp_path / "r.json"
        save_instance(str(path), inst)
        back = load_instance(str(path))
        assert np.array_equal(np.asarray(back.values), np.asarray(inst.values))

    @given(st.lists(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2,
                             max_size=4), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, rows):
        import os
        import tempfile

        width = len(rows[0])
        rows = [r[:width] + [0.0] * (width - len(r)) for r in rows]
        inst = validate_instance(rows)
        fd, path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        try:
            save_instance(path, inst)
            assert load_instance(path) == inst
        finally:
            os.unlink(path)

    def test_missing_values_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"supplies": [1, 1]}')
        with pytest.raises(ParseError):
            load_instance(str(path))

    def test_malformed_json_has_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"values": [[1, 0],\n [0,]]}')
        with pytest.raises(ParseError) as err:
            load_instance(str(path))
        assert err.value.line is not None

    def test_missing_file_is_oserror(self):
        with pytest.raises(OSError):
            load_instance("/definitely/not/here.json")

    def test_hash_stable_and_sensitive(self, table1):
        h1 = instance_hash(table1)
        assert h1 == instance_hash(table1)
        other = table1.with_values(np.asarray(table1.values) * 2)
        assert instance_hash(other) != h1


class TestReports:
    def test_report_round_trip_with_inf(self, tmp_path):
        rep = MechanismReport(
            mechanism="rsd", seed=7,
            probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            utilities=np.array([1.0, 0.5]),
            benchmark_utilities=np.array([1.0, 1.0]),
            ratios=[1.0, math.inf],
            metadata={"note": "x"})
        path = tmp_path / "rep.json"
        save_report(str(path), rep)
        raw = json.loads(path.read_text())
        assert raw["ratios"][1] == "inf"
        back = load_report(str(path))
        assert back.ratios[1] == math.inf
        assert np.array_equal(back.probs, rep.probs)


class TestAssignmentChecks:
    def test_row_budget_violation(self):
        fa = FractionalAssignment.from_probs([[0.9, 0.9]])
        with pytest.raises(Exception):
            fa.check_valid()

    def test_supply_violation(self):
        fa = FractionalAssignment.from_probs([[0.7], [0.7]])
        with pytest.raises(Exception):
            fa.check_valid(supplies=np.array([1.0]))
