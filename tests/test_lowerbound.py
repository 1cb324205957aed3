import json
from fractions import Fraction as F

import pytest

from matchlab.core import NegativeValue
from matchlab.lowerbound import (
    LevelParams,
    LowerBoundParams,
    base_market_table,
    certify_lowerbound_tables,
    certify_table,
    chain_market_table,
    gen_lowerbound,
    growth_rate,
    lowerbound_params,
)


class TestParams:
    def test_growth_anchor(self):
        assert growth_rate(1) == F(9, 4)
        assert growth_rate(2) == F(81, 32)

    def test_level_one_sizes(self):
        lp = lowerbound_params(1).level(1)
        assert (lp.s_h, lp.s_d, lp.s_b) == (13, 9, 5)
        assert lp.s_g == 9 and lp.s_c == 18 and lp.s_f == 20 and lp.s_a == 43
        assert not lp.high_regime

    def test_regime_switch_at_level_seven(self):
        p = lowerbound_params(8)
        assert not p.level(6).high_regime
        assert p.level(7).high_regime

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_size_identities_exact(self, s):
        p = lowerbound_params(s)
        for lp in p.levels:
            assert lp.s_a == lp.s_b + lp.s_f + lp.s_c
            assert lp.s_c == lp.s_d + lp.s_g
            assert lp.s_b + lp.s_d == 1 + lp.s_h
            assert (1 + lp.s_h) % 14 == 0

    @pytest.mark.parametrize("s", [1, 4, 8])
    def test_size_bounds(self, s):
        p = lowerbound_params(s)
        for lp in p.levels:
            cap = 2 * lp.v ** 3 if lp.high_regime else 4 * lp.v ** 3
            assert lp.s_a <= cap

    def test_copy_recursion(self):
        p = lowerbound_params(3)
        assert p.k[3] == 1
        assert p.k[2] == p.level(3).s_a
        assert p.k[1] == p.level(2).s_a * p.k[2]
        assert p.k[0] == p.level(1).s_a * p.k[1] == 73960

    @pytest.mark.parametrize("s", list(range(1, 9)))
    def test_copies_within_corrected_envelope(self, s):
        # The family's own product form: k0 = prod s_a(r) <= prod 4 v_r^3
        # = 32^s (9/8)^(3 s (s+1) / 2) <= (9/8)^((3 s^2 + 62 s) / 2).
        p = lowerbound_params(s)
        envelope = F(9, 8) ** ((3 * s * s + 62 * s) // 2 + 1)
        assert p.k0 <= envelope

    def test_interior_values_break_down_mid_range(self):
        # The closed-form low-regime sizes give a negative interior value
        # on levels 4-6; the params flag it and table building refuses.
        p = lowerbound_params(6)
        assert p.level(3).interior_valid
        assert not p.level(4).interior_valid
        with pytest.raises(NegativeValue):
            chain_market_table(p, 4, "initial")

    def test_fault_names_the_failing_value(self):
        # vF_f = 1/4 is positive here; vI_g breaks its upper bound 3/2.
        lp = LevelParams.from_sizes(1, s_b=5, s_d=9, s_f=20, s_g=5, s_h=13)
        assert lp.vF_f == F(1, 4)
        assert lp.interior_fault == "vI_g=19/10 > 3/2"
        params = LowerBoundParams(s=1, levels=(lp,), k=(lp.s_a, 1))
        with pytest.raises(NegativeValue, match=r"vI_g=19/10 > 3/2"):
            chain_market_table(params, 1, "initial")
        assert lowerbound_params(6).level(4).interior_fault == "vF_f=-57/400 <= 0"


class TestTables:
    @pytest.mark.parametrize("eq", ["initial", "final"])
    def test_base_market_certifies_exactly(self, eq):
        rep = certify_table(base_market_table(eq))
        assert rep.residual == 0.0
        assert rep.normalization == 0.0

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("eq", ["initial", "final"])
    def test_chain_and_tail_certify_exactly(self, s, eq):
        params = lowerbound_params(s)
        for r in range(1, s + 1):
            rep = certify_table(chain_market_table(params, r, eq))
            assert rep.residual == 0.0, (s, r, eq)
            assert rep.normalization == 0.0

    def test_base_sizes_match_reference(self):
        tbl = base_market_table("initial")
        assert {k: int(v) for k, v in tbl.items.items()} == {
            "A": 17000, "B": 850, "C": 816, "D": 34,
            "E": 33, "F": 1, "G": 5, "H": 1}

    def test_tail_has_extra_pair(self):
        params = lowerbound_params(2)
        v = growth_rate(2)
        mid = chain_market_table(params, 1, "initial")
        tail = chain_market_table(params, 2, "initial")
        assert "I" not in mid.items and "I" in tail.items
        assert tail.values[("e", "I")] == 1 / v
        assert ("i", "I") in tail.alloc

        # The tail certificates admit a loser value x for I (with E's value
        # 1/x in the final table's scale) exactly on [1/(v+1), 1], so the
        # drop 1/x may be anything from 1 to v + 1; the family uses v.
        def residuals(x):
            initial = chain_market_table(params, 2, "initial")
            final = chain_market_table(params, 2, "final")
            initial.values[("e", "I")] = x
            final.values[("e", "E")] = 1 / x
            return (certify_table(initial).residual,
                    certify_table(final).residual)

        for x in (1 / (v + 1), 1 / v, F(1)):
            assert residuals(x) == (0.0, 0.0), x
        assert residuals(1 / (2 * v))[1] > 0
        assert residuals(F(11, 10))[0] > 0

    def test_corrupted_price_detected(self):
        tbl = base_market_table("initial")
        tbl.t["B"] += F(1, 10)
        rep = certify_table(tbl)
        assert rep.residual >= 0.09

    def test_corrupted_value_detected(self):
        tbl = base_market_table("final")
        tbl.values[("b", "C")] += F(1, 50)
        rep = certify_table(tbl)
        assert rep.residual >= 0.019

    def test_certify_by_name(self):
        assert certify_lowerbound_tables("base", "initial").residual == 0.0
        assert certify_lowerbound_tables(1, "initial", s=1).residual == 0.0

    def test_boundary_prices_consistent(self):
        # Shared item H (level 0) = A (level 1): same price both equilibria;
        # shared bidder h = a likewise.
        params = lowerbound_params(2)
        b_i = base_market_table("initial")
        b_f = base_market_table("final")
        c1_i = chain_market_table(params, 1, "initial")
        c1_f = chain_market_table(params, 1, "final")
        assert b_i.t["H"] == c1_i.t["A"]
        assert b_f.t["H"] == c1_f.t["A"]
        assert b_i.q["h"] == c1_i.q["a"]
        assert b_f.values[("h", "H")] == c1_f.values[("a", "A")]
        # Chain-to-chain: item E of level 1 = A of level 2.
        c2_i = chain_market_table(params, 2, "initial")
        c2_f = chain_market_table(params, 2, "final")
        assert c1_i.t["E"] == c2_i.t["A"]
        assert c1_f.t["E"] == c2_f.t["A"]

    def test_external_reporting(self):
        params = lowerbound_params(2)
        rep = certify_table(chain_market_table(params, 1, "final"))
        assert "A" in rep.external_item_gaps
        assert rep.residual == 0.0


class TestMarket:
    def test_loser_ratio_exact(self):
        for s in (1, 2, 3):
            market = gen_lowerbound(s)
            assert market.loser_ratio() == growth_rate(s)

    def test_removal_set_classes(self):
        market = gen_lowerbound(2)
        labels = {(r["level"], r["class"]) for r in market.removal}
        assert labels == {(0, "c"), (0, "e"), (1, "f"), (1, "g"), (1, "h"),
                          (2, "f"), (2, "g"), (2, "h"), (2, "i")}

    def test_total_agents_s1(self):
        market = gen_lowerbound(1)
        assert market.total_agents() == 805_896

    def test_real_family_counts_balance(self):
        market = gen_lowerbound(1)
        tbl0 = market.level_tables[(0, "initial")]
        tbl1 = market.level_tables[(1, "initial")]
        total_items = (market.params.k0 * int(sum(tbl0.items.values()))
                       + int(sum(tbl1.items.values()))
                       - int(tbl1.items["A"]))   # A units live in level 0
        assert total_items == market.total_agents()

    def test_bundle_round_trip(self, tmp_path):
        market = gen_lowerbound(1)
        paths = market.write_bundle(str(tmp_path))
        assert set(paths) == {"instance.json", "initial_assignment.json",
                              "final_assignment.json", "removal_set.json",
                              "params.json"}
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["s"] == 1
        assert params["loser_ratio"] == "9/4"
        assert params["k"] == [43, 1]
        inst = json.loads((tmp_path / "instance.json").read_text())
        assert inst["format"] == "aggregated-market"
        assert len(inst["levels"]) == 2
