"""Adversarial market family with large utility-monotonicity violations.

The construction chains sub-markets ``M_0, M_1, ..., M_s``.  Each level is
a small market of item classes A..H (plus an extra item I at the top
level) and bidder classes a..h (plus e and i at the top), where classes
carry integer multiplicities ("sizes").  Levels overlap: item H of each
level-0 copy is one unit of item A of level 1 (and bidder h of level 0 is
bidder a of level 1); item E of level r is one unit of item A of level
r+1.  There are ``k_r`` copies of level r with ``k_{r-1} = s_a(r) k_r``
and ``k_s = 1``.

For every level the module carries two certified equilibria, "initial"
(all bidders present) and "final" (the exit classes removed).  Each table
stores values normalized so every present bidder's per-unit utility is 1,
the aggregate allocation, and price vectors t (items) and q (bidders)
satisfying the welfare-optimality conditions exactly in rational
arithmetic.  The designated loser is the top-level bidder e, who holds
E initially and I finally; her value for I is set to 1/v_s of her value
for E, so her utility drops by exactly the factor v_s between the
equilibria.  The certificates would admit any drop from 1 to v_s + 1
(the initial table needs value(I) <= value(E), the final one
value(E) <= (v_s + 1) value(I)); the family uses v_s.  Since
``v_r = 2 (9/8)^r`` the drop grows with the depth ``s`` while the total
market size grows as the product of the ``s_a(r)``.

Aggregated (class-level) form is canonical: optima are symmetric across
copies and across units inside a class, so certification on one
aggregated table per level covers the whole market.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import DimensionMismatch, NegativeValue

__all__ = [
    "LevelParams",
    "LowerBoundParams",
    "LevelTable",
    "CertificateReport",
    "lowerbound_params",
    "base_market_table",
    "chain_market_table",
    "certify_table",
    "certify_lowerbound_tables",
    "LowerBoundMarket",
    "gen_lowerbound",
]

F = Fraction


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def growth_rate(r: int) -> Fraction:
    """v_r = 2 (9/8)^r, the price growth anchor of level r."""
    return 2 * F(9, 8) ** r


@dataclass(frozen=True)
class LevelParams:
    """Sizes and interior values of one chain level."""

    r: int
    v: Fraction
    high_regime: bool           # v_r > 9/2
    s_a: int
    s_b: int
    s_c: int
    s_d: int
    s_f: int
    s_g: int
    s_h: int
    vF_f: Fraction
    vF_g: Fraction
    vF_h: Fraction
    vI_f: Fraction
    vI_g: Fraction
    vI_h: Fraction

    @classmethod
    def from_sizes(cls, r: int, *, s_b: int, s_d: int, s_f: int, s_g: int,
                   s_h: int) -> "LevelParams":
        """Level r with the given free sizes; s_c = s_d + s_g and
        s_a = s_b + s_f + s_c follow, and the interior values solve the
        balance equations (each present bidder's average value is 1 in
        its own equilibrium)."""
        v = growth_rate(r)
        s_c = s_d + s_g
        vF_h = (s_h + 1 - v) / s_h
        vF_g = (s_g + s_d - F(2, 9) * v * s_d) / s_g
        vF_f = (s_b + s_c + s_f - F(16, 9) * v * s_b - F(4, 9) * v * s_c) / s_f
        return cls(r=r, v=v, high_regime=v > F(9, 2), s_a=s_b + s_f + s_c,
                   s_b=s_b, s_c=s_c, s_d=s_d, s_f=s_f, s_g=s_g, s_h=s_h,
                   vF_f=vF_f, vF_g=vF_g, vF_h=vF_h,
                   vI_f=F(9) / (8 * v) * vF_f, vI_g=F(9) / (4 * v) * vF_g,
                   vI_h=F(9) / (7 * v) * vF_h)

    @property
    def interior_fault(self) -> str | None:
        """The first interior table value that is not positive or not
        admissible, as ``"name=value op bound"``; None when all are."""
        for name in ("vF_f", "vF_g", "vF_h"):
            if getattr(self, name) <= 0:
                return f"{name}={getattr(self, name)} <= 0"
        for name, cap in (("vI_f", F(1)), ("vI_g", F(3, 2)), ("vI_h", F(9, 7))):
            if getattr(self, name) > cap:
                return f"{name}={getattr(self, name)} > {cap}"
        return None

    @property
    def interior_valid(self) -> bool:
        """True when every interior table value is positive and admissible."""
        return self.interior_fault is None


@dataclass(frozen=True)
class LowerBoundParams:
    """Closed-form parameters of the whole family at depth s."""

    s: int
    levels: tuple[LevelParams, ...]      # levels[r-1] holds level r
    k: tuple[int, ...]                   # k[0..s]

    def level(self, r: int) -> LevelParams:
        if not 1 <= r <= self.s:
            raise DimensionMismatch(f"level r={r} outside 1..{self.s}")
        return self.levels[r - 1]

    @property
    def k0(self) -> int:
        return self.k[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "s": self.s,
            "k": list(self.k),
            "levels": [{
                "r": lp.r,
                "v": str(lp.v),
                "high_regime": lp.high_regime,
                "sizes": {key: getattr(lp, "s_" + key)
                          for key in "abcdfgh"},
                "interior_final": {k: str(getattr(lp, "vF_" + k))
                                   for k in "fgh"},
                "interior_initial": {k: str(getattr(lp, "vI_" + k))
                                     for k in "fgh"},
                "interior_valid": lp.interior_valid,
            } for lp in self.levels],
        }


def _level_params(r: int) -> LevelParams:
    v = growth_rate(r)
    if v == F(9, 2):
        raise ArithmeticError("growth anchor never equals 9/2")
    fl14 = _floor(v / 14)
    s_h = 14 * fl14 + 13
    s_d = 9 * (fl14 + 1)
    s_b = 5 * (fl14 + 1)
    if v > F(9, 2):
        s_g = 9 * _floor(2 * v / 9) * (fl14 + 1)
        s_f = (5 * _floor(16 * v / 9) * (fl14 + 1)
               + 9 * _floor(4 * v / 9) * (fl14 + 1) * (_floor(2 * v / 9) + 1))
    else:
        s_g = _ceil((9 - 2 * v) / (F(2, 3) * v - 1))
        s_f = 5 * _floor(16 * v / 9) * (fl14 + 1)
    return LevelParams.from_sizes(r, s_b=s_b, s_d=s_d, s_f=s_f, s_g=s_g,
                                  s_h=s_h)


def lowerbound_params(s: int) -> LowerBoundParams:
    """Exact family parameters for depth ``s >= 1``.

    Size identities guaranteed on every level: s_a = s_b + s_f + s_c,
    s_c = s_d + s_g, s_b + s_d = 1 + s_h, and 14 | (1 + s_h).  Copy counts
    follow k_{r-1} = s_a(r) k_r with k_s = 1.
    """
    if s < 1:
        raise DimensionMismatch("depth s must be >= 1")
    levels = tuple(_level_params(r) for r in range(1, s + 1))
    k = [0] * (s + 1)
    k[s] = 1
    for r in range(s, 0, -1):
        k[r - 1] = levels[r - 1].s_a * k[r]
    return LowerBoundParams(s=s, levels=levels, k=tuple(k))


# ---------------------------------------------------------------------------
# Level tables
# ---------------------------------------------------------------------------

@dataclass
class LevelTable:
    """One level's aggregated equilibrium: sizes, values, masses, prices.

    ``values[(bidder, item)]`` are normalized so each present internal
    bidder's per-unit utility is 1; ``alloc[(bidder, item)]`` is aggregate
    mass.  ``external_items`` are columns whose supply is consumed by an
    adjacent level; ``external_bidders`` are rows allocated in an adjacent
    level.  Both are skipped by the tightness bookkeeping but reported.
    """

    name: str
    equilibrium: str
    items: dict[str, Fraction]
    bidders: dict[str, Fraction]
    values: dict[tuple[str, str], Fraction]
    alloc: dict[tuple[str, str], Fraction]
    t: dict[str, Fraction]
    q: dict[str, Fraction]
    external_items: frozenset[str] = frozenset()
    external_bidders: frozenset[str] = frozenset()


def base_market_table(equilibrium: str) -> LevelTable:
    """The level-0 market (fixed numeric data)."""
    items = {"A": F(17000), "B": F(850), "C": F(816), "D": F(34),
             "E": F(33), "F": F(1), "G": F(5), "H": F(1)}
    if equilibrium == "initial":
        bidders = {"a": F(17000), "b": F(850), "c": F(816), "d": F(34),
                   "e": F(33), "f": F(6), "h": F(1)}
        values = {
            ("a", "A"): F(1), ("a", "B"): F(3, 2),
            ("b", "B"): F(1), ("b", "C"): F(4687, 7008), ("b", "D"): F(3, 2),
            ("c", "C"): F(1),
            ("d", "D"): F(1), ("d", "E"): F(5, 11), ("d", "F"): F(2),
            ("e", "E"): F(1),
            ("f", "F"): F(8, 3), ("f", "G"): F(2, 3), ("f", "H"): F(5, 3),
            ("h", "H"): F(1),
        }
        alloc = {
            ("a", "A"): F(17000), ("b", "B"): F(850), ("c", "C"): F(816),
            ("d", "D"): F(34), ("e", "E"): F(33),
            ("f", "F"): F(1), ("f", "G"): F(5), ("h", "H"): F(1),
        }
        t = {"A": F(0), "B": F(1, 2), "C": F(1), "D": F(1),
             "E": F(1), "F": F(2), "G": F(0), "H": F(1)}
        q = {"a": F(1), "b": F(1, 2), "c": F(0), "d": F(0),
             "e": F(0), "f": F(2, 3), "h": F(0)}
        return LevelTable("base", equilibrium, items, bidders, values,
                          alloc, t, q)
    if equilibrium == "final":
        bidders = {"a": F(17000), "b": F(850), "d": F(34), "f": F(6),
                   "h": F(1)}
        values = {
            ("a", "A"): F(40, 41), ("a", "B"): F(60, 41),
            ("b", "B"): F(292, 205), ("b", "C"): F(4687, 4920),
            ("b", "D"): F(438, 205),
            ("d", "D"): F(2), ("d", "E"): F(10, 11), ("d", "F"): F(4),
            ("f", "F"): F(16, 5), ("f", "G"): F(4, 5), ("f", "H"): F(2),
            ("h", "H"): F(2),
        }
        alloc = {
            ("a", "A"): F(16150), ("a", "B"): F(850),
            ("b", "C"): F(816), ("b", "D"): F(34),
            ("d", "E"): F(33), ("d", "F"): F(1),
            ("f", "G"): F(5), ("f", "H"): F(1),
        }
        t = {"A": F(0), "B": F(20, 41), "C": F(79, 4920), "D": F(6, 5),
             "E": F(6, 55), "F": F(16, 5), "G": F(4, 5), "H": F(2)}
        q = {"a": F(40, 41), "b": F(192, 205), "d": F(4, 5), "f": F(0),
             "h": F(0)}
        return LevelTable("base", equilibrium, items, bidders, values,
                          alloc, t, q, external_bidders=frozenset({"h"}))
    raise DimensionMismatch(f"unknown equilibrium {equilibrium!r}")


def chain_market_table(params: LowerBoundParams, r: int,
                       equilibrium: str) -> LevelTable:
    """The level-r market (1 <= r <= s); the top level carries the extra
    item I, the loser e, and the exiting bidder i."""
    lp = params.level(r)
    fault = lp.interior_fault
    if fault is not None:
        raise NegativeValue(
            f"level r={r} has no admissible interior values "
            f"({fault}); the closed-form sizes break down here")
    tail = r == params.s
    v = lp.v
    items = {"A": F(lp.s_a), "B": F(lp.s_b), "C": F(lp.s_c),
             "D": F(lp.s_d), "E": F(1), "F": F(lp.s_f), "G": F(lp.s_g),
             "H": F(lp.s_h)}
    if tail:
        items["I"] = F(1)

    if equilibrium == "initial":
        bidders = {"a": F(lp.s_a), "b": F(lp.s_b + lp.s_d), "c": F(lp.s_c),
                   "f": F(lp.s_f), "g": F(lp.s_g), "h": F(lp.s_h)}
        values = {
            ("a", "A"): F(1), ("a", "B"): F(2), ("a", "C"): F(1, 2),
            ("a", "F"): lp.vI_f,
            ("b", "B"): F(16, 7), ("b", "D"): F(2, 7), ("b", "E"): F(9, 7),
            ("b", "H"): lp.vI_h,
            ("c", "C"): F(1), ("c", "D"): F(1, 2), ("c", "G"): lp.vI_g,
            ("f", "F"): F(1), ("g", "G"): F(1), ("h", "H"): F(1),
        }
        alloc = {
            ("a", "A"): F(lp.s_a),
            ("b", "B"): F(lp.s_b), ("b", "D"): F(lp.s_d),
            ("c", "C"): F(lp.s_c),
            ("f", "F"): F(lp.s_f), ("g", "G"): F(lp.s_g),
            ("h", "H"): F(lp.s_h),
        }
        t = {"A": F(1), "B": F(2), "C": F(1, 2), "D": F(0), "E": F(1),
             "F": F(1), "G": F(1), "H": F(1)}
        q = {"a": F(0), "b": F(2, 7), "c": F(1, 2), "f": F(0), "g": F(0),
             "h": F(0)}
        external_items = frozenset() if tail else frozenset({"E"})
        if tail:
            bidders["e"] = F(1)
            bidders["i"] = F(1)
            values[("e", "E")] = F(1)
            values[("e", "I")] = 1 / v
            values[("i", "I")] = F(1)
            alloc[("e", "E")] = F(1)
            alloc[("i", "I")] = F(1)
            t["I"] = F(1)
            q["e"] = F(0)
            q["i"] = F(0)
        return LevelTable(f"chain-{r}", equilibrium, items, bidders, values,
                          alloc, t, q, external_items=external_items)

    if equilibrium == "final":
        bidders = {"a": F(lp.s_a), "b": F(lp.s_b + lp.s_d), "c": F(lp.s_c)}
        values = {
            ("a", "A"): F(8, 9) * v, ("a", "B"): F(16, 9) * v,
            ("a", "C"): F(4, 9) * v, ("a", "F"): lp.vF_f,
            ("b", "B"): F(16, 9) * v, ("b", "D"): F(2, 9) * v,
            ("b", "E"): v, ("b", "H"): lp.vF_h,
            ("c", "C"): F(4, 9) * v, ("c", "D"): F(2, 9) * v,
            ("c", "G"): lp.vF_g,
        }
        alloc = {
            ("a", "B"): F(lp.s_b), ("a", "C"): F(lp.s_c),
            ("a", "F"): F(lp.s_f),
            ("b", "E"): F(1), ("b", "H"): F(lp.s_h),
            ("c", "D"): F(lp.s_d), ("c", "G"): F(lp.s_g),
        }
        t = {"A": F(8, 9) * v, "B": F(16, 9) * v, "C": F(4, 9) * v,
             "D": F(2, 9) * v, "E": v, "F": lp.vF_f, "G": lp.vF_g,
             "H": lp.vF_h}
        q = {"a": F(0), "b": F(0), "c": F(0)}
        if tail:
            bidders["e"] = F(1)
            values[("e", "E")] = v
            values[("e", "I")] = F(1)
            alloc[("e", "I")] = F(1)
            t["I"] = F(0)
            q["e"] = F(1)
        return LevelTable(f"chain-{r}", equilibrium, items, bidders, values,
                          alloc, t, q, external_items=frozenset({"A"}))
    raise DimensionMismatch(f"unknown equilibrium {equilibrium!r}")


# ---------------------------------------------------------------------------
# Exact certification
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Per-condition optimality residuals of one level table."""

    table: str
    equilibrium: str
    residual: float
    pair_residuals: dict[tuple[str, str], float]
    price_negativity: float
    item_slackness: float
    bidder_slackness: float
    normalization: float
    external_item_gaps: dict[str, float]


def certify_table(table: LevelTable) -> CertificateReport:
    """Check the optimality conditions of a level table exactly.

    Conditions: prices non-negative; a positively priced item is fully
    allocated and a positively priced bidder fully spends her unit (rows
    and columns marked external are consumed by an adjacent level and are
    reported separately, not counted); and for every bidder-item pair the
    normalized value is at most t_item + q_bidder, with equality where
    mass is positive.  All arithmetic is rational; residuals are exact.
    """
    zero = F(0)
    neg = zero
    for x in list(table.t.values()) + list(table.q.values()):
        neg = max(neg, -x)

    col_mass: dict[str, Fraction] = {j: F(0) for j in table.items}
    row_mass: dict[str, Fraction] = {i: F(0) for i in table.bidders}
    for (i, j), m in table.alloc.items():
        col_mass[j] += m
        row_mass[i] += m

    item_slack = zero
    external_gaps: dict[str, float] = {}
    for j, size in table.items.items():
        gap = table.t[j] * (size - col_mass[j])
        if j in table.external_items:
            external_gaps[j] = float(abs(gap))
        else:
            item_slack = max(item_slack, abs(gap))

    bidder_slack = zero
    for i, size in table.bidders.items():
        if i in table.external_bidders:
            continue
        bidder_slack = max(bidder_slack, abs(table.q[i] * (size - row_mass[i])))

    pair: dict[tuple[str, str], Fraction] = {}
    for (i, j), val in table.values.items():
        gap = val - table.t[j] - table.q[i]
        mass = table.alloc.get((i, j), zero)
        pair[(i, j)] = abs(gap) if mass > 0 else max(zero, gap)

    norm = zero
    for i, size in table.bidders.items():
        if i in table.external_bidders:
            continue
        util = sum((table.values.get((i, j), zero) * m
                    for (i2, j), m in table.alloc.items() if i2 == i),
                   start=zero)
        norm = max(norm, abs(util - size))

    worst_pair = max(pair.values(), default=zero)
    residual = max(neg, item_slack, bidder_slack, worst_pair)
    return CertificateReport(
        table=table.name, equilibrium=table.equilibrium,
        residual=float(residual),
        pair_residuals={k: float(v) for k, v in pair.items()},
        price_negativity=float(neg),
        item_slackness=float(item_slack),
        bidder_slackness=float(bidder_slack),
        normalization=float(norm),
        external_item_gaps=external_gaps)


def certify_lowerbound_tables(level: str | int, equilibrium: str,
                              s: int = 1) -> CertificateReport:
    """Certify one built-in level table of the depth-``s`` family.

    ``level`` is 0 (or "base") for the bottom market, otherwise a chain
    level 1..s; the top level includes the extra loser/exit structure.
    """
    if level in (0, "base", "m0", "M0"):
        return certify_table(base_market_table(equilibrium))
    r = int(level)
    return certify_table(chain_market_table(lowerbound_params(s), r,
                                            equilibrium))


# ---------------------------------------------------------------------------
# Whole-market assembly
# ---------------------------------------------------------------------------

@dataclass
class LowerBoundMarket:
    """The assembled family at depth s, in aggregated (class) form."""

    params: LowerBoundParams
    level_tables: dict[tuple[int, str], LevelTable]   # (level, equilibrium)
    removal: list[dict[str, Any]]                     # exit classes
    loser: dict[str, Any]

    @property
    def s(self) -> int:
        return self.params.s

    def total_agents(self) -> int:
        """Expanded unit-agent count (equals the expanded item count)."""
        p = self.params
        # Base copies without their h bidders, which are counted once as
        # the a bidders of level 1.
        total = p.k[0] * (17000 + 850 + 816 + 34 + 33 + 6)
        for r in range(1, p.s + 1):
            lp = p.level(r)
            own = (lp.s_a + lp.s_b + lp.s_d + lp.s_c + lp.s_f + lp.s_g
                   + lp.s_h)
            if r == p.s:
                own += 2                # loser e and exiting bidder i
            total += p.k[r] * own
        return total

    def loser_ratio(self) -> Fraction:
        """Exact drop of the loser's utility from initial to final: v_s.

        Measured in any fixed per-agent value scale; computed from the
        tables as (initial utility) / (final utility) using the loser's
        initial-equilibrium values.
        """
        initial = self.level_tables[(self.s, "initial")]
        final = self.level_tables[(self.s, "final")]
        u_init = sum((initial.values.get(("e", j), F(0)) * m
                      for (i, j), m in initial.alloc.items() if i == "e"),
                     start=F(0))
        u_final = sum((initial.values.get(("e", j), F(0)) * m
                       for (i, j), m in final.alloc.items() if i == "e"),
                      start=F(0))
        if u_final == 0:
            raise ArithmeticError("loser has zero final utility")
        return u_init / u_final

    def certificates(self) -> list[CertificateReport]:
        return [certify_table(tbl) for tbl in self.level_tables.values()]

    def write_bundle(self, out_dir: str) -> dict[str, str]:
        """Write instance/assignments/removal/params JSON files."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        def dump(name: str, payload: Any) -> None:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, default=str)
                fh.write("\n")
            paths[name] = path

        dump("instance.json", {
            "format": "aggregated-market",
            "depth": self.s,
            "copies": list(self.params.k),
            "levels": [_table_dict(self.level_tables[(lv, "initial")],
                                   values_only=True)
                       for lv in range(0, self.s + 1)],
        })
        for eq in ("initial", "final"):
            dump(f"{eq}_assignment.json", [
                _table_dict(self.level_tables[(lv, eq)])
                for lv in range(0, self.s + 1)])
        dump("removal_set.json", self.removal)
        dump("params.json", {
            **self.params.to_dict(),
            "loser": self.loser,
            "loser_ratio": str(self.loser_ratio()),
            "total_agents": self.total_agents(),
        })
        return paths


def _table_dict(tbl: LevelTable, values_only: bool = False) -> dict[str, Any]:
    d: dict[str, Any] = {
        "name": tbl.name,
        "equilibrium": tbl.equilibrium,
        "items": {k: str(v) for k, v in tbl.items.items()},
        "bidders": {k: str(v) for k, v in tbl.bidders.items()},
        "values": {f"{i}->{j}": str(v) for (i, j), v in tbl.values.items()},
        "external_items": sorted(tbl.external_items),
        "external_bidders": sorted(tbl.external_bidders),
    }
    if not values_only:
        d["alloc"] = {f"{i}->{j}": str(v) for (i, j), v in tbl.alloc.items()}
        d["t"] = {k: str(v) for k, v in tbl.t.items()}
        d["q"] = {k: str(v) for k, v in tbl.q.items()}
    return d


def gen_lowerbound(s: int) -> LowerBoundMarket:
    """Build the depth-``s`` family: tables, exit classes, and the loser."""
    params = lowerbound_params(s)
    tables: dict[tuple[int, str], LevelTable] = {}
    for eq in ("initial", "final"):
        tables[(0, eq)] = base_market_table(eq)
        for r in range(1, s + 1):
            tables[(r, eq)] = chain_market_table(params, r, eq)

    removal: list[dict[str, Any]] = []
    for cls, size in (("c", 816), ("e", 33)):
        removal.append({"level": 0, "class": cls, "size_per_copy": size,
                        "copies": params.k[0],
                        "total": size * params.k[0]})
    for r in range(1, s + 1):
        lp = params.level(r)
        for cls, size in (("f", lp.s_f), ("g", lp.s_g), ("h", lp.s_h)):
            removal.append({"level": r, "class": cls, "size_per_copy": size,
                            "copies": params.k[r],
                            "total": size * params.k[r]})
    removal.append({"level": s, "class": "i", "size_per_copy": 1,
                    "copies": 1, "total": 1})
    loser = {"level": s, "class": "e", "size": 1}
    return LowerBoundMarket(params=params, level_tables=tables,
                            removal=removal, loser=loser)
