"""Domain types, validation, and serialization shared by every other module.

An :class:`Instance` is a matrix of agent-by-item values plus per-item
supplies in [0, 1].  A :class:`FractionalAssignment` carries the marginal
probabilities of a randomized matching.  Both are immutable after
construction (their arrays are frozen), so they can be shared freely across
threads; every operation in this module is a pure function.

File formats
------------
Instances are UTF-8 JSON objects with keys ``"values"`` (array of arrays of
numbers), optional ``"supplies"``, and optional ``"agent_labels"`` /
``"item_labels"``.  Mechanism reports are JSON objects with keys
``"mechanism"``, ``"seed"``, ``"probs"``, ``"utilities"``,
``"benchmark_utilities"``, ``"ratios"``, ``"metadata"``; infinite ratios are
written as the string token ``"inf"``, never as a float overflow.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "MatchingError",
    "DimensionMismatch",
    "NegativeValue",
    "NonFiniteValue",
    "ParseError",
    "Infeasible",
    "NoConvergence",
    "DegenerateNormalization",
    "NotOptimal",
    "NotDecomposable",
    "TooLargeForExact",
    "SupplyUnderflow",
    "Instance",
    "FractionalAssignment",
    "MechanismReport",
    "DEFAULT_TOLERANCE",
    "validate_instance",
    "utilities",
    "uniform_disagreement",
    "load_instance",
    "save_instance",
    "instance_hash",
    "save_report",
    "load_report",
]

DEFAULT_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class MatchingError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MatchingError):
    """Row/column counts of related objects disagree."""


class NegativeValue(MatchingError):
    """A value matrix entry is negative."""


class NonFiniteValue(MatchingError):
    """A numeric entry is NaN or infinite."""


class ParseError(MatchingError):
    """An input file is syntactically or structurally malformed."""

    def __init__(self, message: str, *, field: str | None = None,
                 line: int | None = None):
        ctx = []
        if field is not None:
            ctx.append(f"field={field!r}")
        if line is not None:
            ctx.append(f"line={line}")
        suffix = f" ({', '.join(ctx)})" if ctx else ""
        super().__init__(message + suffix)
        self.field = field
        self.line = line


class Infeasible(MatchingError):
    """An active agent cannot reach non-negative surplus."""


class NoConvergence(MatchingError):
    """No polished candidate of the solver meets the certificate
    tolerance."""

    def __init__(self, iterations: int, best_residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best certificate residual {best_residual:.3e})")
        self.iterations = iterations
        self.best_residual = best_residual


class DegenerateNormalization(MatchingError):
    """An agent with zero surplus cannot be renormalized."""


class NotOptimal(MatchingError):
    """No dual certificate exists for a claimed optimum."""

    def __init__(self, witness: tuple[int, int], violation: float):
        super().__init__(
            f"no valid dual certificate: worst violation {violation:.3e} "
            f"at (agent={witness[0]}, item={witness[1]})")
        self.witness = witness
        self.violation = violation


class NotDecomposable(MatchingError):
    """An entry is not finite or is negative, or a row sum exceeds 1 or a
    column sum its supply beyond tolerance."""


class TooLargeForExact(MatchingError):
    """The instance is too large for an exact enumeration mode."""


class SupplyUnderflow(MatchingError):
    """An item supply went negative during a recursive mechanism run."""


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Instance:
    """A one-sided matching market: agent values over items, item supplies.

    ``values[i, j]`` is agent ``i``'s value for item ``j``; entries are
    finite and non-negative.  ``supplies[j]`` is item ``j``'s capacity in
    [0, 1] (all ones by default).  The number of agents may be smaller than
    the number of items; mechanism entry points check squareness where they
    require it.
    """

    values: np.ndarray
    supplies: np.ndarray
    agent_labels: tuple[str, ...] | None = None
    item_labels: tuple[str, ...] | None = None

    @property
    def n_agents(self) -> int:
        return self.values.shape[0]

    @property
    def n_items(self) -> int:
        return self.values.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_agents == self.n_items

    @property
    def has_unit_supplies(self) -> bool:
        """Every item's supply is 1 to within 1e-12."""
        return bool(np.all(np.abs(np.asarray(self.supplies) - 1.0) <= 1e-12))

    def agent_index(self, label: str) -> int:
        if self.agent_labels is not None and label in self.agent_labels:
            return self.agent_labels.index(label)
        try:
            return int(label)
        except ValueError:
            raise ParseError(f"unknown agent {label!r}", field="agents")

    def with_values(self, values: np.ndarray) -> "Instance":
        """Copy of this instance with a replacement value matrix."""
        return validate_instance({
            "values": values,
            "supplies": np.asarray(self.supplies),
            "agent_labels": self.agent_labels,
            "item_labels": self.item_labels,
        })

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"values": np.asarray(self.values).tolist()}
        d["supplies"] = np.asarray(self.supplies).tolist()
        if self.agent_labels is not None:
            d["agent_labels"] = list(self.agent_labels)
        if self.item_labels is not None:
            d["item_labels"] = list(self.item_labels)
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.supplies, other.supplies)
            and self.agent_labels == other.agent_labels
            and self.item_labels == other.item_labels
        )

    def __repr__(self) -> str:
        return f"Instance(n_agents={self.n_agents}, n_items={self.n_items})"


def validate_instance(raw: Any) -> Instance:
    """Validate a raw instance (mapping, array, or Instance) into an Instance.

    Missing supplies are normalized to all ones.  Raises
    :class:`DimensionMismatch`, :class:`NegativeValue`, or
    :class:`NonFiniteValue` on malformed input.
    """
    if isinstance(raw, Instance):
        data: dict[str, Any] = raw.to_dict()
    elif isinstance(raw, dict):
        data = dict(raw)
    else:
        data = {"values": raw}

    if "values" not in data or data["values"] is None:
        raise ParseError("instance is missing 'values'", field="values")
    values = np.asarray(data["values"], dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise DimensionMismatch(
            f"values must be a non-empty 2-d matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("values contain NaN or infinite entries")
    if np.any(values < 0):
        i, j = np.argwhere(values < 0)[0]
        raise NegativeValue(f"values[{i}, {j}] = {values[i, j]} is negative")

    n, m = values.shape
    supplies = data.get("supplies")
    if supplies is None:
        supplies = np.ones(m)
    supplies = np.asarray(supplies, dtype=float)
    if supplies.shape != (m,):
        raise DimensionMismatch(
            f"supplies has length {supplies.shape}, expected ({m},)")
    if not np.all(np.isfinite(supplies)):
        raise NonFiniteValue("supplies contain NaN or infinite entries")
    if np.any(supplies < 0) or np.any(supplies > 1 + 1e-12):
        raise NegativeValue("supplies must lie in [0, 1]")

    def _labels(key: str, count: int) -> tuple[str, ...] | None:
        lab = data.get(key)
        if lab is None:
            return None
        lab = tuple(str(x) for x in lab)
        if len(lab) != count:
            raise DimensionMismatch(
                f"{key} has length {len(lab)}, expected {count}")
        return lab

    return Instance(
        values=_frozen(values),
        supplies=_frozen(np.clip(supplies, 0.0, 1.0)),
        agent_labels=_labels("agent_labels", n),
        item_labels=_labels("item_labels", m),
    )


# ---------------------------------------------------------------------------
# Fractional assignments and utilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FractionalAssignment:
    """Marginal probabilities of a randomized matching.

    ``probs[i, j]`` is the probability that agent ``i`` receives item ``j``.
    Each agent demands one unit: rows sum to at most 1, and may sum to less
    (partial mechanisms withhold probability mass on purpose); columns may
    sum to less than the item supply.  ``tolerance`` bounds the numerical
    slack accepted by :meth:`check_valid`.
    """

    probs: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    @classmethod
    def from_probs(cls, probs: np.ndarray,
                   tolerance: float = DEFAULT_TOLERANCE) -> "FractionalAssignment":
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2:
            raise DimensionMismatch("probs must be a 2-d matrix")
        return cls(probs=_frozen(probs), tolerance=float(tolerance))

    @property
    def n_agents(self) -> int:
        return self.probs.shape[0]

    @property
    def n_items(self) -> int:
        return self.probs.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def check_valid(self, supplies: np.ndarray | None = None) -> None:
        """Raise unless entries, row sums, and column sums are within bounds."""
        tol = self.tolerance
        p = self.probs
        if not np.all(np.isfinite(p)):
            raise NonFiniteValue("assignment contains non-finite entries")
        if np.any(p < -tol) or np.any(p > 1 + tol):
            raise NotDecomposable("entries outside [0, 1] beyond tolerance")
        if np.any(self.row_sums() > 1 + tol):
            raise NotDecomposable("a row sum exceeds 1")
        if supplies is not None:
            supplies = np.asarray(supplies, dtype=float)
            if supplies.shape != (self.n_items,):
                raise DimensionMismatch("supplies length mismatch")
            if np.any(self.col_sums() > supplies + tol):
                raise NotDecomposable("a column sum exceeds the item supply")


def utilities(inst: Instance, assignment: FractionalAssignment | np.ndarray) -> np.ndarray:
    """Expected utility of each agent: the row-wise inner product v_i . p_i."""
    p = assignment.probs if isinstance(assignment, FractionalAssignment) else np.asarray(assignment, dtype=float)
    if p.shape != (inst.n_agents, inst.n_items):
        raise DimensionMismatch(
            f"assignment shape {p.shape} does not match instance "
            f"({inst.n_agents}, {inst.n_items})")
    return np.einsum("ij,ij->i", inst.values, p)


def uniform_disagreement(inst: Instance) -> np.ndarray:
    """Expected utility of each agent for a uniformly random unit of supply.

    With unit supplies on a square market this is the per-row average value.
    """
    return inst.values @ np.asarray(inst.supplies) / float(inst.n_agents)


# ---------------------------------------------------------------------------
# Mechanism reports
# ---------------------------------------------------------------------------

def _ratio_token(x: float) -> Any:
    return "inf" if math.isinf(x) else x


def _ratio_value(x: Any) -> float:
    return math.inf if x == "inf" else float(x)


@dataclass
class MechanismReport:
    """Outcome of one mechanism run against the bargaining benchmark."""

    mechanism: str
    seed: int | None
    probs: np.ndarray
    utilities: np.ndarray
    benchmark_utilities: np.ndarray | None = None
    ratios: list[float] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mechanism": self.mechanism,
            "seed": self.seed,
            "probs": np.asarray(self.probs).tolist(),
            "utilities": np.asarray(self.utilities).tolist(),
            "benchmark_utilities": (
                None if self.benchmark_utilities is None
                else np.asarray(self.benchmark_utilities).tolist()),
            "ratios": (None if self.ratios is None
                       else [_ratio_token(r) for r in self.ratios]),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MechanismReport":
        return cls(
            mechanism=d["mechanism"],
            seed=d.get("seed"),
            probs=np.asarray(d["probs"], dtype=float),
            utilities=np.asarray(d["utilities"], dtype=float),
            benchmark_utilities=(
                None if d.get("benchmark_utilities") is None
                else np.asarray(d["benchmark_utilities"], dtype=float)),
            ratios=(None if d.get("ratios") is None
                    else [_ratio_value(r) for r in d["ratios"]]),
            metadata=d.get("metadata", {}),
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def load_instance(path: str) -> Instance:
    """Load an instance from a JSON file.

    Raises OSError on I/O failure and :class:`ParseError` (with line or
    field context) on malformed content.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level JSON must be an object")
    if "values" not in data:
        raise ParseError(f"{path}: missing required key", field="values")
    try:
        return validate_instance(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}", field="values") from exc


def save_instance(path: str, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_dict(), fh, indent=2)
        fh.write("\n")


def instance_hash(inst: Instance) -> str:
    """Stable content hash of an instance (used in report metadata)."""
    blob = json.dumps(inst.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_report(path: str, report: MechanismReport | dict[str, Any]) -> None:
    data = report.to_dict() if isinstance(report, MechanismReport) else report
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_report(path: str) -> MechanismReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    return MechanismReport.from_dict(data)
