"""Birkhoff-von-Neumann lotteries over matchings.

Any doubly-stochastic matrix is a convex combination of permutation
matrices; :func:`decompose` computes such a combination deterministically
and :func:`sample` draws a matching from it with a seeded generator.
Row/column-substochastic inputs are first padded with dummy agents and
items to a square doubly-stochastic matrix; a real agent matched to a
dummy item comes out as "unmatched" (-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import FractionalAssignment, NotDecomposable, DimensionMismatch
from .instances import rng_from_seed

__all__ = ["Lottery", "decompose", "sample", "sinkhorn", "random_doubly_stochastic"]

_ZERO_CLIP = 1e-12


@dataclass
class Lottery:
    """A probability-weighted list of matchings.

    Each term is ``(weight, matching)`` where ``matching[i]`` is the item
    index assigned to agent ``i`` or -1 for unmatched.  Weights plus the
    residual (mass lost to numerical clipping) sum to one; the residual is
    assigned to the first term when sampling.
    """

    terms: list[tuple[float, tuple[int, ...]]]
    residual: float
    n_agents: int
    n_items: int

    def total_weight(self) -> float:
        return sum(w for w, _ in self.terms) + self.residual

    def reconstruct(self) -> np.ndarray:
        """Weighted sum of the term matchings as a marginal matrix."""
        out = np.zeros((self.n_agents, self.n_items))
        for w, matching in self.terms:
            for i, j in enumerate(matching):
                if j >= 0:
                    out[i, j] += w
        return out

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [{"weight": w, "matching": list(m)} for w, m in self.terms]


def _pad_to_doubly_stochastic(p: np.ndarray, tol: float) -> np.ndarray:
    """Embed a substochastic matrix in a square doubly-stochastic one.

    Layout: [[p, diag(row deficit)], [diag(col deficit), X]] with X chosen
    rank-one so the dummy block balances exactly.
    """
    n, m = p.shape
    r = 1.0 - p.sum(axis=1)
    d = 1.0 - p.sum(axis=0)
    if np.any(r < -tol) or np.any(d < -tol):
        raise NotDecomposable("row or column sums exceed one beyond tolerance")
    r = np.maximum(r, 0.0)
    d = np.maximum(d, 0.0)
    total = p.sum()
    size = n + m
    out = np.zeros((size, size))
    out[:n, :m] = p
    out[:n, m:] = np.diag(r)
    out[n:, :m] = np.diag(d)
    if total > 0:
        out[n:, m:] = np.outer(1.0 - d, 1.0 - r) / total
    return out


def _bottleneck(w: np.ndarray, ceiling: float):
    """``(b, matching)``: the largest entry b <= ``ceiling`` of the square
    ``w`` such that the entries ``w >= b`` hold a perfect matching, and
    such a matching as the column of each row, or None when even the whole
    positive support holds none.

    Binary search over the positive entries between ``ceiling`` and the
    smallest entry of a maximum-weight assignment of ``w``, where a perfect
    matching is known to exist when that entry is positive.  Each probe is
    a maximum-weight assignment of the 0/1 mask ``w >= T``, which holds a
    perfect matching exactly when the assignment picks only ones; the
    matching returned is that of the last probe that found one, or the
    first assignment when none did.
    """
    rows, cols = linear_sum_assignment(w, maximize=True)
    floor = w[rows, cols].min()
    values = np.unique(w[(w > 0) & (w >= floor) & (w <= ceiling)])
    best = (float(floor), cols) if floor > 0 else None
    lo, hi = (1 if floor > 0 else 0), len(values) - 1
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        mask = w >= values[mid]
        cols = linear_sum_assignment(mask, maximize=True)[1]
        if mask[rows, cols].all():
            best = (float(values[mid]), cols)
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def decompose(p: FractionalAssignment | np.ndarray, tol: float = 1e-9) -> Lottery:
    """Write a (sub)stochastic matrix as a lottery over matchings.

    Extraction repeatedly takes a perfect matching with the largest
    bottleneck weight on the remaining support and subtracts that weight;
    the result is a deterministic function of the input (for a given
    scipy).  Entries below 1e-12 are zeroed first.  Raises
    :class:`NotDecomposable` when an entry is not finite or is below
    ``-tol``, or when row or column sums exceed their bounds beyond
    ``tol``.
    """
    probs = p.probs if isinstance(p, FractionalAssignment) else np.asarray(p, dtype=float)
    if probs.ndim != 2:
        raise DimensionMismatch("expected a 2-d matrix")
    if not np.all(np.isfinite(probs)) or np.any(probs < -tol):
        raise NotDecomposable("entries must be finite and non-negative")
    n, m = probs.shape
    work = np.where(probs > _ZERO_CLIP, probs, 0.0)
    if np.any(work > 1 + tol):
        raise NotDecomposable("an entry exceeds 1 beyond tolerance")

    row_ok = np.allclose(work.sum(axis=1), 1.0, atol=tol)
    col_ok = n == m and np.allclose(work.sum(axis=0), 1.0, atol=tol)
    if row_ok and col_ok:
        square = work.copy()
    else:
        square = _pad_to_doubly_stochastic(work, tol)
    size = square.shape[0]

    terms: list[tuple[float, tuple[int, ...]]] = []
    remaining = square
    extracted = 0.0
    # Entries only shrink, so no term's bottleneck exceeds the last one's.
    bottleneck = np.inf
    while extracted < 1.0 - tol and len(terms) <= size * size:
        found = _bottleneck(remaining, bottleneck)
        if found is None:
            break
        # Every entry of the matching is at least the bottleneck, and the
        # bottleneck is the largest such bound, so it is the smallest entry.
        bottleneck, matching = found
        weight = min(bottleneck, 1.0 - extracted)
        terms.append((weight, tuple(int(j) if j < m else -1 for j in matching[:n])))
        remaining[np.arange(size), matching] -= weight
        remaining[remaining < _ZERO_CLIP] = 0.0
        extracted += weight
    if not terms:
        raise NotDecomposable("no perfect matching on the positive support")
    residual = max(0.0, 1.0 - extracted)
    return Lottery(terms=terms, residual=residual, n_agents=n, n_items=m)


def sample(lottery: Lottery, seed: int) -> tuple[int, ...]:
    """Draw one matching, with the clipping residual mapped to the first term."""
    weights = np.array([w for w, _ in lottery.terms])
    weights[0] += lottery.residual
    weights = weights / weights.sum()
    rng = rng_from_seed(seed)
    k = int(rng.choice(len(weights), p=weights))
    return lottery.terms[k][1]


def sinkhorn(matrix: np.ndarray, iterations: int = 2000,
             tol: float = 1e-13) -> np.ndarray:
    """Scale a positive matrix to doubly stochastic by row/column balancing."""
    a = np.array(matrix, dtype=float)
    if np.any(a <= 0):
        raise DimensionMismatch("sinkhorn needs strictly positive entries")
    for _ in range(iterations):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if (np.abs(a.sum(axis=1) - 1).max() < tol
                and np.abs(a.sum(axis=0) - 1).max() < tol):
            break
    return a


def random_doubly_stochastic(n: int, seed: int) -> np.ndarray:
    """A random doubly-stochastic matrix (positive noise, Sinkhorn-balanced)."""
    rng = rng_from_seed(seed)
    return sinkhorn(rng.uniform(0.05, 1.0, size=(n, n)))
