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


def _perfect_matching(mask: np.ndarray) -> list[int] | None:
    """Perfect matching on a boolean bipartite adjacency, or None.

    Augmenting-path search scanning rows and columns in index order, so the
    result is deterministic with smallest-index tie-breaking.  The
    depth-first search keeps its path on explicit stacks: an augmenting
    path can be n rows long.
    """
    n = mask.shape[0]
    adjacent = mask.tolist()
    match_col = [-1] * n     # col -> row

    for root in range(n):
        seen = [False] * n
        rows, cursor, cols = [root], [0], []   # cols[k] links rows[k] to rows[k+1]
        while rows:
            j, row = cursor[-1], adjacent[rows[-1]]
            while j < n and (seen[j] or not row[j]):
                j += 1
            if j == n:                       # this row has no augmenting path
                rows.pop()
                cursor.pop()
                if cols:
                    cols.pop()
                continue
            cursor[-1] = j + 1
            seen[j] = True
            cols.append(j)
            if match_col[j] < 0:
                break
            rows.append(match_col[j])
            cursor.append(0)
        if not rows:
            return None
        for i, j in zip(rows, cols):         # flip the path
            match_col[j] = i
    out = [-1] * n
    for j, i in enumerate(match_col):
        out[i] = j
    return out


def _bottleneck_matching(w: np.ndarray) -> list[int] | None:
    """Perfect matching maximizing its minimum entry (binary search on the
    support weights), or None when even the whole support has none."""
    positive = np.unique(w[w > 0])
    lo, hi = 0, len(positive) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        m = _perfect_matching(w >= positive[mid])
        if m is not None:
            best = m
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def decompose(p: FractionalAssignment | np.ndarray, tol: float = 1e-9) -> Lottery:
    """Write a (sub)stochastic matrix as a lottery over matchings.

    Extraction repeatedly takes the perfect matching with the largest
    bottleneck weight on the remaining support and subtracts its minimum
    weight, with smallest-item-index tie-breaking; the result is a
    deterministic function of the input.  Entries below 1e-12 are zeroed
    first.  Raises :class:`NotDecomposable` when row or column sums exceed
    their bounds beyond ``tol``.
    """
    probs = p.probs if isinstance(p, FractionalAssignment) else np.asarray(p, dtype=float)
    if probs.ndim != 2:
        raise DimensionMismatch("expected a 2-d matrix")
    n, m = probs.shape
    work = np.where(probs > _ZERO_CLIP, probs, 0.0)
    if np.any(work > 1 + tol):
        raise NotDecomposable("an entry exceeds 1 beyond tolerance")

    row_ok = np.allclose(work.sum(axis=1), 1.0, atol=tol)
    col_ok = n == m and np.allclose(work.sum(axis=0), 1.0, atol=tol)
    if row_ok and col_ok:
        square = work.copy()
        real_n, real_m = n, m
    else:
        square = _pad_to_doubly_stochastic(work, tol)
        real_n, real_m = n, m
    size = square.shape[0]

    terms: list[tuple[float, tuple[int, ...]]] = []
    remaining = square
    extracted = 0.0
    while extracted < 1.0 - tol and len(terms) <= size * size:
        matching = _bottleneck_matching(remaining)
        if matching is None:
            break
        cells = (np.arange(size), np.array(matching))
        weight = float(remaining[cells].min())
        if weight <= 0:
            break
        weight = min(weight, 1.0 - extracted)
        real = tuple(matching[i] if matching[i] < real_m else -1
                     for i in range(real_n))
        terms.append((weight, real))
        remaining[cells] -= weight
        remaining[remaining < _ZERO_CLIP] = 0.0
        extracted += weight
    if not terms:
        raise NotDecomposable("no perfect matching on the positive support")
    residual = max(0.0, 1.0 - extracted)
    return Lottery(terms=terms, residual=residual, n_agents=real_n, n_items=real_m)


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
