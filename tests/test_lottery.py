import numpy as np
import pytest

from matchlab import instances, lottery, mechanisms
from matchlab.core import FractionalAssignment, NotDecomposable, utilities, validate_instance
from matchlab.lottery import decompose, random_doubly_stochastic, sample, sinkhorn


def _perfect_matching_recursive(mask):
    """Reference for ``lottery._perfect_matching``: the recursive
    augmenting-path search it replaces (one Python frame per path step)."""
    n = mask.shape[0]
    match_col = [-1] * n

    def try_row(i, seen):
        for j in range(n):
            if mask[i, j] and not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or try_row(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(n):
        if not try_row(i, [False] * n):
            return None
    out = [-1] * n
    for j, i in enumerate(match_col):
        out[i] = j
    return out


def _bottleneck_bisection(w, ceiling):
    """Reference for ``lottery._bottleneck``: binary search over every
    positive entry of ``w``, ignoring ``ceiling``, with the Python search
    ``lottery._perfect_matching`` as the probe."""
    positive = np.unique(w[w > 0])
    lo, hi = 0, len(positive) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        if lottery._perfect_matching(w >= positive[mid]) is not None:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return None if best is None else float(positive[best])


def _permutation_mixture(n, seed):
    """A random convex combination of 3n random n x n permutation matrices."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(size=3 * n)
    weights /= weights.sum()
    return sum(w * np.eye(n)[rng.permutation(n)] for w in weights)


class TestDecompose:
    def test_identity_single_term(self):
        lot = decompose(np.eye(3))
        assert len(lot.terms) == 1
        weight, matching = lot.terms[0]
        assert weight == pytest.approx(1.0)
        assert matching == (0, 1, 2)

    def test_all_half_two_terms(self):
        lot = decompose(np.full((2, 2), 0.5))
        assert len(lot.terms) == 2
        assert all(w == pytest.approx(0.5) for w, _ in lot.terms)
        assert np.allclose(lot.reconstruct(), 0.5)

    def test_three_cycle_reconstruction(self):
        p = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        lot = decompose(p)
        assert len(lot.terms) == 2
        assert np.allclose(lot.reconstruct(), p, atol=1e-12)

    def test_random_doubly_stochastic_fidelity(self):
        for seed, n in [(0, 3), (1, 5), (2, 8), (3, 12)]:
            p = random_doubly_stochastic(n, seed)
            lot = decompose(p)
            assert np.abs(lot.reconstruct() - p).max() <= 1e-8
            assert len(lot.terms) <= (n - 1) ** 2 + 1

    def test_substochastic_padding(self):
        # Partial mechanism output: rows sum to less than one.
        p = np.array([[0.4, 0.2], [0.1, 0.3]])
        lot = decompose(p)
        rec = lot.reconstruct()
        assert np.allclose(rec, p, atol=1e-9)
        assert lot.total_weight() == pytest.approx(1.0, abs=1e-9)
        # Some terms leave an agent unmatched.
        assert any(-1 in matching for _, matching in lot.terms)

    def test_rectangular_input(self):
        p = np.array([[0.5, 0.25, 0.25]])
        lot = decompose(p)
        assert np.allclose(lot.reconstruct(), p, atol=1e-9)

    def test_oversubscribed_raises(self):
        with pytest.raises(NotDecomposable):
            decompose(np.array([[0.8, 0.8], [0.3, 0.3]]))

    def test_deterministic(self):
        p = random_doubly_stochastic(6, 11)
        l1 = decompose(p)
        l2 = decompose(p)
        assert l1.terms == l2.terms

    def test_expected_utility_matches_marginals(self, table1):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        lot = decompose(p)
        direct = utilities(table1, p)
        via_lottery = np.zeros(3)
        for w, matching in lot.terms:
            for i, j in enumerate(matching):
                if j >= 0:
                    via_lottery[i] += w * float(table1.values[i, j])
        assert np.allclose(via_lottery, direct, atol=1e-9)

    def test_long_augmenting_path(self):
        # Row n-1 reaches its only free column through an augmenting path
        # n rows long; the recursive search raised RecursionError here.
        n = 1100
        eye = np.eye(n)
        p = 0.5 * (eye + np.roll(eye, -1, axis=0))
        lot = decompose(p)
        assert len(lot.terms) == 2
        assert np.abs(lot.reconstruct() - p).max() <= 1e-12

    def test_matching_matches_recursive_search(self):
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(500):
            n = int(rng.integers(1, 25))
            mask = rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.6)
            if rng.uniform() < 0.5:
                mask |= np.eye(n, dtype=bool)[rng.permutation(n)]
            got = lottery._perfect_matching(mask)
            assert got == _perfect_matching_recursive(mask)
            assert lottery._has_perfect_matching(mask) == (got is not None)
            found += got is not None
        assert found > 100

    def test_lotteries_match_recursive_search(self, monkeypatch):
        matrices = [random_doubly_stochastic(n, seed) for seed, n in
                    enumerate((2, 5, 9, 16, 23, 31, 40))]
        matrices.append(0.7 * random_doubly_stochastic(6, 99))   # padded
        lotteries = [decompose(p) for p in matrices]
        monkeypatch.setattr(lottery, "_perfect_matching", _perfect_matching_recursive)
        for p, lot in zip(matrices, lotteries):
            ref = decompose(p)
            assert lot.terms == ref.terms and lot.residual == ref.residual

    def test_lotteries_match_full_bisection(self, monkeypatch):
        # The bracketed search with assignment probes against a bisection
        # over every positive entry with Python probes: the same terms and
        # residual, bit for bit.
        matrices = [mechanisms.rpi_run(instances.gen_random(n, dist, seed=n), seed=n).probs
                    for n in range(4, 13) for dist in ("uniform01", "sparse")]
        matrices.append(np.array([[0.4, 0.2, 0.0], [0.1, 0.3, 0.5]]))     # padded
        matrices += [random_doubly_stochastic(n, seed=n) for n in (24, 30)]
        ps = mechanisms.ps_run(instances.gen_random(32, seed=0)).probs
        matrices += [ps, 0.9 * ps]                          # 0.9 ps is padded to 64
        matrices.append(_permutation_mixture(50, seed=0))
        lotteries = [decompose(p) for p in matrices]
        monkeypatch.setattr(lottery, "_bottleneck", _bottleneck_bisection)
        for p, lot in zip(matrices, lotteries):
            ref = decompose(p)
            assert lot.terms == ref.terms and lot.residual == ref.residual


class TestSample:
    def test_single_term_always_returned(self):
        lot = decompose(np.eye(4))
        for seed in range(5):
            assert sample(lot, seed) == (0, 1, 2, 3)

    def test_two_term_frequencies_within_3_sigma(self):
        lot = decompose(np.full((2, 2), 0.5))
        draws = 10_000
        hits = sum(sample(lot, seed)[0] == lot.terms[0][1][0]
                   for seed in range(draws))
        sigma = (draws * 0.25) ** 0.5
        assert abs(hits - draws / 2) <= 3 * sigma

    def test_residual_goes_to_first_term(self):
        lot = decompose(np.eye(2))
        lot.residual = 0.3
        lot.terms = [(0.4, (0, 1)), (0.3, (1, 0))]
        # Weight of the first term becomes 0.7: frequencies reflect it.
        hits = sum(sample(lot, seed) == (0, 1) for seed in range(4000))
        assert abs(hits / 4000 - 0.7) < 0.03

    def test_reproducible_per_seed(self):
        lot = decompose(random_doubly_stochastic(5, 3))
        assert sample(lot, 42) == sample(lot, 42)


class TestSinkhorn:
    def test_balances(self, rng):
        a = sinkhorn(rng.uniform(0.1, 1.0, size=(6, 6)))
        assert np.abs(a.sum(axis=0) - 1).max() < 1e-10
        assert np.abs(a.sum(axis=1) - 1).max() < 1e-10
