import numpy as np
import pytest

from matchlab import instances, lottery, mechanisms
from matchlab.core import FractionalAssignment, NotDecomposable, utilities, validate_instance
from matchlab.lottery import decompose, random_doubly_stochastic, sample, sinkhorn


def _perfect_matching_recursive(mask):
    """A perfect matching of a square boolean bipartite adjacency (the
    column of each row), or None: the recursive augmenting-path search,
    one Python frame per path step."""
    n = mask.shape[0]
    adjacent = [np.flatnonzero(row).tolist() for row in mask]
    match_col = [-1] * n

    def try_row(i, seen):
        for j in adjacent[i]:
            if not seen[j]:
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


def _max_bottleneck(w):
    """The largest entry b of ``w`` such that the entries ``w >= b`` hold a
    perfect matching (0.0 when none does): binary search over every
    positive entry, with :func:`_perfect_matching_recursive` as the probe."""
    positive = np.unique(w[w > 0])
    lo, hi = 0, len(positive) - 1
    best = 0.0
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        if _perfect_matching_recursive(w >= positive[mid]) is not None:
            best = float(positive[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def _replay(p, monkeypatch):
    """Decompose ``p`` and replay its terms on the square matrix that
    ``decompose`` starts from: each term's weight is the largest bottleneck
    of what remains (the last term's may be capped at 1 - extracted), and
    its matching is a permutation of that matrix whose entries are all at
    least the weight.  There are at most (size - 1)^2 + 1 terms for that
    matrix's size."""
    calls = []
    real = lottery._bottleneck

    def recording(w, ceiling):
        start = w.copy() if not calls else None
        found = real(w, ceiling)
        calls.append((start, None if found is None else np.array(found[1])))
        return found

    monkeypatch.setattr(lottery, "_bottleneck", recording)
    lot = decompose(p)
    monkeypatch.undo()
    n, m = np.shape(p)
    remaining = calls[0][0]
    size = len(remaining)
    extracted = 0.0
    for k, (weight, real_matching) in enumerate(lot.terms):
        matching = calls[k][1]
        assert sorted(matching.tolist()) == list(range(size))
        assert real_matching == tuple(int(j) if j < m else -1 for j in matching[:n])
        best = _max_bottleneck(remaining)
        last = k == len(lot.terms) - 1
        assert weight == best or (last and weight == 1.0 - extracted < best)
        cells = (np.arange(size), matching)
        assert remaining[cells].min() >= weight
        remaining[cells] -= weight
        remaining[remaining < 1e-12] = 0.0
        extracted += weight
    assert lot.residual == max(0.0, 1.0 - extracted)
    assert len(lot.terms) <= (size - 1) ** 2 + 1
    return lot


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
        # A cycle of 1100 rows: the first term's matching needs an
        # augmenting path n rows long, where a recursive search would
        # raise RecursionError.
        n = 1100
        eye = np.eye(n)
        p = 0.5 * (eye + np.roll(eye, -1, axis=0))
        lot = decompose(p)
        assert len(lot.terms) == 2
        assert np.abs(lot.reconstruct() - p).max() <= 1e-12

    def test_matching_matches_recursive_search(self):
        # On a 0/1 matrix, _bottleneck finds a matching exactly when the
        # recursive search does, and its matching lies on the ones.
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(500):
            n = int(rng.integers(1, 25))
            mask = rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.6)
            if rng.uniform() < 0.5:
                mask |= np.eye(n, dtype=bool)[rng.permutation(n)]
            got = lottery._bottleneck(mask.astype(float), np.inf)
            assert (got is not None) == (_perfect_matching_recursive(mask) is not None)
            if got is not None:
                bottleneck, matching = got
                assert bottleneck == 1.0
                assert sorted(matching.tolist()) == list(range(n))
                assert mask[np.arange(n), matching].all()
                found += 1
        assert found > 100

    def test_lotteries_match_recursive_search(self, monkeypatch):
        # Every term replays as a max-bottleneck matching, the bottleneck
        # found with the recursive search as the probe.
        matrices = [random_doubly_stochastic(n, seed) for seed, n in
                    enumerate((2, 5, 9, 16, 23, 31, 40))]
        matrices.append(0.7 * random_doubly_stochastic(6, 99))   # padded
        for p in matrices:
            lot = _replay(p, monkeypatch)
            assert np.abs(lot.reconstruct() - p).max() <= 1e-9

    def test_lotteries_match_full_bisection(self, monkeypatch):
        # Every term's weight is the full bisection's bottleneck over every
        # positive entry of what remains, on RPI and PS marginals, padded
        # inputs and a permutation mixture.
        matrices = [mechanisms.rpi_run(instances.gen_random(n, dist, seed=n), seed=n).probs
                    for n in range(4, 13) for dist in ("uniform01", "sparse")]
        matrices.append(np.array([[0.4, 0.2, 0.0], [0.1, 0.3, 0.5]]))     # padded
        matrices += [random_doubly_stochastic(n, seed=n) for n in (24, 30)]
        ps = mechanisms.ps_run(instances.gen_random(32, seed=0)).probs
        matrices += [ps, 0.9 * ps]                          # 0.9 ps is padded to 64
        matrices.append(_permutation_mixture(50, seed=0))
        for p in matrices:
            lot = _replay(p, monkeypatch)
            assert np.abs(lot.reconstruct() - p).max() <= 1e-9

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.5])
    def test_invalid_entry_raises(self, bad):
        # A NaN or negative entry is not clipped to zero, which would give
        # a lottery that does not reconstruct the input.
        with pytest.raises(NotDecomposable):
            decompose(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_entry_within_tol_below_zero_is_clipped(self):
        lot = decompose(np.array([[-1e-10, 1.0], [1.0, 0.0]]))
        assert lot.terms == [(1.0, (1, 0))]


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
