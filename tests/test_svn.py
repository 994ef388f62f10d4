import math
import time
import tracemalloc

import numpy as np
import pytest

from triadnet.correlation import phi_matrix
from triadnet.errors import DataError
from triadnet.svn import _bh_cutoff, _log_factorials, _tail_pvalues, build_svn

from conftest import make_binary, random_binary, random_triples, tail_pvalue


@pytest.fixture(autouse=True)
def _empty_law_store(fresh_store):
    """Every test here starts from an empty law store: a row cached by an earlier test cannot
    stand in for one this test builds."""


def tail_oracle(c, k_i, k_j, t):
    """Exhaustive hypergeometric right tail from exact integer binomials."""
    total = 0
    for x in range(c, min(k_i, k_j) + 1):
        if k_j - x <= t - k_i:
            total += math.comb(k_i, x) * math.comb(t - k_i, k_j - x)
    return total / math.comb(t, k_j)


def test_link_pvalue_trivial_and_derived():
    assert tail_pvalue(0, 3, 4, 10) == 1.0
    assert tail_pvalue(5, 5, 5, 10) == pytest.approx(1 / 252, abs=1e-15)
    # P(X >= 3) = (10*10 + 5*5 + 1) / 252 = 0.5
    assert tail_pvalue(3, 5, 5, 10) == pytest.approx(0.5, abs=1e-12)


def test_link_pvalue_matches_oracle_small_windows():
    for t in range(1, 9):
        for k_i in range(t + 1):
            for k_j in range(t + 1):
                for c in range(min(k_i, k_j) + 1):
                    got = tail_pvalue(c, k_i, k_j, t)
                    assert got == pytest.approx(tail_oracle(c, k_i, k_j, t), abs=1e-12)


def test_link_pvalue_monotone_in_count():
    t, k_i, k_j = 40, 17, 23
    previous = 1.0
    for c in range(min(k_i, k_j) + 1):
        p = tail_pvalue(c, k_i, k_j, t)
        assert p <= previous + 1e-15
        previous = p


def test_tail_pvalues_reject_windows_beyond_the_dedup_key():
    one = np.ones(1, dtype=np.int64)
    with pytest.raises(DataError, match="below 2097152 days"):
        _tail_pvalues(one, one, one, 2**21, np.empty(0))


@pytest.mark.parametrize("t", [1, 7, 40, 400, 2000])
def test_tail_pvalues_are_exactly_symmetric_in_the_margins(t):
    c, ki, kj = random_triples(np.random.default_rng(t), t, 5000)
    lf = _log_factorials(t)
    assert _tail_pvalues(c, ki, kj, t, lf).tobytes() == _tail_pvalues(c, kj, ki, t, lf).tobytes()


@pytest.mark.parametrize("t", [40, 400, 2000])
def test_tail_pvalues_match_scipy_hypergeometric_survival(t):
    stats = pytest.importorskip("scipy.stats")
    c, ki, kj = random_triples(np.random.default_rng(11 + t), t, 20000)
    got = _tail_pvalues(c, ki, kj, t, _log_factorials(t))
    reference = stats.hypergeom.sf(c - 1, t, ki, kj)
    deep = reference > 1e-290
    assert deep.mean() > 0.9
    assert np.all(np.abs(got - reference)[deep] <= 1e-10 * reference[deep])


def test_tail_pvalues_at_the_edges_of_the_support():
    # c one above the lower end of the support, with and without a forced overlap
    for t, k_i, k_j in [(10, 3, 4), (10, 7, 8), (12, 5, 9), (30, 29, 2)]:
        lower = max(0, k_i + k_j - t)
        counts = np.array([[lower, lower + 1], [k_i, k_i], [k_j, k_j]], dtype=np.int64)
        got = _tail_pvalues(*counts, t, _log_factorials(t))
        assert got[0] == 1.0
        assert got[1] == pytest.approx(tail_oracle(lower + 1, k_i, k_j, t), rel=1e-13)
    # k = 0 and k = T leave one point of support: exactly 1
    t = 25
    k = np.arange(t + 1)
    zero, full = np.zeros_like(k), np.full_like(k, t)
    for c, ki, kj in [(zero, zero, k), (zero, k, zero), (k, full, k), (k, k, full)]:
        assert (_tail_pvalues(c, ki, kj, t, _log_factorials(t)) == 1.0).all()
    ki = np.array([0, 0, 1, 1], dtype=np.int64)
    kj = np.array([0, 1, 0, 1], dtype=np.int64)
    assert (_tail_pvalues(ki * kj, ki, kj, 1, _log_factorials(1)) == 1.0).all()


def test_a_count_at_the_floor_of_its_mean_keeps_at_least_half_the_law():
    """`build_svn` sums no tail for a count at or below its hypergeometric mean k_i k_j / t: its
    p-value is at least P(X >= floor(k_i k_j / t)), at least 1/2 on every law of t <= 60 days
    in exact integers (the margins are symmetric, so k_i <= k_j)."""
    for t in range(1, 61):
        for k_i in range(t + 1):
            ways_i = [math.comb(k_i, x) for x in range(k_i + 1)]
            ways_rest = [math.comb(t - k_i, y) for y in range(t - k_i + 1)]
            for k_j in range(k_i, t + 1):
                low = max(k_i * k_j // t, k_i + k_j - t)
                tail = sum(ways_i[x] * ways_rest[k_j - x] for x in range(low, k_i + 1))
                assert 2 * tail >= math.comb(t, k_j), (t, k_i, k_j)


@pytest.mark.parametrize("t", [1000, 2000, 5000])
def test_tail_pvalues_at_the_floor_of_the_mean_read_above_a_half(t):
    k_i, k_j = np.random.default_rng(t).integers(0, t + 1, (2, 3000))
    p = _tail_pvalues(k_i * k_j // t, k_i, k_j, t, _log_factorials(t))
    assert (p > 0.5).all()


def bh_select(p, alpha):
    """Indices of the p-values `build_svn` keeps: those at or below the step-up cutoff."""
    p = np.asarray(p, dtype=float)
    return set(np.flatnonzero(p <= _bh_cutoff(p, alpha)).tolist())


def test_bh_select_examples():
    assert bh_select([1.0, 1.0, 1.0], 0.1) == set()
    assert bh_select([0.001], 0.1) == {0}
    assert bh_select([0.01, 0.04, 0.9], 0.1) == {0, 1}


@pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.1, float("nan")])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("polarity", ["positive", "negative"])
def test_build_svn_rejects_alpha_outside_the_unit_interval_at_any_size(alpha, n, polarity):
    b = make_binary(np.resize([1, -1, -1, 1, 1], (5, n)))
    with pytest.raises(DataError, match=r"alpha must be in \(0, 1\)"):
        build_svn(b, alpha=alpha, polarity=polarity)


def test_bh_select_keeps_ties_together():
    assert bh_select([0.02, 0.02, 0.9, 0.02], 0.1) == {0, 1, 3}


def test_build_svn_identical_columns_selected():
    col = np.tile([1, -1], 10)
    b = make_binary(np.column_stack([col, col, -np.roll(col, 3)]))
    net = build_svn(b, alpha=0.1, polarity="positive")
    assert net.adjacency[0, 1] == 1
    assert net.pvalues[(0, 1)] == pytest.approx(1 / math.comb(20, 10), rel=1e-10)
    assert np.array_equal(net.adjacency, net.adjacency.T)


@pytest.mark.parametrize("polarity", ["positive", "negative"])
def test_build_svn_of_one_asset_has_no_pairs_to_test(polarity):
    net = build_svn(make_binary([[1], [-1], [1], [1]]), alpha=0.1, polarity=polarity)
    assert net.assets == ("A0",) and net.pvalues == {}
    assert net.adjacency.shape == (1, 1) and not net.adjacency.any()


def test_build_svn_opposite_columns_negative_polarity():
    col = np.tile([1, -1], 10)
    noise = np.array([1 if i % 3 else -1 for i in range(20)])
    b = make_binary(np.column_stack([col, -col, noise]))
    positive = build_svn(b, alpha=0.1, polarity="positive")
    negative = build_svn(b, alpha=0.1, polarity="negative")
    assert positive.adjacency[0, 1] == 0
    assert negative.adjacency[0, 1] == 1
    # exact opposition: both directions give the single-term tail, doubled
    assert negative.pvalues[(0, 1)] == pytest.approx(2 / math.comb(20, 10), rel=1e-10)


def test_build_svn_permutation_equivariant(rng):
    b = random_binary(rng, t=30, n=8)
    net = build_svn(b, alpha=0.2, polarity="positive")
    perm = rng.permutation(8)
    permuted = make_binary(b.values[:, perm])
    net_p = build_svn(permuted, alpha=0.2, polarity="positive")
    assert np.array_equal(net_p.adjacency, net.adjacency[np.ix_(perm, perm)])


def test_selected_links_exceed_expectation_and_have_positive_phi(rng):
    # planted co-movement: several columns copy a common driver
    driver = rng.choice([-1, 1], size=60)
    cols = []
    for i in range(10):
        flip = rng.random(60) < (0.05 + 0.04 * i)
        cols.append(np.where(flip, -driver, driver))
    for i in range(6):
        cols.append(rng.choice([-1, 1], size=60))
    values = np.column_stack(cols).astype(np.int8)
    values[0, values.max(axis=0) == values.min(axis=0)] *= -1
    b = make_binary(values)
    net = build_svn(b, alpha=0.1, polarity="positive")
    assert net.n_links > 0
    up = (b.values > 0).astype(np.int64)
    k = up.sum(axis=0)
    both = up.T @ up
    phi = phi_matrix(b)
    t = b.values.shape[0]
    for i, j in net.pvalues:
        assert both[i, j] > k[i] * k[j] / t
        assert phi.values[i, j] > 0


def test_null_panels_rarely_select(rng):
    hits = 0
    for _ in range(100):
        net = build_svn(random_binary(rng, t=60, n=20), alpha=0.1, polarity="positive")
        hits += bool(net.n_links)
    assert hits / 100 <= 0.15


def test_retained_pvalues_below_realized_threshold(rng):
    driver = rng.choice([-1, 1], size=50)
    cols = [np.where(rng.random(50) < 0.1, -driver, driver) for _ in range(6)]
    cols += [rng.choice([-1, 1], size=50) for _ in range(6)]
    values = np.column_stack(cols).astype(np.int8)
    values[0, values.max(axis=0) == values.min(axis=0)] *= -1
    b = make_binary(values)
    alpha = 0.1
    net = build_svn(b, alpha=alpha, polarity="positive")
    assert net.n_links > 0
    n = len(net.assets)
    m_tests = n * (n - 1) // 2
    # step-up rule: every kept p sits at or below count * alpha / M
    assert max(net.pvalues.values()) <= len(net.pvalues) * alpha / m_tests


def test_link_pvalue_stable_for_long_windows():
    # thousands of days: the log-space path neither overflows nor warns
    p_mid = tail_pvalue(510, 1000, 1000, 2000)
    p_far = tail_pvalue(600, 1000, 1000, 2000)
    assert 0.0 <= p_far < p_mid <= 1.0


def test_build_svn_rejects_bad_polarity(rng):
    with pytest.raises(DataError):
        build_svn(random_binary(rng, 10, 3), alpha=0.1, polarity="both")


@pytest.mark.parametrize("polarity", ["positive", "negative"])
def test_build_svn_memory_is_bounded_at_paper_scale(polarity):
    # 400 assets over 1,200 days: pairs x tail width would be about 1 GB
    rng = np.random.default_rng(5)
    b = make_binary(rng.choice(np.array([-1, 1], dtype=np.int8), size=(1200, 400)))
    tracemalloc.start()
    try:
        build_svn(b, alpha=0.1, polarity=polarity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_build_svn_memory_and_time_at_a_thousand_assets():
    # 1,000 assets over 2,000 days: 499,500 pairs with tails up to 1,000 terms
    rng = np.random.default_rng(6)
    b = make_binary(rng.choice(np.array([-1, 1], dtype=np.int8), size=(2000, 1000)))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        build_svn(b, alpha=0.1, polarity="positive")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 72 * 2**20
    assert elapsed < 2.5
