"""Fast paths against the slower code they replace.

The count kernels (phi's co-occurrence counts, the SVN counts and S * S^2 for
H and pair stability) run as float32 BLAS products cast once to float64 or
int64, and refuse 2**24 rows or more. Phi and S * S^2 are float64 after the
cast; they must equal the int64 formulas they replace bitwise, also where
trace(S^3) passes 2**24, and the SVN must not move with the int64 matmul
swapped back in. A grid out-window's signs come from phi's numerator alone
and must equal the signs of phi. A complete window's complete case is the
window itself and must equal the gathered panel. The grouped SVN
tail kernel sums each law's terms in another order than the one-shot,
per-pair kernel it replaces, so its p-values must agree with that reference
to 1e-11 relative and select exactly the same links; across chunk sizes it
must give the same bytes. The single-sort AUC must equal the average-rank
formula bitwise, the grid's per-value counting AUC must equal it bitwise,
`roc` must sort once, and the membership checks of the validating wrappers
and of the sign-matrix entry of `hamiltonian` and `pair_stability` must still
reject every value outside their alphabet.
"""

from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np
import pytest

from triadnet import correlation, experiment, svn, util
from triadnet.balance import hamiltonian, pair_stability
from triadnet.correlation import phi_matrix, sign_matrix
from triadnet.errors import DataError
from triadnet.experiment import roc
from triadnet.graphmetrics import LabeledGraph
from triadnet.preprocess import BinaryPanel, ReturnPanel, _signs, complete_case
from triadnet.svn import Svn, build_svn
from triadnet.util import count_product

from conftest import make_binary, random_binary, random_signed, random_triples


def int64_product(a, b):
    return np.asarray(a, dtype=np.int64).T @ np.asarray(b, dtype=np.int64)


def int64_phi(b):
    """Phi as formed on int64 counts: int64 counts and margins, an int64 outer product,
    one conversion to float, then symmetrized as (v + v.T) / 2."""
    t = len(b.values)
    up = b.values > 0
    k = up.sum(axis=0)
    num = (t * int64_product(up, up) - np.outer(k, k)).astype(float)
    d = (k * (t - k)).astype(np.int64)
    values = num / np.sqrt(np.outer(d, d).astype(float))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 1.0)
    return values


def int64_triads(s):
    s = np.asarray(s, dtype=np.int64)
    return s * (s @ s)


def all_equal_signs(n):
    s = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(s, 0)
    return s


def binary_with_extreme_columns(rng, t, n):
    """A random panel whose first column is up on 1 day and second on t - 1 days."""
    values = random_binary(rng, t, n).values.copy()
    values[:, :2] = [-1, 1]
    values[0, 0], values[-1, 1] = 1, -1
    return make_binary(values)


def kernel_outputs(t, n, with_svn):
    rng = np.random.default_rng(7 * t + n)
    b = binary_with_extreme_columns(rng, t, n)
    out = {"phi": (phi_matrix(b).values, int64_phi(b))}
    for name, s in (("random", random_signed(rng, n)), ("all_equal", all_equal_signs(n))):
        products = int64_triads(s)
        out[f"delta_{name}"] = pair_stability(s), products / (n - 2)
        out[f"h_{name}"] = hamiltonian(s), -int(products.sum()) / (6 * comb(n, 3))
    if with_svn:
        for polarity in svn.POLARITIES:
            net = build_svn(b, alpha=0.2, polarity=polarity)
            out[f"svn_{polarity}"] = (net.adjacency, net.pvalues)
    return out


@pytest.mark.parametrize(
    "t,n,with_svn", [(2, 4, True), (3, 3, True), (41, 25, True), (600, 150, True), (3000, 400, False)]
)
def test_blas_count_kernels_match_int64_reference(t, n, with_svn, monkeypatch):
    """Phi, pair stability and H equal their int64 formulas bitwise (pair stability has no
    -0.0), phi is exactly symmetric unsymmetrized, and the SVN does not move when its
    counts come from an int64 matmul."""
    fast = kernel_outputs(t, n, with_svn)
    for name, value in fast.items():
        if not name.startswith("svn"):
            got, expected = value
            assert np.asarray(got).dtype == np.asarray(expected).dtype, name
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), name
    phi = fast["phi"][0]
    assert phi.tobytes() == phi.T.copy().tobytes()
    assert fast["h_all_equal"][0] == -1.0
    if n >= 300:  # trace(S^3) = N(N-1)(N-2) is past float32's exact integers
        assert int64_triads(all_equal_signs(n)).sum() > 2**24
    assert (fast["delta_all_equal"][0] == 1 - np.eye(n)).all()
    if with_svn:
        monkeypatch.setattr(svn, "count_product", int64_product)
        reference = kernel_outputs(t, n, with_svn)
        for polarity in svn.POLARITIES:
            (adjacency, pvalues), (ref_adjacency, ref_pvalues) = fast[f"svn_{polarity}"], reference[f"svn_{polarity}"]
            assert np.array_equal(adjacency, ref_adjacency) and pvalues == ref_pvalues, polarity


def test_count_product_is_exact_int64():
    rng = np.random.default_rng(3)
    up = rng.random((3000, 40)) < 0.5
    for a, b in ((up, up), (up, ~up)):
        got = count_product(a, b)
        assert got.dtype == np.int64 and np.array_equal(got, int64_product(a, b))
    s = np.where(rng.random((3000, 40)) < 0.5, 1, -1).astype(np.int8)
    assert np.array_equal(count_product(s, s), int64_product(s, s))
    got = count_product(up, up, np.float64)
    assert got.dtype == np.float64 and np.array_equal(got, int64_product(up, up))


def test_count_kernels_refuse_windows_past_the_exact_bound(monkeypatch):
    """At 2**24 rows float32 no longer holds every count; the bound is lowered here."""
    b = random_binary(np.random.default_rng(5), 12, 4)
    monkeypatch.setattr(util, "_EXACT_ROWS", 13)
    phi_matrix(b)
    count_product(b.values, b.values)
    monkeypatch.setattr(util, "_EXACT_ROWS", 12)
    for kernel in (phi_matrix, lambda b: count_product(b.values, b.values)):
        with pytest.raises(DataError, match="fewer than 12 rows"):
            kernel(b)


def numerator_sign_panels():
    rng = np.random.default_rng(23)
    # T = 4 with k_i = k_j = 2 and c_ij = 1: T*c - k_i k_j is exactly 0, and phi is +0.0
    yield "exact-zero", make_binary([[1, 1, 1], [1, -1, -1], [-1, 1, 1], [-1, -1, 1]])
    yield "t2", make_binary([[1, -1, 1, -1], [-1, 1, -1, 1]])
    for t, n in ((3, 5), (4, 30), (9, 40), (60, 17), (155, 150)):
        yield f"t{t}-n{n}", binary_with_extreme_columns(rng, t, n)


@pytest.mark.parametrize("name,b", list(numerator_sign_panels()))
def test_numerator_signs_equal_phi_signs(name, b):
    """The grid's out-window side takes S from the signs of T*c - k k^T; it must equal
    the in-window side's signs and H, which come from sign_matrix(phi_matrix(b))."""
    num = correlation._phi_numerator(b.values)
    s = _signs(num)
    np.fill_diagonal(s, 0)
    assert np.array_equal(s, sign_matrix(phi_matrix(b)))
    if name == "exact-zero":
        assert (num == 0).any() and (phi_matrix(b).values[num == 0] == 0).all()
    if b.values.shape[1] >= 3:
        data = (b.dates, b.assets, b.values)
        out, full = (experiment._side(data, "phi", scores) for scores in (False, True))
        assert out.keys() == {"signs", "h"}
        assert out["signs"].tobytes() == full["signs"].tobytes() and out["h"] == full["h"]


def test_complete_case_of_a_complete_window_is_the_gathered_panel():
    rng = np.random.default_rng(9)
    returns = rng.normal(size=(20, 6))
    window = ReturnPanel(tuple(range(20)), tuple("abcdef"), returns)
    keep = np.ones(6, dtype=bool)
    gathered = ReturnPanel(window.dates, window.assets, returns[:, keep])
    got = complete_case(window)
    for name in ("dates", "assets", "returns"):
        value, expected = getattr(got, name), getattr(gathered, name)
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype and np.array_equal(value, expected), name
        else:
            assert value == expected, name


def rank_auc(labels, scores):
    """The average-rank formula the single-sort AUC replaces: 1-based ranks, ties sharing
    their average rank."""
    y = np.asarray(labels, dtype=bool)
    _, inverse, counts = np.unique(np.asarray(scores, dtype=float), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[inverse]
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@pytest.mark.parametrize("size,levels", [(2, 1), (7, 2), (300, 5), (11175, 149), (79800, 399)])
def test_auc_equals_average_rank_formula_bitwise(size, levels):
    rng = np.random.default_rng(size)
    for _ in range(5):
        labels = rng.random(size) < rng.uniform(0.05, 0.95)
        labels[:2] = [True, False]
        # scores on a lattice, as pair stability's k / (N-2), so ties are heavy
        scores = -rng.integers(-levels, levels + 1, size=size) / max(levels, 1)
        assert roc(labels, scores).auc == rank_auc(labels, scores)


def test_lattice_auc_equals_auc_bitwise():
    """The grid's AUCs count labels per score-lattice value instead of sorting.
    Pair stability sits on the lattice k / (N-2), and its index covers values of
    the wrong parity that never occur; phi of a few days is heavily tied."""
    rng = np.random.default_rng(41)
    compared = 0
    for n in range(3, 41):
        iu, ju = np.triu_indices(n, k=1)
        for t in (4, 9, 60):
            b = random_binary(rng, t, n)
            if t == 60 and n % 4 == 0:  # identical columns: phi is 1 everywhere
                b = make_binary(np.repeat(b.values[:, :1], n, axis=1))
            corr = phi_matrix(b)
            s = sign_matrix(corr)
            side = experiment._side((b.dates, b.assets, b.values), "phi", scores=True)
            scores = {"delta": -pair_stability(s)[iu, ju], "absphi": -np.abs(corr.values[iu, ju])}
            assert np.array_equal(side["signs"], s[iu, ju] > 0)
            assert side["h"] == hamiltonian(s)
            for name, expected in scores.items():
                index, values = side[name]
                assert index.dtype == np.int32 and values[index].tobytes() == expected.tobytes(), name
            index, values = side["delta"]
            assert (np.bincount(index, minlength=len(values)) == 0).any()  # lattice values that never occur
            for _ in range(3):
                labels = rng.random(len(iu)) < rng.uniform(0.1, 0.9)
                labels[rng.choice(len(iu), 2, replace=False)] = [True, False]
                for name, expected in scores.items():
                    assert experiment._lattice_auc(side[name], labels) == roc(labels, expected).auc, name
                    compared += 1
    assert compared > 400


def test_auc_rejects_non_finite_scores():
    with pytest.raises(DataError, match="finite"):
        roc([True, False, True], [0.1, np.nan, 0.3])


BINARY_OK = np.array([[1, -1], [-1, 1], [1, 1]], dtype=float)


def binary_panel(values):
    return BinaryPanel(("d0", "d1", "d2"), ("a", "b"), values)


def labeled_graph(values):
    return LabeledGraph(values, ("x", "y", "x"))


def svn_network(values):
    return Svn(("x", "y", "z"), values, "positive", 0.1)


SIGNED_OK = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)
ADJACENCY_OK = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def with_bad(valid, i, j, bad):
    values = valid.copy()
    values[i, j] = bad
    if values.shape[0] == values.shape[1]:
        values[j, i] = bad
    return values


@pytest.mark.parametrize(
    "build,valid,i,j,bad",
    [(binary_panel, BINARY_OK, 2, 0, bad) for bad in (0, 2, np.nan)]
    + [(hamiltonian, SIGNED_OK, 0, 2, bad) for bad in (0, 2, np.nan)]
    + [(pair_stability, SIGNED_OK, 0, 2, bad) for bad in (0, 2, np.nan)]
    + [(labeled_graph, ADJACENCY_OK, 0, 2, bad) for bad in (-1, 2, np.nan)]
    + [(svn_network, ADJACENCY_OK, 0, 2, bad) for bad in (-1, 2, np.nan)],
)
def test_membership_checks_reject_values_outside_the_alphabet(build, valid, i, j, bad):
    build(valid)
    build(valid.astype(np.int8))
    with pytest.raises(DataError):
        build(with_bad(valid, i, j, bad))


@pytest.mark.parametrize("kernel", [hamiltonian, pair_stability])
@pytest.mark.parametrize(
    "values",
    [np.array(5), np.zeros((3, 3, 3)), [[0, 2, 1], [2, 0, 1], [1, 1, 0]], np.ones((3, 4))],
    ids=["0-d", "3-d", "entries-2-and-1", "non-square"],
)
def test_balance_kernels_reject_raw_arrays_that_are_not_signed_matrices(kernel, values):
    with pytest.raises(DataError):
        kernel(values)


def test_roc_sorts_once(monkeypatch):
    calls = []
    tie_groups = experiment._tie_groups

    def counted(*args):
        calls.append(args)
        return tie_groups(*args)

    monkeypatch.setattr(experiment, "_tie_groups", counted)
    result = roc([True, False, True, False], [0.9, 0.1, 0.5, 0.5])
    assert len(calls) == 1
    assert result.auc == 0.875


def one_shot_tail_pvalues(c, ki, kj, t, lf):
    """The per-pair SVN tail kernel: one padded sum per pair, all pairs x width at once."""
    xmax = np.minimum(ki, kj)
    lower = np.maximum(0, ki + kj - t)
    full = c <= lower
    p = np.ones(c.shape, dtype=float)
    todo = ~full
    if not todo.any():
        return p
    log_denom = lf[t] - lf[kj] - lf[t - kj]
    width = int((xmax[todo] - c[todo]).max()) + 1
    x = c[todo, None] + np.arange(width)[None, :]
    valid = x <= xmax[todo, None]
    xc = np.where(valid, x, 0)
    a = ki[todo, None]
    b = kj[todo, None]
    terms = (
        lf[a] - lf[xc] - lf[a - xc]
        + lf[t - a] - lf[b - xc] - lf[(t - a) - (b - xc)]
        - log_denom[todo, None]
    )
    terms = np.where(valid, terms, -np.inf)
    peak = terms.max(axis=1)
    tail = np.exp(peak) * np.exp(terms - peak[:, None]).sum(axis=1)
    p[todo] = np.minimum(tail, 1.0)
    return p


def tail_cases():
    rng = np.random.default_rng(17)
    for t in (1, 2, 7, 40, 400, 3000):
        # fewer pairs on long windows keep the one-shot reference near 40 MB
        counts = random_triples(rng, t, min(5000, 1_000_000 // (t + 1)))
        yield pytest.param(f"random-t{t}", counts, t, id=f"random-t{t}")
    c, ki, kj = random_triples(rng, 400, 60)
    pick = rng.integers(0, 60, 4000)
    yield pytest.param("repeated", (c[pick], ki[pick], kj[pick]), 400, id="repeated")
    ki = rng.integers(1, 301, 3000)
    kj = rng.integers(1, 301, 3000)
    yield pytest.param("width-1", (np.minimum(ki, kj), ki, kj), 600, id="width-1")
    full = (np.maximum(0, ki + kj - 600), ki, kj)
    yield pytest.param("all-full-support", full, 600, id="all-full-support")


def chunk_sizes(c, ki, kj, t):
    """Chunk settings in float64 entries: the default, one row, a non-divisor."""
    todo = c > np.maximum(0, ki + kj - t)
    if not todo.any():
        return [svn._CHUNK_ELEMS, 1]
    a, b = np.minimum(ki, kj)[todo], np.maximum(ki, kj)[todo]
    width = int((a - c[todo]).max()) + 1
    groups = len(np.unique(np.stack([a, b], axis=1), axis=0))
    step = next(k for k in range(2, groups + 2) if groups % k)
    return [svn._CHUNK_ELEMS, 1, width * step]


@pytest.mark.parametrize("name,counts,t", list(tail_cases()))
def test_grouped_tail_pvalues_match_one_shot_kernel(name, counts, t, monkeypatch):
    c, ki, kj = (np.asarray(v, dtype=np.int64) for v in counts)
    lf = svn._log_factorials(t)
    expected = one_shot_tail_pvalues(c, ki, kj, t, lf)
    if name == "all-full-support":
        assert (expected == 1.0).all()
    monkeypatch.setattr(svn, "_STORE", svn._LawStore())  # each call builds all its rows
    default = svn._tail_pvalues(c, ki, kj, t, lf)
    assert default.dtype == expected.dtype
    assert np.all(np.abs(default - expected) <= 1e-11 * expected), name
    for chunk in chunk_sizes(c, ki, kj, t):
        monkeypatch.setattr(svn, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(svn, "_STORE", svn._LawStore())
        got = svn._tail_pvalues(c, ki, kj, t, lf)
        assert got.tobytes() == default.tobytes(), (name, chunk)


@pytest.mark.parametrize("polarity", svn.POLARITIES)
def test_build_svn_under_forced_chunks_matches_one_shot_kernel(polarity, monkeypatch):
    rng = np.random.default_rng(29)
    driver = rng.choice([-1, 1], size=300)
    # followers of the driver and of its opposite give links at both polarities
    cols = [sign * np.where(rng.random(300) < 0.2, -driver, driver) for sign in (1, -1) * 6]
    cols += [rng.choice([-1, 1], size=300) for _ in range(28)]
    b = BinaryPanel(
        tuple(range(300)), tuple(range(40)), np.column_stack(cols).astype(np.int8)
    )
    results = []
    # the default, one row per chunk, and chunks of a few rows
    for chunk in (svn._CHUNK_ELEMS, 1, 7 * 301):
        monkeypatch.setattr(svn, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(svn, "_STORE", svn._LawStore())  # each chunk size builds every row
        results.append(build_svn(b, alpha=0.1, polarity=polarity))
    monkeypatch.setattr(svn, "_tail_pvalues", one_shot_tail_pvalues)
    reference = build_svn(b, alpha=0.1, polarity=polarity)
    assert reference.n_links > 0
    for net in results:
        assert np.array_equal(net.adjacency, reference.adjacency)
        assert net.pvalues.keys() == reference.pvalues.keys()
        assert net.pvalues == results[0].pvalues
        for link, p in reference.pvalues.items():
            assert abs(net.pvalues[link] - p) <= 1e-11 * p, link


def chunked_tail_pvalues(c, ki, kj, t, lf):
    """The SVN tail kernel before the law store, kept as its oracle: each call groups its own
    pairs by law, builds the laws' rows widest first in chunks of `svn._CHUNK_ELEMS` entries,
    and reads each chunk's pairs, argsorted by chunk rank, before the next chunk."""
    p = np.ones(c.shape, dtype=float)
    todo = np.flatnonzero(c > np.maximum(0, ki + kj - t))
    if todo.size == 0:
        return p
    c = c[todo]
    key = (np.minimum(ki[todo], kj[todo]) << 21) | np.maximum(ki[todo], kj[todo])
    laws, group = np.unique(key, return_inverse=True)
    a, b = laws >> 21, laws & (svn._MAX_T - 1)
    c_min = a.copy()
    np.minimum.at(c_min, group, c)
    width = a - c_min + 1
    by_width = np.argsort(-width)
    rank = np.empty_like(by_width)
    rank[by_width] = np.arange(by_width.size)
    pair_rank = rank[group]
    pairs = np.argsort(pair_rank)
    sorted_rank = pair_rank[pairs]
    start = 0
    while start < by_width.size:
        w = int(width[by_width[start]])
        stop = min(by_width.size, start + max(1, svn._CHUNK_ELEMS // w))
        g = by_width[start:stop, None]
        x = np.maximum(a[g] - np.arange(w), c_min[g])
        terms = (
            lf[a[g]] - lf[x] - lf[a[g] - x]
            + lf[t - a[g]] - lf[b[g] - x] - lf[t - a[g] - b[g] + x]
            - (lf[t] - lf[b[g]] - lf[t - b[g]])
        )
        table = np.logaddexp.accumulate(terms, axis=1)
        lo, hi = np.searchsorted(sorted_rank, [start, stop])
        r = pairs[lo:hi]
        p[todo[r]] = np.minimum(np.exp(table[pair_rank[r] - start, a[group[r]] - c[r]]), 1.0)
        start = stop
    return p


class CountingStore(svn._LawStore):
    """A law store that counts the times it is emptied to make room and the laws it builds
    again deeper, and checks after every build that it holds no more than its budget and
    one row per law, its keys strictly ascending."""

    def __init__(self):
        self.evictions, self.deepened = -1, 0  # the constructor empties it once
        super().__init__()

    def clear(self):
        self.evictions += 1
        super().clear()

    def add(self, laws, width, t, lf):
        self.deepened += int(np.isin(laws, self.keys).sum())
        super().add(laws, width, t, lf)
        assert self.used <= svn._STORE_ELEMS and self.rows.size == svn._STORE_ELEMS
        assert (np.diff(self.keys) > 0).all()


def law_sequence(rng, t, calls=6, pairs=400):
    """Count triples for `calls` calls. Margins stay near t/2, so laws recur from call to call,
    and each call's counts may reach further down the support, so recurring laws deepen. Every
    call ends with the support's edges: c at its lower end, one above it and at its top."""
    spread = max(1, t // 20)
    k = np.unique(np.clip([0, 1, 2, t // 2 - 1, t // 2, t // 2 + 1, t - 2, t - 1, t], 0, t))
    ek, ej = np.repeat(k, k.size), np.tile(k, k.size)
    lower, top = np.maximum(0, ek + ej - t), np.minimum(ek, ej)
    edges = [np.concatenate(v) for v in ((lower, np.minimum(lower + 1, top), top), (ek,) * 3, (ej,) * 3)]
    for r in range(calls):
        ki, kj = (np.clip(t // 2 + rng.integers(-spread, spread + 1, pairs), 0, t) for _ in range(2))
        lo, hi = np.maximum(0, ki + kj - t), np.minimum(ki, kj)
        c = lo + ((hi - lo + 1) * rng.uniform((calls - 1 - r) / calls, 1, pairs)).astype(np.int64)
        yield (np.concatenate([v, e]) for v, e in zip((c, ki, kj), edges))


# per t, a budget that the six calls of `law_sequence` fill by their third to fifth call
A_FEW_CALLS = {1: 2, 7: 8, 40: 500, 400: 20_000, 3000: 150_000}


@pytest.mark.parametrize("t", [1, 7, 40, 400, 3000])
@pytest.mark.parametrize("budget", ["default", "a few calls", "one row"])
def test_law_store_pvalues_match_the_chunked_kernel_bitwise(t, budget, monkeypatch):
    """Six calls at one t whose laws come and come back deeper. Under a budget that a few of
    the calls fill, they are also evicted, and under one of the widest row a window of t days
    can ask for, at nearly every row. Every call gives the chunked kernel's bytes, and the
    store never holds more than its budget."""
    if budget != "default":
        monkeypatch.setattr(svn, "_STORE_ELEMS", A_FEW_CALLS[t] if budget == "a few calls" else t // 2 + 1)
    monkeypatch.setattr(svn, "_STORE", store := CountingStore())
    lf = svn._log_factorials(t)
    for counts in law_sequence(np.random.default_rng(t), t):
        c, ki, kj = counts
        got = svn._tail_pvalues(c, ki, kj, t, lf)
        assert got.tobytes() == chunked_tail_pvalues(c, ki, kj, t, lf).tobytes()
    if t >= 40:
        assert (store.evictions > 0) == (budget != "default")
        assert store.deepened > 0 or budget == "one row"


@pytest.mark.parametrize("polarity", svn.POLARITIES)
def test_build_svn_through_the_law_store_matches_the_chunked_kernel_bitwise(polarity, monkeypatch):
    """Rolling 120-day windows of one panel, under the default budget and under one that the
    first few windows fill: every tail call `build_svn` makes, both of the negative polarity's
    at one t, gives the chunked kernel's bytes."""
    rng = np.random.default_rng(41)
    driver = rng.choice([-1, 1], size=260)
    cols = [sign * np.where(rng.random(260) < 0.25, -driver, driver) for sign in (1, -1) * 5]
    values = np.column_stack(cols + [rng.choice([-1, 1], size=260) for _ in range(20)]).astype(np.int8)
    real, calls = svn._tail_pvalues, []

    def checked(c, ki, kj, t, lf):
        got = real(c, ki, kj, t, lf)
        assert got.tobytes() == chunked_tail_pvalues(c, ki, kj, t, lf).tobytes()
        calls.append(t)
        return got

    monkeypatch.setattr(svn, "_tail_pvalues", checked)
    for budget in (svn._STORE_ELEMS, 8000):
        monkeypatch.setattr(svn, "_STORE_ELEMS", budget)
        monkeypatch.setattr(svn, "_STORE", store := CountingStore())
        links = 0
        for end in range(120, 261, 20):
            window = BinaryPanel(tuple(range(120)), tuple(range(30)), values[end - 120 : end])
            links += build_svn(window, alpha=0.1, polarity=polarity).n_links
        assert links > 0 and store.deepened > 0
        assert (store.evictions > 0) == (budget == 8000)
    assert calls == [120] * (32 if polarity == "negative" else 16)


def test_law_store_empties_and_refills_within_its_budget_when_a_call_needs_more(monkeypatch):
    """The budget is at most 8 MB and holds the widest row any window can ask for (t/2 < 2**20
    columns). 400 assets over 1,200 days need more rows than that: the call empties the store
    to make room, holds no more than the budget, and gives the chunked kernel's bytes."""
    assert 8 * svn._STORE_ELEMS <= 8 * 2**20 and svn._STORE_ELEMS > (svn._MAX_T - 1) // 2
    up = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8), size=(1200, 400)) > 0
    k, (iu, ju) = up.sum(axis=0), np.triu_indices(400, k=1)
    c, ki, kj = count_product(up, up)[iu, ju], k[iu], k[ju]
    lf = svn._log_factorials(1200)
    monkeypatch.setattr(svn, "_STORE", store := CountingStore())
    got = svn._tail_pvalues(c, ki, kj, 1200, lf)
    assert store.evictions > 0 and store.used <= svn._STORE_ELEMS
    assert got.tobytes() == chunked_tail_pvalues(c, ki, kj, 1200, lf).tobytes()


def test_threads_that_share_the_law_store_get_the_chunked_kernels_bytes(monkeypatch):
    """Four threads call the kernel at once, at four t, under a budget that a few calls fill,
    so the store is emptied and refilled while the others read it: every call gives the
    chunked kernel's bytes."""
    monkeypatch.setattr(svn, "_STORE_ELEMS", 20_000)
    monkeypatch.setattr(svn, "_STORE", store := CountingStore())
    ts = (40, 41, 400, 401)
    calls = {t: [tuple(counts) for counts in law_sequence(np.random.default_rng(t), t)] * 3 for t in ts}

    def run(t):
        lf = svn._log_factorials(t)
        return [svn._tail_pvalues(c, ki, kj, t, lf).tobytes() for c, ki, kj in calls[t]]

    with ThreadPoolExecutor(len(ts)) as pool:
        got = dict(zip(ts, pool.map(run, ts)))
    assert store.evictions > 0
    for t in ts:
        lf = svn._log_factorials(t)
        assert got[t] == [chunked_tail_pvalues(c, ki, kj, t, lf).tobytes() for c, ki, kj in calls[t]]
