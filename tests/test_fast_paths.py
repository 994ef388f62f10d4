"""Fast paths against the slower code they replace.

The count kernels (phi's co-occurrence counts, the SVN counts and S * S^2 for
H and pair stability) run as float64 BLAS products; with the int64 matmul
swapped back in, every output must be bitwise identical. The chunked,
deduplicated SVN tail kernel must give the same bytes as the one-shot kernel
it replaces, wherever the chunks break. The single-sort AUC
must equal the average-rank formula bitwise, `roc` must sort once, and the
membership checks of the validating wrappers and of the sign-matrix entry of
`hamiltonian` and `pair_stability` must still reject every value outside
their alphabet.
"""

import numpy as np
import pytest

from triadnet import balance, correlation, experiment, svn
from triadnet.balance import hamiltonian, pair_stability
from triadnet.correlation import phi_matrix
from triadnet.errors import DataError
from triadnet.experiment import _average_ranks, auc, roc
from triadnet.graphmetrics import LabeledGraph
from triadnet.preprocess import BinaryPanel
from triadnet.svn import Svn, build_svn
from triadnet.util import count_product

from conftest import random_binary, random_signed


def int64_product(a, b):
    return np.asarray(a, dtype=np.int64).T @ np.asarray(b, dtype=np.int64)


def all_equal_signs(n):
    s = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(s, 0)
    return s


def kernel_outputs(t, n, with_svn):
    rng = np.random.default_rng(7 * t + n)
    b = random_binary(rng, t, n)
    out = {"phi": phi_matrix(b).values}
    for name, s in (("random", random_signed(rng, n)), ("all_equal", all_equal_signs(n))):
        out[f"delta_{name}"] = pair_stability(s)
        out[f"h_{name}"] = hamiltonian(s)
    if with_svn:
        for polarity in svn.POLARITIES:
            net = build_svn(b, alpha=0.2, polarity=polarity)
            out[f"svn_{polarity}"] = (net.adjacency, net.pvalues)
    return out


@pytest.mark.parametrize(
    "t,n,with_svn", [(3, 3, True), (41, 25, True), (600, 150, True), (3000, 400, False)]
)
def test_blas_count_kernels_match_int64_reference(t, n, with_svn, monkeypatch):
    fast = kernel_outputs(t, n, with_svn)
    for module in (balance, correlation, svn):
        monkeypatch.setattr(module, "count_product", int64_product)
    reference = kernel_outputs(t, n, with_svn)
    assert fast.keys() == reference.keys()
    for name, value in reference.items():
        got = fast[name]
        if name.startswith("svn"):
            assert np.array_equal(got[0], value[0]) and got[1] == value[1], name
        elif isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), name
        else:
            assert got == value, name
    assert fast["h_all_equal"] == -1.0
    assert (fast["delta_all_equal"] == 1 - np.eye(n)).all()


def test_count_product_is_exact_int64():
    rng = np.random.default_rng(3)
    up = rng.random((3000, 40)) < 0.5
    for a, b in ((up, up), (up, ~up)):
        got = count_product(a, b)
        assert got.dtype == np.int64 and np.array_equal(got, int64_product(a, b))
    s = np.where(rng.random((3000, 40)) < 0.5, 1, -1).astype(np.int8)
    assert np.array_equal(count_product(s, s), int64_product(s, s))


def rank_auc(labels, scores):
    """The average-rank formula the single-sort AUC replaces."""
    y = np.asarray(labels, dtype=bool)
    ranks = _average_ranks(np.asarray(scores, dtype=float))
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
        value = auc(labels, scores)
        assert value == rank_auc(labels, scores)
        assert value == roc(labels, scores).auc


def test_auc_rejects_non_finite_scores():
    with pytest.raises(DataError, match="finite"):
        auc([True, False, True], [0.1, np.nan, 0.3])


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
    assert result.auc == auc([True, False, True, False], [0.9, 0.1, 0.5, 0.5]) == 0.875


def one_shot_tail_pvalues(c, ki, kj, t, lf):
    """The SVN tail kernel before chunking: every pair at once, pairs x width."""
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


def random_triples(rng, t, size):
    """Counts (c, ki, kj) with c anywhere on the support [max(0, ki+kj-t), min(ki, kj)]."""
    ki = rng.integers(0, t + 1, size)
    kj = rng.integers(0, t + 1, size)
    lower = np.maximum(0, ki + kj - t)
    c = lower + (rng.random(size) * (np.minimum(ki, kj) - lower + 1)).astype(np.int64)
    return c, ki, kj


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
    width = int((np.minimum(ki, kj) - c)[todo].max()) + 1
    key = np.stack([c[todo], ki[todo], kj[todo]], axis=1)
    rows = len(np.unique(key, axis=0))
    step = next(k for k in range(2, rows + 2) if rows % k)
    return [svn._CHUNK_ELEMS, 1, width * step]


@pytest.mark.parametrize("name,counts,t", list(tail_cases()))
def test_chunked_tail_pvalues_match_one_shot_kernel_bytewise(name, counts, t, monkeypatch):
    c, ki, kj = (np.asarray(v, dtype=np.int64) for v in counts)
    lf = svn._log_factorials(t)
    expected = one_shot_tail_pvalues(c, ki, kj, t, lf)
    if name == "all-full-support":
        assert (expected == 1.0).all()
    for chunk in chunk_sizes(c, ki, kj, t):
        monkeypatch.setattr(svn, "_CHUNK_ELEMS", chunk)
        got = svn._tail_pvalues(c, ki, kj, t, lf)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), (name, chunk)


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
        results.append(build_svn(b, alpha=0.1, polarity=polarity))
    monkeypatch.setattr(svn, "_tail_pvalues", one_shot_tail_pvalues)
    reference = build_svn(b, alpha=0.1, polarity=polarity)
    assert reference.n_links > 0
    for net in results:
        assert np.array_equal(net.adjacency, reference.adjacency)
        assert net.pvalues == reference.pvalues
