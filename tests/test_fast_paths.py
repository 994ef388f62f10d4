"""Fast paths against the slower code they replace.

The count kernels (phi's co-occurrence counts, the SVN counts and S * S^2 for
H and pair stability) run as float64 BLAS products; with the int64 matmul
swapped back in, every output must be bitwise identical. The single-sort AUC
must equal the average-rank formula bitwise, and the membership checks of the
validating wrappers must still reject every value outside their alphabet.
"""

import numpy as np
import pytest

from triadnet import balance, correlation, svn
from triadnet.balance import hamiltonian, pair_stability
from triadnet.correlation import SignedMatrix, phi_matrix
from triadnet.errors import DataError
from triadnet.experiment import _average_ranks, auc, roc
from triadnet.graphmetrics import LabeledGraph
from triadnet.preprocess import BinaryPanel
from triadnet.svn import build_svn
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
        out[f"h_{name}"] = hamiltonian(SignedMatrix(tuple(range(n)), s))
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


def signed_matrix(values):
    return SignedMatrix(("a", "b", "c"), values)


def labeled_graph(values):
    return LabeledGraph(values, ("x", "y", "x"))


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
    + [(signed_matrix, SIGNED_OK, 0, 2, bad) for bad in (0, 2, np.nan)]
    + [(labeled_graph, ADJACENCY_OK, 0, 2, bad) for bad in (-1, 2, np.nan)],
)
def test_membership_checks_reject_values_outside_the_alphabet(build, valid, i, j, bad):
    build(valid)
    build(valid.astype(np.int8))
    with pytest.raises(DataError):
        build(with_bad(valid, i, j, bad))
