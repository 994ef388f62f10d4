import numpy as np
import pytest

from triadnet.errors import DataError
from triadnet.graphmetrics import LabeledGraph, assortativity, link_density


def graph_from_edges(n, edges, labels):
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    return LabeledGraph(a, labels)


def test_fully_intra_sector_is_exactly_one():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)], ["x", "x", "x", "y", "y", "y"])
    assert assortativity(g) == 1.0


def test_bipartite_between_sectors_is_negative():
    g = graph_from_edges(6, [(0, 3), (1, 4), (2, 5), (0, 4)], ["x", "x", "x", "y", "y", "y"])
    assert assortativity(g) < 0


def test_empty_and_single_label_undefined():
    with pytest.raises(DataError, match="undefined on an empty graph"):
        assortativity(graph_from_edges(4, [], ["x", "x", "y", "y"]))
    with pytest.raises(DataError, match="all linked nodes share one label"):
        assortativity(graph_from_edges(4, [(0, 1), (1, 2)], ["x", "x", "x", "y"]))


def test_relabeling_nodes_preserves_value(rng):
    n = 12
    a = (rng.random((n, n)) < 0.3).astype(np.int8)
    a = np.triu(a, 1)
    a = a + a.T
    labels = [f"s{i % 3}" for i in range(n)]
    g = LabeledGraph(a, labels)
    value = assortativity(g)
    perm = rng.permutation(n)
    g2 = LabeledGraph(a[np.ix_(perm, perm)], [labels[i] for i in perm])
    assert assortativity(g2) == pytest.approx(value, abs=1e-12)


def test_label_shuffle_null_mean_near_zero(rng):
    n = 40
    a = (rng.random((n, n)) < 0.3).astype(np.int8)
    a = np.triu(a, 1)
    a = a + a.T
    g = LabeledGraph(a, ["s0"] * n)
    assert g.m >= 200
    labels = np.array([f"s{i % 4}" for i in range(n)])
    values = []
    for _ in range(100):
        rng.shuffle(labels)
        values.append(assortativity(LabeledGraph(a, labels.tolist())))
    assert abs(np.mean(values)) < 0.05


def test_assortativity_always_finite_with_two_labels(rng):
    for _ in range(25):
        n = int(rng.integers(4, 15))
        a = (rng.random((n, n)) < 0.4).astype(np.int8)
        a = np.triu(a, 1)
        a = a + a.T
        if a.sum() == 0:
            continue
        labels = [f"s{i % 2}" for i in range(n)]
        try:
            value = assortativity(LabeledGraph(a, labels))
        except DataError:
            continue
        assert np.isfinite(value)
        assert -1 - 1e-12 <= value <= 1 + 1e-12


def test_link_density():
    complete = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], ["a"] * 4)
    assert link_density(complete) == 1.0
    empty = graph_from_edges(4, [], ["a"] * 4)
    assert link_density(empty) == 0.0
    three = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], ["a"] * 4)
    assert link_density(three) == 0.5
    with pytest.raises(DataError):
        link_density(graph_from_edges(1, [], ["a"]))


def test_labeled_graph_validation():
    with pytest.raises(DataError):
        LabeledGraph(np.array([[0, 1], [0, 0]], dtype=np.int8), ("a", "b"))
    with pytest.raises(DataError):
        LabeledGraph(np.zeros((2, 2), dtype=np.int8), ("a",))
