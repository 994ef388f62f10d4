"""Network-level statistics on validated networks: assortativity and density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import _check_symmetric

# Networks below this link count give a noisy assortativity; callers report a
# null marker instead of a value.
MIN_LINKS_FOR_ASSORTATIVITY = 10


def _check_adjacency(adjacency: np.ndarray, n: int) -> None:
    """Raise DataError unless `adjacency` is a symmetric n x n 0/1 matrix with zero diagonal."""
    _check_symmetric(adjacency, n, "adjacency", 0)
    if not ((adjacency == 0) | (adjacency == 1)).all():
        raise DataError("adjacency entries must be 0 or 1")


@dataclass(eq=False)
class LabeledGraph:
    """Undirected 0/1 adjacency with one category label per node."""

    adjacency: np.ndarray
    labels: tuple

    def __post_init__(self):
        self.labels = tuple(self.labels)
        _check_adjacency(self.adjacency, len(self.labels))

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return int(self.adjacency.sum()) // 2


def assortativity(g: LabeledGraph) -> float:
    """Configuration-adjusted tendency of links to join same-label nodes.

    Sums run over ordered node pairs including i=j in the expectation term;
    isolated nodes carry zero degree and drop out. Undefined (and raised as
    such) for empty graphs or when every linked node shares one label.
    """
    two_m = int(g.adjacency.sum())
    if two_m == 0:
        raise DataError("assortativity undefined on an empty graph")
    codes = {lab: i for i, lab in enumerate(sorted(set(g.labels)))}
    lab = np.array([codes[x] for x in g.labels])
    k = g.adjacency.sum(axis=1).astype(np.int64)
    same = lab[:, None] == lab[None, :]
    intra = int(g.adjacency[same].sum())
    class_degree = np.bincount(lab, weights=k.astype(float), minlength=len(codes))
    expected = float((class_degree ** 2).sum()) / two_m
    denominator = two_m - expected
    if denominator <= 0:
        raise DataError("assortativity undefined: all linked nodes share one label")
    return (intra - expected) / denominator


def link_density(g: LabeledGraph) -> float:
    """Fraction of the n*(n-1)/2 possible links among the graph's n nodes that are present."""
    n = g.n_nodes
    if n < 2:
        raise DataError("link density needs at least 2 nodes")
    return g.m / (n * (n - 1) / 2)
