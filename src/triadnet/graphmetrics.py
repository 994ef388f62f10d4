"""Network-level statistics on validated networks: assortativity and density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError

# Networks below this link count give a noisy assortativity; callers report a
# null marker instead of a value.
MIN_LINKS_FOR_ASSORTATIVITY = 10


@dataclass(eq=False)
class LabeledGraph:
    """Undirected 0/1 adjacency with one category label per node."""

    adjacency: np.ndarray
    labels: tuple

    def __post_init__(self):
        self.labels = tuple(self.labels)
        n = len(self.labels)
        if self.adjacency.shape != (n, n):
            raise DataError("graph has a label for every node exactly")
        if not np.array_equal(self.adjacency, self.adjacency.T):
            raise DataError("adjacency must be symmetric")
        if not ((self.adjacency == 0) | (self.adjacency == 1)).all():
            raise DataError("adjacency entries must be 0 or 1")
        if n and not (np.diag(self.adjacency) == 0).all():
            raise DataError("adjacency diagonal must be 0")

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
        raise UndefinedMetricError("assortativity undefined on an empty graph")
    codes = {lab: i for i, lab in enumerate(sorted(set(g.labels)))}
    lab = np.array([codes[x] for x in g.labels])
    k = g.adjacency.sum(axis=1).astype(np.int64)
    same = lab[:, None] == lab[None, :]
    intra = int(g.adjacency[same].sum())
    class_degree = np.bincount(lab, weights=k.astype(float), minlength=len(codes))
    expected = float((class_degree ** 2).sum()) / two_m
    denominator = two_m - expected
    if denominator <= 0:
        raise UndefinedMetricError(
            "assortativity undefined: all linked nodes share one label"
        )
    return (intra - expected) / denominator


def link_density(g: LabeledGraph, n: int) -> float:
    """Fraction of the n*(n-1)/2 possible links that are present."""
    if n < 2:
        raise DataError("link density needs at least 2 nodes")
    return g.m / (n * (n - 1) / 2)
