"""Connectivity machinery on exact zero/nonzero patterns.

Every structural verdict in the package reduces to connectivity of a graph
given by its edges, tails[i] -> heads[i], so everything here is
pattern-exact. Every partition is one read-only label array (`Partition`).

Strong connectivity squares a reach matrix in numpy on graphs of at most
SMALL_SCC_MAX_NODES nodes and delegates to scipy's csgraph above that;
scipy is imported on the first such graph, not with the package. Only
kernel-level graphs reach it. Undirected components (the sim classes, the
family-invariant partition and the pair chain's closed classes) come from
a separate numpy labeller that hooks roots and jumps pointers; it shares
no code with either SCC route, so the sim and Gram strict routes stay
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest graph whose SCCs come from the transitive closure; larger ones go
# to scipy. Best of 7 on a 2-core x86 host with one BLAS thread, over 5
# random digraphs with mean out-degree 2.5 (sparse) or half the entries set
# (dense), closure / scipy: 6 nodes 16-28 / 135-237 us; 48 nodes 49-62 /
# 139-159 (sparse), 38-40 / 159-166 (dense); 64 nodes 92-97 / 143-153,
# 60-114 / 176-182; 80 nodes 152-156 / 145-156, 90-108 / 194-215. Building
# the csr_matrix costs over 100 us whatever the size, and the squarings grow
# as n^3 log n, so sparse graphs meet scipy near 80 nodes. The largest
# graphs the benchmark workloads build are pair_scaling's 40-state kernels
# and their Gram graphs; the quotients go to the undirected labeller.
SMALL_SCC_MAX_NODES = 64


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint blocks covering a ground set of integer indices.

    Stands in for a finite sigma-algebra: the measurable sets are exactly
    the unions of blocks. labels is a read-only intp array over the index
    range: labels[i] is the block of i, or -1 when i is outside the ground
    set, and the n_blocks blocks are numbered by their least member.
    """

    labels: np.ndarray
    n_blocks: int

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.labels, other.labels)

    @property
    def trivial(self) -> bool:
        return self.n_blocks <= 1


def indices_by_label(labels: np.ndarray) -> list[np.ndarray]:
    """For each label of a label array, in label order, the positions of its
    members among the elements labelled >= 0, in index (row-major) order."""
    kept = labels[labels >= 0]
    counts = np.bincount(kept)
    # numpy sorts keys of at most 16 bits stably by radix, in linear time.
    order = np.argsort(kept.astype(np.min_scalar_type(len(counts))), kind="stable")
    ends = np.cumsum(counts).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def _partition(labels: np.ndarray, n_blocks: int) -> Partition:
    labels.setflags(write=False)
    return Partition(labels, n_blocks)


def undirected_components(ground: np.ndarray, u: np.ndarray, v: np.ndarray) -> Partition:
    """Connected components of the undirected graph on the ground set (a
    boolean mask over the index range) with an edge between each pair of
    entries of u and v, broadcast together; every edge must join two ground
    elements.

    Each round hooks every root that an edge joins to a smaller root under
    the smallest of those roots (Shiloach and Vishkin 1982), then jumps
    every pointer to its root; edges inside one tree drop out. A parent
    never exceeds its child, so each root is the least member of its tree.
    """
    index = np.arange(len(ground))
    parent = index.copy()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    while np.count_nonzero(between := lo != hi):
        lo, hi = lo[between], hi[between]
        np.minimum.at(parent, hi, lo)
        up = parent[parent]
        while np.count_nonzero(up != parent):
            parent, up = up, up[up]
        lo, hi = parent[lo], parent[hi]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    roots = ground & (parent == index)
    rank = np.where(ground, roots.cumsum() - 1, -1)
    return _partition(rank[parent], int(np.count_nonzero(roots)))


def strongly_connected_components(adj: np.ndarray) -> Partition:
    """SCCs of the digraph of a boolean adjacency matrix, over all its nodes."""
    return _components(adj.shape[0], *np.nonzero(adj))


def _components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    """SCCs of the digraph on range(n) with edges tails[i] -> heads[i]."""
    if n <= SMALL_SCC_MAX_NODES:
        return _closure_components(n, tails, heads)
    return _scipy_components(n, tails, heads)


def _scipy_components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    from scipy.sparse import csr_matrix  # loading scipy.sparse takes about 0.3 s
    from scipy.sparse.csgraph import connected_components

    edges = csr_matrix((np.ones(len(tails), dtype=bool), (tails, heads)), shape=(n, n))
    ncomp, raw = connected_components(edges, directed=True, connection="strong")
    _, first = np.unique(raw, return_index=True)  # least member of each
    rank = np.empty(ncomp, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(ncomp)
    return _partition(rank[raw], ncomp)


def _closure_components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    """SCCs by transitive closure: square the 0/1 reach matrix until it spans
    paths of n - 1 edges or stops growing. Its products count intermediate
    nodes, so every entry is an integer of at most n, exact in float64 in
    any summation order."""
    if n == 0:  # argmax needs an axis to reduce
        return _partition(np.zeros(0, dtype=np.intp), 0)
    reach = np.eye(n)
    reach[tails, heads] = 1.0
    known, span = 0, 1  # reach holds every path of at most span edges
    while span < n - 1 and (found := np.count_nonzero(reach)) > known:
        known, span, reach = found, 2 * span, np.minimum(reach @ reach, 1.0)
    # mutual reach is symmetric with a true diagonal, so each column's first
    # true entry is the least member of the node's component
    first = (reach * reach.T).argmax(axis=0)
    roots = first == np.arange(n)
    return _partition((roots.cumsum() - 1)[first], int(np.count_nonzero(roots)))


def closed_components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    """The SCCs that no edge tails[i] -> heads[i] leaves; others are labelled -1.

    For a stochastic matrix's pattern these are its closed communicating
    classes; their count is the dimension of the matrix's fixed space.
    """
    scc = _components(n, tails, heads)
    tail = scc.labels[tails]
    closed = np.ones(scc.n_blocks, dtype=bool)
    closed[tail[tail != scc.labels[heads]]] = False
    rank = np.where(closed, closed.cumsum() - 1, -1)
    return _partition(rank[scc.labels], int(np.count_nonzero(closed)))
