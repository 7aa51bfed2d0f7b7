"""Connectivity machinery on exact zero/nonzero patterns.

Every structural verdict in the package reduces to connectivity of a graph
given by its edges, tails[i] -> heads[i], so everything here is
pattern-exact. Every partition is one read-only label array (`Partition`).

Strong connectivity runs an iterative Tarjan in pure Python on graphs of
at most SMALL_SCC_MAX_NODES nodes and delegates to scipy's csgraph above
that. Undirected components (the sim classes and the family-invariant
partition) come from a separate numpy labeller that hooks roots and jumps
pointers; it shares no code with either SCC route, so the paired
characterizations that compare the two stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Largest graph whose SCCs are found by the pure-Python Tarjan; larger ones
# go to scipy. Best of 5 on a 2-core x86 host, random digraphs with mean
# out-degree 2.5 (sparse) or half the entries set (dense), Tarjan / scipy:
# 6 nodes 15 / 160 us; 24 nodes 38 / 152 (sparse), 53 / 139 (dense);
# 48 nodes 62 / 145, 147 / 163; 64 nodes 76 / 221, 279 / 275. Building
# the csr_matrix costs over 100 us whatever the size, so the hand loop
# wins until the edge count of a dense graph catches up with it.
SMALL_SCC_MAX_NODES = 48


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

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as frozensets, in label order; built on first read."""
        members = np.flatnonzero(self.labels >= 0)
        return tuple(frozenset(members[idx].tolist()) for idx in indices_by_label(self.labels))


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
        return _tarjan_components(n, tails, heads)
    return _scipy_components(n, tails, heads)


def _scipy_components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    edges = csr_matrix((np.ones(len(tails), dtype=bool), (tails, heads)), shape=(n, n))
    ncomp, raw = connected_components(edges, directed=True, connection="strong")
    _, first = np.unique(raw, return_index=True)  # least member of each
    rank = np.empty(ncomp, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(ncomp)
    return _partition(rank[raw], ncomp)


def _tarjan_components(n: int, tails: np.ndarray, heads: np.ndarray) -> Partition:
    """Tarjan's SCC algorithm (1972) with an explicit call stack.

    A node's index is set to n once its component is emitted, so edges
    into finished components never lower a low-link.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for v, w in zip(tails.tolist(), heads.tolist()):
        succ[v].append(w)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        call = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while call:
            v, edges = call[-1]
            for w in edges:
                if index[w] < 0:
                    call.append((w, iter(succ[w])))
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v explored: v is finished
                call.pop()
                if call:
                    u = call[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component: pop it
                    k = stack.index(v)
                    comps.append(stack[k:])
                    for w in stack[k:]:
                        index[w] = n
                    del stack[k:]
    labels = [0] * n
    for c, comp in enumerate(sorted(comps, key=min)):
        for w in comp:
            labels[w] = c
    return _partition(np.array(labels, dtype=np.intp), len(comps))


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
