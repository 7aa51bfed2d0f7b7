"""Strongly connected components: the small-graph transitive closure against
scipy, on boolean matrices and on repeated, shuffled edge lists; undirected
components: the hooking labeller against a union-find, and its round count;
grouping by label against its definition; the scipy route from a cold start."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import blocks, fresh_python
from stepskew import graphs

CROSSOVER = graphs.SMALL_SCC_MAX_NODES


class DisjointSets:
    """Union-find over range(n) with path halving: the labeller's oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def union_find_labels(size, members, u, v) -> list[int]:
    """Block of each index by union-find, blocks numbered by least member,
    -1 off members."""
    dsu = DisjointSets(size)
    for a, b in zip(u, v):
        dsu.union(int(a), int(b))
    number: dict[int, int] = {}
    member = set(int(i) for i in members)
    return [number.setdefault(dsu.find(i), len(number)) if i in member else -1 for i in range(size)]


def scipy_components(adj: np.ndarray) -> tuple[frozenset[int], ...]:
    """The oracle: scipy's labels, grouped and put in canonical order."""
    if adj.shape[0] == 0:
        return ()
    _, labels = connected_components(csr_matrix(adj), directed=True, connection="strong")
    groups: dict[int, set[int]] = {}
    for v, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


@st.composite
def digraphs(draw):
    """Boolean digraphs up to 8 nodes past the crossover.

    Entries are random at a drawn density, so self-loops occur; drawn nodes
    then lose every edge (isolated) and drawn rows lose their out-edges.
    """
    n = draw(st.integers(min_value=0, max_value=CROSSOVER + 8))
    density = draw(st.sampled_from([0.0, 0.02, 0.08, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    adj = np.random.default_rng(seed).random((n, n)) < density
    if n:
        nodes = st.integers(min_value=0, max_value=n - 1)
        for v in draw(st.lists(nodes, max_size=4)):
            adj[v, :] = False
            adj[:, v] = False
        for v in draw(st.lists(nodes, max_size=4)):
            adj[v, :] = False
    return adj


def _on_path(small: bool):
    """Route every graph to one path, whatever its size."""
    return mock.patch.object(
        graphs, "SMALL_SCC_MAX_NODES", 10**9 if small else -1
    )


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_small_path_matches_scipy(adj):
    want = scipy_components(adj)
    for small in (True, False):
        with _on_path(small):
            got = graphs.strongly_connected_components(adj)
            assert blocks(got) == want and got.n_blocks == len(want)


@given(digraphs())
@settings(max_examples=200, deadline=None)
def test_closed_components_agree_on_both_paths(adj):
    with _on_path(True):
        small = graphs.closed_components(len(adj), *np.nonzero(adj))
    with _on_path(False):
        large = graphs.closed_components(len(adj), *np.nonzero(adj))
    assert small.labels.tolist() == large.labels.tolist()
    closed = set(blocks(small))
    assert small.n_blocks == len(closed)
    assert closed <= set(scipy_components(adj))
    # every node outside the closed classes reaches out of its component
    for block in set(scipy_components(adj)) - closed:
        assert adj[sorted(block)][:, sorted(set(range(len(adj))) - block)].any()


@given(digraphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_repeated_and_shuffled_edges_on_both_paths(adj, seed):
    # A quotient graph has one edge per pair, so its edges repeat; each edge
    # here comes 1 to 3 times, in a shuffled order.
    rng = np.random.default_rng(seed)
    tails, heads = np.nonzero(adj)
    copies = rng.integers(1, 4, len(tails))
    order = rng.permutation(int(copies.sum()))
    tails, heads = np.repeat(tails, copies)[order], np.repeat(heads, copies)[order]
    want = scipy_components(adj)
    others = [sorted(set(range(len(adj))) - b) for b in want]
    closed = tuple(b for b, rest in zip(want, others) if not adj[sorted(b)][:, rest].any())
    for small in (True, False):
        with _on_path(small):
            assert blocks(graphs._components(len(adj), tails, heads)) == want
            got = graphs.closed_components(len(adj), tails, heads)
        assert blocks(got) == closed and got.n_blocks == len(closed)


def _chained_cycles(n: int) -> np.ndarray:
    """Cycles of 5 nodes (the last one shorter), each feeding the next."""
    adj = np.zeros((n, n), dtype=bool)
    starts = list(range(0, n, 5))
    for s in starts:
        members = list(range(s, min(s + 5, n)))
        for a, b in zip(members, members[1:] + members[:1]):
            adj[a, b] = True
    for s, nxt in zip(starts, starts[1:]):
        adj[s, nxt] = True
    return adj


@pytest.mark.parametrize(
    "n, small", [(CROSSOVER, True), (CROSSOVER + 1, False)], ids=["at-split", "above-split"]
)
def test_crossover_routes_by_node_count(n, small):
    adj = _chained_cycles(n)
    want = scipy_components(adj)
    assert len(want) == -(-n // 5)
    with mock.patch.object(
        graphs, "_closure_components", wraps=graphs._closure_components
    ) as closure, mock.patch.object(
        graphs, "_scipy_components", wraps=graphs._scipy_components
    ) as scipy_path:
        got = graphs.strongly_connected_components(adj)
    assert blocks(got) == want
    assert (closure.call_count, scipy_path.call_count) == ((1, 0) if small else (0, 1))
    assert blocks(graphs.closed_components(len(adj), *np.nonzero(adj))) == (want[-1],)


COLD_SCC = """
import json, sys
import numpy as np
from stepskew import graphs
assert "scipy" not in sys.modules
adj = np.array(json.loads(sys.argv[1]), dtype=bool)
part = graphs.strongly_connected_components(adj)
assert "scipy" in sys.modules
print(json.dumps([part.labels.tolist(), part.n_blocks]))
"""


def test_scipy_route_imports_scipy_from_cold():
    # a fresh interpreter, so scipy is first imported inside the large route
    adj = _chained_cycles(CROSSOVER + 1)
    run = fresh_python(COLD_SCC, json.dumps(adj.tolist()))
    assert run.returncode == 0, run.stderr
    labels, n_blocks = json.loads(run.stdout)
    assert blocks(graphs.Partition(np.array(labels), n_blocks)) == scipy_components(adj)
    assert labels == graphs._closure_components(len(adj), *np.nonzero(adj)).labels.tolist()


def test_path_splits_and_closing_it_joins():
    n = CROSSOVER
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = True
    assert blocks(graphs._closure_components(n, *np.nonzero(adj))) == tuple(frozenset({v}) for v in range(n))
    adj[n - 1, 0] = True
    assert blocks(graphs._closure_components(n, *np.nonzero(adj))) == (frozenset(range(n)),)


@st.composite
def undirected_graphs(draw):
    """(ground, u, v): up to 60 indices, a drawn subset of them as
    members, and edges between members, so non-members, isolated members,
    self-loops and repeated edges all occur; or a path through up to 2000
    indices in shuffled order, which takes many hooking rounds."""
    if draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=2000))
        ids = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(size)
        return np.ones(size, dtype=bool), ids[:-1], ids[1:]
    size = draw(st.integers(min_value=0, max_value=60))
    members = np.flatnonzero(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    if len(members):
        ends = st.integers(min_value=0, max_value=len(members) - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * size))
    else:
        edges = []
    u = members[[a for a, _ in edges]].astype(np.intp)
    v = members[[b for _, b in edges]].astype(np.intp)
    ground = np.zeros(size, dtype=bool)
    ground[members] = True
    return ground, u, v


@given(undirected_graphs())
@settings(max_examples=300, deadline=None)
def test_labeller_matches_union_find(graph):
    ground, u, v = graph
    members = np.flatnonzero(ground)
    part = graphs.undirected_components(ground, u, v)
    assert part.labels.tolist() == union_find_labels(len(ground), members, u, v)
    assert not part.labels.flags.writeable
    assert part.n_blocks == len(blocks(part))
    assert sorted(i for b in blocks(part) for i in b) == members.tolist()


class _CountingNumpy:
    """numpy, counting count_nonzero calls: the labeller makes one to start
    each hooking round and one per pointer jump."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        self.calls += 1
        return np.count_nonzero(a)


def test_labeller_on_a_shuffled_path_and_a_star():
    # Shuffled ids on a long path take many hooking rounds; in a star whose
    # centre is the largest id, every leaf's root meets the centre's. Hooking
    # the centre under the smallest leaf joins them all in a few rounds;
    # hooking under an arbitrary smaller root (parent[hi] = lo) would merge
    # one leaf per round.
    rng = np.random.default_rng(7)
    n = 5000
    ids = rng.permutation(n)
    ground = np.ones(n, dtype=bool)
    path = graphs.undirected_components(ground, ids[:-1], ids[1:])
    assert path.labels.tolist() == [0] * n
    u, v = np.delete(ids[:-1], 99), np.delete(ids[1:], 99)
    cut = graphs.undirected_components(ground, u, v)
    assert cut.labels.tolist() == union_find_labels(n, range(n), u, v)
    assert cut.n_blocks == 2
    counting = _CountingNumpy()
    with mock.patch.object(graphs, "np", counting):
        star = graphs.undirected_components(ground, np.full(n - 1, n - 1), np.arange(n - 1))
    assert star.trivial and star.n_blocks == 1
    assert counting.calls <= 12


@given(st.lists(st.integers(-1, 6), max_size=40))
def test_blocks_and_indices_by_label_group_by_label(raw):
    # any -1 / 0..b-1 label array; the definition: block c is {i : labels[i] == c}
    raw = np.array(raw, dtype=np.intp)
    used = np.unique(raw[raw >= 0])
    labels = np.where(raw >= 0, np.searchsorted(used, raw), -1)
    want = [np.flatnonzero(labels == c).tolist() for c in range(len(used))]
    part = graphs.Partition(labels, len(used))
    assert blocks(part) == tuple(map(frozenset, want))
    members = np.flatnonzero(labels >= 0)
    assert [members[idx].tolist() for idx in graphs.indices_by_label(labels)] == want


def test_empty_graph_and_partition():
    part = graphs.undirected_components(np.zeros(0, dtype=bool), np.arange(0), np.arange(0))
    assert part.labels.tolist() == [] and part.n_blocks == 0 and blocks(part) == ()
    empty = graphs.strongly_connected_components(np.zeros((0, 0), dtype=bool))
    assert blocks(empty) == () and empty.n_blocks == 0
