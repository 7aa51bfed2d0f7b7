"""Strongly connected components: the small-graph Tarjan path against scipy."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from stepskew import graphs

CROSSOVER = graphs.SMALL_SCC_MAX_NODES


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
            assert graphs.strongly_connected_components(adj) == want


@given(digraphs())
@settings(max_examples=200, deadline=None)
def test_closed_components_agree_on_both_paths(adj):
    with _on_path(True):
        small = graphs.closed_components(adj)
    with _on_path(False):
        large = graphs.closed_components(adj)
    assert small == large


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
    "n, small", [(CROSSOVER, True), (CROSSOVER + 1, False)]
)
def test_crossover_routes_by_node_count(n, small):
    adj = _chained_cycles(n)
    want = scipy_components(adj)
    assert len(want) == -(-n // 5)
    with mock.patch.object(
        graphs, "_tarjan_components", wraps=graphs._tarjan_components
    ) as tarjan, mock.patch.object(
        graphs, "_scipy_components", wraps=graphs._scipy_components
    ) as scipy_path:
        got = graphs.strongly_connected_components(adj)
    assert got == want
    assert (tarjan.call_count, scipy_path.call_count) == ((1, 0) if small else (0, 1))
    assert graphs.closed_components(adj) == (want[-1],)


def test_path_splits_and_closing_it_joins():
    n = CROSSOVER
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = True
    assert graphs._tarjan_components(adj) == tuple(frozenset({v}) for v in range(n))
    adj[n - 1, 0] = True
    assert graphs._tarjan_components(adj) == (frozenset(range(n)),)
