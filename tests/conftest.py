"""Shared builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stepskew as sk
from instances import generate_family
from stepskew.graphs import Partition, indices_by_label


def fresh_python(code: str, *args: str, flags=(), **env: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this stepskew, with args
    as its sys.argv[1:], flags as its own options and env over this
    process's environment; text output captured."""
    src = str(Path(sk.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=dict(os.environ, **env, PYTHONPATH=path), capture_output=True, text=True,
    )


def spec_of(rows, m) -> sk.MarkovSpec:
    return sk.validate_spec(
        sk.StochasticMatrix.from_rows(rows), sk.ProbVector.from_values(m)
    )


def system_of(spec, tables, mu=None, points=None) -> sk.SkewSystem:
    k = len(tables[0])
    if points is None:
        points = tuple(str(i) for i in range(k))
    if mu is None:
        mu = np.full(k, 1.0 / k)
    space = sk.FiniteMeasureSpace.create(points, mu)
    family = sk.TransformationFamily.create(space, tables)
    return sk.SkewSystem.create(spec, family)


def reference_pair_kernel(sys_: sk.SkewSystem) -> np.ndarray:
    """The dense pair kernel by the per-pair double loop: row (y, x) gives
    weight k(y, z) to (z, T_y(x)), over the active pairs in lexicographic
    order. The test oracle for the pair chain's classes."""
    spec, family = sys_.spec, sys_.family
    states = [(int(y), int(x)) for y in spec.support for x in family.space.support]
    pos = {p: i for i, p in enumerate(states)}
    kernel = np.zeros((len(states), len(states)))
    kv = spec.kernel.values
    for i, (y, x) in enumerate(states):
        tx = int(family.tables[y, x])
        for z in np.flatnonzero(spec.kernel.pattern[y]):
            kernel[i, pos[(int(z), tx)]] += kv[y, int(z)]
    return kernel


def periodic_system(tables, mu=None) -> sk.SkewSystem:
    """The maps over the periodic driving chain y -> y + 1 (mod n) with
    uniform m, so every state is its own sim block (r = n)."""
    n = len(tables)
    spec = spec_of(np.roll(np.eye(n), 1, axis=1), np.full(n, 1.0 / n))
    return system_of(spec, tables, mu=mu)


def cycle_class_labels(sys_: sk.SkewSystem) -> list[list[int]]:
    """The pair chain's classes over a periodic driving chain, as an n x k
    grid numbered by first pair in lexicographic order, -1 off the active
    pairs. Each pair (y, x) has the one successor (y + 1 mod n, T_y(x)),
    so the chain permutes the active pairs and its classes are the cycles:
    a pure-Python walk in O(n k), the oracle for r = n."""
    tables = sys_.family.tables.tolist()
    on = (sys_.family.space.mu.values > 0).tolist()
    n, k = len(tables), len(on)
    labels = [[-1] * k for _ in range(n)]
    count = 0
    for start in range(n):
        for first in range(k):
            if not on[first] or labels[start][first] >= 0:
                continue
            y, x = start, first
            while labels[y][x] < 0:
                labels[y][x] = count
                y, x = (y + 1) % n, tables[y][x]
            count += 1
    return labels


def blocks(part: Partition) -> tuple[frozenset[int], ...]:
    """A partition's blocks as frozensets, in label order."""
    members = np.flatnonzero(part.labels >= 0)
    return tuple(frozenset(members[idx].tolist()) for idx in indices_by_label(part.labels))


def report_pairs(report: sk.ErgodicityReport) -> tuple[tuple[int, int], ...]:
    """The active (state, point) pairs of a report's label grid, in
    lexicographic order, by a pure-Python scan: the oracle for the pair
    indices that class blocks and basis vectors use."""
    grid = report.labels.tolist()
    return tuple((y, x) for y, row in enumerate(grid) for x, c in enumerate(row) if c >= 0)


def report_classes(report: sk.ErgodicityReport) -> tuple[frozenset[int], ...]:
    """The closed classes as frozensets of indices into report_pairs, in
    label order, by a pure-Python scan of the label grid."""
    blocks: list[set[int]] = [set() for _ in report.class_masses]
    labels = [c for row in report.labels.tolist() for c in row if c >= 0]
    for i, c in enumerate(labels):
        blocks[c].add(i)
    return tuple(map(frozenset, blocks))


def sorted_unions(blocks, max_size=None) -> list[frozenset]:
    """The unions of disjoint blocks by doubling the list once per block,
    sorted by (size, sorted members): the eager enumeration that the lazy
    deterministic-set lattice must reproduce entry for entry. With max_size,
    unions larger than it are never built; the order puts them last, so the
    result is still a prefix of the full order."""
    limit = float("inf") if max_size is None else max_size
    sets = [frozenset()]
    for block in blocks:
        sets += [s | block for s in sets if len(s) + len(block) <= limit]
    sets.sort(key=lambda s: (len(s), sorted(s)))
    return sets


def ergodic_family(cfg, space, n_states, index, active=None, tries=60):
    """First generated family (by salted index) ergodic over the active states."""
    if active is None:
        active = range(n_states)
    for t in range(tries):
        fam = generate_family(cfg, space, n_states, index=index * tries + t)
        if sk.family_invariant_partition(fam, active).trivial:
            return fam
    return None


@pytest.fixture(scope="session")
def period2_spec():
    return spec_of([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])


@pytest.fixture(scope="session")
def bufetov_system():
    from stepskew.cli import config_system
    from stepskew.gallery import gallery_config

    return config_system(gallery_config("bufetov_period2"))


@pytest.fixture(scope="session")
def rotation_system():
    from stepskew.cli import config_system
    from stepskew.gallery import gallery_config

    return config_system(gallery_config("bernoulli_rotation"))
