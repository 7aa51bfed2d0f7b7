"""The characterization checked on every small pattern, not on samples.

Every 0/1 kernel pattern with nonempty rows on n <= 3 states (343 at
n = 3) gets uniform row weights, and m the uniform mix of its closed
classes' stationary vectors. Each spec drives every Id/swap family on a
uniform 2-point fiber (2,744 systems at n = 3). The brute-force oracles
of tests/instances.py share no code with the predicates they check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import stepskew as sk
from instances import brute_force_deterministic_sets, brute_force_invariant_sets

ID, SWAP = [0, 1], [1, 0]


def all_specs(n: int):
    """Every pattern on n states with nonempty rows, as a spec."""
    rows = [r for r in itertools.product([0.0, 1.0], repeat=n) if any(r)]
    for pattern in itertools.product(rows, repeat=n):
        kernel = sk.StochasticMatrix.from_rows([np.divide(r, sum(r)) for r in pattern])
        closed = kernel.closed_classes
        m = np.zeros(n)
        for c in range(closed.n_blocks):
            idx = np.flatnonzero(closed.labels == c)
            sub = sk.StochasticMatrix.from_rows(kernel.values[np.ix_(idx, idx)])
            m[idx] += sk.stationary_distribution(sub).values / closed.n_blocks
        yield sk.validate_spec(kernel, sk.ProbVector.from_values(m))


def minimal_sets(sets) -> list[frozenset]:
    """The nonempty sets with no nonempty proper subset among sets."""
    nonempty = [s for s in sets if s]
    return [s for s in nonempty if not any(t < s for t in nonempty)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_characterization_on_every_small_pattern(n):
    space = sk.uniform_space(("1", "2"))
    families = [
        sk.TransformationFamily.create(space, tables)
        for tables in itertools.product([ID, SWAP], repeat=n)
    ]
    strict_count = irreducible_count = 0
    for spec in all_specs(n):
        strict = sk.is_strictly_irreducible(spec)  # raises unless the four routes agree
        assert list(spec.deterministic_sets) == brute_force_deterministic_sets(spec)
        broken = False
        for family in families:
            sys_ = sk.SkewSystem.create(spec, family)
            report = sys_.closed_classes
            assert len(report.class_masses) == len(minimal_sets(brute_force_invariant_sets(sys_)))
            ergodic_family = sys_.family_partition.trivial
            broken |= ergodic_family and not report.ergodic
            if strict:
                assert sk.check_product_structure(sys_)
                assert report.ergodic or not ergodic_family
        strict_count += strict
        if sk.is_irreducible(spec) and not strict:
            irreducible_count += 1
            counter = sk.build_counterexample_family(spec)
            assert counter.family_partition.trivial
            assert not counter.closed_classes.ergodic
            assert broken
    # strict, and irreducible but not strict, out of 1, 9 and 343 patterns
    assert (strict_count, irreducible_count) == {1: (1, 0), 2: (7, 1), 3: (271, 41)}[n]
