"""Measure-preserving maps, family invariants, conditional expectation."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
from conftest import blocks
from instances import GeneratorConfig, generate_family, generate_space
from stepskew.kernels import EPS_SUM

GEN = GeneratorConfig(
    seed=2222, n_points=(2, 5), family_style="mu-level-set-permutations"
)
GEN_U = GeneratorConfig(seed=2223, n_points=(2, 5))


def uniform3():
    return sk.uniform_space(("1", "2", "3"))


def test_empty_uniform_space_is_refused():
    with pytest.raises(sk.ValidationError, match="at least one point"):
        sk.uniform_space(())


# ---------------------------------------------------------------------------
# one map: the one-row case of the family check
# ---------------------------------------------------------------------------
def one_map(space, table):
    return sk.TransformationFamily.create(space, [table]).tables[0]


def test_three_cycle_valid():
    mp = one_map(uniform3(), [1, 2, 0])
    assert mp[0] == 1 and mp[2] == 0


def test_identity_valid():
    space = sk.FiniteMeasureSpace.create(("a", "b"), [0.7, 0.3])
    mp = one_map(space, [0, 1])
    assert list(mp) == [0, 1]


@pytest.mark.parametrize(
    "table",
    [[0.7, 1.2], [1.0, 0.0], np.array([1.0, 0.0]), [True, False], [False, True], ["1", "0"]],
)
def test_non_integer_table_is_refused(table):
    space = sk.uniform_space(("a", "b"))
    with pytest.raises(sk.ValidationError, match="integer point indices"):
        one_map(space, table)
    with pytest.raises(sk.ValidationError, match="integer point indices"):
        sk.TransformationFamily.create(space, [[0, 1], table])


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
def test_integer_table_is_returned_read_only_int64(dtype):
    table = np.array([1, 0], dtype=dtype)
    mp = one_map(sk.uniform_space(("a", "b")), table)
    assert mp.dtype == np.int64 and list(mp) == [1, 0] and not mp.flags.writeable
    assert table.flags.writeable  # the caller's array is left alone


def test_family_of_no_maps_is_refused_by_the_system():
    family = sk.TransformationFamily.create(uniform3(), [])
    assert family.n_states == 0 and family.tables.shape == (0, 3)
    spec = sk.trivial_kernel(sk.ProbVector.from_values([1.0]))
    with pytest.raises(sk.DimensionMismatch, match="0 maps"):
        sk.SkewSystem.create(spec, family)


def test_constant_map_rejected():
    space = sk.uniform_space(("a", "b"))
    with pytest.raises(sk.NotMeasurePreserving) as err:
        one_map(space, [0, 0])
    assert err.value.deviation == pytest.approx(0.5)


def test_level_swap_on_unequal_masses_rejected():
    space = sk.FiniteMeasureSpace.create(("a", "b"), [0.7, 0.3])
    with pytest.raises(sk.NotMeasurePreserving):
        one_map(space, [1, 0])


def test_off_support_points_are_free():
    # point 2 has zero mass; collapsing it onto the support is fine
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.5, 0.0])
    mp = one_map(space, [1, 0, 0])
    assert mp[2] == 0


def test_support_leak_rejected():
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.5, 0.0])
    with pytest.raises(sk.NotMeasurePreserving):
        one_map(space, [1, 2, 0])


def test_off_support_is_reported_before_non_injective():
    # c goes to zero-mass e, and b and d both go to b; the pushforward moves
    # only 1e-10, below tolerance, so both structural checks are reached
    mu = [0.5, 0.5 - 2e-10, 1e-10, 1e-10, 0.0]
    space = sk.FiniteMeasureSpace.create(("a", "b", "c", "d", "e"), mu)
    with pytest.raises(sk.NotMeasurePreserving, match="sends support points off-support"):
        one_map(space, [0, 1, 4, 1, 4])


def test_sub_tolerance_mass_shuffle_still_rejected():
    # pushforward deviation is below tolerance but the map is not injective
    # on the support; the structural assertion must catch it
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.5 - 1e-10, 1e-10])
    with pytest.raises(sk.NotMeasurePreserving):
        one_map(space, [0, 1, 1])


# Families whose first faulty row is not the first row, with the exception
# the family check raises: (type, message, point, deviation). The values are
# those the per-map check raised on the faulty row alone before the family
# was checked in one pass; the last two cases put a later row's fault of an
# earlier kind behind the first faulty row.
NOT_INTEGER = "map table must hold integer point indices, got {} entries"
SUB_TOL = 1.000000082740371e-10
FAULTY_FAMILIES = {
    "float": (
        [0.5, 0.5], [[1, 0], [0, 1], [0.0, 1.0]],
        (sk.ValidationError, NOT_INTEGER.format("float64"), None, None),
    ),
    "bool": (
        [0.5, 0.5], [[1, 0], [0, 1], [True, False]],
        (sk.ValidationError, NOT_INTEGER.format("bool"), None, None),
    ),
    "string": (
        [0.5, 0.5], [[1, 0], [0, 1], ["1", "0"]],
        (sk.ValidationError, NOT_INTEGER.format("<U1"), None, None),
    ),
    "short": (
        [0.5, 0.5], [[1, 0], [0, 1], [1]],
        (sk.DimensionMismatch, "map table has shape (1,), expected (2,)", None, None),
    ),
    "out_of_range": (
        [0.5, 0.5], [[1, 0], [0, 1], [1, 2]],
        (sk.ValidationError, "map table contains out-of-range point indices", None, None),
    ),
    "negative": (
        [0.5, 0.5], [[1, 0], [0, 1], [-1, 0]],
        (sk.ValidationError, "map table contains out-of-range point indices", None, None),
    ),
    "pushforward": (
        [0.4, 0.4, 0.2], [[1, 0, 2], [0, 1, 2], [0, 0, 2]],
        (
            sk.NotMeasurePreserving,
            "map is not measure preserving (worst point 0, deviation 4.000e-01)",
            0,
            0.4,
        ),
    ),
    "off_support": (
        [0.5, 0.5 - 2e-10, 1e-10, 1e-10, 0.0],
        [[0, 1, 3, 2, 4], [0, 1, 2, 3, 0], [0, 1, 4, 1, 4]],
        (
            sk.NotMeasurePreserving,
            "map is not measure preserving (worst point 1, deviation 1.000e-10): "
            "map sends support points off-support",
            1,
            SUB_TOL,
        ),
    ),
    "sub_tolerance_shuffle": (
        [0.25, 0.25, 0.5 - 1e-10, 1e-10], [[1, 0, 2, 3], [0, 1, 2, 3], [0, 1, 2, 2]],
        (
            sk.NotMeasurePreserving,
            "map is not measure preserving (worst point 2, deviation 1.000e-10): "
            "map is not injective on the support",
            2,
            SUB_TOL,
        ),
    ),
    "pushforward_before_float": (
        [0.5, 0.5], [[1, 0], [0, 0], [0.0, 1.0]],
        (
            sk.NotMeasurePreserving,
            "map is not measure preserving (worst point 0, deviation 5.000e-01)",
            0,
            0.5,
        ),
    ),
    "injectivity_before_range": (
        [0.25, 0.25, 0.5 - 1e-10, 1e-10], [[1, 0, 2, 3], [0, 1, 2, 2], [0, 1, 2, 4]],
        (
            sk.NotMeasurePreserving,
            "map is not measure preserving (worst point 2, deviation 1.000e-10): "
            "map is not injective on the support",
            2,
            SUB_TOL,
        ),
    ),
}


def family_forms(rows):
    """The rows as lists, as one array per row and, when they share a shape
    and an integer type, as one (n, k) array."""
    forms = {"lists": rows, "row arrays": [np.asarray(r) for r in rows]}
    table = np.asarray(rows) if len({len(r) for r in rows}) == 1 else None
    if table is not None and table.dtype.kind == "i" and not any(
        isinstance(v, bool) for r in rows for v in r
    ):
        forms["table"] = table
    return forms


@pytest.mark.parametrize("case", sorted(FAULTY_FAMILIES))
def test_family_check_raises_the_per_map_fault_of_the_first_faulty_row(case):
    mu, rows, (kind, message, point, deviation) = FAULTY_FAMILIES[case]
    space = sk.FiniteMeasureSpace.create(tuple("abcde"[: len(mu)]), mu)
    for form, tables in family_forms(rows).items():
        with pytest.raises(sk.ValidationError) as err:
            sk.TransformationFamily.create(space, tables)
        assert type(err.value) is kind, form
        assert str(err.value) == message, form
        assert getattr(err.value, "point", None) == point, form
        assert getattr(err.value, "deviation", None) == deviation, form
    # The faulty row alone gives the same fault, unless a row before it is
    # the first faulty one.
    if not case.endswith(("_before_float", "_before_range")):
        with pytest.raises(kind, match=re.escape(message)):
            one_map(space, rows[-1])


def test_family_check_leaves_the_callers_table_alone():
    table = np.array([[1, 0], [0, 1]], dtype=np.int32)
    family = sk.TransformationFamily.create(sk.uniform_space(("a", "b")), table)
    assert family.tables.dtype == np.int64 and not family.tables.flags.writeable
    assert table.flags.writeable and family.tables.base is not table


# ---------------------------------------------------------------------------
# family invariant partition / ergodicity
# ---------------------------------------------------------------------------
def test_cycle_pair_family_ergodic():
    family = sk.TransformationFamily.create(uniform3(), [[1, 2, 0], [2, 0, 1]])
    part = sk.family_invariant_partition(family, [0, 1])
    assert blocks(part) == (frozenset({0, 1, 2}),)
    assert part.trivial


def test_support_and_table_matrix_are_built_once():
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.5, 0.0])
    family = sk.TransformationFamily.create(space, [[1, 0, 2], [0, 1, 2]])
    supp = space.support
    assert supp.tolist() == [0, 1] and space.support is supp and space.mu.support is supp
    assert not supp.flags.writeable
    tables = family.tables
    assert tables.tolist() == [[1, 0, 2], [0, 1, 2]]
    assert family.tables is tables and not tables.flags.writeable


def test_identity_family_not_ergodic():
    space = sk.uniform_space(("a", "b", "c", "d"))
    family = sk.TransformationFamily.create(space, [[0, 1, 2, 3]])
    part = sk.family_invariant_partition(family, [0])
    assert part.n_blocks == 4
    assert not part.trivial


def test_id_and_swap_family_ergodic_with_swap_active():
    space = sk.uniform_space(("1", "2"))
    family = sk.TransformationFamily.create(space, [[0, 1], [1, 0]])
    part = sk.family_invariant_partition(family, [0, 1])
    assert blocks(part) == (frozenset({0, 1}),)
    assert part.trivial


def test_active_set_convention_pins_partition():
    # with only the identity state active the swap is invisible
    space = sk.uniform_space(("1", "2"))
    family = sk.TransformationFamily.create(space, [[0, 1], [1, 0]])
    assert sk.family_invariant_partition(family, [0]).n_blocks == 2
    assert sk.family_invariant_partition(family, [1]).n_blocks == 1


@pytest.mark.parametrize("bad", [2, -1, 0.5, 1.0, True, False, np.True_, "0"])
def test_family_partition_refuses_non_indices(bad):
    space = sk.uniform_space(("1", "2"))
    family = sk.TransformationFamily.create(space, [[0, 1], [1, 0]])
    with pytest.raises(sk.ValidationError, match="not a state index"):
        sk.family_invariant_partition(family, [bad])
    assert sk.family_invariant_partition(family, np.array([1])).n_blocks == 1


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_partition_blocks_are_invariant_and_finest(idx):
    space = generate_space(GEN, index=idx)
    family = generate_family(GEN, space, states=3, index=idx)
    part = sk.family_invariant_partition(family, range(3))
    supp = space.support.tolist()
    for y in range(3):
        t = family.tables[y]
        for block in blocks(part):
            assert {int(t[x]) for x in block} == set(block)
    # finest: every orbit edge stays inside one block and each block is a
    # single component of the orbit graph, so no strict refinement of the
    # blocks can be invariant
    idx_of = part.labels
    neighbors: dict[int, set[int]] = {int(x): set() for x in supp}
    for y in range(3):
        t = family.tables[y]
        for x in supp:
            assert idx_of[int(x)] == idx_of[int(t[x])]
            neighbors[int(x)].add(int(t[x]))
            neighbors[int(t[x])].add(int(x))
    for block in blocks(part):
        seen = {min(block)}
        frontier = [min(block)]
        while frontier:
            for nxt in neighbors[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(block)


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------
def test_condexp_ergodic_family_gives_mean():
    family = sk.TransformationFamily.create(uniform3(), [[1, 2, 0], [2, 0, 1]])
    f = np.array([1.0, 5.0, 3.0])
    out = sk.conditional_expectation(family, [0, 1], f)
    assert np.allclose(out, np.full(3, 3.0))


def test_condexp_identity_family_returns_f():
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.2, 0.3, 0.5])
    family = sk.TransformationFamily.create(space, [[0, 1, 2]])
    f = np.array([4.0, -1.0, 2.5])
    assert np.allclose(sk.conditional_expectation(family, [0], f), f)


def test_condexp_two_block_average():
    # blocks {0,1} and {2} on the uniform 3-point space; hand averages 3, 3
    family = sk.TransformationFamily.create(uniform3(), [[1, 0, 2]])
    out = sk.conditional_expectation(family, [0], [0.0, 6.0, 3.0])
    assert np.allclose(out, [3.0, 3.0, 3.0])


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_condexp_projection_and_mass(idx):
    space = generate_space(GEN, index=idx + 1000)
    family = generate_family(GEN, space, states=2, index=idx + 1000)
    rng = np.random.default_rng(idx)
    f = rng.normal(size=space.k)
    once = sk.conditional_expectation(family, range(2), f)
    twice = sk.conditional_expectation(family, range(2), once)
    assert np.abs(once - twice).max() <= 1e-12
    mu = space.mu.values
    assert abs(float(mu @ once) - float(mu @ f)) <= 1e-12


def per_block_condexp(family, active, f) -> np.ndarray:
    """The per-block loop: each invariant block gets mu @ f / mu.sum() over
    its points, in index order."""
    mu = family.space.mu.values
    out = np.zeros(family.space.k)
    for block in blocks(sk.family_invariant_partition(family, active)):
        idx = sorted(block)
        out[idx] = float(mu[idx] @ f[idx]) / float(mu[idx].sum())
    return out


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_condexp_matches_per_block_loop(idx):
    cfg = GeneratorConfig(seed=2224, n_points=(2, 40), family_style="mu-level-set-permutations")
    space = generate_space(cfg, index=idx)
    family = generate_family(cfg, space, states=3, index=idx)
    f = np.random.default_rng(idx).normal(size=space.k)
    got = sk.conditional_expectation(family, range(3), f)
    # The two sum in different orders: each side rounds two sums of at most
    # k terms, so they agree to within 2k ulps of max |f|.
    bound = 2 * space.k * np.finfo(float).eps * np.abs(f).max()
    assert np.abs(got - per_block_condexp(family, range(3), f)).max() <= bound


def test_condexp_zero_off_support():
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.5, 0.0])
    family = sk.TransformationFamily.create(space, [[1, 0, 2]])
    out = sk.conditional_expectation(family, [0], [1.0, 3.0, 9.0])
    assert out[2] == 0.0
    assert np.allclose(out[:2], [2.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_condexp_refuses_a_function_that_is_not_finite(bufetov_system, bad):
    # the check, and the message, of the ergodic entry points
    s = bufetov_system
    with pytest.raises(sk.ValidationError, match=re.escape(f"function value {bad} is not finite")):
        sk.conditional_expectation(s.family, s.spec.support, [bad, 0.0, 0.0])


def per_map_check(space, table) -> np.ndarray:
    """One map checked alone, in the order the family check keeps: shape,
    integer type, range, pushforward, support kept, injectivity. The
    reference the one-pass family check is compared against."""
    t = np.asarray(table)
    if t.shape != (space.k,):
        raise sk.DimensionMismatch(f"map table has shape {t.shape}, expected ({space.k},)")
    if t.dtype.kind not in "iu":
        raise sk.ValidationError(f"map table must hold integer point indices, got {t.dtype} entries")
    t = t.astype(np.int64)
    if t.min() < 0 or t.max() >= space.k:
        raise sk.ValidationError("map table contains out-of-range point indices")
    mu = space.mu.values
    dev = np.abs(np.bincount(t, weights=mu, minlength=space.k) - mu)
    worst = int(np.argmax(dev))
    if dev[worst] > EPS_SUM:
        raise sk.NotMeasurePreserving(worst, float(dev[worst]))
    hits = np.bincount(t[space.support], minlength=space.k)
    if hits[mu == 0].any():
        raise sk.NotMeasurePreserving(worst, float(dev[worst]), "map sends support points off-support")
    if hits.max() > 1:
        raise sk.NotMeasurePreserving(worst, float(dev[worst]), "map is not injective on the support")
    return t


def fault(call):
    try:
        call()
    except sk.ValidationError as e:
        return type(e), str(e), getattr(e, "point", None), getattr(e, "deviation", None)
    return None


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_family_check_matches_the_per_map_loop(idx):
    # Level-set permutations on a space with tied, zero and sub-tolerance
    # masses, some rows broken by a repeated image, an out-of-range index or
    # float entries.
    rng = np.random.default_rng(idx)
    k = int(rng.integers(2, 7))
    mu = rng.choice([0.0, 1e-10, 1.0, 2.0], size=k)
    mu[0] = max(mu[0], 1.0)
    space = sk.FiniteMeasureSpace.create(tuple("abcdefg"[:k]), mu / mu.sum())
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        row = np.arange(k)
        for level in np.unique(mu):
            pts = np.flatnonzero(mu == level)
            row[pts] = rng.permutation(pts)
        kind = rng.integers(0, 8)
        x, y = rng.integers(0, k, size=2)
        if kind == 0:
            row[x] = row[y]
        elif kind == 1:
            row[x] = k + int(y) if y % 2 else -1
        elif kind == 2:
            row = row.astype(float)
        rows.append(row.tolist() if rng.random() < 0.5 else row)
    want = next((f for f in (fault(lambda r=r: per_map_check(space, r)) for r in rows) if f), None)
    assert fault(lambda: sk.TransformationFamily.create(space, rows)) == want
    if want is None:
        tables = sk.TransformationFamily.create(space, rows).tables
        assert tables.tolist() == [per_map_check(space, r).tolist() for r in rows]
