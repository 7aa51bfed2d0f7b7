"""Closed classes on the sim-block quotient, skew ergodicity, product
structure, and the two counterexample constructions, all cross-checked
against the double-loop pair kernel and enumeration."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
import stepskew.graphs
import stepskew.skew
from conftest import (
    blocks,
    cycle_class_labels,
    ergodic_family,
    periodic_system,
    reference_pair_kernel,
    report_classes,
    report_pairs,
    sorted_unions,
    spec_of,
    system_of,
)
from stepskew.gallery import GALLERY_NAMES, gallery_config
from stepskew.graphs import Partition, closed_components

GEN = sk.GeneratorConfig(
    seed=3333, n_states=(2, 4), n_points=(2, 4), degenerate_bias=0.35
)
# Up to 8 states, half of them stitched into alternating (non-strict) or
# absorbing (reducible) blocks; the absorbing ones leave zero-mass states.
QUOTIENT_GEN = sk.GeneratorConfig(seed=3335, n_states=(1, 8), degenerate_bias=0.5)
FOUR_STATE_BLOCK = [
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
]


def whole_matrix_fixed_dim(kernel: np.ndarray) -> int:
    """Fixed-space dimension from one SVD of P - I over all pairs."""
    s = scipy.linalg.svd(kernel - np.eye(len(kernel)), compute_uv=False)
    return int(np.sum(s <= 1e-10 * len(kernel)))


def oracle_classes(sys_: sk.SkewSystem) -> tuple[frozenset[int], ...]:
    kernel = reference_pair_kernel(sys_)
    return blocks(closed_components(len(kernel), *np.nonzero(kernel)))


# ---------------------------------------------------------------------------
# the pair chain's closed classes, on the sim-block quotient
# ---------------------------------------------------------------------------
def test_pair_chain_deterministic_rows(bufetov_system):
    kernel = reference_pair_kernel(bufetov_system)
    assert kernel.shape == (6, 6)
    assert ((kernel > 0).sum(axis=1) == 1).all()
    analysis = bufetov_system.closed_classes
    assert len(report_pairs(analysis)) == 6
    assert report_classes(analysis) == oracle_classes(bufetov_system)
    assert np.allclose(analysis.class_masses, 1 / 3)


def test_pair_chain_identity_family_edges():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[0, 1], [0, 1]])
    kernel = reference_pair_kernel(sys_)
    pos = {p: i for i, p in enumerate(report_pairs(sys_.closed_classes))}
    for (y, x), i in pos.items():
        for z in (0, 1):
            assert kernel[i, pos[(z, x)]] == pytest.approx(0.5)
    # one class per point, holding both states
    assert sys_.closed_classes.labels.tolist() == [[0, 1], [0, 1]]


def test_pair_chain_single_state_is_functional_graph():
    spec = spec_of([[1.0]], [1.0])
    sys_ = system_of(spec, [[1, 2, 0]])
    assert ((reference_pair_kernel(sys_) > 0).sum(axis=1) == 1).all()
    analysis = sys_.closed_classes
    assert report_pairs(analysis) == ((0, 0), (0, 1), (0, 2))
    assert analysis.labels.tolist() == [[0, 0, 0]]


def quotient_system(idx: int, zero_points: int, identity_share: float) -> sk.SkewSystem:
    """A QUOTIENT_GEN kernel with a random family of at most 64 active pairs.

    Zero-mass points are added here (the generators make none) and sent
    anywhere by the maps; a share of the maps fix every point, which makes
    wide class lattices.
    """
    spec = sk.generate_spec(QUOTIENT_GEN, index=idx)
    rng = np.random.default_rng(idx)
    positive = int(rng.integers(1, min(6, 64 // len(spec.support)) + 1))
    k = positive + zero_points
    weights = np.zeros(k)
    live = rng.permutation(k)[:positive]
    weights[live] = rng.integers(1, 3, size=positive)
    mu = weights / weights.sum()
    tables = []
    for _ in range(spec.n):
        table = rng.integers(0, k, size=k)
        table[live] = live
        if rng.random() >= identity_share:
            for level in np.unique(mu[mu > 0]):
                idx_level = np.flatnonzero(mu == level)
                table[idx_level] = rng.permutation(idx_level)
        tables.append(table)
    return system_of(spec, tables, mu=mu)


QUOTIENT_SYSTEMS = dict(
    idx=st.integers(min_value=0, max_value=10_000),
    zero_points=st.integers(min_value=0, max_value=2),
    identity_share=st.sampled_from([0.0, 0.5, 0.9]),
)


def counted_sections(sys_: sk.SkewSystem) -> tuple[frozenset[int], ...] | None:
    """Product sections by counting: the oracle for the grid-column rule.

    A class's pairs lie in (active states) x section and are distinct, so
    they fill it exactly when the counts match.
    """
    sections = []
    for _, points in sys_.closed_classes.class_weights:
        section = frozenset(points.tolist())
        if len(points) != len(sys_.spec.support) * len(section):
            return None
        sections.append(section)
    return tuple(sections)


def section_blocks(report: sk.ErgodicityReport) -> tuple[frozenset[int], ...] | None:
    return None if report.sections is None else blocks(report.sections)


@given(**QUOTIENT_SYSTEMS)
@settings(max_examples=150, deadline=None)
def test_pair_chain_matches_double_loop_build(idx, zero_points, identity_share):
    # The quotient's classes, derived lazily from the label grid, against
    # the double-loop kernel's closed components, as ordered tuples.
    sys_ = quotient_system(idx, zero_points, identity_share)
    spec, mu = sys_.spec, sys_.family.space.mu.values
    analysis = sys_.closed_classes
    want = tuple((int(y), int(x)) for y in spec.support for x in np.flatnonzero(mu))
    assert report_pairs(analysis) == want
    assert len(want) <= 64
    assert report_classes(analysis) == oracle_classes(sys_)
    for c, block in enumerate(report_classes(analysis)):
        assert {analysis.labels[want[i]] for i in block} == {c}
    assert (analysis.labels >= 0).sum() == len(want)
    assert section_blocks(analysis) == counted_sections(sys_)


@given(**QUOTIENT_SYSTEMS)
@settings(max_examples=100, deadline=None)
def test_pair_step_matches_double_loop_kernel(idx, zero_points, identity_share):
    # One private step on the (n, k) grid against the dense kernel over the
    # active pairs; zero-mass states and points stay exactly empty.
    sys_ = quotient_system(idx, zero_points, identity_share)
    active = sys_.closed_classes.labels >= 0
    mass = np.zeros(active.shape)
    mass[active] = np.random.default_rng(idx).random(int(active.sum()))
    stepped = sys_._pair_step(mass)
    assert np.abs(stepped[active] - mass[active] @ reference_pair_kernel(sys_)).max() <= 1e-14
    assert (stepped[~active] == 0).all()


def test_limits_and_basis_leave_pair_lists_unbuilt(bufetov_system, rotation_system):
    # On fresh copies. bufetov_period2 is not product-structured, so its
    # product check reads the strict routes; bernoulli_rotation's compares
    # the sections with the invariant partition.
    for base in (bufetov_system, rotation_system):
        spec = spec_of(base.spec.kernel.values, base.spec.m.values)
        sys_ = sk.SkewSystem.create(spec, base.family)
        f = np.arange(1.0, base.family.space.k + 1)
        sk.invariant_function_basis(sys_)
        sk.check_product_structure(sys_)
        sk.exact_birkhoff_limit(sys_, 0, 1, f)
        sk.exact_cesaro_limit(sys_, f, base.family.space.k - 1)
        # No partition caches anything beside its labels: they read labels only.
        partitions = [spec.sim, spec.dual_sim, sys_.family_partition, sys_.closed_classes.sections]
        assert all(set(vars(part)) == {"labels", "n_blocks"} for part in partitions if part is not None)


def test_pair_chain_skips_zero_mass_states_and_points():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    sys_ = system_of(spec, [[1, 0, 1], [0, 1, 0]], mu=[0.5, 0.5, 0.0])
    analysis = sys_.closed_classes
    assert report_pairs(analysis) == ((0, 0), (0, 1))
    assert analysis.labels.tolist() == [[0, 0, -1], [-1, -1, -1]]
    assert (reference_pair_kernel(sys_) == [[0.0, 1.0], [1.0, 0.0]]).all()


def test_closed_classes_rejects_transient_pairs():
    # Singletons are finer than this kernel's sim partition {0,1} {2,3}.
    # Each row then names its successor block by its first successor only,
    # so no edge enters the nodes of states 1 and 3: they are transient.
    spec = spec_of(FOUR_STATE_BLOCK, [0.25] * 4)
    spec.__dict__["sim"] = Partition(np.arange(4), 4)
    sys_ = system_of(spec, [[1, 0]] * 4)
    with pytest.raises(sk.InternalInconsistency, match="transient"):
        sys_.closed_classes


def test_closed_classes_reject_a_split_row_with_no_transient_node():
    # Forced blocks {0, 2} {1} split every row of this kernel's pattern,
    # yet each quotient node keeps an in-edge: nothing looks transient, and
    # without the guard the quotient gives two classes where there is one.
    cfg = sk.GeneratorConfig(seed=7, n_states=(3, 6), n_points=(1, 3), sparsity=2.0)
    spec = sk.generate_spec(cfg, index=0)
    assert spec.kernel.pattern.astype(int).tolist() == [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
    space = sk.generate_space(cfg, index=0)
    sys_ = sk.SkewSystem.create(spec, sk.generate_family(cfg, space, states=spec.n, index=0))
    spec.__dict__["sim"] = Partition(np.array([0, 1, 0]), 2)
    with pytest.raises(sk.InternalInconsistency, match=r"support of states \[0, 1, 2\]"):
        sys_.closed_classes


@given(
    idx=st.integers(min_value=0, max_value=10_000),
    raw=st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_closed_classes_raise_exactly_when_the_sim_partition_splits_a_row(idx, raw):
    # Any partition of the support, numbered by least member, in place of
    # the sim classes. It splits some active row's support exactly when the
    # sim partition does not refine it, and only then must it raise.
    sys_ = quotient_system(idx, 0, 0.5)
    spec = sys_.spec
    labels, first = np.full(spec.n, -1), {}
    for y in spec.support.tolist():
        labels[y] = first.setdefault(raw[y], len(first))
    spec.__dict__["sim"] = Partition(labels, len(first))
    rows = spec.kernel.pattern.tolist()
    split = [y for y in spec.support.tolist() if len({labels[z] for z in np.flatnonzero(rows[y])}) > 1]
    if split:
        with pytest.raises(sk.InternalInconsistency, match=re.escape(f"of states {split}")):
            sys_.closed_classes
    else:
        sys_.closed_classes


def test_closed_classes_run_no_strong_component_search(monkeypatch):
    # Every SCC of the pair chain is closed, so its classes are the
    # quotient's connected components, and no SCC route runs at any size.
    systems = [gallery_config(name).system for name in GALLERY_NAMES]
    systems += [quotient_system(idx, 1, 0.5) for idx in range(40)]
    rng = np.random.default_rng(8)
    for n, k in ((3, 5), (8, 200)):
        systems.append(periodic_system([rng.permutation(k) for _ in range(n)]))
    sizes = []
    components = stepskew.graphs._components
    monkeypatch.setattr(
        stepskew.graphs, "_components", lambda n, *e: sizes.append(n) or components(n, *e)
    )
    for sys_ in systems:
        sys_.closed_classes
    assert sizes == []
    spec_of([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])  # the kernel's classes do search
    assert sizes == [2]


def test_pair_chain_built_once_per_system(monkeypatch):
    builds = []
    real = stepskew.skew.quotient_class_grid

    def counting(sys_):
        builds.append(sys_)
        return real(sys_)

    monkeypatch.setattr(stepskew.skew, "quotient_class_grid", counting)
    spec = spec_of([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    sys_ = system_of(spec, [[1, 2, 0, 3], [2, 0, 1, 3]])
    f = np.array([1.0, 0.0, 0.0, 2.0])
    sys_.closed_classes
    sk.check_product_structure(sys_)
    sk.invariant_function_basis(sys_)
    for y in (0, 1):
        for x in range(4):
            sk.exact_birkhoff_limit(sys_, y, x, f)
    sk.exact_cesaro_limit(sys_, f, 0)
    sk.exact_cesaro_limit(sys_, f, 3)
    assert builds == [sys_]


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_pair_chain_stationarity(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    analysis = sys_.closed_classes  # passes its own invariance check
    stationary = np.array(
        [spec.m.values[y] * space.mu.values[x] for y, x in report_pairs(analysis)]
    )
    kernel = reference_pair_kernel(sys_)
    assert np.abs(stationary @ kernel - stationary).max() <= 1e-12
    assert analysis.class_masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_classes_at_ten_thousand_pairs_are_support_times_sigma_blocks():
    # Strictly irreducible kernel on 100 states and a 100-point family with
    # four planted sigma-blocks: the dense pair kernel would take 800 MB.
    n = k = 100
    rows = np.zeros((n, n))
    for y in range(n):
        rows[y, [y, (y + 1) % n, (y + 3) % n]] = 1 / 3
    spec = spec_of(rows, np.full(n, 1 / n))
    assert sk.is_strictly_irreducible(spec)
    cuts = [0, 10, 35, 60, 100]
    spans = list(zip(cuts, cuts[1:]))
    mu = np.concatenate([np.full(b - a, c + 1.0) for c, (a, b) in enumerate(spans)])
    mu /= mu.sum()
    rng = np.random.default_rng(100)
    tables = []
    for _ in range(n):
        table = np.arange(k)
        for a, b in spans:
            table[a:b] = a + rng.permutation(b - a)
        tables.append(table)
    sys_ = system_of(spec, tables, mu=mu)
    want = {frozenset(range(a, b)) for a, b in spans}
    assert set(blocks(sys_.family_partition)) == want
    report = sys_.closed_classes
    assert len(report_pairs(report)) == n * k
    assert len(report_classes(report)) == 4
    assert set(blocks(report.sections)) == want
    assert sk.check_product_structure(sys_)
    assert len(sk.invariant_function_basis(sys_)) == 4
    f = rng.random(k)
    cond = sk.conditional_expectation(sys_.family, spec.support, f)
    for y, x in [(0, 0), (37, 12), (99, 99), (50, 59), (3, 60)]:
        assert sk.exact_birkhoff_limit(sys_, y, x, f) == pytest.approx(cond[x], abs=1e-12)
    for x in range(0, k, 7):
        assert sk.exact_cesaro_limit(sys_, f, x) == pytest.approx(cond[x], abs=1e-12)


@st.composite
def periodic_systems(draw) -> sk.SkewSystem:
    """Random maps over a periodic driving chain of up to 7 states: up to 7
    points of positive mass, which each map permutes, and up to 2 of zero
    mass, which the maps send anywhere."""
    n = draw(st.integers(min_value=1, max_value=7))
    positive = draw(st.integers(min_value=1, max_value=7))
    k = positive + draw(st.integers(min_value=0, max_value=2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    live = rng.permutation(k)[:positive]
    mu = np.zeros(k)
    mu[live] = 1.0 / positive
    tables = rng.integers(0, k, size=(n, k))
    for table in tables:
        table[live] = rng.permutation(live)
    return periodic_system(tables, mu=mu)


@given(periodic_systems())
@settings(max_examples=200, deadline=None)
def test_periodic_driving_classes_are_the_pair_cycles(sys_):
    assert sys_.spec.sim.n_blocks == sys_.spec.n
    assert sys_.closed_classes.labels.tolist() == cycle_class_labels(sys_)


def test_periodic_driving_classes_at_ninety_thousand_pairs():
    # r = n = 300 sim blocks: a dense quotient adjacency would take 8.1 GB.
    rng = np.random.default_rng(300)
    sys_ = periodic_system([rng.permutation(300) for _ in range(300)])
    assert sys_.spec.sim.n_blocks == 300
    assert sys_.closed_classes.labels.tolist() == cycle_class_labels(sys_)


# ---------------------------------------------------------------------------
# SkewSystem.closed_classes: skew ergodicity
# ---------------------------------------------------------------------------
def test_skew_not_ergodic_with_third_mass_class(bufetov_system):
    report = bufetov_system.closed_classes
    assert not report.ergodic
    k = report.labels[0, 0]  # driving state 0, point "1"
    pairs = report_pairs(report)
    assert report.class_masses[k] == pytest.approx(1 / 3, abs=1e-12)
    assert {pairs[i] for i in report_classes(report)[k]} == {(0, 0), (1, 1)}
    assert not report.product_structured


def test_skew_ergodic_rotation(rotation_system):
    report = rotation_system.closed_classes
    assert report.ergodic
    assert report.product_structured
    assert report.class_masses[0] == pytest.approx(1.0, abs=1e-12)


def test_identity_family_never_ergodic():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.4, 0.6]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    report = sys_.closed_classes
    assert not report.ergodic
    assert len(report_classes(report)) == 3
    assert report.product_structured


# ---------------------------------------------------------------------------
# invariant_function_basis
# ---------------------------------------------------------------------------
def test_basis_ergodic_is_all_ones(rotation_system):
    basis = sk.invariant_function_basis(rotation_system)
    assert len(basis) == 1
    assert np.allclose(basis[0], 1.0)


def test_basis_three_class_indicators(bufetov_system):
    basis = sk.invariant_function_basis(bufetov_system)
    assert len(basis) == 3
    total = np.zeros(6)
    for g in basis:
        assert set(np.unique(g)) == {0.0, 1.0}
        total += g
    assert np.allclose(total, 1.0)


def test_basis_identity_family_strictly_irreducible():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.4, 0.6]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    basis = sk.invariant_function_basis(sys_)
    pairs = report_pairs(sys_.closed_classes)
    assert len(basis) == 3
    # each indicator is 1 (tensor) 1_C for a singleton block C of the fiber
    for g in basis:
        pts = {pairs[i][1] for i in np.flatnonzero(g)}
        states = {pairs[i][0] for i in np.flatnonzero(g)}
        assert len(pts) == 1
        assert states == {0, 1}


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_basis_satisfies_fixed_point_identity(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    kernel = reference_pair_kernel(sys_)
    for g in sk.invariant_function_basis(sys_):
        assert np.abs(kernel @ g - g).max() <= 1e-12


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_per_class_fixed_dim_matches_whole_matrix_svd(idx):
    cfg = sk.GeneratorConfig(seed=3334, n_states=(2, 8), n_points=(2, 8), degenerate_bias=0.35)
    spec = sk.generate_spec(cfg, index=idx)
    space = sk.generate_space(cfg, index=idx)
    family = sk.generate_family(cfg, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    assert len(report_pairs(sys_.closed_classes)) <= 64
    # one fixed direction per closed class (Perron-Frobenius on each)
    kernel = reference_pair_kernel(sys_)
    assert whole_matrix_fixed_dim(kernel) == len(sys_.closed_classes.class_masses)
    assert section_blocks(sys_.closed_classes) == counted_sections(sys_)


def test_per_class_fixed_dim_planted_three_classes():
    # point blocks {0,1,2}, {3,4} and {5} over a strictly irreducible kernel
    spec = spec_of([[0.5, 0.5], [0.3, 0.7]], [0.375, 0.625])
    sys_ = system_of(spec, [[1, 2, 0, 4, 3, 5], [2, 0, 1, 3, 4, 5]])
    analysis = sys_.closed_classes
    assert sorted(len(b) for b in report_classes(analysis)) == [2, 4, 6]
    assert whole_matrix_fixed_dim(reference_pair_kernel(sys_)) == 3
    assert len(sk.invariant_function_basis(sys_)) == 3


# ---------------------------------------------------------------------------
# check_product_structure
# ---------------------------------------------------------------------------
def test_product_structure_bufetov_false(bufetov_system):
    assert not sk.check_product_structure(bufetov_system)


def test_product_structure_guard_raises_on_strict_kernel(rotation_system):
    # A non-product answer over a strictly irreducible kernel is a bug.
    sys_ = sk.SkewSystem.create(rotation_system.spec, rotation_system.family)
    report = sys_.closed_classes
    sys_.__dict__["closed_classes"] = dataclasses.replace(report, sections=None)
    with pytest.raises(sk.TheoremViolation):
        sk.check_product_structure(sys_)


def test_product_structure_single_driving_state():
    spec = spec_of([[1.0]], [1.0])
    sys_ = system_of(spec, [[1, 0, 2]])
    assert sk.check_product_structure(sys_)


@given(st.integers(min_value=0, max_value=600))
@settings(max_examples=60, deadline=None)
def test_product_structure_true_for_strictly_irreducible(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if not sk.is_strictly_irreducible(spec):
        return
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    assert sk.check_product_structure(sk.SkewSystem.create(spec, family))


# ---------------------------------------------------------------------------
# counterexample constructions
# ---------------------------------------------------------------------------
def test_counterexample_period2_both_swap(period2_spec):
    sys_ = sk.build_counterexample_family(period2_spec)
    assert sys_.family.tables.tolist() == [[1, 0], [1, 0]]
    assert sys_.family_partition.trivial
    report = sys_.closed_classes
    assert not report.ergodic
    witness = sk.counterexample_invariant_set(period2_spec)
    pos = {p: i for i, p in enumerate(report_pairs(report))}
    mu = sys_.family.space.mu.values
    mass = sum(float(sys_.spec.m.values[y] * mu[x]) for y, x in witness)
    assert mass == pytest.approx(0.5, abs=1e-12)
    # the witness is a union of closed classes
    classes = report_classes(report)
    blocks = {classes[report.labels[p]] for p in witness}
    assert {i for b in blocks for i in b} == {pos[p] for p in witness}


def test_counterexample_not_applicable_when_strict():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.3, 0.7]))
    with pytest.raises(sk.NotApplicable):
        sk.build_counterexample_family(spec)


def test_counterexample_not_applicable_when_reducible():
    spec = spec_of(np.eye(2), [0.5, 0.5])
    with pytest.raises(sk.NotApplicable):
        sk.build_counterexample_family(spec)


def test_counterexample_four_state_block_spec():
    spec = spec_of(
        [
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
        ],
        [0.25] * 4,
    )
    sys_ = sk.build_counterexample_family(spec)
    report = sys_.closed_classes
    assert sys_.family_partition.trivial
    assert not report.ergodic
    assert not report.product_structured


def test_base_counterexample_identity_kernel_classes():
    # oracle (pair-graph enumeration) gives 3 closed classes and an
    # 8-element invariant-set lattice
    spec = spec_of(np.eye(2), [0.5, 0.5])
    sys_ = sk.build_base_counterexample(spec)
    report = sys_.closed_classes
    assert len(report_classes(report)) == 3
    assert not report.product_structured
    lattice = sk.brute_force_invariant_sets(sys_)
    assert len(lattice) == 8


def test_base_counterexample_block_diagonal():
    spec = spec_of(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ],
        [0.25] * 4,
    )
    sys_ = sk.build_base_counterexample(spec)
    report = sys_.closed_classes
    assert not report.ergodic
    assert not report.product_structured


def test_base_counterexample_not_applicable_when_irreducible(period2_spec):
    with pytest.raises(sk.NotApplicable):
        sk.build_base_counterexample(period2_spec)


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_base_counterexample_breaks_product_structure(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if sk.is_irreducible(spec):
        return
    report = sk.build_base_counterexample(spec).closed_classes
    assert not report.ergodic
    assert not report.product_structured


def reach_set_swap_states(spec: sk.MarkovSpec) -> list[int]:
    """Oracle for the base counterexample's swap states: the reach-set search
    over the support, which takes the first state b whose reachability
    closure misses part of the support and swaps the states in it."""
    supp = set(spec.support.tolist())
    for b in sorted(supp):
        u = sk.reach_set(spec, {b})
        if not supp <= u:
            return sorted(u)
    raise AssertionError("reducible kernel has no reachability witness")


@pytest.mark.parametrize("gen", [GEN, QUOTIENT_GEN], ids=["gen", "quotient_gen"])
def test_base_counterexample_matches_reach_set_search(gen):
    checked = 0
    for idx in range(300):
        spec = sk.generate_spec(gen, index=idx)
        if sk.is_irreducible(spec):
            continue
        swap = np.zeros(spec.n, dtype=bool)
        swap[reach_set_swap_states(spec)] = True
        tables = sk.build_base_counterexample(spec).family.tables
        assert tables.tolist() == np.where(swap[:, None], [1, 0], [0, 1]).tolist(), idx
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# equivalence-theorem properties (the full volume runs in acceptance)
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_forward_direction_sampled(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if not sk.is_strictly_irreducible(spec):
        return
    space = sk.generate_space(GEN, index=idx)
    family = ergodic_family(GEN, space, spec.n, index=idx, active=spec.support)
    if family is None:
        return
    assert sk.SkewSystem.create(spec, family).closed_classes.ergodic


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_converse_direction_sampled(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if sk.is_strictly_irreducible(spec) or not sk.is_irreducible(spec):
        return
    sys_ = sk.build_counterexample_family(spec)
    assert sys_.family_partition.trivial
    assert not sys_.closed_classes.ergodic


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_easy_direction(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    if sys_.closed_classes.ergodic:
        assert sk.family_invariant_partition(family, spec.support).trivial
        assert sk.is_irreducible(spec)


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=50, deadline=None)
def test_classes_match_brute_force_lattice(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    report = sys_.closed_classes
    if len(report_pairs(report)) > 16:
        return
    assert sk.brute_force_invariant_sets(sys_) == sorted_unions(report_classes(report))
