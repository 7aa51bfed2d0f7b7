"""Pair chain construction, skew ergodicity, product structure, and the two
counterexample constructions, all cross-checked against enumeration."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
import stepskew.skew
from conftest import ergodic_family, spec_of, system_of, union_closure

GEN = sk.GeneratorConfig(
    seed=3333, n_states=(2, 4), n_points=(2, 4), degenerate_bias=0.35
)


def reference_pair_kernel(sys_: sk.SkewSystem) -> np.ndarray:
    """The pair kernel by the original per-pair double loop."""
    spec, family = sys_.spec, sys_.family
    states = [(int(y), int(x)) for y in spec.support for x in family.space.support]
    pos = {p: i for i, p in enumerate(states)}
    kernel = np.zeros((len(states), len(states)))
    kv = spec.kernel.values
    for i, (y, x) in enumerate(states):
        tx = int(family.maps[y].table[x])
        for z in spec.kernel.row_support(y):
            kernel[i, pos[(int(z), tx)]] += kv[y, int(z)]
    return kernel


def whole_matrix_fixed_dim(chain) -> int:
    """Fixed-space dimension from one SVD of P - I over all pairs."""
    s = scipy.linalg.svd(chain.kernel - np.eye(chain.size), compute_uv=False)
    return int(np.sum(s <= 1e-10 * chain.size))


# ---------------------------------------------------------------------------
# build_pair_chain
# ---------------------------------------------------------------------------
def test_pair_chain_deterministic_rows(bufetov_system):
    chain = sk.build_pair_chain(bufetov_system)
    assert chain.size == 6
    assert ((chain.kernel > 0).sum(axis=1) == 1).all()
    assert np.allclose(chain.stationary, np.full(6, 1 / 6))


def test_pair_chain_identity_family_edges():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[0, 1], [0, 1]])
    chain = sk.build_pair_chain(sys_)
    pos = chain.index()
    for (y, x), i in pos.items():
        for z in (0, 1):
            assert chain.kernel[i, pos[(z, x)]] == pytest.approx(0.5)


def test_pair_chain_single_state_is_functional_graph():
    spec = spec_of([[1.0]], [1.0])
    sys_ = system_of(spec, [[1, 2, 0]])
    chain = sk.build_pair_chain(sys_)
    assert chain.size == 3
    assert ((chain.kernel > 0).sum(axis=1) == 1).all()


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_pair_chain_matches_double_loop_build(idx):
    # generated kernels include zero-mass states; points get zero mass here,
    # and the maps send zero-mass points anywhere
    spec = sk.generate_spec(GEN, index=idx)
    rng = np.random.default_rng(idx)
    k = int(rng.integers(2, 6))
    weights = rng.integers(0, 3, size=k).astype(float)
    weights[int(rng.integers(0, k))] = 1.0
    mu = weights / weights.sum()
    tables = []
    for _ in range(spec.n):
        table = rng.integers(0, k, size=k)
        for level in np.unique(mu[mu > 0]):
            idx_level = np.flatnonzero(mu == level)
            table[idx_level] = rng.permutation(idx_level)
        tables.append(table)
    sys_ = system_of(spec, tables, mu=mu)
    chain = sk.build_pair_chain(sys_)
    assert (chain.kernel == reference_pair_kernel(sys_)).all()


def test_pair_chain_skips_zero_mass_states_and_points():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    sys_ = system_of(spec, [[1, 0, 1], [0, 1, 0]], mu=[0.5, 0.5, 0.0])
    chain = sk.build_pair_chain(sys_)
    assert chain.states == ((0, 0), (0, 1))
    assert (chain.kernel == reference_pair_kernel(sys_)).all()
    assert (chain.kernel == [[0.0, 1.0], [1.0, 0.0]]).all()


def test_closed_classes_rejects_transient_pairs():
    kernel = np.array([[0.0, 1.0], [0.0, 1.0]])
    chain = sk.PairChain(((0, 0), (0, 1)), kernel, np.array([0.0, 1.0]))
    with pytest.raises(sk.InternalInconsistency):
        chain.closed_classes()


def test_pair_chain_built_once_per_system(monkeypatch):
    builds = []
    real = stepskew.skew.build_pair_chain

    def counting(sys_):
        builds.append(sys_)
        return real(sys_)

    monkeypatch.setattr(stepskew.skew, "build_pair_chain", counting)
    spec = spec_of([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    sys_ = system_of(spec, [[1, 2, 0, 3], [2, 0, 1, 3]])
    f = np.array([1.0, 0.0, 0.0, 2.0])
    sk.is_skew_ergodic(sys_)
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
    chain = sk.build_pair_chain(sk.SkewSystem.create(spec, family))
    assert np.abs(chain.stationary @ chain.kernel - chain.stationary).max() <= 1e-12
    assert chain.stationary.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# is_skew_ergodic
# ---------------------------------------------------------------------------
def test_skew_not_ergodic_with_third_mass_class(bufetov_system):
    report = sk.is_skew_ergodic(bufetov_system)
    assert not report.ergodic
    pos = {p: i for i, p in enumerate(report.pair_states)}
    target = report.classes.block_of(pos[(0, 0)])  # driving state 0, point "1"
    k = report.classes.blocks.index(target)
    assert report.class_masses[k] == pytest.approx(1 / 3, abs=1e-12)
    assert {report.pair_states[i] for i in target} == {(0, 0), (1, 1)}
    assert not report.product_structured


def test_skew_ergodic_rotation(rotation_system):
    report = sk.is_skew_ergodic(rotation_system)
    assert report.ergodic
    assert report.product_structured
    assert report.class_masses[0] == pytest.approx(1.0, abs=1e-12)


def test_identity_family_never_ergodic():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.4, 0.6]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    report = sk.is_skew_ergodic(sys_)
    assert not report.ergodic
    assert len(report.classes.blocks) == 3
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
    chain = sk.build_pair_chain(sys_)
    assert len(basis) == 3
    # each indicator is 1 (tensor) 1_C for a singleton block C of the fiber
    for g in basis:
        pts = {chain.states[i][1] for i in np.flatnonzero(g)}
        states = {chain.states[i][0] for i in np.flatnonzero(g)}
        assert len(pts) == 1
        assert states == {0, 1}


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_basis_satisfies_fixed_point_identity(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    chain = sk.build_pair_chain(sys_)
    for g in sk.invariant_function_basis(sys_):
        assert np.abs(chain.kernel @ g - g).max() <= 1e-12


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_per_class_fixed_dim_matches_whole_matrix_svd(idx):
    cfg = sk.GeneratorConfig(seed=3334, n_states=(2, 8), n_points=(2, 8), degenerate_bias=0.35)
    spec = sk.generate_spec(cfg, index=idx)
    space = sk.generate_space(cfg, index=idx)
    family = sk.generate_family(cfg, space, states=spec.n, index=idx)
    analysis = sk.SkewSystem.create(spec, family).pair_analysis
    assert analysis.chain.size <= 64
    assert analysis.fixed_space_dim() == whole_matrix_fixed_dim(analysis.chain)
    assert analysis.fixed_space_dim() == len(analysis.classes)


def test_per_class_fixed_dim_planted_three_classes():
    # point blocks {0,1,2}, {3,4} and {5} over a strictly irreducible kernel
    spec = spec_of([[0.5, 0.5], [0.3, 0.7]], [0.375, 0.625])
    sys_ = system_of(spec, [[1, 2, 0, 4, 3, 5], [2, 0, 1, 3, 4, 5]])
    analysis = sys_.pair_analysis
    assert sorted(len(b) for b in analysis.classes) == [2, 4, 6]
    assert analysis.fixed_space_dim() == whole_matrix_fixed_dim(analysis.chain) == 3
    assert len(sk.invariant_function_basis(sys_)) == 3


# ---------------------------------------------------------------------------
# check_product_structure
# ---------------------------------------------------------------------------
def test_product_structure_bufetov_false(bufetov_system):
    assert not sk.check_product_structure(bufetov_system)


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
    assert [list(m.table) for m in sys_.family.maps] == [[1, 0], [1, 0]]
    assert sk.is_family_ergodic(sys_.family, period2_spec.support)
    report = sk.is_skew_ergodic(sys_)
    assert not report.ergodic
    witness = sk.counterexample_invariant_set(period2_spec)
    pos = {p: i for i, p in enumerate(report.pair_states)}
    mu = sys_.family.space.mu.values
    mass = sum(float(sys_.spec.m.values[y] * mu[x]) for y, x in witness)
    assert mass == pytest.approx(0.5, abs=1e-12)
    # the witness is a union of closed classes
    blocks = {report.classes.block_of(pos[p]) for p in witness}
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
    report = sk.is_skew_ergodic(sys_)
    assert sk.is_family_ergodic(sys_.family, spec.support)
    assert not report.ergodic
    assert not report.product_structured


def test_base_counterexample_identity_kernel_classes():
    # oracle (pair-graph enumeration) gives 3 closed classes and an
    # 8-element invariant-set lattice
    spec = spec_of(np.eye(2), [0.5, 0.5])
    sys_ = sk.build_base_counterexample(spec)
    report = sk.is_skew_ergodic(sys_)
    assert len(report.classes.blocks) == 3
    assert not report.product_structured
    lattice = sk.brute_force_invariant_sets(sk.build_pair_chain(sys_))
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
    report = sk.is_skew_ergodic(sys_)
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
    report = sk.is_skew_ergodic(sk.build_base_counterexample(spec))
    assert not report.ergodic
    assert not report.product_structured


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
    assert sk.is_skew_ergodic(sk.SkewSystem.create(spec, family)).ergodic


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_converse_direction_sampled(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if sk.is_strictly_irreducible(spec) or not sk.is_irreducible(spec):
        return
    sys_ = sk.build_counterexample_family(spec)
    assert sk.is_family_ergodic(sys_.family, spec.support)
    assert not sk.is_skew_ergodic(sys_).ergodic


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=60, deadline=None)
def test_easy_direction(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    if sk.is_skew_ergodic(sys_).ergodic:
        assert sk.is_family_ergodic(family, spec.support)
        assert sk.is_irreducible(spec)


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=50, deadline=None)
def test_classes_match_brute_force_lattice(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    chain = sk.build_pair_chain(sys_)
    if chain.size > 16:
        return
    report = sk.is_skew_ergodic(sys_)
    assert set(sk.brute_force_invariant_sets(chain)) == union_closure(
        report.classes.blocks
    )
