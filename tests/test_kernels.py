"""Kernel structure: validation, reachability, irreducibility, reversal,
and the four-route strict-irreducibility decision."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
import stepskew.kernels
from conftest import blocks, sorted_unions, spec_of
from stepskew.gallery import GALLERY_NAMES, gallery_config
from stepskew.graphs import strongly_connected_components

GEN = sk.GeneratorConfig(seed=1111, n_states=(2, 6), sparsity=2.5, degenerate_bias=0.35)
WIDE_GEN = sk.GeneratorConfig(seed=1112, n_states=(20, 90), sparsity=12.0, degenerate_bias=0.35)


# ---------------------------------------------------------------------------
# validate_spec
# ---------------------------------------------------------------------------
def test_validate_period2(period2_spec):
    assert period2_spec.n == 2
    assert period2_spec.support.tolist() == [0, 1]


def test_validate_one_state_identity():
    spec = spec_of([[1.0]], [1.0])
    assert spec.support.tolist() == [0]


def test_validate_rejects_non_invariant():
    # residual of the invariance equation is 0.8, far over tolerance
    with pytest.raises(sk.NotInvariant):
        spec_of([[0.0, 1.0], [1.0, 0.0]], [0.9, 0.1])


def test_validate_dimension_mismatch():
    with pytest.raises(sk.DimensionMismatch):
        sk.validate_spec(
            sk.StochasticMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
            sk.ProbVector.from_values([1.0]),
        )


def test_row_not_stochastic_names_row():
    with pytest.raises(sk.RowNotStochastic) as err:
        sk.StochasticMatrix.from_rows([[1.0, 0.0], [0.5, 0.4]])
    assert err.value.row == 1
    assert err.value.deviation == pytest.approx(0.1)


def test_ingestion_snaps_tiny_entries():
    sm = sk.StochasticMatrix.from_rows([[1e-13, 1.0 - 1e-13], [1.0, 0.0]])
    assert sm.values[0, 0] == 0.0
    assert not sm.pattern[0, 0]
    assert sm.values[0].sum() == pytest.approx(1.0, abs=1e-15)


def test_support_closure_asserted():
    # m puts no mass on state 1 but state 0 feeds it: not invariant
    with pytest.raises(sk.NotInvariant):
        spec_of([[0.5, 0.5], [0.0, 1.0]], [1.0, 0.0])


def test_support_leak_names_first_leaking_state():
    # m lives on {0, 2} and both support rows leak 1e-10 to zero-mass states,
    # below the invariance tolerance; the first leaking row is reported
    kernel = sk.StochasticMatrix.from_rows(
        [
            [1.0 - 2e-10, 1e-10, 0.0, 1e-10],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 1e-10, 1.0 - 1e-10, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    m = sk.ProbVector.from_values([0.5, 0.0, 0.5, 0.0])
    with pytest.raises(sk.NotInvariant) as err:
        sk.validate_spec(kernel, m)
    assert str(err.value).endswith(
        ": state 0 gives positive mass to zero-mass states [1, 3]"
    )


def test_mass_on_a_transient_state_is_refused():
    # m K = (0, 1) is within tolerance of m, and no mass leaks off the
    # support, but state 0 is transient: nothing returns to it
    kernel = sk.StochasticMatrix.from_rows([[0.0, 1.0], [0.0, 1.0]])
    m = sk.ProbVector.from_values([1e-10, 0.9999999999])
    with pytest.raises(sk.NotInvariant) as err:
        sk.validate_spec(kernel, m)
    assert str(err.value).endswith(": state 0 has positive mass but is transient")


def test_pattern_and_closed_classes_are_cached_and_read_only():
    sm = sk.StochasticMatrix.from_rows([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert sm.pattern is sm.pattern and sm.closed_classes is sm.closed_classes
    assert sm.closed_classes.labels.tolist() == [-1, 0, 1]
    with pytest.raises(ValueError):
        sm.pattern[0, 0] = True


def test_closed_classes_are_decided_once_per_kernel(monkeypatch):
    calls = []
    real = stepskew.kernels.closed_components

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(stepskew.kernels, "closed_components", counting)
    period2 = gallery_config("bufetov_period2")
    # stationary vector solved: one closed class, so irreducible
    spec = replace(period2, stationary=None).spec
    assert sk.is_irreducible(spec) and sk.is_irreducible(spec)
    with pytest.raises(sk.NotApplicable):
        sk.build_base_counterexample(spec)
    assert calls == [2]
    # stationary vector (0.5, 0.5) supplied, on two closed classes
    calls.clear()
    spec = replace(period2, kernel=((1.0, 0.0), (0.0, 1.0))).spec
    assert not sk.is_irreducible(spec) and not sk.is_irreducible(spec)
    sk.build_base_counterexample(spec)
    assert calls == [2]


def test_negative_entries_rejected():
    with pytest.raises(sk.ValidationError):
        sk.ProbVector.from_values([1.5, -0.5])
    with pytest.raises(sk.ValidationError):
        sk.StochasticMatrix.from_rows([[1.1, -0.1], [0.5, 0.5]])


def test_non_square_kernel_rejected():
    with pytest.raises(sk.DimensionMismatch):
        sk.StochasticMatrix.from_rows([[0.5, 0.5]])


def test_prob_vector_sum_tolerance():
    with pytest.raises(sk.ValidationError):
        sk.ProbVector.from_values([0.7, 0.7])
    v = sk.ProbVector.from_values([0.3333333333, 0.3333333333, 0.3333333333])
    assert v.values.sum() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# stationary_distribution
# ---------------------------------------------------------------------------
def test_stationary_period2():
    sm = sk.StochasticMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
    m = sk.stationary_distribution(sm)
    assert np.allclose(m.values, [0.5, 0.5], atol=1e-12)


def test_stationary_refuses_identity():
    sm = sk.StochasticMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(sk.MultipleStationary):
        sk.stationary_distribution(sm)


@pytest.mark.parametrize("eps", [1e-10, 1e-11])
def test_stationary_weak_coupling(eps):
    # one closed class however weak the coupling above the ingestion cut
    sm = sk.StochasticMatrix.from_rows([[1 - eps, eps], [eps, 1 - eps]])
    m = sk.stationary_distribution(sm)
    assert np.allclose(m.values, [0.5, 0.5], atol=1e-12)


def test_stationary_refuses_two_closed_classes_with_transient_state():
    sm = sk.StochasticMatrix.from_rows([[1.0, 0.0, 0.0], [0.3, 0.4, 0.3], [0.0, 0.0, 1.0]])
    with pytest.raises(sk.MultipleStationary):
        sk.stationary_distribution(sm)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_stationary_unique_exactly_when_one_closed_class(idx):
    kernel = sk.generate_spec(GEN, index=idx).kernel
    s = scipy.linalg.svd(kernel.values.T - np.eye(kernel.n), compute_uv=False)
    try:
        m = sk.stationary_distribution(kernel)
    except sk.MultipleStationary:
        assert int(np.sum(s <= 1e-9)) > 1
        return
    assert int(np.sum(s <= 1e-9)) == 1
    assert np.abs(m.values @ kernel.values - m.values).max() <= 1e-12


def test_stationary_symmetric():
    sm = sk.StochasticMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
    m = sk.stationary_distribution(sm)
    assert np.allclose(m.values, [0.5, 0.5], atol=1e-12)


def test_stationary_with_transient_state():
    # both states jump to 0, so m = (1, 0) and state 1 is transient
    sm = sk.StochasticMatrix.from_rows([[1.0, 0.0], [1.0, 0.0]])
    m = sk.stationary_distribution(sm)
    assert np.allclose(m.values, [1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# reach_set
# ---------------------------------------------------------------------------
def test_reach_period2(period2_spec):
    assert sk.reach_set(period2_spec, {0}) == frozenset({0, 1})


def test_reach_empty_target(period2_spec):
    assert sk.reach_set(period2_spec, set()) == frozenset()


def test_reach_identity_kernel():
    spec = spec_of(np.eye(2), [0.5, 0.5])
    assert sk.reach_set(spec, {0}) == {0}


# Not state indices of a 2- or 3-state kernel: out of range, negative, a
# float, bools (which numpy would read as 1 and 0) and a string.
NOT_STATES = [99, 3, -1, 0.9, 1.0, True, False, np.True_, "0"]


@pytest.mark.parametrize("bad", NOT_STATES)
def test_reach_set_refuses_non_indices(period2_spec, bad):
    with pytest.raises(sk.ValidationError, match="not a state index"):
        sk.reach_set(period2_spec, {bad})
    assert sk.reach_set(period2_spec, np.array([1])) == {0, 1}


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_reach_positive_mass_and_closure(idx):
    spec = sk.generate_spec(GEN, index=idx)
    supp = spec.support.tolist()
    rng = np.random.default_rng(idx)
    b = {int(y) for y in rng.choice(supp, size=rng.integers(1, len(supp) + 1), replace=False)}
    u = sk.reach_set(spec, b)
    assert spec.m.values[sorted(u)].sum() > 0
    # no structural escape from outside U into U
    outside = set(spec.support.tolist()) - u
    for y in outside:
        assert not any(int(z) in u for z in np.flatnonzero(spec.kernel.pattern[int(y)]))


# ---------------------------------------------------------------------------
# is_irreducible
# ---------------------------------------------------------------------------
def test_irreducible_period2(period2_spec):
    assert sk.is_irreducible(period2_spec)


def test_irreducible_identity_false():
    assert not sk.is_irreducible(spec_of(np.eye(2), [0.5, 0.5]))


def test_irreducible_two_components_false():
    spec = spec_of(
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [0.25, 0.25, 0.5]
    )
    assert not sk.is_irreducible(spec)


def _has_nontrivial_absorbing(spec):
    """Brute force: a set with 0 < m(B) < 1 whose rows stay inside it."""
    supp = spec.support.tolist()
    masks = {y: {int(z) for z in np.flatnonzero(spec.kernel.pattern[y])} for y in supp}
    for sub in range(1, (1 << len(supp)) - 1):
        b = {supp[k] for k in range(len(supp)) if sub >> k & 1}
        if all(masks[y] <= b for y in b):
            return True
    return False


@pytest.mark.parametrize(
    "cfg", [GEN, sk.GeneratorConfig(seed=1113, n_states=(1, 8), degenerate_bias=0.5)]
)
def test_irreducible_matches_one_scc_on_the_support(cfg):
    # the SCC search over the support pattern that is_irreducible replaced
    verdicts = set()
    for idx in range(300):
        spec = sk.generate_spec(cfg, index=idx)
        supp = spec.support
        want = strongly_connected_components(spec.kernel.pattern[np.ix_(supp, supp)]).n_blocks == 1
        assert sk.is_irreducible(spec) == want, idx
        verdicts.add(want)
    assert verdicts == {True, False}


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_irreducibility_matches_absorbing_search(idx):
    spec = sk.generate_spec(GEN, index=idx)
    assert sk.is_irreducible(spec) == (not _has_nontrivial_absorbing(spec))


# ---------------------------------------------------------------------------
# reverse_kernel
# ---------------------------------------------------------------------------
def test_reverse_doubly_stochastic_is_transpose():
    rows = [[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]]
    spec = spec_of(rows, [1 / 3] * 3)
    assert np.allclose(sk.reverse_kernel(spec).values, np.array(rows).T)


def test_reverse_period2_fixed(period2_spec):
    assert np.allclose(
        sk.reverse_kernel(period2_spec).values, period2_spec.kernel.values
    )


def test_reverse_formula_evaluation():
    spec = spec_of([[0.5, 0.5], [1.0, 0.0]], [2 / 3, 1 / 3])
    assert np.allclose(sk.reverse_kernel(spec).values, [[0.5, 0.5], [1.0, 0.0]])


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_reverse_involution_and_invariance(idx):
    spec = sk.generate_spec(GEN, index=idx)
    rev = sk.reverse_kernel(spec)
    # m stays invariant
    assert np.abs(spec.m.values @ rev.values - spec.m.values).max() <= 1e-9
    supp = spec.support
    back = sk.reverse_kernel(sk.validate_spec(rev, spec.m))
    # involution holds in the mass-weighted (almost-everywhere) sense; the
    # unweighted gap can reach the stationarity residual divided by the
    # smallest positive mass
    weighted = spec.m.values[:, None] * (back.values - spec.kernel.values)
    assert np.abs(weighted[np.ix_(supp, supp)]).max() <= 1e-9
    assert np.allclose(
        back.values[np.ix_(supp, supp)],
        spec.kernel.values[np.ix_(supp, supp)],
        atol=1e-6,
    )


# ---------------------------------------------------------------------------
# sim classes / dual classes
# ---------------------------------------------------------------------------
def test_sim_classes_period2(period2_spec):
    assert blocks(sk.sim_classes(period2_spec)) == (frozenset({0}), frozenset({1}))
    assert blocks(sk.dual_sim_classes(period2_spec)) == (frozenset({0}), frozenset({1}))


def test_sim_classes_bernoulli_single():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.25, 0.25, 0.5]))
    assert sk.sim_classes(spec).trivial
    assert sk.dual_sim_classes(spec).trivial


def test_sim_classes_identity_singletons():
    spec = spec_of(np.eye(3), [1 / 3] * 3)
    assert sk.sim_classes(spec).n_blocks == 3


def test_dual_sim_one_point_support():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    assert blocks(sk.dual_sim_classes(spec)) == (frozenset({0}),)
    assert blocks(sk.sim_classes(spec)) == (frozenset({0}),)


# ---------------------------------------------------------------------------
# strict irreducibility
# ---------------------------------------------------------------------------
def test_strict_period2_false(period2_spec):
    assert not sk.is_strictly_irreducible(period2_spec)


def test_strict_trivial_kernel_true():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.2, 0.3, 0.5]))
    assert sk.is_strictly_irreducible(spec)


def test_strict_one_state_true():
    assert sk.is_strictly_irreducible(spec_of([[1.0]], [1.0]))


def test_strict_cyclic_overlap_true():
    # brute-force enumeration finds only the trivial deterministic sets
    spec = spec_of(
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], [1 / 3] * 3
    )
    assert sk.brute_force_deterministic_sets(spec) == [
        frozenset(),
        frozenset({0, 1, 2}),
    ]
    assert sk.is_strictly_irreducible(spec)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=150, deadline=None)
def test_four_routes_agree(idx):
    spec = sk.generate_spec(GEN, index=idx)
    routes = sk.strict_irreducibility_routes(spec)
    assert len(set(routes.values())) == 1
    assert sk.is_strictly_irreducible(spec) == routes["sim"]


@given(st.integers(min_value=0, max_value=2000), st.sampled_from([GEN, WIDE_GEN]))
@settings(max_examples=80, deadline=None)
def test_gram_routes_in_float64_match_int64(idx, cfg):
    # The Gram entries count common successors (or predecessors), at most n,
    # so float64 holds them exactly and the patterns cannot differ.
    spec = sk.generate_spec(cfg, index=idx)
    supp = spec.support
    pat = spec.kernel.pattern[np.ix_(supp, supp)]
    p, q = pat.astype(np.int64), pat.astype(np.float64)
    assert ((q.T @ q) == (p.T @ p)).all() and ((q @ q.T) == (p @ p.T)).all()
    routes = sk.strict_irreducibility_routes(spec)
    assert routes["gram"] == (strongly_connected_components((p.T @ p) > 0).n_blocks == 1)
    assert routes["dual_gram"] == (strongly_connected_components((p @ p.T) > 0).n_blocks == 1)


def test_spec_caches_its_sim_partitions_and_routes(period2_spec):
    spec = spec_of(period2_spec.kernel.values, period2_spec.m.values)
    assert spec.sim is spec.sim and spec.sim == sk.sim_classes(spec)
    assert spec.dual_sim is spec.dual_sim and spec.dual_sim == sk.dual_sim_classes(spec)
    assert spec.strict_routes is spec.strict_routes
    assert spec.strict_routes == sk.strict_irreducibility_routes(spec)
    with pytest.raises(TypeError):
        spec.strict_routes["gram"] = True


def test_disagreeing_routes_raise(period2_spec):
    spec = spec_of(period2_spec.kernel.values, period2_spec.m.values)
    spec.__dict__["strict_routes"] = {
        "sim": False, "dual_sim": False, "gram": True, "dual_gram": False
    }
    with pytest.raises(sk.InternalInconsistency, match="characterizations disagree"):
        sk.is_strictly_irreducible(spec)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_strict_implies_irreducible(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if sk.is_strictly_irreducible(spec):
        assert sk.is_irreducible(spec)


@given(st.integers(min_value=0, max_value=800))
@settings(max_examples=50, deadline=None)
def test_strict_depends_only_on_pattern(idx):
    spec = sk.generate_spec(GEN, index=idx)
    before = sk.is_strictly_irreducible(spec)
    rng = np.random.default_rng(idx + 31)
    values = spec.kernel.values.copy()
    jitter = rng.uniform(0.5, 2.0, size=values.shape)
    raw = np.where(values > 0, values * jitter, 0.0)
    perturbed = sk.StochasticMatrix.from_rows(raw / raw.sum(axis=1, keepdims=True))
    assert (perturbed.pattern == spec.kernel.pattern).all()
    try:
        m2 = sk.stationary_distribution(perturbed)
    except sk.MultipleStationary:
        return  # cannot re-solve uniquely; property only pinned for that case
    if not np.array_equal(m2.support, spec.support):
        return
    assert sk.is_strictly_irreducible(sk.validate_spec(perturbed, m2)) == before


# ---------------------------------------------------------------------------
# deterministic sets
# ---------------------------------------------------------------------------
def test_deterministic_check_period2(period2_spec):
    sets = period2_spec.deterministic_sets
    assert {frozenset({0}), frozenset(), frozenset({0, 1})} <= set(sets)


def test_deterministic_check_bernoulli_straddles():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    assert frozenset({0}) not in spec.deterministic_sets


def test_deterministic_sets_period2(period2_spec):
    lattice = period2_spec.deterministic_sets
    assert isinstance(lattice, stepskew.kernels.UnionLattice)
    assert set(lattice) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_deterministic_sets_strictly_irreducible_trivial():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.2, 0.8]))
    assert set(spec.deterministic_sets) == {frozenset(), frozenset({0, 1})}


def test_deterministic_sets_identity_two_states():
    spec = spec_of(np.eye(2), [0.5, 0.5])
    assert len(list(spec.deterministic_sets)) == 4


@given(st.integers(min_value=0, max_value=1500))
@settings(max_examples=100, deadline=None)
def test_deterministic_sets_match_brute_force(idx):
    spec = sk.generate_spec(GEN, index=idx)
    lattice = spec.deterministic_sets
    assert isinstance(lattice, stepskew.kernels.UnionLattice)
    assert set(lattice) == set(sk.brute_force_deterministic_sets(spec))
    listed = list(lattice)
    assert listed == sorted_unions(blocks(spec.sim))
    assert len(listed) == 2 ** len(lattice.blocks) == 2 ** spec.sim.n_blocks


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_deterministic_sets_order_on_the_gallery(name):
    spec = gallery_config(name).spec
    lattice = spec.deterministic_sets
    assert isinstance(lattice, stepskew.kernels.UnionLattice)
    listed = list(lattice)
    assert listed == sorted_unions(blocks(spec.sim))
    assert len(listed) == 2 ** len(lattice.blocks) == 2 ** spec.sim.n_blocks


@given(st.lists(st.integers(-1, 11), min_size=1, max_size=30), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_union_lattice_matches_doubling_and_sort(labels, rnd):
    # labels[i] is the block of element i (-1: in none), up to 12 blocks,
    # handed over in a random order
    blocks = [frozenset(i for i, c in enumerate(labels) if c == b) for b in set(labels) - {-1}]
    rnd.shuffle(blocks)
    lattice = stepskew.kernels.UnionLattice(blocks)
    want = sorted_unions(blocks)
    assert list(lattice) == want
    assert len(want) == 2 ** len(lattice.blocks) == 2 ** len(blocks)
    members = set(want)
    for _ in range(10):
        probe = frozenset(i for i in range(len(labels) + 1) if rnd.random() < 0.5)
        assert (probe in lattice) == (probe in members)
    assert all(s in lattice for s in want)
    assert [0] not in lattice and None not in lattice


def test_union_lattice_membership_iterates_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError("the lattice was iterated")

    monkeypatch.setattr(stepskew.kernels.UnionLattice, "__iter__", refuse)
    n = 64  # 2**64 unions, more than len could report
    spec = spec_of(np.roll(np.eye(n), 1, axis=1), np.full(n, 1.0 / n))
    lattice = spec.deterministic_sets
    assert sorted(lattice.blocks, key=min) == [frozenset({y}) for y in range(n)]
    assert frozenset(range(0, n, 2)) in lattice and frozenset(range(n)) in lattice
    assert frozenset({0, n}) not in lattice


@given(st.integers(min_value=0, max_value=1500))
@settings(max_examples=60, deadline=None)
def test_deterministic_check_matches_definition(idx):
    spec = sk.generate_spec(GEN, index=idx)
    sets = set(spec.deterministic_sets)
    supp = spec.support.tolist()
    rng = np.random.default_rng(idx + 7)
    for _ in range(8):
        size = int(rng.integers(0, len(supp) + 1))
        b = frozenset(int(v) for v in rng.choice(supp, size=size, replace=False))
        # oracle: row-by-row containment straight from the definition
        expected = True
        for y in supp:
            row = {int(z) for z in np.flatnonzero(spec.kernel.pattern[y])}
            if row & b and not row <= b:
                expected = False
        assert (b in sets) == expected


def test_deterministic_sets_past_twenty_blocks_are_the_whole_lattice():
    # 24 isolated states -> 24 singleton classes; every set of states is a union
    n = 24
    spec = spec_of(np.eye(n), np.full(n, 1.0 / n))
    lattice = spec.deterministic_sets
    assert sorted(lattice.blocks, key=min) == [frozenset({y}) for y in range(n)]
    assert frozenset({0, 1}) in lattice and frozenset(range(n)) in lattice
