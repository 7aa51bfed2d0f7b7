"""Brute-force oracles, the dispersion probe, and instance generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
from stepskew.oracles import DISPERSION_THRESHOLD
from conftest import blocks, report_classes, report_pairs, sorted_unions, spec_of, system_of


# ---------------------------------------------------------------------------
# brute_force_deterministic_sets
# ---------------------------------------------------------------------------
def test_bf_deterministic_period2(period2_spec):
    assert set(sk.brute_force_deterministic_sets(period2_spec)) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_bf_deterministic_strictly_irreducible_three_state():
    spec = spec_of(
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], [1 / 3] * 3
    )
    assert sk.brute_force_deterministic_sets(spec) == [
        frozenset(),
        frozenset({0, 1, 2}),
    ]


def test_bf_deterministic_too_large():
    n = 13
    spec = spec_of(np.eye(n), np.full(n, 1.0 / n))
    with pytest.raises(sk.TooLarge):
        sk.brute_force_deterministic_sets(spec)


def test_bf_deterministic_ignores_zero_mass_states():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    assert sk.brute_force_deterministic_sets(spec) == [frozenset(), frozenset({0})]


# ---------------------------------------------------------------------------
# brute_force_invariant_sets
# ---------------------------------------------------------------------------
def test_bf_invariant_bufetov_lattice(bufetov_system):
    lattice = sk.brute_force_invariant_sets(bufetov_system)
    assert len(lattice) == 8  # three independent 2-cycles
    report = bufetov_system.closed_classes
    assert lattice == sorted_unions(report_classes(report))


def test_bf_invariant_ergodic_trivial(rotation_system):
    assert sk.brute_force_invariant_sets(rotation_system) == [
        frozenset(),
        frozenset(range(6)),
    ]


def test_bf_invariant_too_large():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.25] * 4))
    sys_ = system_of(spec, [[0, 1, 2, 3, 4]] * 4)
    assert len(report_pairs(sys_.closed_classes)) == 20
    with pytest.raises(sk.TooLarge):
        sk.brute_force_invariant_sets(sys_)


# ---------------------------------------------------------------------------
# statistical_ergodicity_probe
# ---------------------------------------------------------------------------
def test_probe_flags_bufetov(bufetov_system):
    spread = sk.statistical_ergodicity_probe(bufetov_system, seed=7, trials=30, horizon=20_000)
    assert spread > DISPERSION_THRESHOLD


def test_probe_accepts_rotation(rotation_system):
    spread = sk.statistical_ergodicity_probe(rotation_system, seed=7, trials=30, horizon=20_000)
    assert spread < 0.01


@pytest.mark.parametrize(
    "name, spread",
    [("bufetov_period2", 0.3799959386294933), ("bernoulli_rotation", 0.021902271741344237)],
)
def test_probe_spread_is_pinned(name, spread):
    # Pinned from the probe's own inline cumulative draw of the start
    # points, before it drew them through the sampler's cumulative.
    from stepskew.cli import config_system
    from stepskew.gallery import gallery_config

    sys_ = config_system(gallery_config(name))
    assert sk.statistical_ergodicity_probe(sys_, seed=7, trials=30, horizon=2_000) == spread


def test_probe_is_one_sided_on_constant_function():
    # one fiber point forces a constant test function: zero spread even
    # though the skew product over a frozen chain is not ergodic
    spec = spec_of(np.eye(2), [0.5, 0.5])
    sys_ = system_of(spec, [[0], [0]], points=("1",), mu=[1.0])
    assert not sys_.closed_classes.ergodic
    assert sk.statistical_ergodicity_probe(sys_, seed=3, trials=30, horizon=500) == 0.0


def test_probe_requires_thirty_trials(rotation_system):
    with pytest.raises(sk.ValidationError):
        sk.statistical_ergodicity_probe(rotation_system, seed=1, trials=10)


def test_probe_agrees_with_decision_on_gallery():
    # release gate: the trajectory probe and the closed-class decision must
    # agree on every built-in system at the probe's stated parameters
    from stepskew.cli import config_system
    from stepskew.gallery import GALLERY_NAMES, gallery_config

    for name in GALLERY_NAMES:
        sys_ = config_system(gallery_config(name))
        decided = sys_.closed_classes.ergodic
        spread = sk.statistical_ergodicity_probe(sys_, seed=2024)
        assert (spread > DISPERSION_THRESHOLD) == (not decided), (
            f"{name}: probe spread {spread:.4f} disagrees with decision"
        )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def test_generator_reproducible():
    cfg = sk.GeneratorConfig(seed=909, degenerate_bias=0.4)
    a = sk.generate_spec(cfg, index=17)
    b = sk.generate_spec(cfg, index=17)
    assert np.array_equal(a.kernel.values, b.kernel.values)
    assert np.array_equal(a.m.values, b.m.values)


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=120, deadline=None)
def test_generated_specs_validate(idx):
    cfg = sk.GeneratorConfig(seed=909, degenerate_bias=0.4)
    spec = sk.generate_spec(cfg, index=idx)
    # re-validation from raw parts must succeed
    sk.validate_spec(spec.kernel, spec.m)


def test_deterministic_stitch_forces_non_strict():
    cfg = sk.GeneratorConfig(seed=31, degenerate_bias=1.0)
    found = 0
    for idx in range(60):
        spec = sk.generate_spec(cfg, index=idx)
        if sk.is_irreducible(spec):
            found += 1
            assert not sk.is_strictly_irreducible(spec)
        else:
            assert not sk.is_irreducible(spec)
    assert found >= 10  # both stitch kinds appear


def test_absorbing_stitch_appears():
    cfg = sk.GeneratorConfig(seed=31, degenerate_bias=1.0)
    reducible = sum(
        not sk.is_irreducible(sk.generate_spec(cfg, index=i)) for i in range(60)
    )
    assert reducible >= 10


def test_generated_families_validate():
    cfg = sk.GeneratorConfig(seed=55, family_style="mu-level-set-permutations")
    for idx in range(30):
        space = sk.generate_space(cfg, index=idx)
        fam = sk.generate_family(cfg, space, states=3, index=idx)
        sk.TransformationFamily.create(space, fam.tables)


def test_level_set_constraint_respected():
    # mu = (1/2, 1/4, 1/4): every sampled permutation must fix point 0
    cfg = sk.GeneratorConfig(seed=88, family_style="mu-level-set-permutations")
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.25, 0.25])
    saw_swap = False
    for idx in range(20):
        fam = sk.generate_family(cfg, space, states=2, index=idx)
        for table in fam.tables:
            assert table[0] == 0
            saw_swap = saw_swap or table[1] == 2
    assert saw_swap


def test_single_point_space_only_identity():
    cfg = sk.GeneratorConfig(seed=12)
    space = sk.uniform_space(("only",))
    fam = sk.generate_family(cfg, space, states=4, index=0)
    assert fam.tables.tolist() == [[0]] * 4


def test_generator_config_validation():
    with pytest.raises(sk.ValidationError):
        sk.GeneratorConfig(seed=1, n_states=(5, 2))
    with pytest.raises(sk.ValidationError):
        sk.GeneratorConfig(seed=1, sparsity=0.5)
    with pytest.raises(sk.ValidationError):
        sk.GeneratorConfig(seed=1, family_style="nope")


@given(st.integers(min_value=0, max_value=1500))
@settings(max_examples=60, deadline=None)
def test_bf_deterministic_equals_sim_class_closure(idx):
    cfg = sk.GeneratorConfig(seed=606, degenerate_bias=0.45)
    spec = sk.generate_spec(cfg, index=idx)
    assert sk.brute_force_deterministic_sets(spec) == sorted_unions(blocks(sk.sim_classes(spec)))
