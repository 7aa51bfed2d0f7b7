"""Brute-force oracles, sampled averages against exact limits, and instance
generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
from conftest import (
    blocks,
    reference_pair_kernel,
    report_classes,
    report_pairs,
    sorted_unions,
    spec_of,
    system_of,
)
from instances import (
    GeneratorConfig,
    brute_force_deterministic_sets,
    brute_force_invariant_sets,
    generate_family,
    generate_space,
    generate_spec,
)


# ---------------------------------------------------------------------------
# brute_force_deterministic_sets
# ---------------------------------------------------------------------------
def test_bf_deterministic_period2(period2_spec):
    assert set(brute_force_deterministic_sets(period2_spec)) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_bf_deterministic_strictly_irreducible_three_state():
    spec = spec_of(
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], [1 / 3] * 3
    )
    assert brute_force_deterministic_sets(spec) == [
        frozenset(),
        frozenset({0, 1, 2}),
    ]


def test_bf_deterministic_too_large():
    n = 13
    spec = spec_of(np.eye(n), np.full(n, 1.0 / n))
    with pytest.raises(sk.TooLarge):
        brute_force_deterministic_sets(spec)


def test_bf_deterministic_ignores_zero_mass_states():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    assert brute_force_deterministic_sets(spec) == [frozenset(), frozenset({0})]


# ---------------------------------------------------------------------------
# brute_force_invariant_sets
# ---------------------------------------------------------------------------
def test_bf_invariant_bufetov_lattice(bufetov_system):
    lattice = brute_force_invariant_sets(bufetov_system)
    assert len(lattice) == 8  # three independent 2-cycles
    report = bufetov_system.closed_classes
    assert lattice == sorted_unions(report_classes(report))


def test_bf_invariant_ergodic_trivial(rotation_system):
    assert brute_force_invariant_sets(rotation_system) == [
        frozenset(),
        frozenset(range(6)),
    ]


def test_bf_invariant_too_large():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.25] * 4))
    sys_ = system_of(spec, [[0, 1, 2, 3, 4]] * 4)
    assert len(report_pairs(sys_.closed_classes)) == 20
    with pytest.raises(sk.TooLarge):
        brute_force_invariant_sets(sys_)


# ---------------------------------------------------------------------------
# sampled Birkhoff averages against the exact limits
# ---------------------------------------------------------------------------
Z = 5.0  # standard deviations of the band's statistical part
# The sampled and exact averages are rounded along different sums; where f
# is constant on a class (g = 0) this is all the band's width.
ROUNDING = 1e-12


def poisson_bands(sys_, fv) -> list[tuple[float, float]]:
    """(sigma²_C, max |g_C|) for each closed class C, in label order, for the
    function fv of the fiber point, from the double-loop pair kernel.

    P_C is the kernel on C's pairs, pi the product measure normalized on C
    and fbar = f - pi.f. g_C solves the Poisson equation (I - P_C) g = fbar
    with pi.g = 0: it is F fbar for the fundamental matrix
    F = (I - P_C + 1 pi)^-1 (Kemeny & Snell), as pi F = pi. Then
    sigma²_C = 2<fbar, g>_pi - <fbar, fbar>_pi is the variance of the
    chain's central limit theorem on C (Meyn & Tweedie, ch. 17).
    """
    kernel, report = reference_pair_kernel(sys_), sys_.closed_classes
    ys, xs = np.array(report_pairs(report)).T
    product = sys_.spec.m.values[ys] * sys_.family.space.mu.values[xs]
    bands = []
    for members in report_classes(report):
        idx = sorted(members)
        p_c, pi = kernel[np.ix_(idx, idx)], product[idx] / product[idx].sum()
        assert np.allclose(p_c.sum(axis=1), 1.0)  # C is closed
        fbar = fv[xs[idx]] - pi @ fv[xs[idx]]
        g = np.linalg.solve(np.eye(len(idx)) - p_c + pi, fbar)
        var = 2 * pi @ (fbar * g) - pi @ (fbar * fbar)
        assert var > -1e-12
        bands.append((max(float(var), 0.0), float(np.abs(g).max())))
    return bands


def limits_in_band(sys_, fs, seed: int, trials: int, horizon: int, rng) -> list[int]:
    """Asserts that each trial's sampled average of each f in fs lies in
    its band around the exact limit of its start pair; returns, per f, the
    number of distinct exact limits that the trials reach."""
    report = sys_.closed_classes
    x0 = rng.choice(sys_.family.space.support, size=trials)
    first_states, occ = sk.orbit_occupancy(sys_, seed, trials, [horizon], x0)
    classes = report.labels[first_states, x0]
    reached = []
    for f in fs:
        bands = poisson_bands(sys_, f)
        averages = occ[horizon] @ f / horizon
        limits = [
            sk.exact_birkhoff_limit(sys_, int(y), int(x), f) for y, x in zip(first_states, x0)
        ]
        for c, average, limit in zip(classes, averages, limits):
            var, g_max = bands[c]
            band = Z * np.sqrt(var / horizon) + 2 * g_max / horizon + ROUNDING
            assert abs(average - limit) <= band, (c, average, limit, band)
        reached.append(len(set(limits)))
    return reached


def test_sampled_averages_lie_in_the_clt_band():
    """Each trial's Birkhoff average at horizon H lies within
    Z sigma_C / sqrt(H) + 2 max|g_C| / H of the exact limit of its start
    pair, C the closed class of that pair (poisson_bands), with Z = 5.

    Along the chain, the sum S_H fbar of fbar over steps 0 .. H-1 is
    g(X_0) - g(X_H) plus the martingale sum of g(X_t) - P g(X_{t-1}) over
    t = 1 .. H, since fbar = g - P g. The first part is at most 2 max|g|
    in size, for every path: that term of the band is a hard bound. Only
    the martingale is random, and its sum over sqrt(H) is asymptotically
    normal with variance sigma²_C, so a trial leaves the band with
    probability about 2 (1 - Phi(5)) = 5.7e-7, its two-sided normal tail.
    A class with sigma² = 0, such as a deterministic cycle, has only the
    hard bound. The check runs on each gallery system, with each point's
    indicator as f, and on 40 generated systems with a random f. Every
    non-ergodic gallery system, and at least 10 generated ones, must reach
    at least 2 distinct limits, so the check is never vacuous."""
    from stepskew.gallery import GALLERY_NAMES, gallery_config

    rng = np.random.default_rng(2929)
    for name in GALLERY_NAMES:
        sys_ = gallery_config(name).system
        for horizon in (2_000, 20_000):
            reached = limits_in_band(sys_, np.eye(sys_.family.space.k), 29, 30, horizon, rng)
            if not sys_.closed_classes.ergodic:
                assert min(reached) >= 2, name
    cfg = GeneratorConfig(seed=2929, n_states=(2, 5), n_points=(2, 4), degenerate_bias=0.3)
    several = 0
    for idx in range(40):
        spec, space = generate_spec(cfg, index=idx), generate_space(cfg, index=idx)
        sys_ = sk.SkewSystem.create(spec, generate_family(cfg, space, states=spec.n, index=idx))
        (reached,) = limits_in_band(sys_, [rng.random(space.k)], idx, 30, 5_000, rng)
        several += reached >= 2
    assert several >= 10


def test_rotation_band_matches_the_walk_on_z3(rotation_system):
    # In bernoulli_rotation the states are i.i.d. with m = (0.6, 0.4), and
    # state 0 moves the point by +1 and state 1 by -1 on Z/3, so the point
    # alone is the walk Q h(x) = 0.6 h(x + 1) + 0.4 h(x - 1). Q is circulant,
    # with eigenvalues lambda_j = 0.6 w^j + 0.4 w^-j for w = exp(2 pi i / 3):
    # lambda_1 = -1/2 + (sqrt(3) / 10) i, so |1 - lambda_1|² = 57/25 and
    # Re 1 / (1 - lambda_1) = (3/2) / (57/25) = 25/38. For the indicator of
    # a point a, fbar = 1_a - 1/3 has <fbar, fbar> = 2/9, all of it on
    # j = 1, 2; f reads only the point, so the pair chain's sigma² is the
    # walk's, sum_j |fbar_j|² (2 Re 1 / (1 - lambda_j) - 1) =
    # (2/9) (2 * 25/38 - 1) = 4/57. On the pairs,
    # g(y, x) = fbar(x) + h(T_y x) with h = (I - Q)^-1 fbar, which is
    # (25, -15, -10) / 57 at x - a = 0, 1, 2; the largest |g| is at
    # (y, x) = (1, a + 2): -19/57 - 15/57 = -34/57.
    for point in range(3):
        ((var, g_max),) = poisson_bands(rotation_system, np.eye(3)[point])
        assert var == pytest.approx(4 / 57, abs=1e-12)
        assert g_max == pytest.approx(34 / 57, abs=1e-12)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def test_generator_reproducible():
    cfg = GeneratorConfig(seed=909, degenerate_bias=0.4)
    a = generate_spec(cfg, index=17)
    b = generate_spec(cfg, index=17)
    assert np.array_equal(a.kernel.values, b.kernel.values)
    assert np.array_equal(a.m.values, b.m.values)


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=120, deadline=None)
def test_generated_specs_validate(idx):
    cfg = GeneratorConfig(seed=909, degenerate_bias=0.4)
    spec = generate_spec(cfg, index=idx)
    # re-validation from raw parts must succeed
    sk.validate_spec(spec.kernel, spec.m)


def test_deterministic_stitch_forces_non_strict():
    cfg = GeneratorConfig(seed=31, degenerate_bias=1.0)
    found = 0
    for idx in range(60):
        spec = generate_spec(cfg, index=idx)
        if sk.is_irreducible(spec):
            found += 1
            assert not sk.is_strictly_irreducible(spec)
        else:
            assert not sk.is_irreducible(spec)
    assert found >= 10  # both stitch kinds appear


def test_absorbing_stitch_appears():
    cfg = GeneratorConfig(seed=31, degenerate_bias=1.0)
    reducible = sum(
        not sk.is_irreducible(generate_spec(cfg, index=i)) for i in range(60)
    )
    assert reducible >= 10


def test_generated_families_validate():
    cfg = GeneratorConfig(seed=55, family_style="mu-level-set-permutations")
    for idx in range(30):
        space = generate_space(cfg, index=idx)
        fam = generate_family(cfg, space, states=3, index=idx)
        sk.TransformationFamily.create(space, fam.tables)


def test_level_set_constraint_respected():
    # mu = (1/2, 1/4, 1/4): every sampled permutation must fix point 0
    cfg = GeneratorConfig(seed=88, family_style="mu-level-set-permutations")
    space = sk.FiniteMeasureSpace.create(("a", "b", "c"), [0.5, 0.25, 0.25])
    saw_swap = False
    for idx in range(20):
        fam = generate_family(cfg, space, states=2, index=idx)
        for table in fam.tables:
            assert table[0] == 0
            saw_swap = saw_swap or table[1] == 2
    assert saw_swap


def test_single_point_space_only_identity():
    cfg = GeneratorConfig(seed=12)
    space = sk.uniform_space(("only",))
    fam = generate_family(cfg, space, states=4, index=0)
    assert fam.tables.tolist() == [[0]] * 4


def test_generator_config_validation():
    with pytest.raises(sk.ValidationError):
        GeneratorConfig(seed=1, n_states=(5, 2))
    with pytest.raises(sk.ValidationError):
        GeneratorConfig(seed=1, sparsity=0.5)
    with pytest.raises(sk.ValidationError):
        GeneratorConfig(seed=1, family_style="nope")


@given(st.integers(min_value=0, max_value=1500))
@settings(max_examples=60, deadline=None)
def test_bf_deterministic_equals_sim_class_closure(idx):
    cfg = GeneratorConfig(seed=606, degenerate_bias=0.45)
    spec = generate_spec(cfg, index=idx)
    assert brute_force_deterministic_sets(spec) == sorted_unions(blocks(sk.sim_classes(spec)))
