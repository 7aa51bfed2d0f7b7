"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] PASS` line (visible under
`pytest -s`) and asserts both the stated tolerance and the stated runtime
budget. All generation is seeded; reruns are bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

import stepskew as sk
from conftest import report_classes, report_pairs, sorted_unions
from stepskew.cli import config_system, main, render_config
from stepskew.gallery import GALLERY_NAMES, gallery_config


def _basis(k):
    return [np.eye(k)[p] for p in range(k)]


def _strict_system_pool(seed, count, bias=0.25):
    """Deterministic pool of strictly irreducible systems (spec + family)."""
    cfg = sk.GeneratorConfig(
        seed=seed, n_states=(2, 5), n_points=(2, 4), degenerate_bias=bias
    )
    pool = []
    idx = 0
    while len(pool) < count:
        spec = sk.generate_spec(cfg, index=idx)
        if sk.is_strictly_irreducible(spec):
            space = sk.generate_space(cfg, index=idx)
            family = sk.generate_family(cfg, space, states=spec.n, index=idx)
            pool.append(sk.SkewSystem.create(spec, family))
        idx += 1
    return pool


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    sys_ = config_system(gallery_config("bufetov_period2"))
    report = sys_.closed_classes
    assert not report.ergodic
    k = report.labels[0, 0]  # (state "0", point "1")
    assert abs(report.class_masses[k] - 1 / 3) <= 1e-12
    assert sk.is_irreducible(sys_.spec)
    assert not sk.is_strictly_irreducible(sys_.spec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\n[criterion 1] PASS: worked example non-ergodic, class mass 1/3 "
        f"(err {abs(report.class_masses[k] - 1/3):.1e}), {elapsed:.2f}s"
    )


def test_criterion_2_equivalence_suite():
    t0 = time.perf_counter()
    cfg = sk.GeneratorConfig(
        seed=20260801, n_states=(2, 6), n_points=(2, 5), degenerate_bias=0.35
    )
    n_specs = 1000
    n_families = 10
    strict_checked = counterexample_checked = 0
    for idx in range(n_specs):
        spec = sk.generate_spec(cfg, index=idx)
        strict = sk.is_strictly_irreducible(spec)
        if strict:
            space = sk.generate_space(cfg, index=idx)
            got = 0
            salt = 0
            while got < n_families:
                family = sk.generate_family(
                    cfg, space, states=spec.n, index=idx * 1000 + salt
                )
                salt += 1
                assert salt < 200, "ergodic family generation stalled"
                if not sk.family_invariant_partition(family, spec.support).trivial:
                    continue
                got += 1
                report = sk.SkewSystem.create(spec, family).closed_classes
                assert report.ergodic, f"forward direction failed at spec {idx}"
            strict_checked += 1
        elif sk.is_irreducible(spec):
            sys_ = sk.build_counterexample_family(spec)
            assert sys_.family_partition.trivial, (
                f"counterexample family not ergodic at spec {idx}"
            )
            assert not sys_.closed_classes.ergodic, (
                f"counterexample skew product ergodic at spec {idx}"
            )
            counterexample_checked += 1
    elapsed = time.perf_counter() - t0
    assert strict_checked + counterexample_checked >= 600
    assert counterexample_checked >= 100
    assert elapsed < 120.0
    print(
        f"\n[criterion 2] PASS: {strict_checked} strict specs x {n_families} "
        f"ergodic families all ergodic; {counterexample_checked} counterexamples "
        f"all non-ergodic; {elapsed:.1f}s"
    )


def test_criterion_3_characterization_agreement():
    t0 = time.perf_counter()
    cfg = sk.GeneratorConfig(
        seed=31337, n_states=(2, 7), n_points=(2, 4), degenerate_bias=0.3
    )
    disagreements = 0
    for idx in range(10_000):
        spec = sk.generate_spec(cfg, index=idx)
        routes = sk.strict_irreducibility_routes(spec)
        if len(set(routes.values())) != 1:
            disagreements += 1
        # is_strictly_irreducible re-checks and raises on disagreement
        sk.is_strictly_irreducible(spec)
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60.0
    print(
        f"\n[criterion 3] PASS: 4 characterizations agree on 10000 specs; {elapsed:.1f}s"
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    cfg_a = sk.GeneratorConfig(seed=424201, n_states=(2, 12), degenerate_bias=0.4)
    for idx in range(400):
        spec = sk.generate_spec(cfg_a, index=idx)
        lattice = spec.deterministic_sets
        assert isinstance(lattice, sk.kernels.UnionLattice)
        assert set(lattice) == set(sk.brute_force_deterministic_sets(spec))
    cfg_b = sk.GeneratorConfig(
        seed=424202, n_states=(2, 4), n_points=(2, 4), degenerate_bias=0.35
    )
    lattices = 0
    idx = 0
    while lattices < 250:
        spec = sk.generate_spec(cfg_b, index=idx)
        space = sk.generate_space(cfg_b, index=idx)
        family = sk.generate_family(cfg_b, space, states=spec.n, index=idx)
        idx += 1
        sys_ = sk.SkewSystem.create(spec, family)
        report = sys_.closed_classes
        if len(report_pairs(report)) > 16:
            continue
        assert sk.brute_force_invariant_sets(sys_) == sorted_unions(report_classes(report))
        lattices += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\n[criterion 4] PASS: 400 deterministic-set lattices and "
        f"{lattices} invariant-set lattices match enumeration; {elapsed:.1f}s"
    )


def test_criterion_5_pathwise_limit_clause():
    t0 = time.perf_counter()
    pool = _strict_system_pool(seed=51001, count=150)
    worst = 0.0
    for sys_ in pool:
        spec, family = sys_.spec, sys_.family
        for f in _basis(family.space.k):
            ce = sk.conditional_expectation(family, spec.support, f)
            for x in family.space.support:
                vals = [
                    sk.exact_birkhoff_limit(sys_, int(y), int(x), f)
                    for y in spec.support
                ]
                worst = max(
                    worst,
                    max(vals) - min(vals),
                    max(abs(v - ce[int(x)]) for v in vals),
                )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    print(
        f"\n[criterion 5] PASS: pathwise limits equal conditional expectation "
        f"on {len(pool)} strict systems (worst {worst:.1e}); {elapsed:.1f}s"
    )


def test_criterion_6_cesaro_clause():
    t0 = time.perf_counter()
    # strict systems: closed-form Cesaro limit equals conditional expectation
    pool = _strict_system_pool(seed=61001, count=120)
    worst_strict = 0.0
    for sys_ in pool:
        spec, family = sys_.spec, sys_.family
        for f in _basis(family.space.k):
            ce = sk.conditional_expectation(family, spec.support, f)
            for x in family.space.support:
                worst_strict = max(
                    worst_strict,
                    abs(sk.exact_cesaro_limit(sys_, f, int(x)) - ce[int(x)]),
                )
    assert worst_strict <= 1e-10

    # every system: the Cesaro limit integrates to the mean of f
    cfg = sk.GeneratorConfig(
        seed=61002, n_states=(2, 5), n_points=(2, 4), degenerate_bias=0.35
    )
    worst_mass = 0.0
    for idx in range(200):
        spec = sk.generate_spec(cfg, index=idx)
        space = sk.generate_space(cfg, index=idx)
        family = sk.generate_family(cfg, space, states=spec.n, index=idx)
        sys_ = sk.SkewSystem.create(spec, family)
        rng = np.random.default_rng(idx)
        f = rng.normal(size=space.k)
        mu = space.mu.values
        tilde = np.array(
            [
                sk.exact_cesaro_limit(sys_, f, int(x)) if mu[x] > 0 else 0.0
                for x in range(space.k)
            ]
        )
        worst_mass = max(worst_mass, abs(float(mu @ tilde) - float(mu @ f)))
    assert worst_mass <= 1e-10

    # gallery: iterative partial averages at n = 10^4 meet the closed form
    worst_iter = 0.0
    for name in GALLERY_NAMES:
        sys_ = config_system(gallery_config(name))
        k = sys_.family.space.k
        for f in _basis(k):
            for x in sys_.family.space.support:
                partial = sk.cesaro_partial_averages(sys_, f, int(x), [10_000])[10_000]
                exact = sk.exact_cesaro_limit(sys_, f, int(x))
                worst_iter = max(worst_iter, abs(partial - exact))
    assert worst_iter <= 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\n[criterion 6] PASS: Cesaro limits match conditional expectation "
        f"(worst {worst_strict:.1e}), integrate to the mean (worst {worst_mass:.1e}), "
        f"iterative route agrees at 1e4 (worst {worst_iter:.1e}); {elapsed:.1f}s"
    )


def test_criterion_7_monte_carlo_convergence():
    t0 = time.perf_counter()
    rotation = config_system(gallery_config("bernoulli_rotation"))
    _, occ = sk.orbit_occupancy(
        rotation, seed=42, trials=200, checkpoints=[100_000], x0=0
    )
    mu = rotation.family.space.mu.values
    worst = 0.0
    for p, f in enumerate(_basis(3)):
        mean_a = float((occ[100_000] @ f).mean()) / 100_000
        worst = max(worst, abs(mean_a - float(mu[p])))
    assert worst <= 0.01

    bufetov = config_system(gallery_config("bufetov_period2"))
    path = sk.sample_path(bufetov.spec, seed=42, length=100_000)
    a = sk.birkhoff_average(bufetov, path, np.array([1.0, 0.0, 0.0]), 0, 100_000)
    assert abs(a - 0.5) <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[criterion 7] PASS: MC mean within {worst:.1e} of the space mean; "
        f"deterministic path at 1/2 (err {abs(a - 0.5):.1e}); {elapsed:.1f}s"
    )


def test_criterion_8_simulate_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "rotation.json"
    cfg_path.write_text(render_config(gallery_config("bernoulli_rotation")))
    flags = [
        "simulate", str(cfg_path), "--seed", "42",
        "--horizons", "100,1000,10000,100000",
        "--trials", "50", "--f", "ind1", "--x", "1",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert len(b1) > 0
    elapsed = time.perf_counter() - t0
    print(
        f"\n[criterion 8] PASS: repeated simulate runs byte-identical "
        f"({len(b1)} bytes); {elapsed:.1f}s"
    )
