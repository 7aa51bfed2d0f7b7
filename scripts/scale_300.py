"""Time the closed-class layers on a strictly irreducible n = k = 300 system.

The driving kernel steps y -> y, y + 1, y + 3 (mod 300) with weight 1/3
each; the 300 fiber points carry four planted family-invariant blocks,
which every map permutes within. The skew product then has 9*10^4 active
pairs and, by the main theorem, exactly four closed classes (support x
block). The script times the ergodicity report, the product-structure
check, the invariant basis, 300 Birkhoff limits and 300 Cesaro limits,
checks every limit against the conditional expectation, and prints the
times and the peak resident set size.

A second part times the family-invariant partition at 10^6 (state, point)
pairs: n = k = 1000, each map a random permutation within planted spans of
points, one of them a zero-mass point. It checks the partition's labels
against a breadth-first search over the orbit graph in pure Python.

A third part times the M_j dynamic program on a generated system of 8
states and 64 points: the Cesaro partial means to 10^6 steps and M_n at
n = 10^12. A plain per-step loop over the first 10^4 steps, which keeps
each mass grid's bytes until one repeats, checks both bit for bit: the
partial means at the horizons it reaches, and M_n for n = 10^12 .. 10^12 + 7
at the indices they reduce to on the cycle it finds.

A fourth part, run first so that its peak resident set size is its own,
puts a random permutation of the 300 points on each state of the periodic
driving chain y -> y + 1 (mod 300). Every state is then its own sim block
(r = n), so the sim-block quotient has as many nodes as the 9*10^4 pairs.
It checks the closed classes against the pure-Python cycle walk of the test
suite and times the closed classes, the product-structure check and the
family-invariant partition. --periodic-n sets its n = k (1000 gives 10^6
pairs). It then writes the same system as a JSON config document and times
the command line's three steps on it, parse_config, cmd_check and cmd_skew,
checking the CLASSES count and the CLASS lines against the cycle walk.

A fifth part, run last, drives a reducible kernel at scale: two disjoint
cycles of 500 states each, their states interleaved at random, with the
uniform stationary vector supplied. It times validation, is_irreducible
(which must be false) and the base counterexample, whose swap states must
be exactly the cycle through state 0, the first support state, as a walk
along that cycle in pure Python finds it.

Run from the repository root (the cycle walk is imported from
tests/conftest.py, so pytest must be installed):

    PYTHONPATH=src python scripts/scale_300.py [--periodic-n N]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import stepskew as sk
from stepskew import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import cycle_class_labels, periodic_system  # noqa: E402

N = K = 300
CUTS = [0, 30, 105, 180, 300]
BIG = 1000
BIG_CUTS = [0, 1, 2, 50, 300, 301, 700, 1000]
ZERO_SPAN = (1, 2)  # a point of zero mass


def build_system() -> sk.SkewSystem:
    rows = np.zeros((N, N))
    for y in range(N):
        rows[y, [y, (y + 1) % N, (y + 3) % N]] = 1 / 3
    spec = sk.validate_spec(
        sk.StochasticMatrix.from_rows(rows), sk.ProbVector.from_values(np.full(N, 1 / N))
    )
    spans = list(zip(CUTS, CUTS[1:]))
    mu = np.concatenate([np.full(b - a, c + 1.0) for c, (a, b) in enumerate(spans)])
    rng = np.random.default_rng(300)
    tables = []
    for _ in range(N):
        table = np.arange(K)
        for a, b in spans:
            table[a:b] = a + rng.permutation(b - a)
        tables.append(table)
    space = sk.FiniteMeasureSpace.create(range(K), mu / mu.sum())
    return sk.SkewSystem.create(spec, sk.TransformationFamily.create(space, tables))


def build_big_family() -> sk.TransformationFamily:
    spans = list(zip(BIG_CUTS, BIG_CUTS[1:]))
    mu = np.ones(BIG)
    mu[slice(*ZERO_SPAN)] = 0.0
    rng = np.random.default_rng(1000)
    tables = []
    for _ in range(BIG):
        table = np.arange(BIG)
        for a, b in spans:
            table[a:b] = a + rng.permutation(b - a)
        tables.append(table)
    space = sk.FiniteMeasureSpace.create(range(BIG), mu / mu.sum())
    return sk.TransformationFamily.create(space, tables)


def orbit_labels_by_search(family: sk.TransformationFamily) -> list[int]:
    """Block of each point of positive mass, numbered by least member, -1
    elsewhere: breadth-first search over the edges x -- T_y(x)."""
    on = (family.space.mu.values > 0).tolist()
    neighbours: list[set[int]] = [set() for _ in on]
    for table in family.tables.tolist():
        for x, image in enumerate(table):
            if on[x]:
                neighbours[x].add(image)
                neighbours[image].add(x)
    labels = [-1] * len(on)
    count = 0
    for start, member in enumerate(on):
        if member and labels[start] < 0:
            labels[start] = count
            queue = [start]
            for x in queue:
                for nxt in neighbours[x]:
                    if labels[nxt] < 0:
                        labels[nxt] = count
                        queue.append(nxt)
            count += 1
    return labels


def time_big_family_partition() -> float:
    """Median of 5 timed family_invariant_partition calls at 10^6 pairs,
    after checking the labels against the search."""
    family = build_big_family()
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        part = sk.family_invariant_partition(family, range(BIG))
        runs.append(time.perf_counter() - t0)
    want = orbit_labels_by_search(family)
    assert part.labels.tolist() == want, "family partition differs from the orbit-graph search"
    assert part.n_blocks == len(BIG_CUTS) - 2, "expected one block per span of positive mass"
    return statistics.median(runs)


DP_CONFIG = sk.GeneratorConfig(
    seed=864, n_states=(8, 8), n_points=(64, 64), sparsity=3.0, degenerate_bias=1.0
)
DP_INDEX = 20  # all 8 states on the support; M_j f(x) takes 123 values on its cycle
DP_LOOP = 10**4
DP_HORIZONS = [10, 100, DP_LOOP, 10**6]
DP_N = 10**12


def time_dp() -> dict[str, float]:
    """Time the Cesaro partial means to 10^6 and M_n at 10^12, after
    checking both against a per-step loop over the first DP_LOOP steps."""
    spec = sk.generate_spec(DP_CONFIG, DP_INDEX)
    space = sk.generate_space(DP_CONFIG, DP_INDEX)
    sys_ = sk.SkewSystem.create(
        spec, sk.generate_family(DP_CONFIG, space, states=spec.n, index=DP_INDEX)
    )
    f = np.random.default_rng(8).random(space.k)
    x = int(space.support[0])
    times = {}
    t0 = time.perf_counter()
    partial = sk.cesaro_partial_averages(sys_, f, x, DP_HORIZONS)
    times["cesaro_partial_1e6"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    m_n = [sk.expectation_operator(sys_, f, x, n) for n in range(DP_N, DP_N + 8)]
    times["expectation_operator_1e12_x8"] = time.perf_counter() - t0

    grid = np.zeros((spec.n, space.k))
    grid[:, x] = spec.m.values
    seen: dict[bytes, int] | None = {}
    values, total = [], 0.0
    for j in range(DP_LOOP):
        if seen is not None:
            first = seen.setdefault(grid.tobytes(), j)
            if first < j:
                cycle, seen = (first, j - first), None
        values.append(float(grid.sum(axis=0) @ f))
        total += values[-1]
        if j + 1 in DP_HORIZONS:
            assert partial[j + 1] == total / (j + 1), f"Cesaro partial mean differs at {j + 1}"
        grid = sys_._pair_step(grid)
    assert seen is None, f"the mass grid does not repeat within {DP_LOOP} steps"
    start, period = cycle
    want = [values[start + (n - start) % period] for n in range(DP_N, DP_N + 8)]
    assert m_n == want, "M_n differs from the loop's cycle"
    return times


def timed(times: dict[str, float], name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    times[name] = time.perf_counter() - t0
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def periodic_maps(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0)  # 5 classes at n = 300, 11 at n = 1000
    return [rng.permutation(n) for _ in range(n)]


def time_periodic(n: int) -> dict[str, float]:
    """Time the closed-class layers with r = n sim blocks at n^2 pairs,
    after building the system, and check the classes against the walk."""
    start = time.perf_counter()
    sys_ = periodic_system(periodic_maps(n))
    times = {"periodic_build": time.perf_counter() - start}
    assert sys_.spec.sim.n_blocks == n, "expected one sim block per state"
    report = timed(times, "periodic_closed_classes", lambda: sys_.closed_classes)
    timed(times, "periodic_family_partition", lambda: sys_.family_partition)
    timed(times, "periodic_check_product_structure", lambda: sk.check_product_structure(sys_))
    times["periodic_total"] = time.perf_counter() - start
    assert report.labels.tolist() == cycle_class_labels(sys_), "classes differ from the cycle walk"
    return times


def periodic_config_text(maps: list[np.ndarray]) -> str:
    """The periodic system of periodic_system(maps) as a config document,
    states labelled s0, s1, ... and points p0, p1, ..."""
    n, k = len(maps), len(maps[0])
    points = [f"p{x}" for x in range(k)]
    doc = {
        "states": [f"s{y}" for y in range(n)],
        "kernel": np.roll(np.eye(n), 1, axis=1).tolist(),
        "stationary": [1 / n] * n,
        "space": {"points": points, "mu": [1 / k] * k},
        "family": {f"s{y}": [points[x] for x in table.tolist()] for y, table in enumerate(maps)},
    }
    return json.dumps(doc)


def time_periodic_cli(n: int) -> dict[str, float]:
    """Time parse_config, cmd_check and cmd_skew on the periodic config at
    n^2 pairs, and check the reported classes against the walk."""
    maps = periodic_maps(n)
    text = periodic_config_text(maps)
    times: dict[str, float] = {}
    cfg = timed(times, "periodic_parse_config", lambda: cli.parse_config(text))
    check = timed(times, "periodic_cmd_check", lambda: cli.cmd_check(cfg))
    skew = timed(times, "periodic_cmd_skew", lambda: cli.cmd_skew(cfg))
    walk = cycle_class_labels(periodic_system(maps))
    sizes = [0] * (1 + max(max(row) for row in walk))
    for row in walk:
        for c in row:
            sizes[c] += 1
    assert check.startswith(f"STATES: {n} "), "check report has the wrong state count"
    lines = skew.splitlines()
    assert f"CLASSES: {len(sizes)}" in lines, "CLASSES count differs from the cycle walk"
    members = [line.count("(") for line in lines if line.startswith("CLASS: ")]
    assert members == sizes, "CLASS lines differ from the cycle walk's class sizes"
    return times


CYCLE = 500


def time_reducible() -> dict[str, float]:
    """Time the reducible-base layers on two disjoint CYCLE-state cycles,
    after checking the swap states against a walk along the first one."""
    n = 2 * CYCLE
    order = np.random.default_rng(500).permutation(n)
    rows = np.zeros((n, n))
    for cycle in (order[:CYCLE], order[CYCLE:]):
        rows[cycle, np.roll(cycle, -1)] = 1.0
    times: dict[str, float] = {}
    kernel, m = sk.StochasticMatrix.from_rows(rows), sk.ProbVector.from_values(np.full(n, 1 / n))
    spec = timed(times, "reducible_validate", lambda: sk.validate_spec(kernel, m))
    irreducible = timed(times, "reducible_is_irreducible", lambda: sk.is_irreducible(spec))
    counter = timed(
        times, "reducible_base_counterexample", lambda: sk.build_base_counterexample(spec)
    )
    assert not irreducible, "two disjoint cycles reported irreducible"
    successor = rows.argmax(axis=1).tolist()
    walk, y = [0], successor[0]
    while y != 0:
        walk.append(y)
        y = successor[y]
    swaps = np.flatnonzero(counter.family.tables[:, 0] == 1).tolist()
    assert len(walk) == CYCLE and swaps == sorted(walk), "swap states differ from the first cycle"
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--periodic-n", type=int, default=N, help="n = k of the r = n part")
    args = parser.parse_args()
    for name, seconds in time_periodic(args.periodic_n).items():
        print(f"{name}: {seconds:.4f} s")
    print(f"periodic_peak_rss_mb: {peak_rss_mb():.1f}")
    for name, seconds in time_periodic_cli(args.periodic_n).items():
        print(f"{name}: {seconds:.4f} s")

    start = time.perf_counter()
    sys_ = build_system()
    times = {"build": time.perf_counter() - start}

    report = timed(times, "report", lambda: sys_.closed_classes)
    product = timed(times, "check_product_structure", lambda: sk.check_product_structure(sys_))
    basis = timed(times, "basis", lambda: sk.invariant_function_basis(sys_))
    rng = np.random.default_rng(301)
    f = rng.random(K)
    pairs = list(zip(rng.integers(0, N, size=300).tolist(), rng.integers(0, K, size=300).tolist()))
    birkhoff = timed(
        times,
        "birkhoff_limits_300",
        lambda: [sk.exact_birkhoff_limit(sys_, y, x, f) for y, x in pairs],
    )
    cesaro = timed(
        times, "cesaro_limits_300", lambda: [sk.exact_cesaro_limit(sys_, f, x) for x in range(K)]
    )
    total = time.perf_counter() - start

    cond = sk.conditional_expectation(sys_.family, sys_.spec.support, f)
    assert len(report.class_masses) == 4 and len(basis) == 4, "expected four closed classes"
    assert product and report.product_structured, "expected product structure"
    want = [cond[x] for _, x in pairs] + cond.tolist()
    worst = max(abs(a - b) for a, b in zip(birkhoff + cesaro, want))
    assert worst <= 1e-12, f"a limit differs from the conditional expectation by {worst:.3e}"

    for name, seconds in times.items():
        print(f"{name}: {seconds:.4f} s")
    print(f"total: {total:.4f} s")
    print(f"max_limit_error: {worst:.3e}")
    print(f"peak_rss_mb: {peak_rss_mb():.1f}")
    print(f"family_partition_1e6_median: {time_big_family_partition():.4f} s")
    for name, seconds in time_dp().items():
        print(f"{name}: {seconds:.4f} s")
    for name, seconds in time_reducible().items():
        print(f"{name}: {seconds:.4f} s")


if __name__ == "__main__":
    main()
