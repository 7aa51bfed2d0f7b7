"""Brute-force ground-truth routes and random instance generators.

The brute-force routines re-derive structural answers by raw subset
enumeration, sharing no code with the production predicates they check.
Generators are pure functions of (config, instance index); identical
inputs reproduce identical instances. Both serve the test suite and the
scale script only; the package itself never calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stepskew import (
    FiniteMeasureSpace,
    MarkovSpec,
    MultipleStationary,
    ProbVector,
    SkewSystem,
    StochasticMatrix,
    TooLarge,
    TransformationFamily,
    ValidationError,
    stationary_distribution,
    substream,
    validate_spec,
)

_ENUM_STATE_CAP = 12
_ENUM_PAIR_CAP = 16
_MAX_ATTEMPTS = 100


class GenerationFailed(RuntimeError):
    """Random instance generation exhausted its retry budget."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for random instance generation.

    sparsity is the expected number of nonzeros per kernel row;
    degenerate_bias is the probability of stitching a structure that forces
    a degenerate verdict (a two-block deterministic pattern, or two
    absorbing blocks).
    """

    seed: int
    n_states: tuple[int, int] = (2, 6)
    n_points: tuple[int, int] = (2, 5)
    sparsity: float = 2.5
    family_style: str = "uniform-permutations"
    degenerate_bias: float = 0.0

    def __post_init__(self):
        if self.n_states[0] > self.n_states[1] or self.n_states[0] < 1:
            raise ValidationError("state count range is empty")
        if self.n_points[0] > self.n_points[1] or self.n_points[0] < 1:
            raise ValidationError("point count range is empty")
        if self.sparsity < 1:
            raise ValidationError("sparsity must be >= 1")
        if self.family_style not in ("uniform-permutations", "mu-level-set-permutations"):
            raise ValidationError(f"unknown family style {self.family_style!r}")


def _rng(config: GeneratorConfig, index: int, salt: int) -> np.random.Generator:
    return substream(config.seed, index * 4 + salt)


def brute_force_deterministic_sets(spec: MarkovSpec) -> list[frozenset[int]]:
    """All deterministic sets by enumerating every subset of the support."""
    supp = [int(y) for y in spec.support]
    if len(supp) > _ENUM_STATE_CAP:
        raise TooLarge(f"support has {len(supp)} states, cap is {_ENUM_STATE_CAP}")
    local = {y: k for k, y in enumerate(supp)}
    pattern = spec.kernel.pattern
    row_masks = [sum(1 << local[int(z)] for z in np.flatnonzero(pattern[y])) for y in supp]
    out = []
    for sub in range(1 << len(supp)):
        if all((rm & sub) == 0 or (rm & sub) == rm for rm in row_masks):
            out.append(
                frozenset(supp[k] for k in range(len(supp)) if sub >> k & 1)
            )
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def brute_force_invariant_sets(sys: SkewSystem) -> list[frozenset[int]]:
    """Pair-state sets with no edge across the boundary, by enumeration.

    Pairs are the active (state, point) pairs in lexicographic order, and
    their successor sets are read off the kernel rows and map tables.
    """
    spec, family = sys.spec, sys.family
    pairs = [(int(y), int(x)) for y in spec.support for x in family.space.support]
    size = len(pairs)
    if size > _ENUM_PAIR_CAP:
        raise TooLarge(f"{size} pair states, cap is {_ENUM_PAIR_CAP}")
    pos = {p: i for i, p in enumerate(pairs)}
    tables = family.tables.tolist()
    pattern = spec.kernel.pattern
    succ = [sum(1 << pos[(int(z), tables[y][x])] for z in np.flatnonzero(pattern[y])) for y, x in pairs]
    full = (1 << size) - 1
    out = []
    for sub in range(1 << size):
        # members step only inside sub, non-members only outside it
        if not any(succ[i] & (full ^ sub if sub >> i & 1 else sub) for i in range(size)):
            out.append(frozenset(k for k in range(size) if sub >> k & 1))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _random_pattern(rng: np.random.Generator, n: int, sparsity: float) -> list[list[int]]:
    rows = []
    for _ in range(n):
        d = int(np.clip(rng.poisson(sparsity), 1, n))
        rows.append(sorted(int(t) for t in rng.choice(n, size=d, replace=False)))
    return rows


def _fill_weights(rng: np.random.Generator, n: int, rows: list[list[int]]) -> np.ndarray:
    kernel = np.zeros((n, n))
    for y, targets in enumerate(rows):
        w = rng.gamma(1.0, 1.0, size=len(targets)) + 1e-9
        kernel[y, targets] = w / w.sum()
    return kernel


def _stationary_on_class(kernel: np.ndarray, idx: np.ndarray) -> np.ndarray:
    sub = StochasticMatrix.from_rows(kernel[np.ix_(idx, idx)])
    m_sub = stationary_distribution(sub)
    m = np.zeros(kernel.shape[0])
    m[idx] = m_sub.values
    return m


def _stitch_two_block(
    rng: np.random.Generator, n: int, alternating: bool
) -> list[list[int]]:
    """Patterns with two state blocks: alternating rows (each row's support
    inside the opposite block) or block-diagonal absorbing rows."""
    perm = [int(p) for p in rng.permutation(n)]
    cut = int(rng.integers(1, n))
    v1, v2 = perm[:cut], perm[cut:]
    rows: dict[int, set[int]] = {y: set() for y in range(n)}
    if alternating:
        # a covering cross cycle guarantees strong connectivity
        for i, y in enumerate(v1):
            rows[y].add(v2[i % len(v2)])
        for j, z in enumerate(v2):
            rows[z].add(v1[(j + 1) % len(v1)])
        for block, other in ((v1, v2), (v2, v1)):
            for y in block:
                extra = int(rng.integers(0, 2))
                rows[y].update(int(t) for t in rng.choice(other, size=min(extra, len(other)), replace=False))
    else:
        for block in (v1, v2):
            for i, y in enumerate(block):
                rows[y].add(block[(i + 1) % len(block)])
                extra = int(rng.integers(0, 2))
                rows[y].update(
                    int(t) for t in rng.choice(block, size=min(extra, len(block)), replace=False)
                )
    return [sorted(rows[y]) for y in range(n)]


def generate_spec(config: GeneratorConfig, index: int = 0) -> MarkovSpec:
    """Random valid spec; occasionally degenerate per the configured bias."""
    rng = _rng(config, index, 0)
    lo, hi = config.n_states
    for _ in range(_MAX_ATTEMPTS):
        n = int(rng.integers(lo, hi + 1))
        stitch = n >= 2 and rng.random() < config.degenerate_bias
        try:
            if stitch:
                alternating = rng.random() < 0.5
                rows = _stitch_two_block(rng, n, alternating)
                kernel = _fill_weights(rng, n, rows)
                sm = StochasticMatrix.from_rows(kernel)
                if alternating:
                    m = stationary_distribution(sm).values
                else:
                    classes = sm.closed_classes.labels
                    m1 = _stationary_on_class(sm.values, np.flatnonzero(classes == 0))
                    m2 = _stationary_on_class(sm.values, np.flatnonzero(classes == 1))
                    alpha = rng.uniform(0.2, 0.8)
                    m = alpha * m1 + (1 - alpha) * m2
            else:
                rows = _random_pattern(rng, n, config.sparsity)
                kernel = _fill_weights(rng, n, rows)
                sm = StochasticMatrix.from_rows(kernel)
                try:
                    m = stationary_distribution(sm).values
                except MultipleStationary:
                    closed = sm.closed_classes
                    pick = int(rng.integers(0, closed.n_blocks))
                    m = _stationary_on_class(sm.values, np.flatnonzero(closed.labels == pick))
            return validate_spec(sm, ProbVector.from_values(m))
        except (ValidationError, MultipleStationary):
            continue
    raise GenerationFailed(f"no valid spec after {_MAX_ATTEMPTS} attempts (index {index})")


def generate_space(config: GeneratorConfig, index: int = 0) -> FiniteMeasureSpace:
    """Random fiber space; uniform or with repeated-mass level sets per style."""
    rng = _rng(config, index, 2)
    lo, hi = config.n_points
    k = int(rng.integers(lo, hi + 1))
    if config.family_style == "uniform-permutations":
        mu = np.full(k, 1.0 / k)
    else:
        masses = rng.integers(1, 4, size=k).astype(float)
        mu = masses / masses.sum()
    return FiniteMeasureSpace.create(tuple(str(i) for i in range(k)), mu)


def generate_family(
    config: GeneratorConfig, space: FiniteMeasureSpace, states: int, index: int = 0
) -> TransformationFamily:
    """One random measure-preserving permutation per state.

    Permutations are sampled uniformly among those preserving the level
    sets of mu, which makes them measure preserving by construction; for a
    uniform mu that is the full symmetric group.
    """
    rng = _rng(config, index, 1)
    mu = space.mu.values
    groups: dict[float, list[int]] = {}
    for i, v in enumerate(mu):
        groups.setdefault(float(v), []).append(i)
    tables = []
    for _ in range(states):
        table = np.empty(space.k, dtype=np.int64)
        for idx in groups.values():
            table[idx] = rng.permutation(idx)
        tables.append(table)
    return TransformationFamily.create(space, tables)
