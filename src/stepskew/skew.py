"""Step skew products over finite Markov shifts, via the pair chain.

The skew product iterates a randomly selected map on the fiber while the
driving chain advances. All of its invariant structure is captured by the
pair chain on (state, point) pairs with steps

    (y, x)  ->  (z, T_y(x))   with weight k(y, z),

whose stationary vector is the product of the two measures. Because that
stationary vector is strictly positive on pair states, the chain has no
transient states and its strongly connected components are exactly the
closed classes; the skew product is ergodic precisely when there is a
single class. Both brute-force subset enumeration and a Monte Carlo
dispersion probe (see the oracles module) cross-check this reduction in the
test suite.

The two Id/swap constructions that witness the failure of the ergodicity
implication for non-strictly-irreducible (resp. reducible) driving kernels
are provided as constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .dynamics import (
    TransformationFamily,
    family_invariant_partition,
    uniform_space,
)
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidPairState,
    NotApplicable,
    TheoremViolation,
)
from .graphs import Partition, closed_components, partition_from_blocks
from .kernels import (
    EPS_SUM,
    MarkovSpec,
    is_irreducible,
    is_strictly_irreducible,
    reach_set,
)


@dataclass(frozen=True)
class SkewSystem:
    """A driving kernel together with a transformation family on the fiber."""

    spec: MarkovSpec
    family: TransformationFamily

    @classmethod
    def create(cls, spec: MarkovSpec, family: TransformationFamily) -> "SkewSystem":
        if family.n_states != spec.n:
            raise DimensionMismatch(
                f"family has {family.n_states} maps but kernel has {spec.n} states"
            )
        return cls(spec, family)

    @cached_property
    def pair_analysis(self) -> "PairAnalysis":
        """The pair chain and its closed classes, built once on first use."""
        return PairAnalysis.of(build_pair_chain(self))

    @cached_property
    def family_partition(self) -> Partition:
        """The finest partition of the fiber invariant under every active map."""
        return family_invariant_partition(self.family, self.spec.support)

    @cached_property
    def product_sections(self) -> tuple[frozenset[int], ...] | None:
        """Each closed class's point section if every class is (all active
        states) x (a point section), else None."""
        analysis, sections = self.pair_analysis, []
        for block in analysis.classes:
            section = frozenset(analysis.chain.states[i][1] for i in block)
            # The pairs lie in (active states) x section and are distinct,
            # so they fill it exactly when the counts match.
            if len(block) != len(self.spec.support) * len(section):
                return None
            sections.append(section)
        return tuple(sections)


@dataclass(frozen=True)
class PairChain:
    """The induced chain on active (state, point) pairs.

    states lists the pairs in lexicographic order; kernel is the dense
    transition matrix over that ordering; stationary is the product vector
    m(y) * mu(x), invariant for the kernel.
    """

    states: tuple[tuple[int, int], ...]
    kernel: np.ndarray
    stationary: np.ndarray

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.states)}

    def closed_classes(self) -> tuple[frozenset[int], ...]:
        """SCCs of the transition pattern, verified to be closed."""
        classes = closed_components(self.kernel > 0)
        if sum(len(block) for block in classes) != self.size:
            raise InternalInconsistency(
                "pair chain has a transient class despite full-support stationarity"
            )
        return classes


def build_pair_chain(sys: SkewSystem) -> PairChain:
    """Construct the pair chain and verify product-measure invariance."""
    spec, family = sys.spec, sys.family
    active, points = spec.support, family.space.support
    size = len(active) * len(points)
    # Pair i = (ys[i], xs[i]) in lexicographic order; pos inverts it.
    ys = np.repeat(active, len(points))
    xs = np.tile(points, len(active))
    pos = np.full((spec.n, family.space.k), -1, dtype=np.intp)
    pos[ys, xs] = np.arange(size)
    images = family.table_matrix()[ys, xs]
    # One entry per (active row y, successor z) edge, repeated for every
    # point: pair (y, x) steps to (z, T_y(x)) with weight k(y, z).
    kv = spec.kernel.values
    row, z = np.nonzero(kv[active])
    src = row[:, None] * len(points) + np.arange(len(points))
    kernel = np.zeros((size, size))
    kernel[src, pos[z[:, None], images[src]]] = kv[active[row], z][:, None]
    stationary = spec.m.values[ys] * family.space.mu.values[xs]
    row_dev = float(np.abs(kernel.sum(axis=1) - 1.0).max())
    if row_dev > EPS_SUM:
        raise InternalInconsistency(f"pair kernel rows are not stochastic ({row_dev:.3e})")
    inv_dev = float(np.abs(stationary @ kernel - stationary).max())
    if inv_dev > EPS_SUM:
        raise InternalInconsistency(
            f"product measure is not invariant for the pair kernel ({inv_dev:.3e})"
        )
    kernel.setflags(write=False)
    stationary.setflags(write=False)
    return PairChain(tuple(zip(ys.tolist(), xs.tolist())), kernel, stationary)


@dataclass(frozen=True)
class PairAnalysis:
    """A pair chain with its closed classes, each class's product mass, and
    for each class its points with their product weights normalised within
    the class. class_at maps every active pair to the index of its class.
    """

    chain: PairChain
    classes: tuple[frozenset[int], ...]
    class_at: dict[tuple[int, int], int]
    masses: np.ndarray
    averages: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def of(cls, chain: PairChain) -> "PairAnalysis":
        classes = chain.closed_classes()
        class_at, masses, averages = {}, [], []
        for c, block in enumerate(classes):
            idx = sorted(block)
            class_at.update((chain.states[i], c) for i in idx)
            w = chain.stationary[idx]
            masses.append(w.sum())
            averages.append((w / w.sum(), np.array([chain.states[i][1] for i in idx])))
        masses = np.array(masses)
        masses.setflags(write=False)
        return cls(chain, classes, class_at, masses, tuple(averages))

    def class_average(self, y: int, x: int, fv: np.ndarray) -> float:
        """Product-weighted average of f over the closed class of pair (y, x)."""
        key = (int(y), int(x))
        if key not in self.class_at:
            raise InvalidPairState(f"{key} is not an active (state, point) pair")
        w, pts = self.averages[self.class_at[key]]
        return float(w @ fv[pts])

    def fixed_space_dim(self) -> int:
        """Dimension of the pair kernel's fixed space, by SVD one class at a time.

        No edge joins two classes, so with the pairs ordered by class P - I
        is block diagonal and its singular values are those of its diagonal
        blocks together: the per-block counts sum to the whole-matrix count.
        """
        dim = 0
        for block in self.classes:
            idx = sorted(block)
            sub = self.chain.kernel[np.ix_(idx, idx)] - np.eye(len(idx))
            s = scipy.linalg.svd(sub, compute_uv=False)
            dim += int(np.sum(s <= 1e-10 * self.chain.size))
        return dim


@dataclass(frozen=True)
class ErgodicityReport:
    """Closed-class decomposition of a skew product's pair chain."""

    ergodic: bool
    pair_states: tuple[tuple[int, int], ...]
    classes: Partition
    class_masses: np.ndarray
    product_structured: bool


def is_skew_ergodic(sys: SkewSystem) -> ErgodicityReport:
    """Decide ergodicity of the skew product from the pair chain's classes."""
    analysis = sys.pair_analysis
    chain, classes = analysis.chain, analysis.classes
    return ErgodicityReport(
        ergodic=len(classes) == 1,
        pair_states=chain.states,
        classes=partition_from_blocks(range(chain.size), classes),
        class_masses=analysis.masses,
        product_structured=sys.product_sections is not None,
    )


def invariant_function_basis(sys: SkewSystem) -> list[np.ndarray]:
    """Indicator vectors of the closed classes, verified to span the fixed space.

    Each returned vector g satisfies g(y, x) = sum_z k(y, z) g(z, T_y(x))
    entrywise; an SVD rank check confirms no further independent solutions
    exist.
    """
    analysis = sys.pair_analysis
    chain = analysis.chain
    ys, xs = np.array(chain.states).T
    images = sys.family.table_matrix()[ys, xs]
    kv = sys.spec.kernel.values
    grid = np.zeros((sys.spec.n, sys.family.space.k))
    vectors = []
    for block in analysis.classes:
        g = np.zeros(chain.size)
        g[sorted(block)] = 1.0
        # Verify the fixed-point identity directly from the kernel and maps,
        # not through the already-built pair matrix.
        grid[ys, xs] = g
        bad = np.flatnonzero(np.abs(g - (kv @ grid)[ys, images]) > 1e-12)
        if bad.size:
            raise InternalInconsistency(
                f"class indicator violates the fixed-point identity at {chain.states[bad[0]]}"
            )
        vectors.append(g)
    fixed_dim = analysis.fixed_space_dim()
    if fixed_dim != len(vectors):
        raise InternalInconsistency(
            f"fixed space has dimension {fixed_dim}, expected {len(vectors)} class indicators"
        )
    return vectors


def check_product_structure(sys: SkewSystem) -> bool:
    """Whether the skew product's invariant structure splits as base x fiber.

    True iff every closed class is (all active states) x (point section) and
    those sections form exactly the family-invariant partition. For a
    strictly irreducible driving kernel a False answer is impossible and
    raises TheoremViolation.
    """
    sections = sys.product_sections
    product = sections is not None and set(sections) == set(sys.family_partition.blocks)
    if not product and is_strictly_irreducible(sys.spec):
        raise TheoremViolation(
            "strictly irreducible driving kernel produced a non-product invariant "
            "structure; this is an implementation bug"
        )
    return product


def _two_point_family(
    spec: MarkovSpec, swap_states: set[int]
) -> TransformationFamily:
    """Family on a uniform 2-point fiber: swap on the given states, Id elsewhere."""
    space = uniform_space(("1", "2"))
    ident = np.array([0, 1])
    swap = np.array([1, 0])
    tables = [swap if y in swap_states else ident for y in range(spec.n)]
    return TransformationFamily.create(space, tables)


def build_counterexample_family(spec: MarkovSpec) -> SkewSystem:
    """Ergodic two-point family whose skew product over spec is not ergodic.

    Applicable exactly when spec is irreducible but not strictly
    irreducible. The first sim-class block (canonical order) is a
    deterministic set with nontrivial mass; states are split by whether
    their row keeps or leaves that set, and leaving states get the swap.
    The resulting invariant set (set-states x point 1) u (rest x point 2)
    carries product mass exactly 1/2.
    """
    if not is_irreducible(spec):
        raise NotApplicable("driving kernel is not irreducible")
    if is_strictly_irreducible(spec):
        raise NotApplicable("driving kernel is strictly irreducible")
    b = spec.sim.blocks[0]
    swap_states = set()
    for y in spec.support:
        row = set(int(z) for z in spec.kernel.row_support(int(y)))
        stays_in_b = row <= b
        if int(y) in b:
            if not stays_in_b:
                swap_states.add(int(y))  # leaves the deterministic set
        else:
            if stays_in_b:
                swap_states.add(int(y))  # enters the deterministic set
    return SkewSystem.create(spec, _two_point_family(spec, swap_states))


def counterexample_invariant_set(spec: MarkovSpec) -> frozenset[tuple[int, int]]:
    """The invariant pair set witnessing non-ergodicity for the family above."""
    b = spec.sim.blocks[0]
    return frozenset(
        (int(y), 0) if int(y) in b else (int(y), 1) for y in spec.support
    )


def build_base_counterexample(spec: MarkovSpec) -> SkewSystem:
    """Two-point system whose invariant structure cannot split, for a
    reducible driving kernel.

    The absorbing set is the complement (within the support) of the
    reachability closure of the first state witnessing reducibility; its
    states keep the identity, all others swap.
    """
    if is_irreducible(spec):
        raise NotApplicable("driving kernel is irreducible")
    supp = spec.support_set
    absorbing: frozenset[int] | None = None
    for b in sorted(supp):
        u = reach_set(spec, {b}, record_steps=False).u_set
        if not supp <= u:
            absorbing = supp - u
            break
    if absorbing is None:
        raise InternalInconsistency(
            "reducible kernel has no reachability witness"
        )
    swap_states = {int(y) for y in supp if y not in absorbing}
    return SkewSystem.create(spec, _two_point_family(spec, swap_states))
