"""Step skew products over finite Markov shifts, via the pair chain.

The skew product iterates a randomly selected map on the fiber while the
driving chain advances. All of its invariant structure is captured by the
pair chain on (state, point) pairs with steps

    (y, x)  ->  (z, T_y(x))   with weight k(y, z),

whose stationary vector is the product of the two measures. Because that
stationary vector is strictly positive on pair states, every edge lies on
a cycle, so the chain has no transient states and its closed classes are
its connected components; the skew product is ergodic precisely when
there is a single class.

The classes are found without building the chain. Every successor of a
pair lies in its class, so for each active y and point x the pairs
(support of row y) x {T_y(x)} share a class. Each T_y permutes the points
of positive mass, and rows that share a state chain together, so every
set (sim block) x {point} lies inside one class. The classes are therefore
the lifts of the classes of a quotient graph on (sim block, point) nodes,
with edges (D, x) -> (D_z, T_z(x)) for each active z in D, where D_z is the
block holding row z's support. Its edges are images of pair edges, so they
too lie on cycles, and its classes are its connected components, labelled
from edge arrays (one edge per active pair, never a matrix). A strictly
irreducible kernel has one block; the quotient is then the orbit graph of
the maps and the classes are (support) x (family-invariant blocks), the
paper's main theorem. Brute-force subset enumeration, the double-loop pair
kernel and a Monte Carlo dispersion probe (see the oracles module)
cross-check this reduction in the test suite.

The two Id/swap constructions that witness the failure of the ergodicity
implication for non-strictly-irreducible (resp. reducible) driving kernels
are provided as constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
from .graphs import Partition, indices_by_label, undirected_components
from .kernels import EPS_SUM, MarkovSpec, _is_index, is_irreducible, is_strictly_irreducible


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
    def closed_classes(self) -> "ErgodicityReport":
        """The pair chain's closed classes, decided once on first use."""
        return ErgodicityReport.of(self)

    @cached_property
    def family_partition(self) -> Partition:
        """The finest partition of the fiber invariant under every active map."""
        return family_invariant_partition(self.family, self.spec.support)

    @cached_property
    def _flat_images(self) -> np.ndarray:
        """Flat index y * k + T_y(x) of each pair (y, x), in row-major order."""
        n, k = self.spec.n, self.family.space.k
        return (np.arange(0, n * k, k)[:, None] + self.family.tables).ravel()

    def _pair_step(self, mass: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step of the pair chain on an (n, k) mass grid: pair (y, x)
        sends its mass to (z, T_y(x)) with weight k(y, z). Each row moves
        along its map, then the rows mix through the kernel (into out, if
        given)."""
        moved = np.bincount(self._flat_images, weights=mass.ravel(), minlength=mass.size)
        return np.matmul(self.spec.kernel.values.T, moved.reshape(mass.shape), out=out)


def quotient_class_grid(sys: SkewSystem) -> np.ndarray:
    """The pair chain's closed classes as an (n, k) grid of class indices,
    -1 off the active pairs, from the sim-block quotient.

    Verifies product-measure invariance first, and that every active row's
    support lies in one sim block, which the quotient rests on: a sim
    partition too fine for that would drop the quotient's edges.
    """
    spec, family = sys.spec, sys.family
    n, k = spec.n, family.space.k
    tables = family.tables
    product = spec.m.values[:, None] * family.space.mu.values
    inv_dev = float(np.abs(sys._pair_step(product) - product).max())
    if inv_dev > EPS_SUM:
        raise InternalInconsistency(
            f"product measure is not invariant for the pair chain ({inv_dev:.3e})"
        )
    active, points = spec.support, family.space.support
    state_block, width = spec.sim.labels, len(points)
    local = np.empty(k, dtype=np.intp)
    local[points] = np.arange(width)
    # Node (b, x) has index b * width + local[x]; pair (active[i], points[j])
    # lies in node nodes[i, j], whose edge leads to heads[i, j]. Row z's
    # support lies in one block, so its first successor names D_z.
    pattern = spec.kernel.pattern[active]
    succ_block = state_block[pattern.argmax(axis=1)]
    split = (pattern & (state_block != succ_block[:, None])).any(axis=1)
    if split.any():
        raise InternalInconsistency(
            f"sim partition splits the support of states {active[split].tolist()}, so the "
            "quotient would drop their edges; full-support stationarity leaves no pair transient"
        )
    nodes = state_block[active][:, None] * width + np.arange(width)
    heads = succ_block[:, None] * width + local[tables[active[:, None], points]]
    # Every edge lies on a cycle, so connected components are the classes.
    ground = np.ones(spec.sim.n_blocks * width, dtype=bool)
    node_class = undirected_components(ground, nodes, heads).labels
    # Nodes are ordered by (block, point) and blocks by their least state, so
    # the classes come numbered in the order of their first pair.
    grid = np.full((n, k), -1, dtype=np.intp)
    grid[active[:, None], points] = node_class[nodes]
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class ErgodicityReport:
    """The pair chain's closed classes, held as an (n, k) label grid.

    labels holds class indices, -1 off the active pairs, with the classes
    numbered by their first pair in lexicographic order. Per class,
    class_masses and class_weights hold the product mass and the weights
    m(y) * mu(x) of its pairs (in lexicographic order) normalised within the
    class, with their points. When every class is (all active states) x (a
    point section), sections is the partition of the points into those
    sections, labelled by class; else it is None.
    """

    labels: np.ndarray
    class_masses: np.ndarray
    class_weights: tuple[tuple[np.ndarray, np.ndarray], ...]
    sections: Partition | None

    @classmethod
    def of(cls, sys: SkewSystem) -> "ErgodicityReport":
        labels = quotient_class_grid(sys)
        ys, xs = np.nonzero(labels >= 0)
        weights = sys.spec.m.values[ys] * sys.family.space.mu.values[xs]
        masses, class_weights = [], []
        for idx in indices_by_label(labels):
            w = weights[idx]
            masses.append(w.sum())
            class_weights.append((w / masses[-1], xs[idx]))
        masses = np.array(masses)
        masses.setflags(write=False)
        # A class is a product exactly when every point's column keeps one
        # label over the active states; one active state's row then labels
        # the points by section, numbered by least point.
        rows = labels[sys.spec.support]
        sections = None
        if (rows == rows[0]).all():
            sections = Partition(labels[sys.spec.support[0]], len(masses))
        return cls(labels, masses, tuple(class_weights), sections)

    @property
    def ergodic(self) -> bool:
        return len(self.class_masses) == 1

    @property
    def product_structured(self) -> bool:
        return self.sections is not None

    def class_average(self, y: int, x: int, fv: np.ndarray) -> float:
        """Product-weighted average of f over the closed class of pair (y, x)."""
        n, k = self.labels.shape
        # Check the indices first: a negative one would wrap around the grid.
        if not (_is_index(y, n) and _is_index(x, k)) or self.labels[y, x] < 0:
            raise InvalidPairState(f"({y}, {x}) is not an active (state, point) pair")
        w, pts = self.class_weights[self.labels[y, x]]
        return float(w @ fv[pts])


def invariant_function_basis(sys: SkewSystem) -> list[np.ndarray]:
    """Indicator vectors of the closed classes, over the pairs in
    lexicographic order.

    Each returned vector g satisfies g(y, x) = sum_z k(y, z) g(z, T_y(x))
    entrywise, verified directly from the kernel and the maps. No further
    independent solutions exist: the pair chain has one fixed direction per
    closed class.
    """
    labels = sys.closed_classes.labels
    active = labels >= 0
    kv, tables = sys.spec.kernel.values, sys.family.tables
    vectors = []
    for c in range(len(sys.closed_classes.class_masses)):
        grid = (labels == c).astype(float)
        pulled = np.take_along_axis(kv @ grid, tables, axis=1)
        bad = np.argwhere(active & (np.abs(grid - pulled) > 1e-12))
        if bad.size:
            raise InternalInconsistency(
                "class indicator violates the fixed-point identity at "
                f"{tuple(bad[0].tolist())}"
            )
        vectors.append(grid[active])
    return vectors


def check_product_structure(sys: SkewSystem) -> bool:
    """Whether the skew product's invariant structure splits as base x fiber.

    True iff every closed class is (all active states) x (point section) and
    those sections form exactly the family-invariant partition. For a
    strictly irreducible driving kernel a False answer is impossible and
    raises TheoremViolation.
    """
    product = sys.closed_classes.sections == sys.family_partition
    if not product and is_strictly_irreducible(sys.spec):
        raise TheoremViolation(
            "strictly irreducible driving kernel produced a non-product invariant "
            "structure; this is an implementation bug"
        )
    return product


def _two_point_family(spec: MarkovSpec, swap_states: np.ndarray) -> TransformationFamily:
    """Family on a uniform 2-point fiber: swap on the given states, Id elsewhere."""
    swap = np.zeros(spec.n, dtype=np.int64)
    swap[swap_states] = 1
    tables = np.stack([swap, 1 - swap], axis=1)
    return TransformationFamily.create(uniform_space(("1", "2")), tables)


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
    in_b = spec.sim.labels == 0
    stays_in_b = ~(spec.kernel.pattern & ~in_b).any(axis=1)
    # A state in b whose row leaves b, or outside b whose row enters it.
    supp = spec.support
    return SkewSystem.create(spec, _two_point_family(spec, supp[in_b[supp] != stays_in_b[supp]]))


def counterexample_invariant_set(spec: MarkovSpec) -> frozenset[tuple[int, int]]:
    """The invariant pair set witnessing non-ergodicity for the family above."""
    in_b = spec.sim.labels == 0
    return frozenset((y, 0 if in_b[y] else 1) for y in spec.support.tolist())


def build_base_counterexample(spec: MarkovSpec) -> SkewSystem:
    """Two-point system whose invariant structure cannot split, for a
    reducible driving kernel.

    The states that reach the first support state swap; the rest of the
    support, which that state never reaches, keeps the identity. Every
    support state is recurrent (validate_spec), so the states reaching the
    first one are exactly its closed class.
    """
    if is_irreducible(spec):
        raise NotApplicable("driving kernel is irreducible")
    supp, labels = spec.support, spec.kernel.closed_classes.labels
    return SkewSystem.create(spec, _two_point_family(spec, supp[labels[supp] == labels[supp[0]]]))
