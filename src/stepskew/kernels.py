"""Finite-state Markov kernels and their structure theory.

A kernel is a row-stochastic matrix; a model instance pairs it with an
invariant (stationary) probability vector. On top of that pair this module
decides reachability, irreducibility, and strict irreducibility, the latter
through four equivalent characterizations that are cross-checked against
each other on every call:

  * connectivity of the common-predecessor graph (two states are related
    when some row gives both of them positive mass),
  * connectivity of the common-successor graph,
  * irreducibility of the Gram pattern P^T P,
  * irreducibility of the dual Gram pattern P P^T.

All structural predicates operate on the exact sparsity pattern: entries
below EPS_ZERO are snapped to zero once at ingestion and rows renormalized,
after which positivity is a boolean question. States carrying zero
stationary mass are excluded from every analysis; they can never be reached
from the support.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    MultipleStationary,
    NotInvariant,
    RowNotStochastic,
    ValidationError,
)
from .graphs import (
    Partition,
    closed_components,
    indices_by_label,
    strongly_connected_components,
    undirected_components,
)

# Entries below EPS_ZERO are structural zeros; snapped at ingestion.
EPS_ZERO = 1e-12
# Tolerance for row sums, stationarity, and pushforward checks.
EPS_SUM = 1e-9


def _is_index(value, size: int) -> bool:
    """Whether value is an integer index 0 <= value < size: a Python or numpy
    integer, never a bool or a float."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return is_int and 0 <= value < size


def _state_mask(states, n: int, what: str) -> np.ndarray:
    """Boolean mask over range(n) of the given states, each of which must
    pass _is_index."""
    states = list(states)
    bad = [s for s in states if not _is_index(s, n)]
    if bad:
        raise ValidationError(f"{what} holds {bad[0]!r}, not a state index below {n}")
    mask = np.zeros(n, dtype=bool)
    mask[states] = True
    return mask


def _ingest(values, name: str) -> np.ndarray:
    """Snap near-zeros to exact 0 and reject negative/invalid entries."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if arr.min(initial=0.0) < -EPS_ZERO:
        raise ValidationError(f"{name} contains negative entries")
    out = arr.copy()
    out[np.abs(out) < EPS_ZERO] = 0.0
    return out


@dataclass(frozen=True)
class ProbVector:
    """A probability vector with a structurally exact support."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "ProbVector":
        arr = _ingest(values, "probability vector")
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("probability vector must be 1-d and non-empty")
        s = float(arr.sum())
        if abs(s - 1.0) > EPS_SUM:
            raise ValidationError(f"probability vector sums to {s!r}, not 1")
        arr = arr / s
        arr.setflags(write=False)
        return cls(arr)

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def support(self) -> np.ndarray:
        """Indices with strictly positive mass, read-only; computed once."""
        supp = np.flatnonzero(self.values)
        supp.setflags(write=False)
        return supp


@dataclass(frozen=True)
class StochasticMatrix:
    """A row-stochastic matrix together with its boolean sparsity pattern."""

    values: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "StochasticMatrix":
        arr = _ingest(rows, "kernel")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"kernel must be square, got shape {arr.shape}")
        sums = arr.sum(axis=1)
        dev = np.abs(sums - 1.0)
        worst = int(np.argmax(dev))
        if dev[worst] > EPS_SUM:
            raise RowNotStochastic(worst, float(dev[worst]))
        arr = arr / sums[:, None]
        arr.setflags(write=False)
        return cls(arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def pattern(self) -> np.ndarray:
        """Boolean sparsity pattern, read-only; computed once."""
        pat = self.values > 0.0
        pat.setflags(write=False)
        return pat

    @cached_property
    def closed_classes(self) -> Partition:
        """Closed communicating classes, -1 on transient states; decided once."""
        return closed_components(self.n, *np.nonzero(self.pattern))


@dataclass(frozen=True)
class MarkovSpec:
    """A kernel paired with an invariant probability vector.

    Constructed through validate_spec, which enforces stationarity, support
    closure and recurrence of every support state; everything downstream
    may assume all three. The sim partitions, the four strict routes and the
    deterministic-set lattice are computed once, on first use, and shared by
    every caller holding the spec.
    """

    kernel: StochasticMatrix
    m: ProbVector

    @property
    def n(self) -> int:
        return self.kernel.n

    @property
    def support(self) -> np.ndarray:
        return self.m.support

    @cached_property
    def sim(self) -> Partition:
        """The common-predecessor classes (sim_classes)."""
        return sim_classes(self)

    @cached_property
    def dual_sim(self) -> Partition:
        """The common-successor classes (dual_sim_classes)."""
        return dual_sim_classes(self)

    @cached_property
    def strict_routes(self) -> MappingProxyType:
        """The four strict-irreducibility verdicts, read-only."""
        return MappingProxyType(strict_irreducibility_routes(self))

    @cached_property
    def deterministic_sets(self) -> UnionLattice:
        """Every deterministic set: the union lattice of the sim classes,
        which partition the support."""
        by_label = indices_by_label(self.sim.labels)  # indices into the support
        return UnionLattice(frozenset(self.support[idx].tolist()) for idx in by_label)


class UnionLattice:
    """The 2^b unions of b disjoint blocks, lazily, in (size, sorted members) order.

    A heap walks the tree of increasing index sequences over the blocks sorted
    by (size, least member): the union ending at block i has the successors
    "add block i+1" and "replace block i by block i+1". The blocks are
    disjoint, so neither step lowers the order key, and the heap pops the
    unions in order. Membership reads the blocks alone. There are
    2 ** len(blocks) unions, so the lattice has no len: past 62 blocks the
    count overflows an index-sized integer.
    """

    def __init__(self, blocks):
        self.blocks = tuple(sorted(blocks, key=lambda b: (len(b), min(b))))

    def __contains__(self, s) -> bool:
        if not isinstance(s, (set, frozenset)):
            return False
        hit = [b for b in self.blocks if not b.isdisjoint(s)]
        return all(b <= s for b in hit) and sum(map(len, hit)) == len(s)

    def __iter__(self):
        blocks, heap = self.blocks, [(0, [], -1, frozenset())]
        while heap:
            _, _, i, s = heapq.heappop(heap)
            yield s
            if i + 1 < len(blocks):
                nxt = blocks[i + 1]
                # the set drops the duplicate: at the root (i = -1) both are block 0
                for t in {s | nxt, (s - blocks[i]) | nxt}:
                    heapq.heappush(heap, (len(t), sorted(t), i + 1, t))


def validate_spec(kernel: StochasticMatrix, m: ProbVector) -> MarkovSpec:
    """Pair a kernel with a stationary vector, verifying all invariants:
    stationarity, support closure, and recurrence of every support state."""
    if kernel.n != m.n:
        raise DimensionMismatch(
            f"kernel has {kernel.n} states but measure has {m.n}"
        )
    dev = np.abs(m.values @ kernel.values - m.values)
    worst = float(dev.max())
    if worst > EPS_SUM:
        raise NotInvariant(worst)
    # Support closure and recurrence are forced by exact invariance; assert
    # them on the pattern because the invariance test is run at tolerance.
    on = m.values > 0
    leaks = kernel.pattern & on[:, None] & ~on
    if leaks.any():
        y = int(leaks.any(axis=1).argmax())
        targets = np.flatnonzero(leaks[y]).tolist()
        raise NotInvariant(worst, f"state {y} gives positive mass to zero-mass states {targets}")
    transient = np.flatnonzero(on & (kernel.closed_classes.labels < 0))
    if transient.size:
        raise NotInvariant(worst, f"state {transient[0]} has positive mass but is transient")
    return MarkovSpec(kernel, m)


def stationary_distribution(kernel: StochasticMatrix) -> ProbVector:
    """Solve m = m K when K has a unique stationary vector.

    Uniqueness is decided on the pattern: the fixed space of a stochastic
    matrix has one dimension per closed class, so a kernel with more than
    one is refused with MultipleStationary and the caller must supply the
    vector. It is solved on the closed class and is 0 on transient states.
    """
    closed = kernel.closed_classes
    if closed.n_blocks > 1:
        raise MultipleStationary(
            f"fixed space has dimension {closed.n_blocks}; supply the stationary vector"
        )
    idx = np.flatnonzero(closed.labels == 0)  # every row has mass, so some class is closed
    # K - I with each diagonal entry taken as minus its row's off-diagonal
    # sum: equal in exact arithmetic, and free of the cancellation in
    # k(i, i) - 1 that swamps weak couplings.
    gen = kernel.values[np.ix_(idx, idx)].copy()
    np.fill_diagonal(gen, 0.0)
    a = (gen - np.diag(gen.sum(axis=1))).T
    a[-1] = 1.0  # the normalisation row: entries of v sum to 1
    v = np.zeros(kernel.n)
    v[idx] = np.linalg.solve(a, np.eye(len(idx))[-1])
    v = np.where(np.abs(v) < EPS_ZERO, 0.0, v)
    if v.min() < 0:
        raise InternalInconsistency(
            "unique fixed vector has a negative entry beyond noise level"
        )
    residual = float(np.abs(v @ kernel.values - v).max())
    if residual > EPS_SUM:
        raise InternalInconsistency(
            f"solved stationary vector is not stationary ({residual:.3e})"
        )
    return ProbVector.from_values(v)


def reach_set(spec: MarkovSpec, b) -> frozenset[int]:
    """States from which the target set is hit with positive probability.

    Pattern-exact forward reachability restricted to the support of m. The
    n-step layers stabilize within |support| steps, so the union over that
    range is the full closure.
    """
    supp = spec.support
    pat = spec.kernel.pattern[np.ix_(supp, supp)]
    cur = _state_mask(b, spec.n, "target")[supp]
    total = np.zeros(len(supp), dtype=bool)
    for _ in range(len(supp)):
        cur = pat @ cur  # y is in the next layer iff some successor is in cur
        total |= cur
    return frozenset(supp[total].tolist())


def is_irreducible(spec: MarkovSpec) -> bool:
    """Strong connectivity of the transition pattern on the support of m:
    the support is a union of closed classes, here exactly one. Also decides
    ergodicity of the associated shift on path space.
    """
    labels = spec.kernel.closed_classes.labels[spec.support]
    return bool((labels == labels[0]).all())


def _reverse_rows(kernel_values: np.ndarray, mv: np.ndarray, supp) -> np.ndarray:
    """Condition the joint step measure m(j) k(j, i) on its second coordinate.

    Row i is the joint column i divided by its own sum. The sum equals m(i)
    exactly in real arithmetic, but dividing by the computed sum (rather
    than by m(i)) keeps rows stochastic to machine precision even where a
    tiny stationary mass amplifies the residual of the stationarity solve.
    """
    joint = mv[:, None] * kernel_values
    # Contiguous rows of the transpose sum in the order a lone column does.
    totals = np.ascontiguousarray(joint.T).sum(axis=1)
    # Off-support rows and rows of mass below validation resolution stay
    # point masses.
    live = supp[totals[supp] > 0.0]
    out = np.eye(kernel_values.shape[0])
    out[live] = joint[:, live].T / totals[live, None]
    return out


def reverse_kernel(spec: MarkovSpec) -> StochasticMatrix:
    """Time reversal: rev(i, j) = m(j) k(j, i) / m(i) on the support.

    Off-support rows are set to the point mass at the state itself. The
    stationarity of m for the output and the involution property (checked
    in the mass-weighted form, the statement's m-almost-everywhere sense)
    are verified before returning.
    """
    mv = spec.m.values
    supp = spec.support
    rev = StochasticMatrix.from_rows(_reverse_rows(spec.kernel.values, mv, supp))
    dev = float(np.abs(mv @ rev.values - mv).max())
    if dev > EPS_SUM:
        raise InternalInconsistency(f"m is not invariant for the reverse kernel ({dev:.3e})")
    back = _reverse_rows(rev.values, mv, supp)
    dev2 = float(
        np.abs(mv[:, None] * (back - spec.kernel.values))[np.ix_(supp, supp)].max()
    )
    if dev2 > EPS_SUM:
        raise InternalInconsistency(f"double reversal does not restore the kernel ({dev2:.3e})")
    return rev


def _linked_classes(spec: MarkovSpec, pat: np.ndarray) -> Partition:
    """Support states joined whenever one support row of pat holds both."""
    ground = spec.m.values > 0
    rows, cols = np.nonzero(pat[ground] & ground)
    same = rows[1:] == rows[:-1]  # neighbours within one row
    return undirected_components(ground, cols[:-1][same], cols[1:][same])


def sim_classes(spec: MarkovSpec) -> Partition:
    """Common-predecessor classes on the support.

    Two states are related when some active row gives both positive mass;
    the blocks are the connected components of that undirected graph.
    """
    return _linked_classes(spec, spec.kernel.pattern)


def dual_sim_classes(spec: MarkovSpec) -> Partition:
    """Common-successor classes on the support (the dual relation)."""
    return _linked_classes(spec, spec.kernel.pattern.T)


def is_strictly_irreducible(spec: MarkovSpec) -> bool:
    """Whether every deterministic set has trivial mass.

    Reads all four equivalent characterizations and insists they agree;
    a disagreement is an implementation bug, never valid input.
    """
    verdicts = spec.strict_routes
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistency(
            f"strict-irreducibility characterizations disagree: {dict(verdicts)}"
        )
    return verdicts["sim"]


def strict_irreducibility_routes(spec: MarkovSpec) -> dict[str, bool]:
    """The four characterization verdicts; the labeller routes are read off
    the spec's sim and dual sim classes. The Gram products run in float64
    on BLAS: their entries are counts of at most n, so exact."""
    supp = spec.support
    p = spec.kernel.pattern[np.ix_(supp, supp)].astype(np.float64)
    return {
        "sim": spec.sim.trivial,
        "dual_sim": spec.dual_sim.trivial,
        "gram": strongly_connected_components((p.T @ p) > 0).n_blocks == 1,
        "dual_gram": strongly_connected_components((p @ p.T) > 0).n_blocks == 1,
    }


def trivial_kernel(m: ProbVector) -> MarkovSpec:
    """The kernel whose every row equals m (an i.i.d. selection)."""
    rows = np.tile(m.values, (m.n, 1))
    return validate_spec(StochasticMatrix.from_rows(rows), m)
