"""Finite probability spaces, measure-preserving maps, and family invariants.

A transformation family assigns one measure-preserving map of a common
finite space to each driving state. The sets fixed by every active map form
a partition of the support (the finite stand-in for the invariant
sigma-algebra); conditional expectation projects onto functions constant on
its blocks.

Points with zero mass are outside every statement here: maps may do
anything off-support, and off-support entries of a conditional expectation
are reported as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotMeasurePreserving, ValidationError
from .graphs import Partition, undirected_components
from .kernels import EPS_SUM, ProbVector, _state_mask


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Labelled points with a probability vector."""

    points: tuple[str, ...]
    mu: ProbVector

    @classmethod
    def create(cls, points, mu_values) -> "FiniteMeasureSpace":
        labels = tuple(str(p) for p in points)
        if len(set(labels)) != len(labels):
            raise ValidationError("point labels must be unique")
        mu = ProbVector.from_values(mu_values)
        if mu.n != len(labels):
            raise DimensionMismatch(
                f"{len(labels)} points but {mu.n} measure entries"
            )
        return cls(labels, mu)

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def support(self) -> np.ndarray:
        return self.mu.support


def uniform_space(points) -> FiniteMeasureSpace:
    labels = tuple(str(p) for p in points)
    if not labels:
        raise ValidationError("a uniform space needs at least one point")
    return FiniteMeasureSpace.create(labels, np.full(len(labels), 1.0 / len(labels)))


def _checked_f(space: FiniteMeasureSpace, f) -> np.ndarray:
    """f as a float vector over the space's points, every value finite."""
    fv = np.asarray(f, dtype=float)
    if fv.shape != (space.k,):
        raise DimensionMismatch(f"function has shape {fv.shape}, expected ({space.k},)")
    if not np.isfinite(fv).all():
        raise ValidationError(f"function value {fv[~np.isfinite(fv)][0]} is not finite")
    return fv


def _check_tables(space: FiniteMeasureSpace, tables: np.ndarray) -> None:
    """Raise the first fault of the first faulty row of an (n, k) int64
    table, as one row checked alone would: an out-of-range index, then the
    pushforward deviation, then support sent off-support, then a map that
    is not injective on the support. Each check runs on all rows at once,
    with flat bincounts over the index y * k + T_y(x)."""
    n, k = tables.shape
    mu = space.mu.values
    out = (tables < 0) | (tables >= k)
    flat = np.where(out, 0, tables) + np.arange(0, n * k, k)[:, None]
    push = np.bincount(flat.ravel(), weights=np.tile(mu, n), minlength=n * k)
    dev = np.abs(push.reshape(n, k) - mu)
    hits = np.bincount(flat[:, space.support].ravel(), minlength=n * k).reshape(n, k)
    off = hits[:, mu == 0].any(axis=1)  # a support point's image has no mass
    faulty = out.any(axis=1) | (dev.max(axis=1) > EPS_SUM) | off | (hits.max(axis=1) > 1)
    if not faulty.any():
        return
    y = int(faulty.argmax())
    if out[y].any():
        raise ValidationError("map table contains out-of-range point indices")
    worst = int(np.argmax(dev[y]))
    if dev[y, worst] > EPS_SUM:
        raise NotMeasurePreserving(worst, float(dev[y, worst]))
    detail = "map sends support points off-support" if off[y] else "map is not injective on the support"
    raise NotMeasurePreserving(worst, float(dev[y, worst]), detail)


@dataclass(frozen=True)
class TransformationFamily:
    """One measure-preserving map per driving state, over a shared space.

    tables has shape (n_states, k) and is read-only; row y is the table of
    the map T_y, so tables[y, x] is T_y(x).
    """

    space: FiniteMeasureSpace
    tables: np.ndarray

    @classmethod
    def create(cls, space: FiniteMeasureSpace, tables) -> "TransformationFamily":
        """Check every map and hold them as one read-only int64 copy.

        Each row, as np.asarray makes it, must have shape (k,) and hold
        integer point indices: floats, bools and strings are refused, never
        truncated. Mass conservation on a finite space forces each map to
        permute the support; that is asserted structurally on top of the
        tolerance-based pushforward test, so maps that shuffle mass below
        tolerance are still rejected. The first faulty row's first fault is
        raised.
        """
        rows = [np.asarray(t) for t in tables]
        typed = next(
            (y for y, t in enumerate(rows) if t.shape != (space.k,) or t.dtype.kind not in "iu"),
            len(rows),
        )
        stacked = np.array(rows[:typed], dtype=np.int64).reshape(typed, space.k)
        _check_tables(space, stacked)  # the rows before a mistyped one come first
        if typed < len(rows):
            t = rows[typed]
            if t.shape != (space.k,):
                raise DimensionMismatch(f"map table has shape {t.shape}, expected ({space.k},)")
            raise ValidationError(f"map table must hold integer point indices, got {t.dtype} entries")
        stacked.setflags(write=False)
        return cls(space, stacked)

    @property
    def n_states(self) -> int:
        return len(self.tables)


def family_invariant_partition(family: TransformationFamily, active) -> Partition:
    """Finest partition of the support into sets fixed by every active map.

    Computed as connected components of the undirected graph with an edge
    between x and its image under each active map; invariant sets are
    exactly the unions of the resulting blocks.
    """
    act = _state_mask(active, family.n_states, "active set")
    supp = family.space.support
    return undirected_components(family.space.mu.values > 0, supp, family.tables[act][:, supp])


def conditional_expectation(
    family: TransformationFamily, active, f
) -> np.ndarray:
    """Project f onto functions constant on the invariant partition.

    Each block receives its mu-weighted average of f; zero-mass points get 0.
    """
    fv = _checked_f(family.space, f)
    labels = family_invariant_partition(family, active).labels
    on = labels >= 0
    w, block = family.space.mu.values[on], labels[on]
    out = np.zeros(family.space.k)
    out[on] = (np.bincount(block, weights=w * fv[on]) / np.bincount(block, weights=w))[block]
    return out
