"""The shape of a system config document, shared by the CLI and the gallery.

A config builds its analysis once: spec and system are cached on first
read, so every command run on one config shares one spec, one system and
every cache they hold. The system is built from the cached spec; reading
spec alone never touches the family. dataclasses.replace makes a fresh
config with no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .dynamics import FiniteMeasureSpace, TransformationFamily
from .kernels import MarkovSpec, ProbVector, StochasticMatrix, stationary_distribution, validate_spec
from .skew import SkewSystem


@dataclass(frozen=True)
class SystemConfig:
    """Validated shape of a config document (values still unchecked)."""

    states: tuple[str, ...]
    kernel: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...] | None
    points: tuple[str, ...]
    mu: tuple[float, ...]
    family: tuple[tuple[str, tuple[str, ...]], ...]
    function: tuple[str, tuple[float, ...]] | None

    @cached_property
    def spec(self) -> MarkovSpec:
        """The driving kernel and its stationary vector, validated."""
        kernel = StochasticMatrix.from_rows(self.kernel)
        if self.stationary is not None:
            m = ProbVector.from_values(self.stationary)
        else:
            m = stationary_distribution(kernel)
        return validate_spec(kernel, m)

    @cached_property
    def system(self) -> SkewSystem:
        """The skew system over spec, its family checked in one pass."""
        spec = self.spec  # a faulty kernel is reported before a faulty family
        space = FiniteMeasureSpace.create(self.points, self.mu)
        at = {p: i for i, p in enumerate(self.points)}
        labels = chain.from_iterable(images for _, images in self.family)
        tables = np.fromiter(map(at.__getitem__, labels), dtype=np.int64)
        family = TransformationFamily.create(space, tables.reshape(len(self.family), space.k))
        return SkewSystem.create(spec, family)
