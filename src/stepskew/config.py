"""The shape of a system config document, shared by the CLI and the gallery."""

from __future__ import annotations

from dataclasses import dataclass


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
