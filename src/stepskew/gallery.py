"""Built-in example systems.

Each entry is a complete system config. They cover the four structural
regimes: irreducible but not strictly irreducible with a non-ergodic skew
product (bufetov_period2), strictly irreducible with an ergodic skew
product (bernoulli_rotation), a reducible driving kernel (nonergodic_base),
and an irreducible-not-strict kernel whose configured family still gives an
ergodic skew product (deterministic_block).
"""

from __future__ import annotations

from .config import SystemConfig
from .errors import ValidationError

THIRD = 1.0 / 3.0


def _bufetov_period2() -> SystemConfig:
    # period-2 driving chain; fiber 3-cycle and its inverse
    return SystemConfig(
        states=("0", "1"),
        kernel=((0.0, 1.0), (1.0, 0.0)),
        stationary=(0.5, 0.5),
        points=("1", "2", "3"),
        mu=(THIRD, THIRD, THIRD),
        family=(("0", ("2", "3", "1")), ("1", ("3", "1", "2"))),
        function=("ind1", (1.0, 0.0, 0.0)),
    )


def _bernoulli_rotation() -> SystemConfig:
    # i.i.d. driving (rows equal the stationary vector); rotations on 3 points
    return SystemConfig(
        states=("0", "1"),
        kernel=((0.6, 0.4), (0.6, 0.4)),
        stationary=(0.6, 0.4),
        points=("1", "2", "3"),
        mu=(THIRD, THIRD, THIRD),
        family=(("0", ("2", "3", "1")), ("1", ("3", "1", "2"))),
        function=("ind1", (1.0, 0.0, 0.0)),
    )


def _nonergodic_base() -> SystemConfig:
    # two frozen driving states; the stationary vector must be supplied
    return SystemConfig(
        states=("0", "1"),
        kernel=((1.0, 0.0), (0.0, 1.0)),
        stationary=(0.5, 0.5),
        points=("1", "2"),
        mu=(0.5, 0.5),
        family=(("0", ("1", "2")), ("1", ("2", "1"))),
        function=("ind1", (1.0, 0.0)),
    )


def _deterministic_block() -> SystemConfig:
    # two-block alternating chain: irreducible, not strictly irreducible;
    # the stationary vector is omitted to exercise auto-computation
    return SystemConfig(
        states=("0", "1", "2", "3"),
        kernel=(
            (0.0, 0.0, 0.5, 0.5),
            (0.0, 0.0, 0.5, 0.5),
            (0.5, 0.5, 0.0, 0.0),
            (0.5, 0.5, 0.0, 0.0),
        ),
        stationary=None,
        points=("1", "2"),
        mu=(0.5, 0.5),
        family=(
            ("0", ("2", "1")),
            ("1", ("2", "1")),
            ("2", ("1", "2")),
            ("3", ("1", "2")),
        ),
        function=("ind1", (1.0, 0.0)),
    )


_BUILDERS = {
    "bufetov_period2": _bufetov_period2,
    "bernoulli_rotation": _bernoulli_rotation,
    "nonergodic_base": _nonergodic_base,
    "deterministic_block": _deterministic_block,
}

GALLERY_NAMES = tuple(sorted(_BUILDERS))


def gallery_config(name: str) -> SystemConfig:
    if name not in _BUILDERS:
        raise ValidationError(
            f"unknown gallery name {name!r}; available: {', '.join(GALLERY_NAMES)}"
        )
    return _BUILDERS[name]()
