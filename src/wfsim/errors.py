"""Exception types shared across the package, and the checks of a draw count and a generator."""

import numpy as np


class WfsimError(Exception):
    """Base class for every error this package raises on purpose."""


class LabelCollision(WfsimError):
    """Two tensor factors were given the same label."""


class UnknownSubsystem(WfsimError):
    """A label does not name any factor of the space at hand."""


class ShapeError(WfsimError):
    """An array's shape or factor layout does not match the space it claims."""


class InvalidState(WfsimError):
    """A state or operator failed a validity invariant (norm, hermiticity,
    trace, positivity, or the dichotomic square-to-identity check)."""


class PointerNotReady(WfsimError):
    """The pointer factor was not in its ready state before coupling."""


class HeraldImpossible(WfsimError):
    """The heralding projection annihilated the state (survival probability
    is numerically zero), so no conditional state exists."""


class InvariantViolation(WfsimError):
    """A numerical runtime invariant was violated, for example an exact
    inequality value exceeding the quantum ceiling."""


class ConfigError(WfsimError):
    """A scenario configuration failed validation."""


def _check_count(name: str, value, low: int) -> None:
    """Raise ShapeError unless ``value`` is an int, not a bool, in [low, 2**63): numpy's
    int64 draws would truncate a float, count True as 1 and overflow from 2**63 on."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < 2**63:
        raise ShapeError(f"{name} must be an integer in [{low}, 2**63), got {value!r}")


def _check_generator(rng, user: str) -> None:
    """Raise InvalidState unless ``rng`` is a numpy Generator: a legacy RandomState or a
    stdlib Random would draw from another stream, and None from none."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidState(f"{user} needs a seeded numpy Generator, got {type(rng).__name__}")
