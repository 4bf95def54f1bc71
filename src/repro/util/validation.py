"""Argument-checking helpers.

Constructors across the library validate their parameters eagerly and
raise :class:`repro.errors.ConfigurationError` with a message naming the
offending parameter, so misconfigured experiments fail at build time
rather than deep inside a simulation run.
"""

from __future__ import annotations

import math
from typing import Iterable, TypeVar, Union

from repro.errors import ConfigurationError

Number = Union[int, float]
T = TypeVar("T")


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_finite(name: str, value: Number) -> Number:
    """Require a finite number (no ``nan``, no infinity)."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: Number) -> Number:
    """Require ``0 <= value <= 1``."""
    if not 0 <= value <= 1:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in(name: str, value: T, allowed: Iterable[T]) -> T:
    """Require ``value`` to be one of ``allowed``."""
    allowed = list(allowed)
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {allowed!r}, got {value!r}"
        )
    return value


def check_int(name: str, value: object) -> int:
    """Require an integer (bools rejected) and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    return value
