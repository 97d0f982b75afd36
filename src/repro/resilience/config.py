"""Validated environment knobs: parse-time errors, documented clamps.

Every ``REPRO_*`` tuning variable used to be read with a bare
``float(raw)`` / ``int(raw)`` — a typo like ``REPRO_CLUSTER_TIMEOUT=2m``
surfaced as a naked ``ValueError: could not convert string to float``
deep inside the scheduler, and a nonsense value like a negative chunk
size travelled all the way to a worker before anything objected.

These helpers fail at *parse time* with an error naming the variable
and the expected shape, and clamp parseable-but-extreme values into a
sane documented range instead of letting them wedge the service (a
``max_chunk`` of 0 becomes 1; a timeout of a week becomes the cap).
Clamping is silent by design: the range limits are operational
guard-rails, not semantics.
"""

from __future__ import annotations

import os

__all__ = ["env_bool", "env_float", "env_int", "validate_float",
           "validate_int"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _clamp(value, lo, hi):
    if lo is not None and value < lo:
        return lo
    if hi is not None and value > hi:
        return hi
    return value


def validate_float(value, *, name: str, lo: float | None = None,
                   hi: float | None = None) -> float:
    """``value`` as a finite float clamped into ``[lo, hi]``.

    Raises :class:`ValueError` naming ``name`` when the value is not a
    number (NaN included — it would poison every comparison downstream).
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"bad {name}={value!r}: expected a number") from None
    if value != value:  # NaN
        raise ValueError(f"bad {name}={value!r}: expected a number")
    return _clamp(value, lo, hi)


def validate_int(value, *, name: str, lo: int | None = None,
                 hi: int | None = None) -> int:
    """``value`` as an int clamped into ``[lo, hi]``; errors name ``name``."""
    try:
        value = int(str(value), 10) if isinstance(value, str) else int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"bad {name}={value!r}: expected an integer") from None
    return _clamp(value, lo, hi)


def env_float(name: str, default: float, *, lo: float | None = None,
              hi: float | None = None) -> float:
    """``float(os.environ[name])`` validated and clamped, else ``default``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return validate_float(raw.strip(), name=name, lo=lo, hi=hi)


def env_int(name: str, default: int, *, lo: int | None = None,
            hi: int | None = None) -> int:
    """``int(os.environ[name])`` validated and clamped, else ``default``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return validate_int(raw.strip(), name=name, lo=lo, hi=hi)


def env_bool(name: str, default: bool) -> bool:
    """A boolean env knob; accepts 1/0, true/false, yes/no, on/off."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise ValueError(
        f"bad {name}={raw!r}: expected one of "
        f"{'/'.join(_TRUE)} or {'/'.join(_FALSE)}")
