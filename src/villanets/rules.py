"""Input rules that several layers apply, each written once: config keys,
numbers, and the ranges of a number (positive and finite, finite and at
least a bound, a count, a fraction, finite), and the integrators' horizon.
Each range rule first passes its value through :func:`as_number` and returns
the number it checked.  The module imports the standard library only, so
every layer can reach it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


def check_keys(obj: dict, what: str, known, required=()) -> None:
    """Refuse a key of ``obj`` outside ``known``, which would otherwise be
    ignored and its setting silently take the default, and a ``required``
    key that ``obj`` leaves out; a non-dict ``obj`` is a TypeError."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, not {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys: {sorted(known)}")
    missing = sorted(key for key in required if key not in obj)
    if missing:
        raise ValueError(f"missing {what} keys {missing}")


def as_number(value, key: str, kind=float):
    """``value`` as a ``kind``, ``float`` or ``int``: a bool, a string or any
    other non-number is a TypeError, and a fraction for ``int`` (not ``1e4``)
    a ValueError, so no value is read as 1, parsed or truncated in silence."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{key} must be {noun}, not {value!r}")
    if kind is int and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return kind(value)


def numbers_as_declared(obj) -> None:
    """Pass each field of the dataclass ``obj`` that is declared ``int`` or
    ``float`` through :func:`as_number`, in place; a ``float | None``
    field whose default is None also takes None."""
    for f in fields(obj):
        kind = {"int": int, "float": float}.get(f.type.removesuffix(" | None"))
        if kind is None:
            continue
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            object.__setattr__(obj, f.name, as_number(value, f.name, kind))


def positive(value, key: str) -> float:
    """``value`` as a float, refused unless positive and finite (NaN included)."""
    value = as_number(value, key)
    if not 0 < value < math.inf:
        raise ValueError(f"{key} must be positive and finite")
    return value


def at_least(value, key: str, least, kind=float):
    """``value`` as a ``kind``, refused unless at least ``least`` and, for a
    float, finite (NaN included); with ``kind=int`` it is the count rule."""
    value = as_number(value, key, kind)
    if not least <= value < math.inf:
        finite = "" if kind is int else "finite and "
        raise ValueError(f"{key} must be {finite}at least {least}, not {value!r}")
    return value


def fraction(value, key: str) -> float:
    """``value`` as a float, refused unless in [0, 1] (NaN included)."""
    value = as_number(value, key)
    if not 0 <= value <= 1:
        raise ValueError(f"{key} must be in [0, 1], not {value!r}")
    return value


def finite(value, key: str) -> float:
    """``value`` as a float, refused unless finite."""
    value = as_number(value, key)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, not {value!r}")
    return value


def steps(t_max, dt, least: int) -> int:
    """round(t_max / dt), the steps of dt that end nearest ``t_max``.  A
    ``dt`` that is not positive, or a ratio that is not finite or rounds to
    fewer than ``least`` steps, is a ValueError naming both values, so no
    run is stretched past ``t_max`` or overflows counting its steps."""
    t_max, dt = as_number(t_max, "t_max"), as_number(dt, "dt")
    if not (0 < dt and 0 < t_max / dt < math.inf and (n := round(t_max / dt)) >= least):
        raise ValueError(f"need dt > 0 and a finite t_max / dt that rounds to {least} or more "
                         f"steps; got t_max = {t_max}, dt = {dt}")
    return n
