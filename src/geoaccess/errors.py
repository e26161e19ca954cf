"""Exception types shared across the package, the value rules that raise them, and unit scale."""

import numbers
from sys import float_info

import numpy as np


class ValidationError(ValueError):
    """Raised when an input value, file, or configuration is rejected.

    The CLI maps this to exit code 1; genuine I/O failures (missing files,
    unwritable paths) surface as OSError and map to exit code 2.
    """


def check_int(name: str, value, least: int) -> None:
    """Reject ``value`` unless it is an integer >= ``least``; a bool is an int but no integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def check_range(value, label: str, *parts, strict: bool = False) -> None:
    """Reject ``value`` unless it is a finite number > 0 (``strict``) or >= 0.
    ``label % parts`` names it, formatted only on failure: every record checks here."""
    try:  # the upper bound rejects infinity and an integer too large for a float
        if (0 < value if strict else 0 <= value) and value <= float_info.max:
            return
    except TypeError:  # such as None or a string
        pass
    raise ValidationError(f"{label % parts} must be finite and {'>' if strict else '>='} 0, "
                          f"got {value!r}")


def finite_floats(values, who: str) -> np.ndarray:
    """``values`` as a float array, unless one is NaN or infinite: ``who`` then rejects it."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError(f"{who} requires finite values")
    return x


def unit_scale(x: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``x`` times the power of two that brings its largest magnitude (each column's,
    with ``axis=0``) into [0.5, 1), and the exponent e with x = scaled * 2**e; all zeros
    keep e = 0. Only exponents move: a value is rounded only below ~2**-1021 of that one."""
    e = np.frexp(np.abs(x).max(axis=axis, initial=0.0))[1]
    return np.ldexp(x, -e), e
