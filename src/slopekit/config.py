"""Global numeric tolerance, the comparisons under it, the float policy, and
the one conversion of caller numbers (``_parsed``, ``_index``).

The tolerance is absolute, 1e-9 unless SLOPEKIT_TOL or a ``tol`` argument
sets it, and is added on the threshold side b: each comparison under it
is ``_exceeds`` (a > b + tol), ``_within``, ``_below`` or ``_at_least``,
below.  Two keep their own: the relative re-check of eps-Crit in
``slope_core._crit_rows``, and ``metric_space._certifies``, exact.
"""

import math
import os

import numpy as np

from .errors import ParameterError

DEFAULT_TOL = 1e-9


def get_tol() -> float:
    raw = os.environ.get("SLOPEKIT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ParameterError(f"SLOPEKIT_TOL is not a number: {raw!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(
            f"SLOPEKIT_TOL must be positive and finite, got {tol}")
    return tol


def resolve_tol(tol=None) -> float:
    """Return the explicit tolerance if given, the global one otherwise.

    An explicit tolerance may be 0 but must be finite and not negative.
    """
    if tol is None:
        return get_tol()
    tol = _parsed(float, tol, "tolerance")
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(
            f"tolerance must be finite and not negative, got {tol}")
    return tol


def _quiet():
    """numpy's error state for arithmetic on arrays: IEEE results (an overflow
    is +-inf, inf - inf is nan), unwarned whatever ``np.seterr`` says."""
    return np.errstate(all="ignore")


def _parsed(convert, value, what):
    """``convert(value)``, a malformed value reported as ``ParameterError``.
    As ``_parsed(float, ...)`` it is where a caller's number becomes a float."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"malformed {what}: {_shown(value)}") from None


def _shown(value) -> str:
    """repr(value); its type if repr refuses (an int past 4,300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def _named(value) -> str:
    """str(value); as ``_shown`` if str refuses (an int past 4,300 digits)."""
    try:
        return str(value)
    except ValueError:
        return _shown(value)


def _index(value):
    """``int(value)``, refusing a fraction, which int() would truncate."""
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _pair(pair, convert=_index):
    a, b = pair
    return convert(a), convert(b)


def _require_level(value, what="eps", strict=True) -> float:
    """``value`` as a float, refused unless > 0 (with ``strict=False``,
    >= 0); nan is neither."""
    value = _parsed(float, value, what)
    if not (value > 0 if strict else value >= 0):
        sign = "positive" if strict else "nonnegative"
        raise ParameterError(f"{what} must be {sign}, got {value}")
    return value


# a bare x > tol is _exceeds(x, 0.0, tol), exactly, as 0.0 + tol == tol and
# 0.0 - tol == -tol; a - b > tol is another test (a = fl(1 + 1e-9), b = 1)
def _exceeds(a, b, tol): return a > b + tol
def _within(a, b, tol): return a <= b + tol
def _below(a, b, tol): return a < b - tol
def _at_least(a, b, tol): return a >= b - tol
