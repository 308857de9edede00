"""Global numeric tolerance, the comparisons under it, and the float policy.

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
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(
            f"tolerance must be finite and not negative, got {tol}")
    return tol


def _quiet():
    """numpy's error state for arithmetic on arrays: IEEE results (an overflow
    is +-inf, inf - inf is nan), unwarned whatever ``np.seterr`` says."""
    return np.errstate(all="ignore")


def _require_level(value, what="eps", strict=True):
    """Refuse a level that is not > 0 (with ``strict=False``, not >= 0);
    nan is neither."""
    if not (value > 0 if strict else value >= 0):
        sign = "positive" if strict else "nonnegative"
        raise ParameterError(f"{what} must be {sign}, got {value}")


# a bare x > tol is _exceeds(x, 0.0, tol), exactly, as 0.0 + tol == tol and
# 0.0 - tol == -tol; a - b > tol is another test (a = fl(1 + 1e-9), b = 1)
def _exceeds(a, b, tol): return a > b + tol
def _within(a, b, tol): return a <= b + tol
def _below(a, b, tol): return a < b - tol
def _at_least(a, b, tol): return a >= b - tol
