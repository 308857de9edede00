"""Global numeric tolerance.

All approximate comparisons in the package go through a single absolute
tolerance.  The default is 1e-9 and can be overridden with the
SLOPEKIT_TOL environment variable.
"""

import math
import os

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


def _require_level(value, what="eps", strict=True):
    """Refuse a level that is not > 0 (with ``strict=False``, not >= 0);
    nan is neither."""
    if not (value > 0 if strict else value >= 0):
        sign = "positive" if strict else "nonnegative"
        raise ParameterError(f"{what} must be {sign}, got {value}")
