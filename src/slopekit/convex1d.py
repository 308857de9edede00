"""Exact one-dimensional piecewise-linear convex functions.

A function is stored as strictly increasing knots, the slope on each of
the k+1 intervals they cut out of the line, and the value at the first
knot.  Subdifferentials are closed intervals computable in closed form,
the slope is the min-norm element of the subdifferential, and two
functions with identical subdifferential maps differ by a constant.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import _exceeds, _parsed, _quiet, resolve_tol
from .errors import ParameterError


def _float_array(xs) -> np.ndarray:
    """float() reads each object entry and refuses None, which astype makes nan."""
    xs = np.asarray(xs)
    return (np.vectorize(float, otypes=[float])(xs) if xs.dtype == object
            else xs.astype(float, copy=False))   # a float array is not copied


@dataclass(frozen=True)
class PLConvex:
    knots: tuple     # t_1 < ... < t_k
    slopes: tuple    # s_0 <= ... <= s_k (strict after normalization)
    anchor: float    # value at t_1

    def __post_init__(self):
        for key in ("knots", "slopes"):
            object.__setattr__(self, key, tuple(
                _parsed(float, v, f"{key} entry")
                for v in _parsed(tuple, getattr(self, key), key)))
        object.__setattr__(self, "anchor", _parsed(float, self.anchor, "anchor"))
        if not self.knots:
            raise ParameterError("need at least one knot")
        if len(self.slopes) != len(self.knots) + 1:
            raise ParameterError(
                f"{len(self.knots)} knots require {len(self.knots) + 1} slopes")
        if any(not math.isfinite(v) for v in
               (*self.knots, *self.slopes, self.anchor)):
            raise ParameterError("knots, slopes and anchor must be finite")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ParameterError("knots must be strictly increasing")
        if any(b < a for a, b in zip(self.slopes, self.slopes[1:])):
            raise ParameterError("slopes must be nondecreasing (convexity)")
        # values at the knots, by slope integration from the anchor
        kv = [self.anchor]
        for i in range(1, len(self.knots)):
            kv.append(kv[-1] + self.slopes[i] * (self.knots[i] - self.knots[i - 1]))
        object.__setattr__(self, "_knot_values", tuple(kv))

    def value(self, x: float) -> float:
        return float(self.values(x))

    def values(self, xs) -> np.ndarray:
        xs = _parsed(_float_array, xs, "x")
        t = np.asarray(self.knots)
        s = np.asarray(self.slopes)
        kv = np.asarray(self._knot_values)
        i = np.searchsorted(t, xs, side="right")
        base_t = t[np.maximum(i - 1, 0)]
        base_v = np.where(i == 0, self.anchor, kv[np.maximum(i - 1, 0)])
        with _quiet():   # a value past the float range is ±inf
            return base_v + s[i] * (xs - base_t)

    def subdifferential(self, x: float) -> tuple:
        """Closed interval [lo, hi]: [s_{i-1}, s_i] at knot t_i, degenerate
        between knots."""
        i = bisect.bisect_left(self.knots, x)
        if i < len(self.knots) and self.knots[i] == x:
            return (self.slopes[i], self.slopes[i + 1])
        return (self.slopes[i], self.slopes[i])

    def slope(self, x: float) -> float:
        """min{|p| : p in subdifferential(x)}; equals both slopes of the
        function at x by convexity."""
        lo, hi = self.subdifferential(x)
        if lo <= 0.0 <= hi:
            return 0.0
        return min(abs(lo), abs(hi))

    def normalized(self, tol=None) -> "PLConvex":
        """Canonical form: drop knots whose adjacent slopes agree within tol."""
        tol = resolve_tol(tol)
        knots, slopes = [], [self.slopes[0]]
        for i, t in enumerate(self.knots):
            if _exceeds(self.slopes[i + 1] - slopes[-1], 0.0, tol):
                knots.append(t)
                slopes.append(self.slopes[i + 1])
        if not knots:
            # affine function: keep the first knot as a harmless marker
            knots = [self.knots[0]]
            slopes = [self.slopes[0], self.slopes[-1]]
        return PLConvex(tuple(knots), tuple(slopes),
                        self.value(knots[0]))

    def to_dict(self) -> dict:
        return {"knots": list(self.knots), "slopes": list(self.slopes),
                "anchor": self.anchor}


@dataclass
class MRResult:
    constant: float = None
    mismatch_at: float = None
    subdiff_f: tuple = None
    subdiff_g: tuple = None

    @property
    def matched(self) -> bool:
        return self.constant is not None

    def to_dict(self) -> dict:
        if self.matched:
            return {"constant": self.constant}
        return {"mismatch_at": self.mismatch_at,
                "subdiff_f": list(self.subdiff_f),
                "subdiff_g": list(self.subdiff_g)}


def mr_check(f: PLConvex, g: PLConvex, tol=None) -> MRResult:
    """Identical subdifferential maps force f = g + constant.  The maps are
    compared at probes: the knots of both normalized forms, the midpoints
    between them and one point beyond each end.  The first probe where they
    differ by more than tol is reported; if none does, the constant is
    f(t_1) - g(t_1) at t_1, the first normalized knot of f."""
    tol = resolve_tol(tol)
    fn = f.normalized(tol)
    cand = sorted(set(fn.knots) | set(g.normalized(tol).knots))
    probes = [cand[0] - 1.0]
    for a, b in zip(cand, cand[1:]):
        probes += [a, (a + b) / 2.0]
    probes += [cand[-1], cand[-1] + 1.0]
    for x in probes:
        df, dg = f.subdifferential(x), g.subdifferential(x)
        if any(_exceeds(abs(p - q), 0.0, tol) for p, q in zip(df, dg)):
            return MRResult(mismatch_at=x, subdiff_f=df, subdiff_g=dg)
    t1 = fn.knots[0]
    return MRResult(constant=f.value(t1) - g.value(t1))
