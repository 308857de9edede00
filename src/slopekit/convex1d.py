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

from .config import _exceeds, _quiet, _within, resolve_tol
from .errors import ParameterError
from .instances import _expect, _key, _parsed
from .metric_space import MetricSpace
from .slope_core import ScalarField, _field


@dataclass(frozen=True)
class PLConvex:
    knots: tuple     # t_1 < ... < t_k
    slopes: tuple    # s_0 <= ... <= s_k (strict after normalization)
    anchor: float    # value at t_1

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(t) for t in self.knots))
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        object.__setattr__(self, "anchor", float(self.anchor))
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
        xs = np.asarray(xs, dtype=float)
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


def pl_from_dict(obj: dict) -> PLConvex:
    """A malformed object raises ``ShapeError`` or ``ParameterError``."""
    obj = _expect(obj, dict, "a PL function")
    knots, slopes = (tuple(_parsed(float, v, f"{key} entry")
                           for v in _expect(_key(obj, key, "a PL function"),
                                            list, key))
                     for key in ("knots", "slopes"))
    return PLConvex(knots, slopes, _parsed(
        float, _key(obj, "anchor", "a PL function"), "anchor"))


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
    """Identical subdifferential maps force f = g + constant.

    Both functions are normalized first; identical knots and slopes (the
    1D structural form of equal subdifferential maps) yield the constant
    f(t_1) - g(t_1).  Otherwise the first point with differing
    subdifferentials is reported.
    """
    tol = resolve_tol(tol)
    fn = f.normalized(tol)
    gn = g.normalized(tol)
    same = (len(fn.knots) == len(gn.knots)
            and all(_within(abs(a - b), 0.0, tol)
                    for a, b in zip(fn.knots + fn.slopes, gn.knots + gn.slopes)))
    if same:
        t1 = fn.knots[0]
        return MRResult(constant=f.value(t1) - g.value(t1))
    # scan candidate points in order: knots of both plus interval midpoints
    cand = sorted(set(fn.knots) | set(gn.knots))
    probes = [cand[0] - 1.0]
    for a, b in zip(cand, cand[1:]):
        probes.append(a)
        probes.append((a + b) / 2.0)
    probes.extend([cand[-1], cand[-1] + 1.0])
    for x in probes:
        df = f.subdifferential(x)
        dg = g.subdifferential(x)
        if any(_exceeds(abs(p - q), 0.0, tol) for p, q in zip(df, dg)):
            return MRResult(mismatch_at=x, subdiff_f=df, subdiff_g=dg)
    # normalization said the maps differ, so a probe point must exist
    raise AssertionError("normalized forms differ but no probe mismatch found")


def sample_to_field(f: PLConvex, grid: MetricSpace) -> ScalarField:
    """Tabulate f on the nodes of a one-dimensional grid space."""
    if grid.coords is None or any(len(c) != 1 for c in grid.coords):
        raise ParameterError("grid must be one-dimensional with coordinates")
    return _field(grid, f.values([c[0] for c in grid.coords]))


def definitional_global_slope(f: PLConvex, x: float, ys) -> float:
    """Independent oracle: sup over sampled y != x of [f(x)-f(y)]+/|x-y|."""
    ys = np.asarray(ys, dtype=float)
    ys = ys[ys != x]
    with _quiet():
        quot = (f.value(x) - f.values(ys)) / np.abs(x - ys)
    return float(max(quot.max(initial=0.0), 0.0))
