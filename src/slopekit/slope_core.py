"""Extended-real scalar fields and slope calculus on finite metric spaces.

Fields take values in R ∪ {+inf}.  The difference inf - inf is undefined
and every operation that would form it raises instead of adopting a
convention.  The local slope is a max over declared neighbors; the
global slope is a max over all other points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import (_exceeds, _parsed, _quiet, _require_level, _within,
                     resolve_tol)
from .errors import (DomainError, FatalFinding, ImproperFieldError,
                     ParameterError, UndefinedArithmeticError)
from .metric_space import MetricSpace, NeighborhoodSystem, _aligned

INF = math.inf


@dataclass(frozen=True)
class ScalarField:
    """A field on a metric space.  Immutable, so that the slope arrays and
    the sets that ``slopes`` and ``eps_Crit`` cache on it stay valid."""
    space: MetricSpace
    values: tuple   # one float per point; +inf allowed, -inf and nan are not

    def __post_init__(self):
        # each value goes through float(), whose conversions and errors stay,
        try:   # but for an int past the float range
            array = np.fromiter(map(float, self.values), dtype=float)
        except OverflowError as exc:
            raise ParameterError(f"field value out of range: {exc}") from None
        if len(array) != self.space.n:
            raise ParameterError(
                f"{len(array)} values for {self.space.n} points")
        _adopt(self, array)

    def __reduce__(self):
        # copies start with an empty cache: its keys are object ids
        return ScalarField, (self.space, self.values)

    def value(self, x) -> float:
        return self.values[self.space.index(x)]

    def dom(self) -> tuple:
        return _points_where(self, True)

    def is_proper(self) -> bool:
        return len(self._dom) > 0

    def min_finite(self) -> float:
        return min(self._finite_values())

    def max_finite(self) -> float:
        return max(self._finite_values())

    def _finite_values(self) -> list:
        _require_proper(self, "field")
        return self.array[self._dom].tolist()


def _adopt(f: ScalarField, array) -> ScalarField:
    """f with the values of the float ``array``, which it keeps and freezes."""
    # one reduction: the least value is nan or -inf if any value is
    if not np.minimum.reduce(array, initial=INF) > -INF:
        bad = ~(array > -INF)
        raise ParameterError(
            f"field value {array[bad.argmax()]} is not in R ∪ {{+inf}}")
    in_dom = array < INF   # dom f, as no value is -inf or nan
    dom = in_dom.nonzero()[0]
    for a in (array, in_dom, dom):
        a.setflags(write=False)
    object.__setattr__(f, "values", tuple(array.tolist()))
    object.__setattr__(f, "array", array)   # values as a float array
    object.__setattr__(f, "_in_dom", in_dom)   # dom f as a mask
    object.__setattr__(f, "_dom", dom)         # its indices, in point order
    object.__setattr__(f, "_slopes", {})    # see slopes()
    object.__setattr__(f, "_crit", {})      # see eps_Crit()
    return f


def _field(space: MetricSpace, array) -> ScalarField:
    """ScalarField(space, values) from a float array of the values, adopted
    as it is: derived fields skip the public constructor's float() pass."""
    f = object.__new__(ScalarField)
    object.__setattr__(f, "space", space)
    return _adopt(f, array)


def scale_field(f: ScalarField, r: float) -> ScalarField:
    """r·f for r >= 0.  r = 0 gives the zero field everywhere (so that the
    result is a real-valued constant even off dom f)."""
    r = _parsed(float, r, "scale factor")
    if r < 0:   # nan gives a nan field, refused as such
        raise ParameterError(f"scale factor must be nonnegative, got {r}")
    if r == 0:
        return _field(f.space, np.zeros(f.space.n))
    with _quiet():   # r·f may round to ±inf
        return _field(f.space, r * f.array)


def _same_space(f: ScalarField, g: ScalarField):
    """Refuse a pair of fields unless both live on one metric space."""
    if g.space is not f.space and g.space != f.space:
        raise ParameterError("fields live on different spaces")


def add_fields(f: ScalarField, g: ScalarField) -> ScalarField:
    _same_space(f, g)
    with _quiet():   # a sum may round to ±inf
        return _field(f.space, f.array + g.array)


def sub_fields(f: ScalarField, g: ScalarField) -> ScalarField:
    """f - g, defined only when it never forms inf - inf."""
    _same_space(f, g)
    g_inf = ~g._in_dom
    if g_inf.any():   # the first such point decides the error
        if not f._in_dom[g_inf.argmax()]:
            raise UndefinedArithmeticError("inf - inf is undefined")
        raise ParameterError("f - g would take the value -inf")
    with _quiet():   # a difference may round to ±inf
        return _field(f.space, f.array - g.array)


def _require_proper(f: ScalarField, name="f"):
    if not f.is_proper():
        raise ImproperFieldError(f"{name} is identically +inf")


def _require_in_dom(f: ScalarField, x) -> int:
    i = f.space.index(x)
    if not f._in_dom[i]:
        raise DomainError(f"point {x!r} is outside dom f")
    return i


def slopes(f: ScalarField, nbhd: NeighborhoodSystem = None) -> np.ndarray:
    """The slope of f at every point, as a read-only array.

    Entry i is the max of [f(x_i) - f(y)]+ / dist(x_i, y) over the y with
    f(y) finite that are neighbours of x_i in ``nbhd`` (local slope), or
    all y != x_i when ``nbhd`` is None (global slope); it is 0 when no y
    qualifies and +inf off dom f.  Every pair goes through the same IEEE
    operations as the pointwise definition, so the entries are exact.

    The array is computed once per field for the global slope and once
    per field and system for the local slope.  ``nbhd`` must be on the
    point list of the space of f; another list raises ``DomainError``.
    """
    key = None if nbhd is None else id(nbhd)
    cached = f._slopes.get(key)
    if cached is not None:
        return cached[1]
    v, n = f.array, len(f.array)
    quot = _aligned(n * n).reshape(n, n)
    with _quiet():
        np.subtract.outer(v, v, out=quot)
        np.divide(quot, f.space.dist, out=quot)
        if nbhd is not None:   # a non-neighbour gives ±0 or nan (inf * 0)
            np.multiply(quot, nbhd.adjacency(f.space), out=quot)
    # [.]+ is the initial 0: ascents and f(y) = +inf give quotients <= 0;
    # the diagonal, +-0 or nan (0 / d_xx), is set to 0, as nan halves the
    # speed of fmax; rows off dom f are overwritten below; + 0.0 turns -0.0 to 0.0
    quot.ravel()[::n + 1] = 0.0   # a view: quot is contiguous
    out = np.fmax.reduce(quot, axis=1, initial=0.0)
    out += 0.0
    out[~f._in_dom] = INF
    out.setflags(write=False)
    # the entry holds nbhd, so its id cannot be reused while cached
    f._slopes[key] = (nbhd, out)
    return out


def local_slope(f: ScalarField, nbhd: NeighborhoodSystem, x) -> float:
    """Max over declared neighbors of [f(x)-f(y)]+ / dist(x,y).

    Neighbors outside dom f contribute 0; an empty neighbor set gives 0
    (isolated-point convention).
    """
    i = _require_in_dom(f, x)
    return float(slopes(f, nbhd)[i])


def global_slope(f: ScalarField, x) -> float:
    """Max over all y != x of [f(x)-f(y)]+ / dist(x,y); finite on finite spaces."""
    i = _require_in_dom(f, x)
    return float(slopes(f)[i])


def _points_where(f: ScalarField, mask) -> tuple:
    """The points of dom f at which the boolean array ``mask`` holds."""
    return tuple(map(f.space.points.__getitem__,
                     (mask & f._in_dom).nonzero()[0].tolist()))


def domination_witnesses(f: ScalarField, g: ScalarField, tol=None) -> list:
    """Points of dom f where the global slope of g exceeds that of f by
    more than tol.

    A point of dom f outside dom g always counts: the slope of g there is
    +inf.
    """
    tol = resolve_tol(tol)
    _same_space(f, g)
    with _quiet():   # a slope + tol may round to inf
        return list(_points_where(
            f, _exceeds(slopes(g), slopes(f), tol) | ~g._in_dom))


def strict_comparison_witnesses(f: ScalarField, g: ScalarField,
                                nbhd: NeighborhoodSystem = None,
                                tol=None) -> list:
    """Points of dom f off the tol-critical set of f where the slope of f
    does not strictly exceed that of g: local slopes over ``nbhd``, global
    slopes when it is None.

    A point of dom f outside dom g always counts: the slope of g there is
    +inf.
    """
    tol = resolve_tol(tol)
    _same_space(f, g)
    fs, gs = slopes(f, nbhd), slopes(g, nbhd)
    return list(_points_where(
        f, (_exceeds(fs, 0.0, tol) & ~(fs > gs)) | ~g._in_dom))


@dataclass
class SlopeProfile:
    local: dict    # point -> local slope, on dom f
    global_: dict  # point -> global slope, on dom f


def slope_profile(f: ScalarField, nbhd: NeighborhoodSystem) -> SlopeProfile:
    dom, i = f.dom(), f._dom
    return SlopeProfile(
        local=dict(zip(dom, slopes(f, nbhd)[i].tolist())),
        global_=dict(zip(dom, slopes(f)[i].tolist())))


def eps_argmin(f: ScalarField, eps: float, tol=None) -> tuple:
    """{x : f(x) <= inf f + eps}."""
    tol = resolve_tol(tol)
    eps = _require_level(eps, strict=False)
    pts, lo = f.space.points, f.min_finite()   # eps = inf takes all points
    return tuple(map(pts.__getitem__,
                     _within(f.array, lo + eps, tol).nonzero()[0].tolist()))


def eps_crit(f: ScalarField, nbhd: NeighborhoodSystem, eps: float, tol=None) -> tuple:
    """Sub-level set of the local slope at level eps."""
    tol = resolve_tol(tol)
    eps = _require_level(eps, strict=False)
    return _points_where(f, _within(slopes(f, nbhd), eps, tol))


def eps_Crit(f: ScalarField, eps: float, tol=None) -> tuple:
    """Sub-level set of the global slope at level eps.

    Members are re-checked against the equivalent pointwise form
    f(y) >= f(x) - eps * dist(y, x) for all y.  The set is computed once
    per field, eps and resolved tol; a failed re-check is not kept.
    """
    return _crit_rows(f, eps, tol)[1]


def _crit_rows(f: ScalarField, eps, tol) -> tuple:
    """The indices of eps_Crit(f, eps, tol), as an array, and its points."""
    tol = resolve_tol(tol)
    eps = _require_level(eps, strict=False)
    key = (eps, tol)
    if key not in f._crit:
        v, pts, d = f.array, f.space.points, f.space.dist
        rows = (_within(slopes(f), eps, tol) & f._in_dom).nonzero()[0]
        d = d[rows] if len(rows) < len(v) else d
        # in place: eps = inf or an overflow gives -inf or nan, no v_j below it
        with _quiet():
            low, slack = np.multiply(eps, d), np.add(1, d)
            np.subtract(v[rows, None], low, out=low)
            np.subtract(low, np.multiply(tol, slack, out=slack), out=low)
        bad = v < low
        if bad.any():
            i, j = next(zip(*bad.nonzero()))   # the first in row order
            raise FatalFinding(
                "eps_Crit member fails the pointwise inequality",
                witness={"x": pts[rows[i]], "y": pts[j], "eps": eps})
        rows.setflags(write=False)
        f._crit[key] = (rows, tuple(map(pts.__getitem__, rows.tolist())))
    return f._crit[key]


def pasch_hausdorff(f: ScalarField, eps: float) -> ScalarField:
    """Regularization g(x) = min_y f(y) + eps * dist(y, x).

    g is eps-Lipschitz and coincides with f exactly on eps_Crit(f, eps).
    It is finite wherever some f(y) + eps * dist(y, x) is: g(x) = +inf
    when every such sum overflows, e.g. f = (0, +inf) on two points 4
    apart with eps = 1e308 gives g = (0.0, inf).
    """
    eps = _parsed(float, eps, "eps")
    if not 0 < eps < INF:   # nan too
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    _require_proper(f)
    v, d = f.array, f.space.dist
    if len(f._dom) < len(v):
        v, d = v[f._dom], d[f._dom]
    with _quiet():   # f(y) + eps d(y, x) may round to inf
        paths = np.multiply(eps, d)
        np.add(v[:, None], paths, out=paths)
    return _field(f.space, paths.min(axis=0))


def truncate(g: ScalarField, lam: float) -> ScalarField:
    """Pointwise min(g, lam).  Never increases either slope."""
    lam, v = _parsed(float, lam, "lambda"), g.array
    return _field(g.space, np.where(lam < v, lam, v))   # v unless lam < v


def log_distance_field(space: MetricSpace, a) -> ScalarField:
    """phi(x) = -log dist(x, a) for x != a, phi(a) = +inf.

    Its global slope is bounded by 1 / dist(x, a) at every x != a.
    """
    if space.n < 2:
        raise ParameterError("log-distance field needs at least two points")
    i = space.index(a)   # math.log per entry, for its bits
    return _field(space, np.array([INF if j == i else -math.log(d) for j, d
                                   in enumerate(space.dist[:, i].tolist())]))


def sublevel_diff(f: ScalarField, g: ScalarField, lam: float, tol=None) -> tuple:
    """{x in dom f : f(x) - g(x) <= lam} under the domain convention.

    The difference is only formed where at least one value is finite; a
    point with f finite and g = +inf has f - g = -inf and is included.
    """
    return _points_where(f, _sublevel_mask(f, g, lam, tol))


def _sublevel_mask(f: ScalarField, g: ScalarField, lam, tol) -> np.ndarray:
    """The mask of sublevel_diff, before it is cut to dom f."""
    tol = resolve_tol(tol)
    _same_space(f, g)
    _require_proper(f)
    lam = _parsed(float, lam, "lambda")
    with _quiet():   # inf - inf off dom f is nan; an overflow is ±inf
        return ~g._in_dom | _within(f.array - g.array, lam, tol)


def restrict(f: ScalarField, subset) -> ScalarField:
    """f restricted to the induced metric subspace on the given points."""
    sub = f.space.subspace(subset)
    return _field(sub, f.array[list(map(f.space.index, sub.points))])
