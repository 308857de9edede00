"""Finite metric spaces and neighborhood systems.

A space is an ordered list of opaque point identifiers plus a validated
matrix of pairwise distances.  Neighborhood systems give each point an
explicit set of neighbors; they are the discrete carrier that makes the
local slope nontrivial on a finite space (every point of which is
topologically isolated).
"""

import math
import operator
from ctypes import addressof, c_char
from dataclasses import dataclass
from itertools import chain, compress, repeat
from types import MappingProxyType

import numpy as np

from .config import (_exceeds, _index, _named, _pair, _parsed, _quiet,
                     _require_level, _shown, _within, resolve_tol)
from .errors import DomainError, MetricError, ParameterError, ShapeError


@dataclass
class Violation:
    kind: str          # "diagonal" | "negative" | "asymmetry" | "triangle"
    indices: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(v.message for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "indices": list(v.indices), "message": v.message}
                for v in self.violations
            ],
        }


def _as_square_matrix(dist, copy=False) -> np.ndarray:
    try:
        arr = (np.array if copy else np.asarray)(dist, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError("distance matrix entries must be numbers, in rows "
                         "of equal length") from None
    except OverflowError:   # an int past the float range
        raise ShapeError("distance matrix entries must be finite") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ShapeError("distance matrix entries must be finite")
    return arr


def _aligned(size) -> np.ndarray:
    """``size`` uninitialised floats from a 64-byte boundary.  numpy only
    promises 16 bytes, and the n x n kernels ran up to half again as slow
    on buffers that straddle cache lines."""
    buf = np.empty(size + 8)
    start = -addressof(c_char.from_buffer(buf)) % 64 // 8
    return buf[start:][:size]   # a nonempty slice first, so size 0 moves too


def _outer_sum(col, row, out, lhs, rhs):
    """out[..., i, j] = col[..., i] + row[..., j] as one BLAS dgemm per matrix,
    [col, 1] @ [1; row], in ``lhs`` and ``rhs``, ones of shape (..., m, 2) and
    (..., 2, n) made once per kernel call.  The products by 1 are exact, so
    the sum rounds once, in any order, fused or not, to np.add's bits, but
    (-0) + (-0) gives +0.  Edge tiles times +inf set the invalid flag in lanes
    never stored; floyd_warshall ignores it, as +inf and finite give no NaN."""
    lhs[..., 0], rhs[..., 1, :] = col, row
    np.matmul(lhs, rhs, out=out)


_ROWS = 16        # rows i per slab of the triangle pass
_SUMS = 2 ** 17   # floats of stacked sums per slab (1 MiB), at every n


def _slab_depth(n) -> int:
    """Intermediates k per slab of the triangle pass at size n."""
    return max(1, min(n, _SUMS // (_ROWS * n)))


def _triangle_breaks(arr, tol, symmetric) -> np.ndarray:
    """The mask of the pairs (i, j) with d_ij - (d_ik + d_kj) > tol for some k,
    degenerate triples included.  fl(a - s) is monotone in s, so the largest
    excess over k is exactly d_ij - min_k (d_ik + d_kj).  An exactly symmetric
    matrix gives (i, j) and (j, i) bit-identical excesses: its upper triangle
    is computed and mirrored.  Any other matrix has every pair computed."""
    n = arr.shape[0]
    depth = _slab_depth(n)
    broken = np.zeros((n, n), dtype=bool)
    # one set of buffers for every slab; a partial slab uses a prefix
    sums_buf = _aligned(depth * _ROWS * n)
    least_buf, shortest_buf = _aligned(_ROWS * n), _aligned(_ROWS * n)
    lhs, rhs = np.ones((depth, _ROWS, 2)), np.ones((depth, 2, n))
    for lo in range(0, n, _ROWS):
        hi, start = min(lo + _ROWS, n), lo if symmetric else 0
        shape = (hi - lo, n - start)
        shortest = shortest_buf[:(hi - lo) * (n - start)].reshape(shape)
        least = least_buf[:shortest.size].reshape(shape)
        shortest.fill(np.inf)
        for k in range(0, n, depth):
            mids = min(depth, n - k)
            sums = sums_buf[:mids * shortest.size].reshape(mids, *shape)
            _outer_sum(arr.T[k:k + mids, lo:hi], arr[k:k + mids, start:], sums,
                       lhs[:mids, :hi - lo], rhs[:mids, :, start:])
            np.minimum.reduce(sums, axis=0, out=least)
            np.minimum(shortest, least, out=shortest)
        broken[lo:hi, start:] = _exceeds(
            np.subtract(arr[lo:hi, start:], shortest, out=shortest), 0.0, tol)
    return broken | broken.T if symmetric else broken


def _pow(t, e):
    """``t ** e``, in place.  numpy runs ``** 1.0``, ``** 2.0`` and ``** 0.5``
    as np.positive, np.square and np.sqrt, the same values as below; they
    are named here because the rounding bound below needs them exact or
    correctly rounded."""
    if e == 1:
        return t
    if e == 2:
        return np.square(t, out=t)
    if e == 0.5:
        return np.sqrt(t, out=t)
    return np.power(t, e, out=t)


def _lp_distances(coords, p) -> np.ndarray:
    """The l_p distance matrix of the rows of the n x dim array ``coords``,
    built one axis at a time, bit for bit equal to the n x n x dim formula
    ``(|x_i - x_j| ** p).sum(axis=2) ** (1 / p)`` and, for p = inf,
    ``|x_i - x_j|.max(axis=2)``."""
    n, dim = coords.shape
    if p != math.inf and dim >= 8:   # numpy sums 8 or more terms pairwise
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        return _pow(_pow(diff, p).sum(axis=2), 1.0 / p)
    d = np.zeros((n, n))
    term = np.empty((n, n))   # one buffer for every axis
    for a in range(dim):
        np.subtract.outer(coords[:, a], coords[:, a], out=term)
        np.abs(term, out=term)
        if p == math.inf:   # max is exact, so the axis order does not matter
            np.maximum(d, term, out=d)
        else:
            d += _pow(term, p)
    return d if p == math.inf else _pow(d, 1.0 / p)


class _Bounded(np.ndarray):
    """A distance matrix whose triangle excesses are proved at most
    rel * max + ab, for (rel, ab) = ``bound``.  Only grid_space and
    _closure_space make one."""
    bound = None


def _bounded(arr, rel, ab) -> _Bounded:
    arr = arr.view(_Bounded)
    arr.bound = (rel, ab)
    return arr


def _certifies(bound, top, tol) -> bool:
    """Whether rel * top + ab <= tol, (rel, ab) = ``bound``, exactly."""
    (r, rd), (a, ad), (m, md), (t, td) = (
        float(x).as_integer_ratio() for x in (*bound, top, tol))
    return (r * m * ad + a * rd * md) * td <= t * rd * ad * md


def validate_metric(dist, tol=None) -> ValidationReport:
    """Check all metric axioms, reporting every violated instance.

    One pass marks the pairs (i, j) whose triangle inequality breaks, and
    the report names each intermediate k that breaks a marked pair.  A
    matrix that a builder marked with a proved rounding bound skips that
    pass when the bound is at most ``tol``; a caller's is never marked.
    """
    tol = resolve_tol(tol)
    bound = dist.bound if type(dist) is _Bounded else None
    with _quiet():   # an overflowed sum or difference reads as inf
        arr = _as_square_matrix(dist)
        n = arr.shape[0]
        violations = [
            Violation("diagonal", (i,), f"dist[{i}][{i}] = {arr[i, i]} != 0")
            for i in _exceeds(np.abs(arr.diagonal()), 0.0, tol).nonzero()[0].tolist()]
        symmetric = (arr == arr.T).all()   # the entries are finite
        negative = _within(arr, 0.0, tol)
        negative.flat[::n + 1] = False   # the diagonal is checked above
        # tol >= 0: a symmetric matrix, and any diagonal, has no asymmetry
        asymmetric = negative & False if symmetric else _exceeds(arr - arr.T, 0.0, tol)
        flagged = negative | asymmetric   # nonzero costs more than the rest
        for i, j in (zip(*(ix.tolist() for ix in flagged.nonzero()))
                     if flagged.any() else ()):
            if negative[i, j]:
                violations.append(Violation(
                    "negative", (i, j),
                    f"dist[{i}][{j}] = {arr[i, j]} is not positive"))
            if asymmetric[i, j]:
                violations.append(Violation(
                    "asymmetry", (i, j),
                    f"dist[{i}][{j}] = {arr[i, j]} != dist[{j}][{i}] = {arr[j, i]}"))
        # triangle inequality: with n < 3 no triple of distinct points exists
        if n < 3 or (bound is not None and _certifies(bound, arr.max(), tol)):
            return ValidationReport(violations)
        # a triple of distinct points reads no diagonal entry; zeroed, the
        # diagonal breaks no pair i != j, as d_ij - (0 + d_ij) = 0
        arr = np.where(np.eye(n, dtype=bool), 0.0, arr)
        broken = _triangle_breaks(arr, tol, symmetric)
        broken.flat[::n + 1] = False   # a triple (i, i, k) is not reported
        if not broken.any():
            return ValidationReport(violations)
        rows, cols = broken.nonzero()
        pairs, d_ij = list(zip(rows.tolist(), cols.tolist())), arr[rows, cols]
        # the excesses of the broken pairs through blocks of k, at most _SUMS
        # floats each, so that k, then i, then j ascend in the report
        step = max(1, _SUMS // len(pairs))
        for lo in range(0, n, step):
            hits = _exceeds(d_ij - (arr[rows, lo:lo + step].T
                                    + arr[lo:lo + step, cols]), 0.0, tol)
            for k, p in zip(*(ix.tolist() for ix in hits.nonzero())):
                (i, j), k = pairs[p], lo + k
                violations.append(Violation(
                    "triangle", (i, j, k),
                    f"dist[{i}][{j}] = {arr[i, j]} > "
                    f"dist[{i}][{k}] + dist[{k}][{j}] = {arr[i, k] + arr[k, j]}"))
        return ValidationReport(violations)


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A point list and its checked matrix, equal when both are; immutable,
    so that the fields on it and their cached slopes stay valid."""
    points: tuple
    dist: np.ndarray

    def __post_init__(self):
        points = tuple(_parsed(str, p, "point name") for p in self.points)
        if len(set(points)) != len(points):
            raise ParameterError("point identifiers must be unique")
        given = self.dist   # a builder's matrix carries its proved bound
        marked = type(given) is _Bounded
        # frozen below, so a caller's array is copied; a builder's is adopted
        dist = _as_square_matrix(given, copy=not marked)
        if dist.shape[0] != len(points):
            raise ShapeError(
                f"{len(points)} points but distance matrix is "
                f"{dist.shape[0]}x{dist.shape[1]}")
        report = validate_metric(given if marked else dist)
        if not report.ok:
            raise MetricError("not a metric: " + report.summary(), report)
        _settle(points, dist, self)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise DomainError(f"point {_shown(point)} is not in the space")

    def distance(self, x, y) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def subspace(self, subset) -> "MetricSpace":
        """Induced subspace on the given points, original order kept.

        It adopts the principal submatrix unchecked: its entries and
        triangle triples are some of this space's, with the same bits.  A
        space is checked under the tolerance in force when it is built, and
        its subspaces inherit that verdict even if SLOPEKIT_TOL changes."""
        subset = set(subset)
        if not subset:
            raise ParameterError("subspace needs a nonempty point set")
        if missing := subset - self._index.keys():
            by_type = sorted(missing, key=lambda p: (type(p).__name__, p))
            raise DomainError(
                f"points not in space: [{', '.join(map(_shown, by_type))}]")
        keep = sorted(map(self._index.get, subset))
        return _settle(tuple(self.points[i] for i in keep),
                       self.dist.take(keep, 0).take(keep, 1))

    def __eq__(self, other):
        if not isinstance(other, MetricSpace):
            return NotImplemented
        return self.points == other.points and (self.dist == other.dist).all()

    def __reduce__(self):
        # a pickled or deep-copied matrix is a new array: frozen again
        return _settle, (self.points, self.dist)


def _settle(points, dist, space=None) -> MetricSpace:
    """The space (``space``, else a new one) with these points and checked
    matrix, frozen."""
    space = object.__new__(MetricSpace) if space is None else space
    dist.setflags(write=False)
    for name, value in (("points", points), ("dist", dist),
                        ("_index", {p: i for i, p in enumerate(points)})):
        object.__setattr__(space, name, value)
    return space


@dataclass(frozen=True, init=False, eq=False)
class NeighborhoodSystem:
    """Neighbours of each point, as one read-only boolean mask over
    ``points``: entry [i, j] says that point j neighbours point i.
    Immutable, so that the slope arrays cached per system stay valid.
    ``NeighborhoodSystem(points, neighbors)`` reads a mapping from points
    to neighbours, and refuses a neighbour that is not a point."""
    points: tuple
    mask: np.ndarray

    def __init__(self, points, neighbors):
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        nbrs = [frozenset(neighbors.get(p, ())) for p in points]
        names = list(chain.from_iterable(nbrs))
        rows = np.repeat(np.arange(len(points)), list(map(len, nbrs)))
        cols = np.fromiter(map(index.get, names, repeat(-1)), np.intp, len(names))
        if (cols < 0).any():   # the first such point (rows ascend), its least name
            r = rows[(cols < 0).argmax()]
            q = min(nbrs[r].difference(index), key=_named)
            raise ParameterError(f"neighbor {_shown(q)} of {_shown(points[r])} "
                                 "is not a point")
        mask = np.zeros((len(points), len(points)), dtype=bool)
        mask[rows, cols] = True
        _masked(points, mask, self)

    def __eq__(self, other):
        if not isinstance(other, NeighborhoodSystem):
            return NotImplemented
        return self.points == other.points and (self.mask == other.mask).all()

    def __reduce__(self):
        return _masked, (self.points, self.mask)

    def validate(self):
        """The system, if it is symmetric and no point is its own neighbour.
        Else the ``ParameterError`` names the first faulty point p: p
        itself, else the first point that p lists one way."""
        one_way = self.mask > self.mask.T
        faulty = one_way.any(axis=1) | self.mask.diagonal()
        if faulty.any():
            i = int(faulty.argmax())
            p, q = (_shown(self.points[k]) for k in (i, one_way[i].argmax()))
            if self.mask[i, i]:
                raise ParameterError(f"point {p} listed as its own neighbor")
            raise ParameterError(f"asymmetric neighborhood: {q} in "
                                 f"neighbors({p}) but not vice versa")
        return self

    def of(self, x) -> frozenset:
        if x not in self._index:
            raise DomainError(
                f"point {_shown(x)} is not in the neighborhood system")
        return frozenset(compress(self.points, self.mask[self._index[x]].tolist()))

    @property
    def neighbors(self) -> MappingProxyType:
        """point -> frozenset of its neighbours, a read-only view."""
        return MappingProxyType({p: self.of(p) for p in self.points})

    def adjacency(self, space: MetricSpace) -> np.ndarray:
        """The mask, for a ``space`` whose point list is this system's."""
        if space.points != self.points:
            raise DomainError("the neighborhood system is on another point list")
        return self.mask

    def restrict(self, subset) -> "NeighborhoodSystem":
        """Induced system: neighbors intersected with the subset."""
        kset = set(subset)
        keep = [i for i, p in enumerate(self.points) if p in kset]
        return _masked(tuple(self.points[i] for i in keep),
                       self.mask.take(keep, 0).take(keep, 1))


def _masked(points, mask, nbhd=None) -> NeighborhoodSystem:
    """``nbhd``, else a new system, of ``mask`` (frozen) over tuple ``points``."""
    nbhd = object.__new__(NeighborhoodSystem) if nbhd is None else nbhd
    mask.setflags(write=False)
    for name, value in (("points", points), ("mask", mask),
                        ("_index", {p: i for i, p in enumerate(points)})):
        object.__setattr__(nbhd, name, value)
    return nbhd


def _pair_system(points, ends) -> NeighborhoodSystem:
    """The system of the index pairs in the rows of ``ends``, both ways;
    the first self-pair is refused."""
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        p = points[ends[loops.argmax(), 0]]
        raise ParameterError(f"self-pair ({p!r}, {p!r}) not allowed")
    mask = np.zeros((len(points), len(points)), dtype=bool)
    mask[ends[:, 0], ends[:, 1]] = mask[ends[:, 1], ends[:, 0]] = True
    return _masked(points, mask)


def ball_neighborhoods(space: MetricSpace, r: float, tol=None) -> NeighborhoodSystem:
    """Neighbors of x are all points within distance r of x."""
    tol = resolve_tol(tol)
    r = _require_level(r, "ball radius")
    within = _within(space.dist, r, tol)
    within &= within.T   # both ways, as dist is symmetric only up to tol
    np.fill_diagonal(within, False)
    return _masked(space.points, within)


def all_pairs_neighborhoods(space: MetricSpace) -> NeighborhoodSystem:
    return _masked(space.points, ~np.eye(space.n, dtype=bool))


def explicit_neighborhoods(space: MetricSpace, pairs) -> NeighborhoodSystem:
    """Build from undirected pairs of points; symmetrized automatically."""
    pairs = list(pairs)
    refs = np.array(pairs, dtype=object).reshape(len(pairs), 2)
    ends = np.fromiter(map(space._index.get, refs.ravel(), repeat(-1)),
                       np.intp, refs.size).reshape(-1, 2)
    unknown = (ends < 0).any(axis=1)
    if unknown.any() and unknown[(unknown | (ends[:, 0] == ends[:, 1])).argmax()]:
        a, b = pairs[unknown.argmax()]   # no self-pair comes before it
        raise DomainError(
            f"pair ({_shown(a)}, {_shown(b)}) uses unknown points")
    return _pair_system(space.points, ends)


# The triangle inequality of a matrix D that floyd_warshall computed from a
# weight matrix W with a zero diagonal and positive or +inf entries
# elsewhere, as shortest_path_space and metric_closure build it.
#
# Model as for grid_space, below: u = 2^-53, addition and subtraction
# are correctly rounded and lose nothing to underflow, min is exact.  Stage k
# computes D^k_ij = min(D^(k-1)_ij, fl(D^(k-1)_ik + D^(k-1)_kj)); _outer_sum
# rounds each sum once too, so the bound below holds for it.  D_kk = 0 stays,
# so row and column k do not change at stage k.  Let delta be the exact
# shortest-path distances of the float weights, a metric, and delta^k those
# of the paths through the first k points only.
# Lower bound: a finite D_ij is the computed sum of the weights of some i-j
# walk, by a binary tree that gains at most one level per stage, so of
# depth at most n.  Each weight carries at most n factors (1 + e), e >= -u,
# and all are positive, so D_ij >= (1 - u)^n delta_ij, whatever the
# length of the walk.
# Upper bound: by induction over k, D^k_ij <= (1 + u)^k delta^k_ij when the
# right side does not exceed the largest double: delta^k_ij is either
# delta^(k-1)_ij or delta^(k-1)_ik + delta^(k-1)_kj, rounding is monotone
# and fl(a + b) <= (1 + u)(a + b) below overflow.  Let M = max D < 2^1000.
# Then delta <= M / (1 - u)^n keeps (1 + u)^n delta finite, and
# D_ij <= (1 + u)^n delta_ij.
# The triangle pass computes E = fl(D_ij - fl(D_ik + D_kj)).  With
# R = delta_ik + delta_kj >= delta_ij,
#   D_ij - fl(D_ik + D_kj) <= (1 + u)^n R - (1 - u)^(n + 1) R,
# rounding multiplies a positive difference by at most 1 + u (an overflow
# of the sum gives E = -inf), and R <= 2 M / (1 - u)^n, so
#   E <= (1 + u) ((1 + u)^n - (1 - u)^(n + 1)) 2 M / (1 - u)^n.
# For n <= 2^20, with x = n u <= 2^-33, (1 + u)^n <= 1 + x + x^2,
# (1 - u)^(n + 1) >= 1 - x - u and (1 - u)^-n <= 1 + 2 x, so
#   E <= (4 n + 2)(1 + 4 x) u M <= (4 n + 3) u M.
# When the bound is at most tol, no triple of the triangle pass exceeds tol.
def _closure_space(points, d) -> MetricSpace:
    """The space of such a closure ``d``, marked with the bound above."""
    if len(d) <= 2 ** 20 and d.max() < 2.0 ** 1000:
        d = _bounded(d, (4 * len(d) + 3) * 2.0 ** -53, 0.0)
    return MetricSpace(tuple(points), d)


def shortest_path_space(vertices, edges) -> MetricSpace:
    """Metric space of all-pairs shortest-path distances of a weighted graph.

    Edges are (u, v, w) triples with vertex names or indices into the
    vertex list.  Weights must be strictly positive and finite, and the
    graph connected.  The distances carry the rounding bound on
    ``floyd_warshall`` derived above, which certifies their triangle
    inequality when it is at most the tolerance.
    """
    vertices = [_parsed(str, v, "vertex name") for v in vertices]
    n = len(vertices)
    if n == 0:
        raise ParameterError("need at least one vertex")
    edges = list(edges)
    refs = np.array(edges, dtype=object).reshape(len(edges), 3).T
    index = {v: i for i, v in enumerate(vertices)}

    def vertex(ref):   # an integer is an index, anything else a name
        try:
            i = operator.index(ref)
        except TypeError:
            return index.get(str(ref), -1)
        return i if 0 <= i < n else -1
    ends = np.fromiter(map(vertex, chain(refs[0], refs[1])), np.intp,
                       2 * len(edges)).reshape(2, -1)
    w = np.fromiter([_parsed(float, x, "edge weight") for x in refs[2]], float,
                    len(edges))
    return _graph_space(vertices, ends, w, refs)


def _graph_space(vertices, ends, w, refs) -> MetricSpace:
    """The space of the edges ends[:, k] (vertex indices, -1 if unknown, as
    given in refs[:2, k]) of weights w; the first bad edge is named as below."""
    unknown = (ends < 0).any(axis=0)
    bad = unknown | (ends[0] == ends[1]) | (w <= 0) | ~(w < math.inf)
    if bad.any():
        k = int(bad.argmax())
        (i, j), wk = ends[:, k].tolist(), w[k].item()
        if unknown[k]:
            u, v = refs[:2, k].tolist()
            raise DomainError(
                f"edge ({_shown(u)}, {_shown(v)}) uses unknown vertices")
        if i == j:
            raise ParameterError(f"self-loop at {vertices[i]!r} not allowed")
        raise ParameterError(
            f"edge ({vertices[i]!r}, {vertices[j]!r}) has "
            f"{'nonpositive' if wk <= 0 else 'non-finite'} weight {wk}")
    arcs = np.full((len(vertices),) * 2, np.inf)
    np.minimum.at(arcs, (ends.ravel(), ends[::-1].ravel()), np.tile(w, 2))
    np.fill_diagonal(arcs, 0.0)
    d = floyd_warshall(arcs)
    if np.isinf(d).any():
        i, j = next(zip(*np.isinf(d).nonzero()))   # the first in row order
        # j is reachable from i when every arc weighs 0: the length overflowed
        if floyd_warshall(np.where(arcs < np.inf, 0.0, np.inf))[i, j] == 0:
            raise ParameterError(f"the distance from {vertices[i]!r} to "
                                 f"{vertices[j]!r} exceeds the largest float")
        raise ParameterError(
            f"graph is disconnected: no path from {vertices[i]!r} to {vertices[j]!r}")
    return _closure_space(vertices, d)


def floyd_warshall(d: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths of ``d``, stage k relaxing every entry
    through k from the matrix of stage k - 1.

    The closure bound of ``shortest_path_space`` relies on this stage
    order: each entry is a summation tree that gains at most one level per
    stage.  A closure that updates the matrix in slabs of rows but keeps
    the stages in order and reads each stage's operands from the stage
    before keeps it; a blocked Floyd-Warshall, which mixes operands of
    different stages within a tile, does not.
    """
    src = np.asarray(d, dtype=float)
    d = _aligned(src.size).reshape(src.shape)
    d[...] = src
    paths = _aligned(src.size).reshape(src.shape)   # the paths through each k
    lhs, rhs = np.ones((len(d), 2)), np.ones((2, len(d)))
    with _quiet():   # see _outer_sum
        for k in range(len(d)):
            _outer_sum(d[:, k], d[k], paths, lhs, rhs)
            np.minimum(paths, d, out=d)   # a tie of zeros keeps d's sign
    return d


def metric_closure(weights: np.ndarray) -> np.ndarray:
    """Shortest-path closure of a symmetric positive weight matrix.

    Repairs an arbitrary dissimilarity into a true metric; used by the
    random-matrix instance generator.
    """
    v = _as_square_matrix(weights)
    with _quiet():   # where the sum passes the float range, halve first:
        w = (v + v.T) / 2.0   # exact at that size, but not for subnormals
        over = np.isinf(w)
        w[over] = v[over] / 2.0 + v.T[over] / 2.0
    np.fill_diagonal(w, 0.0)
    if (w[~np.eye(w.shape[0], dtype=bool)] <= 0).any():
        raise ParameterError("off-diagonal weights must be positive")
    return floyd_warshall(w)


# The triangle inequality of a matrix d that is bit for bit the l_inf, l_1
# or l_2 matrix of float coordinates x, as _lp_distances builds it.
#
# Model (IEEE double, round to nearest, u = 2^-53): subtraction, addition,
# np.square and np.sqrt are correctly rounded, fl(a o b) = (a o b)(1 + e)
# with |e| <= u; abs, max and np.positive are exact.  Subtraction, addition
# and sqrt lose nothing to underflow; a square that underflows adds an
# absolute error of at most 2^-1075.  Write g_k = k u / (1 - k u).
#
# Let r_ij be the exact l_p distance between the float points x_i and x_j.
# By Minkowski's inequality r is a (pseudo)metric.  Each per-axis difference
# carries one factor (1 + e).  Every entry is d_ij = r_ij (1 + t) + h:
#   p = inf: |t| <= u, h = 0 (the largest rounded difference);
#   p = 1:   |t| <= g_dim, h = 0 (the difference and at most dim - 1 sums,
#            in whatever order numpy adds);
#   p = 2:   the sum of squares is r^2 (1 + s) + M with |s| <= g_(dim+2)
#            (difference twice, square, dim - 1 sums) and
#            |M| <= dim 2^-1075 (1 + g_dim); the square root adds one
#            factor, and sqrt(y + M) lies within sqrt(|M|) of sqrt(y), so
#            |t| <= g_(dim+3) and |h| <= b = sqrt(dim) 2^-537.
# Let a = g_(dim+3), which covers all three, and D = max d.  The triangle
# pass computes E = fl(d_ij - fl(d_ik + d_kj)).  With R = r_ik + r_kj >= r_ij,
#   d_ij - fl(d_ik + d_kj) <= R (1 + a) + b - (R (1 - a) - 2 b)(1 - u)
#                          <= R (2 a + u) + 3 b,
# rounding multiplies a positive difference by at most 1 + u (an overflow
# of the sum gives E = -inf), and R <= 2 max r <= 2 (D + b) / (1 - a), so
#   E <= (1 + u) ((2 a + u) 2 (D + b) / (1 - a) + 3 b).
# For dim < 2^30 the factor of D is at most (4 (dim + 3) + 2)(1 + 2^-17) u
# and the terms in b sum to at most 4 b <= dim 2^-535, so
#   E <= 5 (dim + 3) u D + dim 2^-535,
# with a margin of at least dim u D.  When the bound is at most tol, no
# triple of the triangle pass exceeds tol.
def grid_space(bounds, resolution, p=2.0):
    """Grid discretization of a box with the p-metric on coordinates.

    Returns (MetricSpace, NeighborhoodSystem); node n{i} lies at row i of
    the "ij" mesh of the axes np.linspace(lo, hi, r), and its neighbors are
    the axis-adjacent nodes.  p may be any real >= 1 or math.inf; for p = 1,
    2 or inf the distances carry the rounding bound derived above.
    """
    bounds = [_parsed(lambda b: _pair(b, float), b, "grid bound (want [lo, hi])")
              for b in bounds]
    resolution = [_parsed(_index, r, "grid resolution") for r in resolution]
    p = _parsed(float, p, "metric exponent p")
    if len(bounds) != len(resolution):
        raise ParameterError("bounds and resolution must have equal length")
    if not bounds:
        raise ParameterError("need at least one axis")
    for lo, hi in bounds:
        if not lo < hi:
            raise ParameterError(f"bounds must be ordered, got ({lo}, {hi})")
    for r in resolution:
        if r < 2:
            raise ParameterError(f"resolution must be >= 2 per axis, got {r}")
    if not p >= 1:   # inf too, not nan
        raise ParameterError(f"metric exponent must be >= 1 or inf, got {p}")

    with _quiet():   # an inf or nan from a span past the float range is refused
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        n, dim = coords.shape
        points = tuple(f"n{i}" for i in range(n))
        d = _lp_distances(coords, p)
    if p in (1, 2, math.inf):   # the bound derived above
        d = _bounded(d, 5 * (dim + 3) * 2.0 ** -53, dim * 2.0 ** -535)
    space = MetricSpace(points, d)

    # axis-adjacent pairs by multi-index
    idx = np.arange(n).reshape(resolution)
    ends = np.concatenate([
        np.stack((a[:-1].ravel(), a[1:].ravel()), axis=1)
        for a in (np.moveaxis(idx, ax, 0) for ax in range(dim))])
    return space, _pair_system(points, ends)
