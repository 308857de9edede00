"""Finite metric spaces and neighborhood systems.

A space is an ordered list of opaque point identifiers plus a validated
matrix of pairwise distances.  Neighborhood systems give each point an
explicit set of neighbors; they are the discrete carrier that makes the
local slope nontrivial on a finite space (every point of which is
topologically isolated).
"""

import math
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

from .config import resolve_tol
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


def _as_square_matrix(dist) -> np.ndarray:
    arr = np.asarray(dist, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("distance matrix entries must be finite")
    return arr


_ROWS = 16   # rows i per slab of the triangle fast path
_MIDS = 16   # intermediates k per slab


def _triangle_ok(arr, tol) -> bool:
    """Whether d_ij - (d_ki + d_kj) <= tol for every i, every j >= i and every
    k, degenerate triples included, for an exactly symmetric matrix.

    Symmetry makes the excess of (i, j) bit-identical to that of (j, i), so
    the upper triangle suffices; fl(a - s) is monotone in s, so the largest
    excess over k is exactly d_ij - min_k (d_ki + d_kj).  True therefore
    means that the per-triple loop of ``validate_metric`` reports nothing.
    """
    n = arr.shape[0]
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        shortest = np.full((hi - lo, n - lo), np.inf)
        for k in range(0, n, _MIDS):
            sums = arr[k:k + _MIDS, lo:hi, None] + arr[k:k + _MIDS, None, lo:]
            np.minimum(shortest, sums.min(axis=0), out=shortest)
        if (arr[lo:hi, lo:] - shortest).max() > tol:
            return False
    return True


def validate_metric(dist, tol=None) -> ValidationReport:
    """Check all metric axioms, reporting every violated instance.

    An exactly symmetric matrix has its triangle inequality checked once per
    unordered pair; the per-triple report is built only when that fails.
    """
    tol = resolve_tol(tol)
    arr = _as_square_matrix(dist)
    n = arr.shape[0]
    off = ~np.eye(n, dtype=bool)
    violations = [
        Violation("diagonal", (i,), f"dist[{i}][{i}] = {arr[i, i]} != 0")
        for i in np.flatnonzero(np.abs(arr.diagonal()) > tol).tolist()]
    negative = (arr <= tol) & off
    asymmetric = (arr - arr.T > tol) & off
    for i, j in np.argwhere(negative | asymmetric).tolist():
        if negative[i, j]:
            violations.append(Violation(
                "negative", (i, j),
                f"dist[{i}][{j}] = {arr[i, j]} is not positive"))
        if asymmetric[i, j]:
            violations.append(Violation(
                "asymmetry", (i, j),
                f"dist[{i}][{j}] = {arr[i, j]} != dist[{j}][{i}] = {arr[j, i]}"))
    # triangle inequality: with n < 3 no triple of distinct points exists
    if n < 3 or (np.array_equal(arr, arr.T) and _triangle_ok(arr, tol)):
        return ValidationReport(violations)
    # every ordered triple through an intermediate k, in one reused buffer:
    # a fresh n x n array per k costs more than the sums
    excess = np.empty_like(arr)
    for k in range(n):
        np.add(arr[:, k:k + 1], arr[k:k + 1, :], out=excess)
        np.subtract(arr, excess, out=excess)
        if excess.max() <= tol:
            continue
        for i, j in np.argwhere(excess > tol).tolist():
            if i != k and j != k and i != j:
                violations.append(Violation(
                    "triangle", (i, j, k),
                    f"dist[{i}][{j}] = {arr[i, j]} > "
                    f"dist[{i}][{k}] + dist[{k}][{j}] = {arr[i, k] + arr[k, j]}"))
    return ValidationReport(violations)


@dataclass(eq=False)
class MetricSpace:
    points: tuple
    dist: np.ndarray
    coords: tuple = None   # optional per-point coordinates (grids only)

    def __post_init__(self):
        self.points = tuple(str(p) for p in self.points)
        if len(set(self.points)) != len(self.points):
            raise ParameterError("point identifiers must be unique")
        self.dist = _as_square_matrix(self.dist)
        if self.dist.shape[0] != len(self.points):
            raise ShapeError(
                f"{len(self.points)} points but distance matrix is "
                f"{self.dist.shape[0]}x{self.dist.shape[1]}")
        report = validate_metric(self.dist)
        if not report.ok:
            raise MetricError("not a metric: " + report.summary())
        self.dist.flags.writeable = False
        if self.coords is not None:
            self.coords = tuple(tuple(float(c) for c in pt) for pt in self.coords)
        self._index = {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise DomainError(f"point {point!r} is not in the space")

    def distance(self, x, y) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def subspace(self, subset) -> "MetricSpace":
        """Induced subspace on the given points, original order kept."""
        subset = set(subset)
        if not subset:
            raise ParameterError("subspace needs a nonempty point set")
        keep = [i for i, p in enumerate(self.points) if p in subset]
        missing = subset - {self.points[i] for i in keep}
        if missing:
            raise DomainError(f"points not in space: {sorted(missing)}")
        pts = tuple(self.points[i] for i in keep)
        sub = self.dist[np.ix_(keep, keep)].copy()
        coords = tuple(self.coords[i] for i in keep) if self.coords else None
        return MetricSpace(pts, sub, coords)

    def __eq__(self, other):
        if not isinstance(other, MetricSpace):
            return NotImplemented
        return (self.points == other.points
                and np.array_equal(self.dist, other.dist)
                and self.coords == other.coords)


@dataclass(frozen=True)
class NeighborhoodSystem:
    """Neighbours of each point.  Immutable, so that the masks cached by
    ``adjacency`` stay valid."""
    points: tuple
    neighbors: dict   # point -> frozenset of points, read-only

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "neighbors", MappingProxyType(
            {p: frozenset(self.neighbors.get(p, ())) for p in points}))
        object.__setattr__(self, "_masks", {})   # point list -> adjacency

    def __reduce__(self):
        return NeighborhoodSystem, (self.points, dict(self.neighbors))

    def validate(self):
        pset = set(self.points)
        for p, nbrs in self.neighbors.items():
            for q in nbrs:
                if q not in pset:
                    raise ParameterError(f"neighbor {q!r} of {p!r} is not a point")
                if q == p:
                    raise ParameterError(f"point {p!r} listed as its own neighbor")
                if p not in self.neighbors[q]:
                    raise ParameterError(
                        f"asymmetric neighborhood: {q!r} in neighbors({p!r}) "
                        f"but not vice versa")
        return self

    def of(self, x) -> frozenset:
        if x not in self.neighbors:
            raise DomainError(f"point {x!r} is not in the neighborhood system")
        return self.neighbors[x]

    def adjacency(self, space: MetricSpace) -> np.ndarray:
        """Read-only boolean matrix whose entry [i, j] says that point j of
        ``space`` neighbours its point i; computed once per point list."""
        mask = self._masks.get(space.points)
        if mask is None:
            nbrs = [self.of(p) for p in space.points]
            rows = np.repeat(np.arange(space.n), [len(s) for s in nbrs])
            try:
                cols = np.fromiter(
                    map(space._index.__getitem__, chain.from_iterable(nbrs)),
                    dtype=np.intp, count=len(rows))
            except KeyError as exc:
                raise DomainError(
                    f"point {exc.args[0]!r} is not in the space") from None
            mask = np.zeros((space.n, space.n), dtype=bool)
            mask[rows, cols] = True
            mask.flags.writeable = False
            self._masks[space.points] = mask
        return mask

    def restrict(self, subset) -> "NeighborhoodSystem":
        """Induced system: neighbors intersected with the subset."""
        kset = set(subset).intersection(self.points)
        keep = [p for p in self.points if p in kset]
        return NeighborhoodSystem(
            tuple(keep), {p: self.neighbors[p] & kset for p in keep})


def ball_neighborhoods(space: MetricSpace, r: float, tol=None) -> NeighborhoodSystem:
    """Neighbors of x are all points within distance r of x."""
    tol = resolve_tol(tol)
    if r <= 0:
        raise ParameterError(f"ball radius must be positive, got {r}")
    pts = space.points
    within = (space.dist <= r + tol) & ~np.eye(space.n, dtype=bool)
    return NeighborhoodSystem(pts, {
        p: frozenset(pts[j] for j in np.flatnonzero(row))
        for p, row in zip(pts, within)}).validate()


def all_pairs_neighborhoods(space: MetricSpace) -> NeighborhoodSystem:
    pts = set(space.points)
    return NeighborhoodSystem(
        space.points, {p: frozenset(pts - {p}) for p in space.points}).validate()


def explicit_neighborhoods(space: MetricSpace, pairs) -> NeighborhoodSystem:
    """Build from undirected pairs; symmetrized automatically."""
    nbrs = {p: set() for p in space.points}
    for a, b in pairs:
        if a not in nbrs or b not in nbrs:
            raise DomainError(f"pair ({a!r}, {b!r}) uses unknown points")
        if a == b:
            raise ParameterError(f"self-pair ({a!r}, {a!r}) not allowed")
        nbrs[a].add(b)
        nbrs[b].add(a)
    return NeighborhoodSystem(space.points, nbrs).validate()


def shortest_path_space(vertices, edges) -> MetricSpace:
    """Metric space of all-pairs shortest-path distances of a weighted graph.

    Edges are (u, v, w) triples with vertex names or indices into the
    vertex list.  Weights must be strictly positive and the graph connected.
    """
    vertices = [str(v) for v in vertices]
    n = len(vertices)
    if n == 0:
        raise ParameterError("need at least one vertex")
    index = {v: i for i, v in enumerate(vertices)}
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        i = index[str(u)] if not isinstance(u, int) else u
        j = index[str(v)] if not isinstance(v, int) else v
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"edge ({u!r}, {v!r}) uses unknown vertices")
        if i == j:
            raise ParameterError(f"self-loop at {vertices[i]!r} not allowed")
        w = float(w)
        if w <= 0:
            raise ParameterError(
                f"edge ({vertices[i]!r}, {vertices[j]!r}) has nonpositive weight {w}")
        if w < d[i, j]:
            d[i, j] = d[j, i] = w
    d = floyd_warshall(d)
    unreachable = np.argwhere(np.isinf(d))
    if len(unreachable):
        i, j = unreachable[0]
        raise ParameterError(
            f"graph is disconnected: no path from {vertices[i]!r} to {vertices[j]!r}")
    return MetricSpace(tuple(vertices), d)


def floyd_warshall(d: np.ndarray) -> np.ndarray:
    d = np.array(d, dtype=float)
    paths = np.empty_like(d)   # one buffer for the paths through every k
    for k in range(d.shape[0]):
        np.add(d[:, k:k + 1], d[k:k + 1, :], out=paths)
        np.minimum(d, paths, out=d)
    return d


def metric_closure(weights: np.ndarray) -> np.ndarray:
    """Shortest-path closure of a symmetric positive weight matrix.

    Repairs an arbitrary dissimilarity into a true metric; used by the
    random-matrix instance generator.
    """
    w = _as_square_matrix(weights)
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    if np.any(w[~np.eye(w.shape[0], dtype=bool)] <= 0):
        raise ParameterError("off-diagonal weights must be positive")
    return floyd_warshall(w)


def grid_space(bounds, resolution, p=2.0):
    """Grid discretization of a box with the p-metric on coordinates.

    Returns (MetricSpace, NeighborhoodSystem); neighbors are the
    axis-adjacent nodes.  p may be any real >= 1 or math.inf.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    resolution = [int(r) for r in resolution]
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
    if not (p == math.inf or p >= 1):
        raise ParameterError(f"metric exponent must be >= 1 or inf, got {p}")

    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    n = coords.shape[0]
    points = tuple(f"n{i}" for i in range(n))

    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if p == math.inf:
        d = diff.max(axis=2)
    else:
        d = (diff ** p).sum(axis=2) ** (1.0 / p)
    space = MetricSpace(points, d, coords=tuple(map(tuple, coords)))

    # axis-adjacent pairs by multi-index
    shape = tuple(resolution)
    idx = np.arange(n).reshape(shape)
    pairs = []
    for ax in range(len(shape)):
        a = np.moveaxis(idx, ax, 0)
        pairs.extend(zip(a[:-1].ravel(), a[1:].ravel()))
    nbhd = explicit_neighborhoods(
        space, [(points[i], points[j]) for i, j in pairs])
    return space, nbhd
