"""Instance files, deterministic generators, and dominated-pair constructors.

An instance bundles a metric space, a neighborhood system, and named
scalar fields.  It serializes to a JSON object that round-trips all
numeric data exactly and regenerates bit-identically from
(generator, seed, parameters).  The PRNG is numpy's PCG64, recorded in
the provenance.
"""

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import resolve_tol
from .errors import FatalFinding, ParameterError, ShapeError
from .metric_space import (MetricSpace, NeighborhoodSystem, _closure_space,
                           _graph_space, _pair_system, all_pairs_neighborhoods,
                           ball_neighborhoods, grid_space, metric_closure,
                           shortest_path_space)
from .slope_core import (INF, ScalarField, _require_proper, domination_witnesses,
                         scale_field, truncate)

PRNG_ALGORITHM = "numpy PCG64"


@dataclass
class Instance:
    space: MetricSpace
    nbhd: NeighborhoodSystem
    fields: dict                      # name -> ScalarField
    seed: int = 0
    provenance: dict = field(default_factory=dict)
    metric_spec: dict = field(default=None, compare=False)  # JSON "metric"
    nbhd_spec: dict = field(default=None, compare=False)    # "neighborhoods"

    def __post_init__(self):
        if self.metric_spec is None:
            self.metric_spec = {
                "kind": "matrix", "dist": [list(row) for row in self.space.dist]}
        if self.nbhd_spec is None:
            adj = np.triu(self.nbhd.adjacency(self.space), 1).nonzero()
            self.nbhd_spec = {"kind": "explicit",
                              "adj": np.array(adj).T.tolist()}

    def field(self, name: str) -> ScalarField:
        try:
            return self.fields[name]
        except KeyError:
            raise ParameterError(f"instance has no field {name!r}; "
                                 f"available: {sorted(self.fields)}")

    def to_dict(self) -> dict:
        return {
            "points": list(self.space.points),
            "metric": self.metric_spec,
            "neighborhoods": self.nbhd_spec,
            "fields": {
                name: ["inf" if v == INF else v for v in f.values]
                for name, f in sorted(self.fields.items())
            },
            "seed": self.seed,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict())


def _json_text(obj) -> str:
    """The one JSON layout of instance files and CLI outputs."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(obj, out=None):
    """Write ``obj`` in that layout, and a newline, to the file at the path
    ``out``, or to stdout when it is None."""
    text = _json_text(obj) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:   # fd 1 closed at start-up
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _expect(value, kind, what):
    """``value`` if it has the JSON type ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ShapeError(f"{what} must be a JSON {name}, "
                         f"got {type(value).__name__}")
    return value


def _key(obj, key, what):
    """``obj[key]``, a missing key refused with a ``ShapeError`` that names
    it and ``what``, the object that should hold it."""
    try:
        return obj[key]
    except KeyError:
        raise ShapeError(f"missing key {key!r} in {what}") from None


def _parsed(convert, value, what):
    """``convert(value)``, a malformed value reported as ``ParameterError``."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParameterError(f"malformed {what}: {value!r}") from None


def _p_inf(value) -> float:
    """A field's chance of +inf values, refused outside [0, 1]."""
    p_inf = _parsed(float, value, "p_inf")
    if not 0 <= p_inf <= 1:   # nan too
        raise ParameterError(f"p_inf must be in [0, 1], got {p_inf}")
    return p_inf


def _index(value):
    """``int(value)``, refusing a fraction, which int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _edge(edge):
    u, v, w = edge
    return _index(u), _index(v), float(w)


def _pair(pair, convert=_index):
    a, b = pair
    return convert(a), convert(b)


def _space_from_spec(points, spec):
    """The space of a metric entry and, for a grid, its neighborhoods."""
    kind = _expect(spec, dict, "metric").get("kind")
    if kind == "matrix":
        return MetricSpace(tuple(points), _key(spec, "dist", "the metric")), None
    if kind == "graph":
        edges = _expect(_key(spec, "edges", "the metric"), list, "graph edges")
        try:   # numbers with indices for ends as one array; _edge reads any other
            arr = np.array(edges)
        except ValueError:
            arr = np.array(())
        if arr.dtype.kind in "if" and arr.shape == (len(edges), 3) and (
                (arr[:, :2] >= 0) & (arr[:, :2] < len(points))
                & (arr[:, :2] == np.floor(arr[:, :2]))).all():
            ends = arr[:, :2].T.astype(np.intp)
            return _graph_space(points, ends, arr[:, 2].astype(float), ends), None
        return shortest_path_space(points, [
            _parsed(_edge, e, "graph edge (want [u, v, w])") for e in edges]), None
    if kind == "grid":
        p = spec.get("p", 2)
        p = math.inf if p == "inf" else _parsed(float, p, "grid exponent p")
        bounds = [_parsed(lambda b: _pair(b, float), b,
                          "grid bound (want [lo, hi])")
                  for b in _expect(_key(spec, "bounds", "the metric"), list,
                                   "grid bounds")]
        resolution = [_parsed(_index, r, "grid resolution") for r in
                      _expect(_key(spec, "resolution", "the metric"), list,
                              "grid resolution")]
        space, nbhd = grid_space(bounds, resolution, p)
        if list(space.points) != list(points):
            raise ParameterError("grid points do not match the points list")
        return space, nbhd
    raise ParameterError(f"unknown metric kind {kind!r}")


def _nbhd_from_spec(space: MetricSpace, spec, grid_nbhd) -> NeighborhoodSystem:
    kind = _expect(spec, dict, "neighborhoods").get("kind")
    if kind == "ball":
        return ball_neighborhoods(
            space, _parsed(float, _key(spec, "r", "the neighborhoods"),
                           "ball radius r"))
    if kind == "explicit":
        adj = _expect(_key(spec, "adj", "the neighborhoods"), list,
                      "neighbor pairs")
        try:   # plain ints as one array; _pair reads or names any other
            ends = np.array(adj)
        except ValueError:
            ends = np.array(())
        if ends.dtype.kind != "i" or ends.shape != (len(adj), 2):
            ends = np.array([_parsed(_pair, e, "neighbor pair (want [i, j])")
                             for e in adj], dtype=object).reshape(-1, 2)
        outside = ((ends < 0) | (ends >= space.n)).any(axis=1)
        if outside.any():
            i, j = ends[outside.argmax()].tolist()
            raise ParameterError(f"neighbor pair [{i}, {j}] is not a pair "
                                 f"of indices below {space.n}")
        return _pair_system(space.points, ends.astype(np.intp))
    if kind == "all":
        return all_pairs_neighborhoods(space)
    if kind == "grid":
        if grid_nbhd is None:
            raise ParameterError("grid neighborhoods need a grid metric")
        return grid_nbhd
    raise ParameterError(f"unknown neighborhood kind {kind!r}")


def instance_from_dict(obj: dict) -> Instance:
    """The instance of a parsed JSON object; malformed input raises
    ``ShapeError`` for a bad type or a missing key, ``ParameterError``
    for a bad value."""
    _expect(obj, dict, "an instance")
    points, metric, nbhd_spec = (_key(obj, key, "the instance") for key in
                                 ("points", "metric", "neighborhoods"))
    points = [str(p) for p in _expect(points, list, "points")]
    space, grid_nbhd = _space_from_spec(points, metric)
    nbhd = _nbhd_from_spec(space, nbhd_spec, grid_nbhd)
    fields = {
        name: ScalarField(space, tuple(
            _parsed(float, v, f"value of field {name!r}")
            for v in _expect(vals, list, f"field {name!r}")))
        for name, vals in _expect(obj.get("fields", {}), dict,
                                  "fields").items()
    }
    return Instance(space, nbhd, fields,
                    seed=_parsed(_seed_repr, obj.get("seed", 0), "seed"),
                    provenance=obj.get("provenance", {}),
                    metric_spec=metric, nbhd_spec=nbhd_spec)


def _read_json(path):
    """The JSON value in the file at ``path``, read as UTF-8 (RFC 8259)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ShapeError(f"{path} is not UTF-8 text: {exc}") from None


def load_instance(path) -> Instance:
    return instance_from_dict(_read_json(path))


def save_instance(instance: Instance, path):
    _write_json(instance.to_dict(), path)


def _seed(value):
    """``_index(value)``, refusing a negative seed before numpy does."""
    if (seed := _index(value)) < 0:
        raise ParameterError(f"seed must not be negative, got {seed}")
    return seed


def _seed_repr(seed):
    """Seeds may be ints or lists of ints (numpy seed sequences)."""
    if isinstance(seed, (list, tuple)):
        return [_seed(s) for s in seed]
    return _seed(seed)


def _rng(seed):
    """numpy's PCG64 generator of ``seed``, as ``_seed_repr`` reads it."""
    return np.random.default_rng(_parsed(_seed_repr, seed, "seed"))


def _random_field_values(rng, n, p_inf=0.0, low=0.0, high=3.0):
    vals = rng.uniform(low, high, size=n)
    out = [INF if rng.random() < p_inf else float(v) for v in vals]
    if p_inf < 1.0 and all(v == INF for v in out):
        out[int(rng.integers(0, n))] = float(rng.uniform(low, high))
    return tuple(out)


def gen_random_instance(seed, n_points, metric_kind="graph",
                        field_spec=None) -> Instance:
    """Deterministic random instance.

    metric_kind: "graph" (random connected weighted graph),
    "matrix" (random symmetric weights repaired by shortest-path closure),
    or "grid" (1D/2D box grid with a random p-metric).
    field_spec maps field names to {"p_inf": ..., "low": ..., "high": ...}.
    """
    if n_points < 1:
        raise ParameterError(f"need at least one point, got {n_points}")
    if field_spec is None:
        field_spec = {"f": {}, "g": {}}
    for fs in field_spec.values():
        _p_inf(fs.get("p_inf", 0.0))
    seed_repr = _parsed(_seed_repr, seed, "seed")
    rng = _rng(seed_repr)
    points = [f"p{i}" for i in range(n_points)]
    if metric_kind == "graph":
        edges = []
        for v in range(1, n_points):
            u = int(rng.integers(0, v))
            edges.append([u, v, float(rng.uniform(0.2, 2.0))])
        extra = int(rng.integers(0, n_points))
        for _ in range(extra):
            i, j = rng.integers(0, n_points, size=2)
            if i != j:
                edges.append([int(i), int(j), float(rng.uniform(0.2, 2.0))])
        metric_spec = ({"kind": "graph", "edges": edges} if n_points > 1
                       else {"kind": "matrix", "dist": [[0.0]]})
    elif metric_kind == "matrix":
        w = rng.uniform(0.3, 2.0, size=(n_points, n_points))
        d = metric_closure(w) if n_points > 1 else np.zeros((1, 1))
        metric_spec = {"kind": "matrix", "dist": d.tolist()}
    elif metric_kind == "grid":
        if n_points < 2:
            raise ParameterError("grid instances need at least two points")
        if n_points >= 4 and rng.random() < 0.5:
            resolution = [2, max(2, n_points // 2)]
            bounds = [[0.0, 1.0], [0.0, 1.0]]
        else:
            resolution = [n_points]
            bounds = [[0.0, 1.0]]
        p = [1.0, 2.0, math.inf][int(rng.integers(0, 3))]
        metric_spec = {"kind": "grid", "bounds": bounds,
                       "resolution": resolution,
                       "p": "inf" if p == math.inf else p}
        points = [f"n{i}" for i in range(math.prod(resolution))]
    else:
        raise ParameterError(f"unknown metric kind {metric_kind!r}")
    # a closure just computed carries its bound; loading the file re-checks it
    space, grid_nbhd = ((_closure_space(points, d), None)
                        if metric_kind == "matrix"
                        else _space_from_spec(points, metric_spec))

    if grid_nbhd is not None:
        nbhd_spec = {"kind": "grid"}
    elif space.n == 1 or rng.random() < 0.25:
        nbhd_spec = {"kind": "all"}
    else:
        pos = space.dist[space.dist > 0]
        nbhd_spec = {"kind": "ball",
                     "r": float(np.quantile(pos, rng.uniform(0.3, 0.9)))}
    nbhd = _nbhd_from_spec(space, nbhd_spec, grid_nbhd)

    fields = {}
    for name, fs in field_spec.items():
        fields[name] = ScalarField(space, _random_field_values(
            rng, space.n, p_inf=float(fs.get("p_inf", 0.0)),
            low=fs.get("low", 0.0), high=fs.get("high", 3.0)))

    provenance = {
        "generator": "gen_random_instance",
        "algorithm": PRNG_ALGORITHM,
        "params": {"seed": seed_repr, "n_points": int(n_points),
                   "metric_kind": metric_kind,
                   "field_spec": {k: dict(v) for k, v in field_spec.items()}},
    }
    return Instance(space, nbhd, fields, seed=seed_repr,
                    provenance=provenance,
                    metric_spec=metric_spec, nbhd_spec=nbhd_spec)


def instance_stream(count, seed, max_points=12,
                    kinds=("graph", "matrix", "grid"), p_inf=(0.0, 0.2)):
    """(instance, rng) for the seeds [seed, i], i < count, of the suite and
    the acceptance batches; n is drawn from rng, as are the checks' inputs."""
    for i in range(count):
        inst_seed = [seed, i]
        rng = _rng(inst_seed)
        kind = kinds[i % len(kinds)]
        p = p_inf[(i // len(kinds)) % len(p_inf)]
        n = int(rng.integers(2 if kind == "grid" else 1, max_points + 1))
        inst = gen_random_instance(
            inst_seed, n, metric_kind=kind,
            field_spec={"f": {"p_inf": p}, "g": {"p_inf": p}})
        yield inst, rng


def gen_dominated_pair(seed, f: ScalarField, mode="truncate", tol=None):
    """(f, g) with the global slope of g dominated by that of f on dom f.

    Constructors: "truncate" (g = min(f, lam)), "scale" (g = r f, r in [0,1]),
    "compose" (g = r min(f, lam)).  Domination is re-verified by brute
    force before the pair is returned; a failure would falsify the
    constructor's guarantee and is raised as a fatal finding.
    """
    tol = resolve_tol(tol)
    _require_proper(f)
    rng = _rng(seed)
    lo, hi = f.min_finite(), f.max_finite()
    if not hi - lo < INF:   # numpy draws lam from [lo, hi) through hi - lo
        raise ParameterError(f"the finite values of f span {lo} to {hi}, "
                             "more than the largest float")
    lam = float(rng.uniform(lo, hi)) if hi > lo else lo
    r = float(rng.uniform(0.0, 1.0))
    if mode == "truncate":
        g = truncate(f, lam)
        params = {"mode": mode, "lam": lam}
    elif mode == "scale":
        g = scale_field(f, r)
        params = {"mode": mode, "r": r}
    elif mode == "compose":
        g = scale_field(truncate(f, lam), r)
        params = {"mode": mode, "lam": lam, "r": r}
    else:
        raise ParameterError(f"unknown domination mode {mode!r}")
    bad = domination_witnesses(f, g, tol)
    if bad:
        raise FatalFinding(
            "domination constructor emitted a non-dominated pair",
            witness={"mode": mode, "params": params, "point": bad[0]})
    return g, params


def gen_random_pl(seed, max_knots=6, span=5.0, min_gap=0.05):
    """Random piecewise-linear convex function with well-separated knots."""
    from .convex1d import PLConvex
    rng = _rng(seed)
    k = int(rng.integers(1, max_knots + 1))
    knots = np.sort(rng.uniform(-span, span, size=k))
    while k > 1 and np.min(np.diff(knots)) < min_gap:
        knots = np.sort(rng.uniform(-span, span, size=k))
    steps = rng.uniform(0.1, 2.0, size=k)
    s0 = float(rng.uniform(-3.0, 1.0))
    slopes = s0 + np.concatenate([[0.0], np.cumsum(steps)])
    anchor = float(rng.uniform(-2.0, 2.0))
    return PLConvex(tuple(map(float, knots)), tuple(map(float, slopes)), anchor)
