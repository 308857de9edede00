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
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .config import _index, _pair, _parsed, _shown, resolve_tol
from .convex1d import PLConvex
from .errors import FatalFinding, ParameterError, ShapeError
from .metric_space import (MetricSpace, NeighborhoodSystem, _closure_space,
                           _graph_space, _pair_system, all_pairs_neighborhoods,
                           ball_neighborhoods, grid_space, metric_closure,
                           shortest_path_space)
from .slope_core import (INF, ScalarField, _require_proper, domination_witnesses,
                         scale_field, truncate)

PRNG_ALGORITHM = "numpy PCG64"
KINDS = ("graph", "matrix", "grid")   # the metric kinds that are generated

# The most points of an instance, generated or loaded: it holds dense n x n
# arrays (n x n x dim for a grid) and its load runs O(n^3) closure and
# validation.  At n = 1000 a matrix instance takes 5-7 s, 230 MB and a 27 MB
# file, against 1.1 s and 94 MB at n = 500 (`gen`, 2 vCPUs, shared Intel Xeon).
MAX_POINTS = 1000


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
            raise ParameterError(f"instance has no field {_shown(name)}; "
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
    """The one JSON layout of instance files and CLI outputs: strict JSON
    (RFC 8259), with a non-finite float written as the string "inf",
    "-inf" or "nan", as instance files write +inf."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:   # a non-finite float: rare, so spelled on a retry
        return json.dumps(_spelled(obj), indent=2, sort_keys=True)


def _spelled(obj):
    """``obj`` with each non-finite float in its lists and values a string."""
    if isinstance(obj, dict):
        return {key: _spelled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_spelled, obj))
    finite = not isinstance(obj, float) or math.isfinite(obj)
    return obj if finite else str(obj)   # "inf", "-inf" or "nan"


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


def _size(value, what, least=-math.inf) -> int:
    """``value`` as an int from ``least`` to ``MAX_POINTS``, refused before
    anything of that size is built."""
    n = _parsed(_index, value, what)
    if not least <= n <= MAX_POINTS:
        bound = f"least {least}" if n < least else f"most {MAX_POINTS}"
        raise ParameterError(f"{what} must be at {bound}, got {_shown(n)}")
    return n


def _p_inf(value) -> float:
    """A field's chance of +inf values, refused outside [0, 1]."""
    p_inf = _parsed(float, value, "p_inf")
    if not 0 <= p_inf <= 1:   # nan too
        raise ParameterError(f"p_inf must be in [0, 1], got {p_inf}")
    return p_inf


def _p_infs(field_spec) -> dict:
    """{name: p_inf} of a ``field_spec``, {name: {"p_inf": p}}, p 0 if left
    out; any other shape or key is refused."""
    if not isinstance(field_spec, Mapping) or not all(
            isinstance(fs, Mapping) and fs.keys() <= {"p_inf"}
            for fs in field_spec.values()):
        raise ParameterError("field_spec must map field names to {} or "
                             f"{{'p_inf': p}}, got {_shown(field_spec)}")
    return {name: _p_inf(fs.get("p_inf", 0.0)) for name, fs in field_spec.items()}


def _edge(edge):
    u, v, w = edge
    return _index(u), _index(v), float(w)


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
    if kind == "grid":   # grid_space reads each number, and names n0, n1, ...
        bounds, resolution = (_expect(_key(spec, key, "the metric"), list,
                                      f"grid {key}")
                              for key in ("bounds", "resolution"))
        count = 1   # of nodes, capped so that a long resolution stays cheap
        for r in resolution:   # abs keeps it growing; grid_space refuses r < 2
            count = min(count * abs(_parsed(_index, r, "grid resolution")),
                        len(points) + 1)
        if count != len(points) or points != [f"n{i}" for i in range(count)]:
            raise ParameterError("grid points do not match the points list")
        return grid_space(bounds, resolution, spec.get("p", 2))
    raise ParameterError(f"unknown metric kind {_shown(kind)}")


def _nbhd_from_spec(space: MetricSpace, spec, grid_nbhd) -> NeighborhoodSystem:
    kind = _expect(spec, dict, "neighborhoods").get("kind")
    if kind == "ball":
        return ball_neighborhoods(space, _key(spec, "r", "the neighborhoods"))
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
            raise ParameterError(
                f"neighbor pair {_shown(ends[outside.argmax()].tolist())} "
                f"is not a pair of indices below {space.n}")
        return _pair_system(space.points, ends.astype(np.intp))
    if kind == "all":
        return all_pairs_neighborhoods(space)
    if kind == "grid":
        if grid_nbhd is None:
            raise ParameterError("grid neighborhoods need a grid metric")
        return grid_nbhd
    raise ParameterError(f"unknown neighborhood kind {_shown(kind)}")


def instance_from_dict(obj: dict) -> Instance:
    """The instance of a parsed JSON object; malformed input raises
    ``ShapeError`` for a bad type or a missing key, ``ParameterError``
    for a bad value."""
    _expect(obj, dict, "an instance")
    points, metric, nbhd_spec = (_key(obj, key, "the instance") for key in
                                 ("points", "metric", "neighborhoods"))
    _size(len(_expect(points, list, "points")), "the number of points")
    points = [_parsed(str, p, "point name") for p in points]
    space, grid_nbhd = _space_from_spec(points, metric)
    nbhd = _nbhd_from_spec(space, nbhd_spec, grid_nbhd)
    fields = {}
    for name, vals in _expect(obj.get("fields", {}), dict, "fields").items():
        what = f"field {_shown(name)}"
        fields[name] = ScalarField(space, tuple(
            _parsed(float, v, f"value of {what}")
            for v in _expect(vals, list, what)))
    return Instance(space, nbhd, fields,
                    seed=_parsed(_seed_repr, obj.get("seed", 0), "seed"),
                    provenance=obj.get("provenance", {}),
                    metric_spec=metric, nbhd_spec=nbhd_spec)


def pl_from_dict(obj: dict) -> PLConvex:
    """A malformed object raises ``ShapeError`` or ``ParameterError``."""
    obj = _expect(obj, dict, "a PL function")
    knots, slopes = (_expect(_key(obj, key, "a PL function"), list, key)
                     for key in ("knots", "slopes"))
    return PLConvex(knots, slopes, _key(obj, "anchor", "a PL function"))


def _read_json(path):
    """The JSON value in the file at ``path``, read as UTF-8 (RFC 8259)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ShapeError(f"{path} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:   # an integer literal past int()'s digit limit
            raise ShapeError(f"{path}: {exc}") from None


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


def _random_field_values(rng, n, p_inf):
    vals = rng.uniform(0.0, 3.0, size=n)
    out = [INF if rng.random() < p_inf else float(v) for v in vals]
    if p_inf < 1.0 and all(v == INF for v in out):
        out[int(rng.integers(0, n))] = float(rng.uniform(0.0, 3.0))
    return tuple(out)


def gen_random_instance(seed, n_points, metric_kind="graph",
                        field_spec=None) -> Instance:
    """Deterministic random instance.

    metric_kind: "graph" (random connected weighted graph),
    "matrix" (random symmetric weights repaired by shortest-path closure),
    or "grid" (1D/2D box grid with a random p-metric).
    field_spec maps field names to {"p_inf": p}; values are drawn from [0, 3).
    """
    n_points = _size(n_points, "n_points")
    if n_points < 1:
        raise ParameterError(f"need at least one point, got {_shown(n_points)}")
    if field_spec is None:
        field_spec = {"f": {}, "g": {}}
    p_infs = _p_infs(field_spec)
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
            resolution, bounds = [2, n_points // 2], [[0.0, 1.0], [0.0, 1.0]]
        else:
            resolution, bounds = [n_points], [[0.0, 1.0]]
        p = [1.0, 2.0, math.inf][int(rng.integers(0, 3))]
        metric_spec = {"kind": "grid", "bounds": bounds,
                       "resolution": resolution,
                       "p": "inf" if p == math.inf else p}
        points = [f"n{i}" for i in range(math.prod(resolution))]
    else:
        raise ParameterError(f"unknown metric kind {_shown(metric_kind)}")
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

    fields = {name: ScalarField(space, _random_field_values(rng, space.n, p))
              for name, p in p_infs.items()}

    provenance = {
        "generator": "gen_random_instance",
        "algorithm": PRNG_ALGORITHM,
        "params": {"seed": seed_repr, "n_points": n_points,
                   "metric_kind": metric_kind,
                   "field_spec": {k: dict(v) for k, v in field_spec.items()}},
    }
    return Instance(space, nbhd, fields, seed=seed_repr,
                    provenance=provenance,
                    metric_spec=metric_spec, nbhd_spec=nbhd_spec)


def _drawer(seed, max_points, kinds, p_inf):
    """The function of i that draws (instance, rng) for the seed [seed, i] of
    a stream, once its ``max_points``, ``kinds`` and ``p_inf`` are read:
    nonempty lists, of ``KINDS`` and of chances in [0, 1)."""
    for key, value in (("kinds", kinds), ("p_inf", p_inf)):
        if not _expect(value, (list, tuple), key):
            raise ParameterError(f"{key} must be a nonempty list")
    if unknown := [kind for kind in kinds if kind not in KINDS]:
        raise ParameterError(f"unknown metric kind {_shown(unknown[0])}")
    if max(map(_p_inf, p_inf)) == 1:
        raise ParameterError("p_inf must be below 1 in the suite: a field "
                             "that is +inf everywhere has no start point")
    max_points = _size(max_points, "max_points", 2 if "grid" in kinds else 1)

    def drawn(i):
        rng = _rng([seed, i])
        kind, p = kinds[i % len(kinds)], p_inf[(i // len(kinds)) % len(p_inf)]
        n = int(rng.integers(2 if kind == "grid" else 1, max_points + 1))
        return gen_random_instance([seed, i], n, metric_kind=kind, field_spec={
            "f": {"p_inf": p}, "g": {"p_inf": p}}), rng
    return drawn


# the stream's defaults: instance_stream's, and a suite config's
STREAM = {"max_points": 12, "kinds": KINDS, "p_inf": (0.0, 0.2)}


def instance_stream(count, seed, max_points=STREAM["max_points"],
                    kinds=STREAM["kinds"], p_inf=STREAM["p_inf"]):
    """(instance, rng) for the seeds [seed, i], i < count, of the suite and
    the acceptance batches; n is drawn from rng, as are the checks' inputs.
    Bad ``kinds``, ``p_inf`` and ``max_points`` are refused by this call."""
    return map(_drawer(seed, max_points, kinds, p_inf), range(count))


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
        raise ParameterError(f"unknown domination mode {_shown(mode)}")
    bad = domination_witnesses(f, g, tol)
    if bad:
        raise FatalFinding(
            "domination constructor emitted a non-dominated pair",
            witness={"mode": mode, "params": params, "point": bad[0]})
    return g, params


def gen_random_pl(seed):
    """Random PL convex function: 1 to 6 knots in [-5, 5), 0.05 or more apart."""
    rng = _rng(seed)
    k = int(rng.integers(1, 7))
    knots = np.sort(rng.uniform(-5.0, 5.0, size=k))
    while k > 1 and np.min(np.diff(knots)) < 0.05:
        knots = np.sort(rng.uniform(-5.0, 5.0, size=k))
    steps = rng.uniform(0.1, 2.0, size=k)
    slopes = rng.uniform(-3.0, 1.0) + np.concatenate([[0.0], np.cumsum(steps)])
    return PLConvex(knots, slopes, rng.uniform(-2.0, 2.0))
