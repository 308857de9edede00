"""Benchmark-owned inputs and the numpy oracle the outputs are checked with.

Distances, edge lists and field values come from the workload seed through
the benchmark's own numpy generator.  The program receives them only as
instance dicts or JSON files, so a change to slopekit's generators cannot
change a workload.
"""

import math

import numpy as np

KINDS = ("matrix", "graph", "grid1", "grid2")


def _closure(w):
    """Shortest-path closure of a symmetric positive weight matrix."""
    d = w.copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    return d


def distances(metric):
    """The distance matrix an instance dict's "metric" entry describes."""
    if metric["kind"] == "matrix":
        return np.array(metric["dist"])
    if metric["kind"] == "graph":
        n = 1 + max(max(i, j) for i, j, _ in metric["edges"])
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for i, j, wt in metric["edges"]:
            w[i, j] = w[j, i] = min(w[i, j], wt)
        return _closure(w)
    axes = [np.linspace(lo, hi, r)
            for (lo, hi), r in zip(metric["bounds"], metric["resolution"])]
    coords = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], 1)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if metric["p"] == "inf":
        return diff.max(axis=2)
    return (diff ** metric["p"]).sum(axis=2) ** (1.0 / metric["p"])


def instance_dict(rng, kind, n):
    """A seeded instance dict on about ``n`` points with one finite field f.

    ``matrix``: random weights closed under shortest paths, 4-nearest-
    neighbour adjacency.  ``graph``: random spanning tree plus about n
    extra edges, adjacency along the edges.  ``grid1``/``grid2``: 1-D and
    2-D grids of the unit box under a random p-metric, axis adjacency.
    """
    nbhd = {"kind": "grid"}
    if kind == "matrix":
        w = rng.uniform(0.3, 2.0, size=(n, n))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        d = _closure(w)
        metric = {"kind": "matrix", "dist": d.tolist()}
        near = np.argsort(d + np.diag(np.full(n, np.inf)), axis=1)[:, :4]
        adj = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in near[i]}
        nbhd = {"kind": "explicit", "adj": [list(e) for e in sorted(adj)]}
        points = [f"p{i}" for i in range(n)]
    elif kind == "graph":
        edges = [[int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0))]
                 for v in range(1, n)]
        for _ in range(n):
            i, j = (int(t) for t in rng.integers(0, n, size=2))
            if i != j:
                edges.append([i, j, float(rng.uniform(0.2, 2.0))])
        metric = {"kind": "graph", "edges": edges}
        adj = {(min(i, j), max(i, j)) for i, j, _ in edges}
        nbhd = {"kind": "explicit", "adj": [list(e) for e in sorted(adj)]}
        points = [f"p{i}" for i in range(n)]
    elif kind in ("grid1", "grid2"):
        if kind == "grid1":
            resolution, bounds = [n], [[0.0, 1.0]]
        else:
            rows = max(2, math.isqrt(n // 2))
            resolution, bounds = [rows, n // rows], [[0.0, 1.0], [0.0, 1.0]]
        p = ("inf", 1.0, 2.0)[int(rng.integers(0, 3))]
        metric = {"kind": "grid", "bounds": bounds, "resolution": resolution,
                  "p": p}
        points = [f"n{i}" for i in range(math.prod(resolution))]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    f = rng.uniform(0.0, 3.0, size=len(points))
    return {"points": points, "metric": metric, "neighborhoods": nbhd,
            "fields": {"f": f.tolist()}, "seed": 0,
            "provenance": {"generator": "perfbench"}}


def oracle_slopes(values, dist, mask):
    """Row-max of (f_i - f_j)+ / d_ij over the pairs that ``mask`` admits.

    The loops in slopekit evaluate the same IEEE operations per pair, so
    the result must match them exactly.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.maximum(v[:, None] - v[None, :], 0.0) / dist
    q = np.where(mask & np.isfinite(v)[None, :], q, 0.0)
    return q.max(axis=1, initial=0.0)


def adjacency_mask(points, nbhd):
    """Boolean neighbour matrix of a slopekit NeighborhoodSystem."""
    index = {p: i for i, p in enumerate(points)}
    mask = np.zeros((len(points), len(points)), dtype=bool)
    for p in points:
        for q in nbhd.of(p):
            mask[index[p], index[q]] = True
    return mask


def pl_pair(rng, knots=6):
    """Two PL convex functions with the same subdifferential map, g = f - c."""
    t = np.sort(rng.uniform(-5.0, 5.0, size=knots))
    slopes = rng.uniform(-3.0, 1.0) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 2.0, size=knots))])
    anchor = float(rng.uniform(-2.0, 2.0))
    shift = float(rng.uniform(0.5, 1.5))
    f = {"knots": t.tolist(), "slopes": slopes.tolist(), "anchor": anchor}
    g = dict(f, anchor=anchor - shift)
    return f, g
