"""Test helpers for ``PLConvex``, built from the public API only: a PL
function tabulated on a one-dimensional grid, and the global slope of its
definition over sampled points, an oracle independent of the closed form."""

import numpy as np

from slopekit import MetricSpace, ParameterError, PLConvex, ScalarField


def sample_to_field(f: PLConvex, grid: MetricSpace) -> ScalarField:
    """Tabulate f on the nodes of a one-dimensional grid space."""
    if grid.coords is None or any(len(c) != 1 for c in grid.coords):
        raise ParameterError("grid must be one-dimensional with coordinates")
    return ScalarField(grid, f.values([c[0] for c in grid.coords]))


def definitional_global_slope(f: PLConvex, x: float, ys) -> float:
    """sup over sampled y != x of [f(x)-f(y)]+/|x-y|."""
    ys = np.asarray(ys, dtype=float)
    ys = ys[ys != x]
    with np.errstate(all="ignore"):
        quot = (f.value(x) - f.values(ys)) / np.abs(x - ys)
    return float(max(quot.max(initial=0.0), 0.0))
