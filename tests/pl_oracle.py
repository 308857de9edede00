"""Test helpers for ``PLConvex``, built from the public API only: a PL
function tabulated on a one-dimensional grid, and the global slope of its
definition over sampled points, an oracle independent of the closed form."""

import numpy as np

from slopekit import (MetricSpace, ParameterError, PLConvex, ScalarField,
                      grid_space)


def sample_to_field(f: PLConvex, grid: MetricSpace, lo, hi) -> ScalarField:
    """Tabulate f on the nodes of ``grid``, the one-dimensional grid space of
    [lo, hi], whose node n{i} lies at np.linspace(lo, hi, grid.n)[i]."""
    if grid != grid_space([(lo, hi)], [grid.n])[0]:
        raise ParameterError(f"grid must be the one-dimensional grid of "
                             f"[{lo}, {hi}]")
    return ScalarField(grid, f.values(np.linspace(lo, hi, grid.n)))


def definitional_global_slope(f: PLConvex, x: float, ys) -> float:
    """sup over sampled y != x of [f(x)-f(y)]+/|x-y|."""
    ys = np.asarray(ys, dtype=float)
    ys = ys[ys != x]
    with np.errstate(all="ignore"):
        quot = (f.value(x) - f.values(ys)) / np.abs(x - ys)
    return float(max(quot.max(initial=0.0), 0.0))
