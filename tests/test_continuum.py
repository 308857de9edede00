"""Grid slopes against the continuum.

On a normed space the slope of a C^1 function f at x is the dual norm
||grad f(x)||_q of its derivative (Ambrosio, Gigli and Savare, 2008).  A
grid cannot match it exactly, but Taylor's theorem with the Lagrange
remainder bounds the gap both ways.  Let M_p bound u^T Hess f u over
||u||_p = 1 and let the neighbours of x be the p-ball of radius rho = k h,
h the spacing.  For y in the ball, f(x) - f(y) <= ||grad f(x)||_q
||x - y||_p + M_p ||x - y||_p^2 / 2, so at every node

    local slope - ||grad f(x)||_q <= M_p rho / 2.

For p = 1 the dual norm is attained on an axis step and for p = inf on the
diagonal step against the gradient, both of p-length h, so at a node whose
steps stay on the grid

    ||grad f(x)||_q - local slope <= M_p h / 2        (p = 1, inf).

A linear field has M_p = 0.  With dyadic nodes and coefficients every
operation is exact, and its local slope is ||grad f||_q bit for bit.
The checks cover grid_space, its l_p distances, ball neighbourhoods and
the slope kernel together.
"""

import math

import numpy as np
import pytest

from slopekit import ScalarField, ball_neighborhoods, grid_space, slopes

LO, HI = -2.0, 2.0   # the box, on every axis
DUAL = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}
# (dimension, nodes per axis): spacings 1/2, 1/8, 1/2, 1/4, 1/6, 1 and 2/3
GRIDS = [(1, 9), (1, 33), (2, 9), (2, 17), (2, 25), (3, 5), (3, 7)]
RADII = (1, 2, 3)   # ball radii, in steps
FIELDS = 4          # seeded fields per grid


def nodes(dim, r):
    """The nodes of grid_space([(LO, HI)] * dim, [r] * dim): row i is node
    n{i}, on the "ij" mesh of the axes np.linspace(LO, HI, r)."""
    axes = [np.linspace(LO, HI, r)] * dim
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def inner(dim, r):
    """The nodes off the box's faces, whose every lattice step is a node."""
    index = np.stack(np.unravel_index(np.arange(r ** dim), (r,) * dim), axis=1)
    return ((index >= 1) & (index <= r - 2)).all(axis=1)


class SmoothField:
    """f(x) = sum_i a_i sin(b_i x_i + c_i) + l . x + x^T E x / 2, E symmetric
    with a zero diagonal, so that |Hess f| <= A entrywise everywhere."""

    def __init__(self, rng, dim):
        self.a = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
        self.b = rng.uniform(0.3, 1.5, dim)
        self.c = rng.uniform(0.0, 2 * math.pi, dim)
        self.l = rng.uniform(-1.0, 1.0, dim)
        e = np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
        self.e = e + e.T
        self.A = np.abs(self.e) + np.diag(np.abs(self.a) * self.b ** 2)

    def values(self, x):
        return ((self.a * np.sin(self.b * x + self.c)).sum(axis=1)
                + x @ self.l + 0.5 * ((x @ self.e) * x).sum(axis=1))

    def gradient(self, x):
        return self.a * self.b * np.cos(self.b * x + self.c) + self.l + x @ self.e

    def hessian_bound(self, p):
        """M_p: sum_ij |u_i| |u_j| A_ij over ||u||_p = 1 is at most max A for
        p = 1, the sum of A for p = inf, and A's top eigenvalue for p = 2."""
        if p == 1:
            return self.A.max()
        if p == math.inf:
            return self.A.sum()
        return np.linalg.eigvalsh(self.A)[-1]


def local_slopes(dim, r, p, k, values):
    space, _ = grid_space([(LO, HI)] * dim, [r] * dim, p)
    h = (HI - LO) / (r - 1)
    nbhd = ball_neighborhoods(space, k * h)
    return np.asarray(slopes(ScalarField(space, tuple(values)), nbhd))


def slack(values, h):
    """A few ulps of the field values over the step: what rounding may move
    a difference quotient by; a negligible part of either bound."""
    return 8 * np.spacing(np.abs(values).max()) / h


def gaps(dim, r, p, k, field):
    """(local slope - ||grad f||_q - slack) / (M_p rho / 2) at every node
    and (||grad f||_q - local slope - slack) / (M_p h / 2) at the inner
    nodes: each is at most 1 where the bound holds."""
    x = nodes(dim, r)
    values = field.values(x)
    h = (HI - LO) / (r - 1)
    dual = np.linalg.norm(field.gradient(x), ord=DUAL[p], axis=1)
    excess = local_slopes(dim, r, p, k, values) - dual
    half_m = field.hessian_bound(p) / 2
    room = slack(values, h)
    return ((excess - room) / (half_m * k * h),
            (-excess[inner(dim, r)] - room) / (half_m * h))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("dim, r", GRIDS, ids=[f"{d}d-{r}" for d, r in GRIDS])
def test_smooth_field_slopes_within_the_taylor_bounds(dim, r, p):
    rng = np.random.default_rng([10, dim, r])
    fields = [SmoothField(rng, dim) for _ in range(FIELDS)]
    for k in RADII:
        for field in fields:
            upper, lower = gaps(dim, r, p, k, field)
            assert upper.max() <= 1.0, (k, upper.max())
            if p != 2:
                assert lower.max() <= 1.0, (k, lower.max())


# dyadic spacings 1, 1/2 and 1/4
LINEAR_GRIDS = [(1, 17), (2, 9), (3, 5)]


@pytest.mark.parametrize("p", [1.0, math.inf], ids=["p1", "pinf"])
@pytest.mark.parametrize("dim, r", LINEAR_GRIDS,
                         ids=[f"{d}d-{r}" for d, r in LINEAR_GRIDS])
def test_linear_field_slope_is_the_dual_norm(dim, r, p):
    rng = np.random.default_rng([11, dim, r])
    x = nodes(dim, r)
    for _ in range(FIELDS):
        grad = rng.integers(-8, 9, dim) / 4
        norm = np.linalg.norm(grad, ord=DUAL[p])
        for k in RADII:
            got = local_slopes(dim, r, p, k, x @ grad)
            assert (got <= norm).all()
            assert (got[inner(dim, r)] == norm).all()
