"""One floating-point policy: arithmetic on arrays runs under
``config._quiet``, so an overflow is +-inf, inf - inf or inf * 0 is nan, and
no public function warns, or reads the caller's ``np.seterr`` state, on
legal finite input.  Each row below pins what a call on values near the
float limit returns or raises."""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (MetricError, MetricSpace, ParameterError, PLConvex,
                      ScalarField, ShapeError, SlopekitError,
                      add_fields, all_pairs_neighborhoods, ball_neighborhoods,
                      check_compact, check_lips, check_lsc, check_tz,
                      definitional_global_slope, descent_step,
                      descent_to_critical, domination_witnesses,
                      ekeland_point, eps_argmin, eps_crit, eps_Crit,
                      gen_dominated_pair, global_slope, grid_space,
                      local_slope, log_distance_field, mr_check,
                      pasch_hausdorff, restrict, sample_to_field,
                      scale_field, shortest_path_space, slope_profile,
                      slopes, strict_comparison_witnesses, sub_fields,
                      sublevel_diff, truncate, validate_metric,
                      verify_trace)
from slopekit.metric_space import metric_closure

INF = math.inf
BIG = 1e308


@contextmanager
def caller_state(kind):
    """Warnings as errors, or numpy told to raise on every float error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "seterr-raise":
            with np.errstate(all="raise"):
                yield
        else:
            yield


def outcome(call):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call()
    except SlopekitError as exc:
        return type(exc), str(exc)


# f = (1e308, 1e308) and g = -f on two points 1 apart: f - g overflows
TWO = MetricSpace(("a", "b"), [[0, 1], [1, 0]])
F2, G2 = ScalarField(TWO, (BIG, BIG)), ScalarField(TWO, (-BIG, -BIG))
ALL2 = all_pairs_neighborhoods(TWO)
# f = (1e308, 0, -1e308) on the path a - b - c with edges of 4
PATH = shortest_path_space(["a", "b", "c"], [("a", "b", 4), ("b", "c", 4)])
F3 = ScalarField(PATH, (BIG, 0.0, -BIG))
HUGE = [[0.0, BIG, BIG], [BIG, 0.0, BIG], [BIG, BIG, 0.0]]
SKEW = [[0, BIG, 1], [-BIG, 0, 1], [1, 1, 0]]
SKEW_REPORT = (
    "dist[0][1] = 1e+308 != dist[1][0] = -1e+308; "
    "dist[1][0] = -1e+308 is not positive; "
    "dist[1][2] = 1.0 > dist[1][0] + dist[0][2] = -1e+308; "
    "dist[2][0] = 1.0 > dist[2][1] + dist[1][0] = -1e+308; "
    "dist[0][1] = 1e+308 > dist[0][2] + dist[2][1] = 2.0")
NOT_FINITE = (ShapeError, "distance matrix entries must be finite")

REPRODUCERS = {
    "check_lips": (
        lambda: check_lips(F2, G2, 0.5).to_dict(),
        {"check": "lips", "hypothesis": "satisfied",
         "hypothesis_witnesses": [], "conclusion": "verified",
         "witness": "a", "slack": 0.0,
         "details": {"inf_all": INF, "inf_crit": INF, "eps": 0.5}}),
    "check_compact": (
        lambda: check_compact(F2, G2, ALL2).to_dict(),
        {"check": "compact", "hypothesis": "satisfied",
         "hypothesis_witnesses": [], "conclusion": "verified",
         "witness": "a", "slack": 0.0,
         "details": {"inf_all": INF, "inf_crit0": INF}}),
    "sublevel_diff": (lambda: sublevel_diff(F2, G2, 0.0), ()),
    "descent_step": (lambda: descent_step(F2, G2, ALL2, "a", 0.5), "a"),
    "scale_field": (
        lambda: scale_field(F3, 3.0).values,
        (ParameterError, "field value -inf is not in R ∪ {+inf}")),
    "ekeland_point": (lambda: ekeland_point(F3, "a", BIG), "a"),
    "validate_metric, matmul": (
        lambda: validate_metric(HUGE).to_dict(), {"ok": True,
                                                  "violations": []}),
    "MetricSpace, matmul": (
        lambda: MetricSpace(("a", "b", "c"), HUGE).dist.tolist(), HUGE),
    "validate_metric, subtract": (
        lambda: validate_metric(SKEW).summary(), SKEW_REPORT),
    "MetricSpace, subtract": (
        lambda: MetricSpace(("a", "b", "c"), SKEW),
        (MetricError, "not a metric: " + SKEW_REPORT)),
    "grid_space, square": (
        lambda: grid_space([(0, 1e200)], [3], 2.0), NOT_FINITE),
    "grid_space, linspace": (
        lambda: grid_space([(-BIG, BIG)], [3], 1.0), NOT_FINITE),
    "PLConvex.values": (
        lambda: PLConvex((0, BIG), (-BIG, 0, BIG), 0).values(
            [-BIG, BIG]).tolist(),
        [INF, 0.0]),
    # connected, but a - c is longer than the largest float
    "shortest_path_space, overflow": (
        lambda: shortest_path_space(["a", "b", "c"],
                                    [("a", "b", BIG), ("b", "c", BIG)]),
        (ParameterError,
         "the distance from 'a' to 'c' exceeds the largest float")),
    # a slope near the largest float plus a large tol
    "domination_witnesses, tol": (
        lambda: domination_witnesses(
            ScalarField(TWO, (1.79e308, 0.0)), ScalarField(TWO, (1.0, 0.0)),
            tol=1e306),
        []),
    # lam is drawn from [min f, max f), whose length overflows
    "gen_dominated_pair, span": (
        lambda: gen_dominated_pair(3, F3, "compose"),
        (ParameterError, "the finite values of f span -1e+308 to 1e+308, "
                         "more than the largest float")),
}


@pytest.mark.parametrize("state", ["warnings-error", "seterr-raise"])
@pytest.mark.parametrize("name", REPRODUCERS)
def test_legal_finite_input_is_quiet(name, state):
    call, expected = REPRODUCERS[name]
    with caller_state(state):
        assert outcome(call) == expected


def test_disconnected_graph_with_overflow_keeps_its_message():
    with caller_state("warnings-error"), pytest.raises(
            ParameterError, match="^graph is disconnected: no path from "
                                  "'a' to 'c'$"):
        shortest_path_space(["a", "b", "c"], [("a", "b", BIG)])


# --- every public array function on extreme finite values ----------------

EXTREMES = (BIG, -BIG, 1e-308, -1e-308, 0.0)
LENGTHS = st.sampled_from((1e-308, 1.0, 4.0, BIG))   # distances, levels
values = st.sampled_from(EXTREMES + (INF,))


@st.composite
def cases(draw):
    """(kind, n, a symmetric matrix or path weights, f values, g values,
    levels, a tolerance, PL knots and slopes), all drawn from extreme
    values."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("matrix", "closure", "path", "grid")))
    upper = draw(st.lists(LENGTHS, min_size=n * n, max_size=n * n))
    fv = draw(st.lists(values, min_size=n, max_size=n))
    gv = draw(st.one_of(   # -f makes f - g = 2f overflow
        st.lists(values, min_size=n, max_size=n),
        st.just([v if v == INF else -v for v in fv])))
    levels = draw(st.lists(LENGTHS, min_size=3, max_size=3))
    tol = draw(st.sampled_from((0.0, 1e-9, BIG)))
    knots = draw(st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=3,
                          unique=True))
    pl_slopes = draw(st.lists(st.sampled_from(EXTREMES),
                              min_size=len(knots) + 1,
                              max_size=len(knots) + 1))
    return (kind, n, upper, fv, gv, levels, tol, sorted(knots),
            sorted(pl_slopes))


def build(kind, n, upper):
    """A space of n points named p0, ... and a neighbourhood system on it."""
    points = [f"p{i}" for i in range(n)]
    m = np.array(upper).reshape(n, n)
    m = np.triu(m, 1) + np.triu(m, 1).T
    if kind == "matrix":
        validate_metric(m)
        space = MetricSpace(points, m)
    elif kind == "closure":
        space = MetricSpace(points, metric_closure(m))
    elif kind == "path":
        space = shortest_path_space(points, [
            (points[i], points[i + 1], upper[i]) for i in range(n - 1)])
    else:
        lo, hi = sorted(upper[:2])
        return grid_space([(-lo, hi)], [n], upper[2])
    return space, ball_neighborhoods(space, upper[-1])


def attempt(call, *args, **kw):
    """``call``'s result, None when it refuses with a slopekit error."""
    try:
        return call(*args, **kw)
    except SlopekitError:
        return None


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_no_public_array_function_warns(case):
    kind, n, upper, fv, gv, (eps, r, lam), tol, knots, pl_slopes = case
    with caller_state("warnings-error"):
        pl = attempt(PLConvex, knots, pl_slopes, knots[0])
        if pl is not None:
            ys = list(EXTREMES)
            attempt(pl.values, ys)
            attempt(pl.normalized)
            attempt(mr_check, pl, PLConvex((0.0,), (-1.0, 1.0), 0.0))
            attempt(definitional_global_slope, pl, knots[0], ys)
        built = attempt(build, kind, n, upper)
        if built is None:
            return
        space, nbhd = built
        if pl is not None and kind == "grid":
            attempt(sample_to_field, pl, space)
        f = attempt(ScalarField, space, fv)
        g = attempt(ScalarField, space, gv)
        x = space.points[0]
        attempt(log_distance_field, space, x)
        if f is None or g is None:
            return
        attempt(slopes, f)
        attempt(slopes, f, nbhd)
        attempt(slope_profile, f, nbhd)
        attempt(local_slope, f, nbhd, x)
        attempt(global_slope, f, x)
        attempt(domination_witnesses, f, g, tol=tol)
        attempt(strict_comparison_witnesses, f, g, nbhd, tol=tol)
        attempt(strict_comparison_witnesses, f, g, tol=tol)
        attempt(eps_argmin, f, eps, tol=tol)
        attempt(eps_crit, f, nbhd, eps, tol=tol)
        attempt(eps_Crit, f, eps, tol=tol)
        attempt(pasch_hausdorff, f, eps)
        attempt(truncate, f, lam)
        attempt(sublevel_diff, f, g, -lam, tol=tol)
        attempt(restrict, f, space.points[1:])
        attempt(add_fields, f, g)
        attempt(sub_fields, f, g)
        attempt(scale_field, f, r)
        attempt(ekeland_point, f, x, lam)
        attempt(descent_step, f, g, nbhd, x, eps, tol=tol)
        attempt(descent_step, f, g, nbhd, x, eps, mode="global", tol=tol)
        trace = attempt(descent_to_critical, f, g, nbhd, x, eps0=eps, tol=tol)
        if trace is not None:
            attempt(verify_trace, trace, f, g, nbhd, tol=tol)
        attempt(check_tz, f, g, tol=tol)
        attempt(check_lips, f, g, eps, tol=tol)
        attempt(check_lsc, f, g, 0.5, eps, tol=tol)
        attempt(check_compact, f, g, nbhd, tol=tol)
        for mode in ("truncate", "scale", "compose"):
            attempt(gen_dominated_pair, 0, f, mode, tol=tol)
