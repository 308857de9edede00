"""One floating-point policy: arithmetic on arrays runs under
``config._quiet``, so an overflow is +-inf, inf - inf or inf * 0 is nan, and
no public function warns, or reads the caller's ``np.seterr`` state, on
legal finite input.  Each row below pins what a call on values near the
float limit returns or raises.

One numeric entry: every number a caller passes (a level, tolerance,
radius, factor or exponent) becomes a Python float by float()'s rules in
``config``, or a ``ParameterError``; a numpy scalar gives what the equal
Python float gives."""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (DomainError, MetricError, MetricSpace,
                      NeighborhoodSystem, ParameterError, PLConvex,
                      ScalarField, ShapeError, SlopekitError, add_fields,
                      all_pairs_neighborhoods, ball_neighborhoods,
                      check_compact, check_lips, check_lsc, check_tz,
                      descent_step, descent_to_critical, domination_witnesses,
                      ekeland_point, eps_argmin, eps_crit, eps_Crit,
                      explicit_neighborhoods, gen_dominated_pair,
                      gen_random_instance, global_slope, grid_space,
                      instance_from_dict, local_slope, log_distance_field,
                      mr_check, pasch_hausdorff, restrict, run_suite,
                      scale_field, shortest_path_space, slope_profile, slopes,
                      strict_comparison_witnesses, sub_fields, sublevel_diff,
                      truncate, validate_metric, verify_trace)
from slopekit.config import resolve_tol
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
BIG_INT = 10 ** 400   # an int past the float range
PL = PLConvex((0.0,), (-1.0, 1.0), 0.0)

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
    # a numpy scalar is a Python float before any sum with tol
    "eps_argmin, numpy eps": (
        lambda: eps_argmin(F2, np.float64(BIG)), ("a", "b")),
    "eps_crit, numpy eps and tol": (
        lambda: eps_crit(F2, ALL2, np.float64(1.7e308), tol=np.float64(BIG)),
        ("a", "b")),
    "ball_neighborhoods, numpy radius": (
        lambda: ball_neighborhoods(TWO, np.float64(1.7e308),
                                   tol=BIG).mask.tolist(),
        [[False, True], [True, False]]),
    # a number float() refuses is a ParameterError
    "resolve_tol, string": (
        lambda: resolve_tol("abc"),
        (ParameterError, "malformed tolerance: 'abc'")),
    "resolve_tol, big int": (
        lambda: resolve_tol(BIG_INT),
        (ParameterError, f"malformed tolerance: {BIG_INT}")),
    "sublevel_diff, string": (
        lambda: sublevel_diff(F2, F2, "x"),
        (ParameterError, "malformed lambda: 'x'")),
    "mr_check, string tol": (
        lambda: mr_check(PL, PL, tol="x"),
        (ParameterError, "malformed tolerance: 'x'")),
    # an int past the float range in data is an input error
    "MetricSpace, big int": (
        lambda: MetricSpace(("a", "b"), [[0, BIG_INT], [BIG_INT, 0]]),
        NOT_FINITE),
    "ScalarField, big int": (
        lambda: ScalarField(TWO, (BIG_INT, 0)),
        (ParameterError,
         "field value out of range: int too large to convert to float")),
    "grid_space, big int bound": (
        lambda: grid_space([(0, BIG_INT)], [3]),
        (ParameterError,
         f"malformed grid bound (want [lo, hi]): (0, {BIG_INT})")),
    "shortest_path_space, string weight": (
        lambda: shortest_path_space(["a", "b"], [("a", "b", "x")]),
        (ParameterError, "malformed edge weight: 'x'")),
    # a count is an int or a float with an integer value
    "grid_space, fractional resolution": (
        lambda: grid_space([(0, 1)], [2.7]),
        (ParameterError, "malformed grid resolution: 2.7")),
    "grid_space, infinite resolution": (
        lambda: grid_space([(0, 1)], [INF]),
        (ParameterError, "malformed grid resolution: inf")),
    "grid_space, numpy fractional resolution": (
        lambda: grid_space([(0, 1)], [np.float32(2.5)]),
        (ParameterError, "malformed grid resolution: np.float32(2.5)")),
    "gen_random_instance, fractional size": (
        lambda: gen_random_instance(0, 2.5),
        (ParameterError, "malformed n_points: 2.5")),
    # the symmetrised weight of a connected pair overflowed: halved first
    "metric_closure, overflow": (
        lambda: metric_closure([[0, BIG], [BIG, 0]]).tolist(),
        [[0.0, BIG], [BIG, 0.0]]),
    # only the overflowed entry is halved first: 5e-324 / 2 rounds to 0,
    # which would be refused as a nonpositive weight
    "metric_closure, overflow beside a subnormal": (
        lambda: metric_closure([[0, BIG, 5e-324], [BIG, 0, 1.7e308],
                                [5e-324, 1.7e308, 0]]).tolist(),
        [[0.0, BIG, 5e-324], [BIG, 0.0, BIG], [5e-324, BIG, 0.0]]),
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


# --- every public scalar parameter, as each kind of caller number ----------

# f = (0, 1, 3) on three points of a line, g = f / 2, neighbours along it
E3 = MetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
F013 = ScalarField(E3, (0.0, 1.0, 3.0))
G013 = scale_field(F013, 0.5)
LINE = explicit_neighborhoods(E3, [("a", "b"), ("b", "c")])

# parameter -> (a call of it, a value for the float64 row, one for the
# float32 row).  The values put a level's sum with the tolerance past the
# float range, or past float32's, where a numpy scalar used to warn; a
# report that holds the parameter shows its type.
SCALARS = {
    "eps_argmin.eps": (lambda v: eps_argmin(F2, v), BIG, 1.0),
    "eps_crit.eps": (lambda v: eps_crit(F2, ALL2, v, tol=BIG), 1.7e308, 1.0),
    "eps_Crit.eps": (lambda v: eps_Crit(F2, v, tol=BIG), 1.7e308, 1.0),
    "pasch_hausdorff.eps": (lambda v: pasch_hausdorff(F3, v), BIG, 1.0),
    "descent_step.eps": (
        lambda v: descent_step(F013, G013, LINE, "c", v), 0.5, 0.5),
    "check_lips.eps": (lambda v: check_lips(F2, G2, v), 0.5, 0.5),
    "check_lsc.eps": (lambda v: check_lsc(F2, G2, 0.5, v), 0.5, 0.5),
    "check_lsc.r": (lambda v: check_lsc(F2, G2, v, 0.5), 0.5, 0.5),
    "ekeland_point.lam": (lambda v: ekeland_point(F3, "a", v), BIG, 1.0),
    "descent_to_critical.eps0": (
        lambda v: descent_to_critical(F013, G013, LINE, "c", eps0=v),
        1.0, 1.0),
    "ball_neighborhoods.r": (
        lambda v: ball_neighborhoods(TWO, v, tol=BIG), 1.7e308, 1.0),
    "scale_field.r": (lambda v: scale_field(F3, v), 0.5, 0.5),
    "truncate.lam": (lambda v: truncate(F3, v), BIG, 1.0),
    "sublevel_diff.lam": (lambda v: sublevel_diff(F2, G2, v), BIG, 1.0),
    "grid_space.p": (lambda v: grid_space([(0, 1)], [3], v), 3.0, 3.0),
    # None is no caller number here: tol=None means the global tolerance
    "resolve_tol.tol": (resolve_tol, BIG, 1e-9),
    "eps_argmin.tol": (lambda v: eps_argmin(F2, 1.0, tol=v), BIG, 1.0),
    "eps_crit.tol": (lambda v: eps_crit(F2, ALL2, 1.7e308, tol=v), BIG, 1.0),
    "ball_neighborhoods.tol": (
        lambda v: ball_neighborhoods(TWO, 1.7e308, tol=v), BIG, 1.0),
    "domination_witnesses.tol": (
        lambda v: domination_witnesses(F3, F3, tol=v), BIG, 1.0),
    "check_tz.tol": (lambda v: check_tz(F2, G2, tol=v), BIG, 1.0),
    "validate_metric.tol": (lambda v: validate_metric(HUGE, tol=v), BIG, 1.0),
    "mr_check.tol": (lambda v: mr_check(PL, PL, tol=v), 1e-9, 1e-9),
}
NUMBERS = ("float64", "float32", "numeric string", "big int", "string",
           "None", "nan")


def plain(obj):
    """``obj`` as tuples, lists, dicts and scalars, every number as it is: a
    field as its values, a space as its points and rows, a
    neighbourhood system as its mask, a report or a trace as its dict."""
    if isinstance(obj, ScalarField):
        return obj.values
    if isinstance(obj, MetricSpace):
        return obj.points, obj.dist.tolist()
    if isinstance(obj, NeighborhoodSystem):
        return obj.points, obj.mask.tolist()
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return type(obj)(map(plain, obj))
    return obj


@pytest.mark.parametrize("name, number", [
    (name, number) for name in SCALARS for number in NUMBERS
    if not (number == "None" and name.endswith(".tol"))])
def test_caller_number_is_a_python_float_or_refused(name, number):
    call, at64, at32 = SCALARS[name]
    value, same = {
        "float64": (np.float64(at64), at64),
        "float32": (np.float32(at32), float(np.float32(at32))),
        "numeric string": (str(at64), at64),
        "big int": (BIG_INT, None), "string": ("x", None),
        "None": (None, None), "nan": (math.nan, math.nan)}[number]
    with caller_state("warnings-error"):
        got = outcome(lambda: repr(plain(call(value))))
        if same is None:   # float() refuses it
            assert got[0] is ParameterError, got
            assert got[1].startswith("malformed "), got
        else:   # the result of the equal Python float, to the type: the
            # repr of a numpy float is np.float64(...)
            assert got == outcome(lambda: repr(plain(call(same))))
            assert "np." not in str(got)


def test_int_too_long_to_print_is_refused_with_a_message():
    """repr refuses an int of more than 4,300 digits; the refusal of one
    still names what was refused."""
    huge = 10 ** 5000
    for call, message in [
            (lambda: eps_argmin(F2, huge), "malformed eps: <int too long to show>"),
            (lambda: mr_check(PL, PL, tol=[huge]),
             "malformed tolerance: <list too long to show>")]:
        assert outcome(call) == (ParameterError, message)


LONG_INT = 10 ** 5000
TWO_FILE = {"points": ["a", "b"], "metric": {"kind": "matrix",
                                             "dist": [[0, 1], [1, 0]]},
            "neighborhoods": {"kind": "all"}, "fields": {"f": [0.0, 1.0]}}
LONG = "<int too long to show>"


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_random_instance(0, 3, metric_kind=LONG_INT), ParameterError,
     f"unknown metric kind {LONG}"),
    (lambda: instance_from_dict({**TWO_FILE, "metric": {"kind": LONG_INT}}),
     ParameterError, f"unknown metric kind {LONG}"),
    (lambda: instance_from_dict({**TWO_FILE,
                                 "neighborhoods": {"kind": LONG_INT}}),
     ParameterError, f"unknown neighborhood kind {LONG}"),
    (lambda: gen_dominated_pair(0, F2, mode=LONG_INT), ParameterError,
     f"unknown domination mode {LONG}"),
    (lambda: descent_step(F2, F2, ALL2, "a", 1.0, mode=LONG_INT),
     ParameterError, f"mode must be 'local' or 'global', got {LONG}"),
    (lambda: instance_from_dict({**TWO_FILE,
                                 "fields": {LONG_INT: [0.0, "x"]}}),
     ParameterError, f"malformed value of field {LONG}: 'x'"),
    (lambda: instance_from_dict(TWO_FILE).field(LONG_INT), ParameterError,
     f"instance has no field {LONG}; available: ['f']"),
    (lambda: run_suite({"mutation": LONG_INT}), ParameterError,
     f"unknown mutation {LONG}"),
    (lambda: TWO.index(LONG_INT), DomainError,
     f"point {LONG} is not in the space"),
    (lambda: ALL2.of(LONG_INT), DomainError,
     f"point {LONG} is not in the neighborhood system"),
    (lambda: explicit_neighborhoods(TWO, [("a", LONG_INT)]), DomainError,
     f"pair ('a', {LONG}) uses unknown points"),
    (lambda: shortest_path_space(["a", "b"], [("a", LONG_INT, 1.0)]),
     DomainError, f"edge ('a', {LONG}) uses unknown vertices"),
    (lambda: TWO.subspace({LONG_INT, "a"}), DomainError,
     f"points not in space: [{LONG}]"),
    (lambda: restrict(F2, [LONG_INT]), DomainError,
     f"points not in space: [{LONG}]"),
], ids=["gen-kind", "file-metric-kind", "file-nbhd-kind", "dominated-mode",
        "descent-mode", "file-field-name", "field-name", "suite-mutation",
        "point", "nbhd-point", "nbhd-pair", "graph-edge", "subspace",
        "restrict"])
def test_int_too_long_to_print_is_named_in_a_refusal(call, error, message):
    """A refusal that names the caller's value shows an int past 4,300
    digits as its type, where repr would raise ``ValueError``."""
    assert outcome(call) == (error, message)


@pytest.mark.parametrize("call, message", [
    (lambda: run_suite({"checks": [LONG_INT]}), f"unknown checks: ['{LONG}']"),
    (lambda: run_suite({LONG_INT: 1}), f"unknown config keys: [{LONG}]"),
    (lambda: NeighborhoodSystem(("a", "b"), {"a": {LONG_INT}}),
     f"neighbor {LONG} of 'a' is not a point"),
    (lambda: MetricSpace((LONG_INT, "b"), [[0, 1], [1, 0]]),
     f"malformed point name: {LONG}"),
    (lambda: instance_from_dict({**TWO_FILE, "points": [LONG_INT, "b"]}),
     f"malformed point name: {LONG}"),
    (lambda: shortest_path_space([LONG_INT, "b"], [(0, 1, 1.0)]),
     f"malformed vertex name: {LONG}"),
    (lambda: NeighborhoodSystem((LONG_INT, 1), {LONG_INT: [1], 1: []})
     .validate(), f"asymmetric neighborhood: 1 in neighbors({LONG}) but not "
                  "vice versa"),
    (lambda: NeighborhoodSystem((1, LONG_INT), {1: [LONG_INT]}).validate(),
     f"asymmetric neighborhood: {LONG} in neighbors(1) but not vice versa"),
    (lambda: NeighborhoodSystem((LONG_INT,), {LONG_INT: [LONG_INT]})
     .validate(), f"point {LONG} listed as its own neighbor"),
], ids=["suite-check", "suite-config-key", "nbhd-neighbor", "space-point",
        "file-point", "graph-vertex", "nbhd-one-way-from", "nbhd-one-way-to",
        "nbhd-self"])
def test_int_too_long_to_print_as_a_name_is_refused(call, message):
    """A check, config key, neighbour, point or vertex name that str cannot
    print (an int past 4,300 digits) is a ``ParameterError``; repr raised
    ``ValueError`` in the neighbourhood checks."""
    assert outcome(call) == (ParameterError, message)


def test_printable_names_keep_their_messages():
    """The names above, printable, are shown by str and repr as before."""
    for call, message in [
            (lambda: run_suite({"checks": [5, "evp"]}), "unknown checks: ['5']"),
            (lambda: run_suite({"zz": 1, 3: 2, ("a",): 1}),
             "unknown config keys: [('a',), 3, 'zz']"),
            (lambda: NeighborhoodSystem(("a", 2), {"a": {"c", 3}}),
             "neighbor 3 of 'a' is not a point"),
            (lambda: NeighborhoodSystem((7, 1), {7: [1], 1: []}).validate(),
             "asymmetric neighborhood: 1 in neighbors(7) but not vice versa"),
            (lambda: NeighborhoodSystem((1, "b"), {1: ["b"]}).validate(),
             "asymmetric neighborhood: 'b' in neighbors(1) but not vice versa"),
            (lambda: NeighborhoodSystem(("a",), {"a": ["a"]}).validate(),
             "point 'a' listed as its own neighbor")]:
        assert outcome(call) == (ParameterError, message)
    for call, message in [
            (lambda: TWO.subspace({"z", 5, "a", 2.5, (0,)}),
             "points not in space: [2.5, 5, 'z', (0,)]"),
            (lambda: restrict(F2, [7, "b"]), "points not in space: [7]")]:
        assert outcome(call) == (DomainError, message)
    assert MetricSpace((7, "b"), [[0, 1], [1, 0]]).points == ("7", "b")
    assert shortest_path_space([7, "b"], [(0, 1, 1.0)]).points == ("7", "b")


# --- every public array function on extreme finite values ----------------

EXTREMES = (BIG, -BIG, 1e-308, -1e-308, 0.0)
LENGTHS = st.sampled_from((1e-308, 1.0, 4.0, BIG))   # distances, levels
values = st.sampled_from(EXTREMES + (INF,))
LEVELS = st.one_of(LENGTHS, LENGTHS.map(np.float64), st.just(BIG_INT))


@st.composite
def cases(draw):
    """(kind, n, a symmetric matrix or path weights, f values, g values,
    levels, a tolerance, PL knots and slopes), all drawn from extreme
    values; the levels and the tolerance may be numpy scalars or an int
    past the float range."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("matrix", "closure", "path", "grid")))
    upper = draw(st.lists(LENGTHS, min_size=n * n, max_size=n * n))
    fv = draw(st.lists(values, min_size=n, max_size=n))
    gv = draw(st.one_of(   # -f makes f - g = 2f overflow
        st.lists(values, min_size=n, max_size=n),
        st.just([v if v == INF else -v for v in fv])))
    levels = draw(st.lists(LEVELS, min_size=3, max_size=3))
    tol = draw(st.sampled_from((0.0, 1e-9, BIG, np.float64(BIG), BIG_INT)))
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
        built = attempt(build, kind, n, upper)
        if built is None:
            return
        space, nbhd = built
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
