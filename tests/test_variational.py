import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (DescentTrace, DomainError, HypothesisViolation,
                      MetricSpace, ParameterError, ScalarField,
                      all_pairs_neighborhoods, ball_neighborhoods,
                      check_compact, check_lips, check_lsc, check_tz,
                      descent_step, descent_to_critical, ekeland_point,
                      eps_argmin, eps_crit, eps_Crit, gen_random_instance,
                      global_slope, local_slope, restrict, scale_field,
                      sublevel_diff, truncate, verify_trace)
from slopekit import metric_space, variational

INF = math.inf
TOL = 1e-9


def brute_ekeland_candidates(f, x0, lam):
    """Oracle: all points satisfying both Ekeland conclusions."""
    out = []
    for x in f.dom():
        d = f.space.distance(x0, x)
        if global_slope(f, x) <= lam + TOL and \
                f.value(x) <= f.value(x0) - lam * d + TOL:
            out.append(x)
    return out


class TestEkelandPoint:
    def test_example(self, f013):
        x = ekeland_point(f013, "c", 1.0)
        assert x == "a"
        cands = brute_ekeland_candidates(f013, "c", 1.0)
        assert x in cands
        assert f013.value(x) == min(f013.value(y) for y in cands)

    def test_start_at_minimizer(self, f013):
        assert ekeland_point(f013, "a", 1.0) == "a"

    def test_lambda_above_max_slope(self, f013):
        assert ekeland_point(f013, "c", 10.0) == "c"
        assert "c" in brute_ekeland_candidates(f013, "c", 10.0)

    def test_outside_dom(self, e3):
        f = ScalarField(e3, (0.0, INF, 1.0))
        with pytest.raises(DomainError):
            ekeland_point(f, "b", 1.0)

    def test_nonpositive_lambda(self, f013):
        with pytest.raises(ParameterError):
            ekeland_point(f013, "c", 0.0)

    def test_nan_lambda(self, f013):
        # nan admitted no move, so x0 came back as the Ekeland point
        with pytest.raises(ParameterError,
                           match="^lambda must be positive, got nan$"):
            ekeland_point(f013, "c", math.nan)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_postconditions_always_hold(self, seed):
        inst = gen_random_instance([seed], 8, field_spec={"f": {"p_inf": 0.15}})
        f = inst.field("f")
        rng = np.random.default_rng(seed)
        dom = f.dom()
        x0 = dom[int(rng.integers(0, len(dom)))]
        lam = float(rng.uniform(0.05, 4.0))
        x = ekeland_point(f, x0, lam)
        d = inst.space.distance(x0, x)
        assert global_slope(f, x) <= lam + TOL
        assert f.value(x) <= f.value(x0) - lam * d + TOL
        # classical EVP bound with eps-hat = f(x0) - inf f
        assert d <= (f.value(x0) - f.min_finite()) / lam + TOL


class TestDescentStep:
    def test_local_mode_example(self, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        x = descent_step(f013, g, e3_path_nbhd, "c", 0.5, mode="local")
        assert x == "a"
        assert local_slope(f013, e3_path_nbhd, x) <= 0.5 + TOL
        assert f013.value(x) <= f013.value("c") - 0.5 * 2.0 + TOL
        assert (f013.value(x) - g.value(x)) <= (f013.value("c") - g.value("c"))

    def test_start_already_critical(self, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        x = descent_step(f013, g, e3_path_nbhd, "a", 0.5, mode="local")
        assert x == "a"

    def test_global_mode_scaled_g(self, f013, e3_path_nbhd):
        # non-strict domination of g becomes strict after scaling by r < 1
        r = 0.5
        rg = scale_field(f013, r)
        x = descent_step(f013, rg, e3_path_nbhd, "c", 0.5, mode="global")
        assert global_slope(f013, x) <= 0.5 + TOL
        assert f013.value(x) <= f013.value("c") - 0.5 * f013.space.distance(x, "c") + TOL
        assert (f013.value("c") - rg.value("c")) >= (f013.value(x) - rg.value(x))

    def test_hypothesis_violation_detected(self, f013, e3_path_nbhd):
        g = scale_field(f013, 2.0)    # slope of g strictly dominates f
        with pytest.raises(HypothesisViolation) as err:
            descent_step(f013, g, e3_path_nbhd, "c", 0.5, mode="local")
        assert err.value.witnesses

    def test_bad_parameters(self, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        with pytest.raises(ParameterError):
            descent_step(f013, g, e3_path_nbhd, "c", -1.0)
        with pytest.raises(ParameterError):
            descent_step(f013, g, e3_path_nbhd, "c", 0.5, mode="sideways")

    def test_nan_eps(self, f013, e3_path_nbhd):
        # nan admitted no move, so x0 came back as if it were critical
        g = scale_field(f013, 0.5)
        with pytest.raises(ParameterError, match="^eps must be positive, got nan$"):
            descent_step(f013, g, e3_path_nbhd, "c", math.nan)


class TestDescentToCritical:
    def test_example_trace(self, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        trace = descent_to_critical(f013, g, e3_path_nbhd, "c", eps0=1.0)
        assert trace.terminal_flag == "reached-0crit"
        assert trace.points[-1] == "a"
        assert trace.diff_values[0] == 1.5 and trace.diff_values[-1] == 0.0
        assert verify_trace(trace, f013, g, e3_path_nbhd) == []
        budget = sum(e * d for e, d in
                     zip(trace.eps_schedule, trace.step_distances))
        assert budget <= f013.value("c") - f013.min_finite() + TOL
        # the levels are eps0 / 2^n: the first step refuses one that underflows
        with pytest.raises(ParameterError,
                           match=r"^eps must be positive, got 0\.0$"):
            descent_to_critical(f013, g, e3_path_nbhd, "c", eps0=5e-324)

    def test_trace_is_rechecked_against_the_pair(self, f013, e3_path_nbhd):
        # the trace from c for g = f / 2 passed any g and any recorded values
        g = scale_field(f013, 0.5)
        trace = descent_to_critical(f013, g, e3_path_nbhd, "c")
        assert verify_trace(trace, f013, g, e3_path_nbhd) == []
        assert verify_trace(trace, f013, scale_field(f013, 0.9),
                            e3_path_nbhd) == [
            "point 0: recorded f - g = 1.5 != (f - g)('c') = 0.2999999999999998"]
        faked = dataclasses.replace(trace, diff_values=[9.0, -5.0])
        assert verify_trace(faked, f013, g, e3_path_nbhd) == [
            "point 0: recorded f - g = 9.0 != (f - g)('c') = 1.5",
            "point 1: recorded f - g = -5.0 != (f - g)('a') = 0.0"]
        faked = dataclasses.replace(trace, f_values=[3.0, 0.5],
                                    step_distances=[1.0])
        assert verify_trace(faked, f013, g, e3_path_nbhd) == [
            "point 1: recorded f = 0.5 != f('a') = 0.0",
            "step 0: recorded distance 1.0 != dist('a', 'c') = 2.0"]
        faked = dataclasses.replace(trace, f_values=[3.0])
        assert verify_trace(faked, f013, g, e3_path_nbhd) == [
            "trace lists have inconsistent lengths"]

    @pytest.mark.parametrize("eps", [-2.0, math.nan])
    def test_trace_with_a_nonpositive_eps_is_reported(self, f013,
                                                       e3_path_nbhd, eps):
        # f rises from 0 to 3; an eps that is not > 0 makes the decrease
        # test and the eps-weighted length bound pass it
        trace = DescentTrace(points=["a", "c"], eps_schedule=[eps],
                             step_distances=[2.0], f_values=[0.0, 3.0],
                             diff_values=[0.0, 0.0],
                             terminal_flag="budget-exhausted")
        assert verify_trace(trace, f013, f013, e3_path_nbhd) == [
            f"step 0: eps {eps} is not positive"]

    @pytest.mark.parametrize("points,eps,dist,f_values,diff_values,flag,want", [
        # f rises from 0 to 3 and f - g from 0 to 1.5 along a step of length 2
        (["a", "c"], [1.0], [2.0], [0.0, 3.0], [0.0, 1.5], "budget-exhausted",
         ["step 0: f does not decrease by eps*dist (3.0 > -2.0)",
          "step 0: f - g increased along the trace",
          "eps-weighted length 2.0 exceeds f(x0) - inf f = 0.0"]),
        # f falls by 3 over a distance of 2, less than eps * dist = 6
        (["c", "a"], [3.0], [2.0], [3.0, 0.0], [1.5, 0.0], "budget-exhausted",
         ["step 0: f does not decrease by eps*dist (0.0 > -3.0)",
          "eps-weighted length 6.0 exceeds f(x0) - inf f = 3.0"]),
        # c has local slope 2
        (["c"], [], [], [3.0], [1.5], "reached-0crit",
         ["terminal point is not 0-critical"]),
    ], ids=["climb", "short-decrease", "false-terminal-flag"])
    def test_each_inequality_is_rechecked(self, f013, e3_path_nbhd, points,
                                          eps, dist, f_values, diff_values,
                                          flag, want):
        trace = DescentTrace(points=points, eps_schedule=eps,
                             step_distances=dist, f_values=f_values,
                             diff_values=diff_values, terminal_flag=flag)
        g = scale_field(f013, 0.5)
        assert verify_trace(trace, f013, g, e3_path_nbhd) == want

    def test_to_dict_lists_the_fields_in_order(self, f013, e3_path_nbhd):
        trace = descent_to_critical(f013, scale_field(f013, 0.5),
                                    e3_path_nbhd, "c")
        got = trace.to_dict()
        assert got == {"points": ["c", "a"], "eps_schedule": [0.5],
                       "step_distances": [2.0], "f_values": [3.0, 0.0],
                       "diff_values": [1.5, 0.0],
                       "terminal_flag": "reached-0crit"}
        assert list(got) == [f.name for f in dataclasses.fields(trace)]
        assert got["points"] is not trace.points   # a copy

    def test_start_at_critical_point(self, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        trace = descent_to_critical(f013, g, e3_path_nbhd, "a")
        assert trace.points == ["a"]
        assert trace.terminal_flag == "reached-0crit"

    def test_hypothesis_checked_once_per_trace(self, monkeypatch):
        inst = gen_random_instance([14], 12, field_spec={"f": {}})
        f = inst.field("f")
        calls = []
        check = variational.strict_comparison_witnesses
        monkeypatch.setattr(variational, "strict_comparison_witnesses",
                            lambda *args: calls.append(args) or check(*args))
        trace = descent_to_critical(f, scale_field(f, 0.5), inst.nbhd, "p10")
        assert len(trace.points) == 4
        assert len(calls) == 1
        with pytest.raises(HypothesisViolation):
            descent_to_critical(f, scale_field(f, 2.0), inst.nbhd, "p10")

    def test_descent_builds_no_metric_space(self, monkeypatch):
        # the sub-level set is a mask on f's own space, not a new subspace
        inst = gen_random_instance([14], 12, field_spec={"f": {}})
        f = inst.field("f")
        g = scale_field(f, 0.5)
        calls = []
        validate = metric_space.validate_metric
        monkeypatch.setattr(metric_space, "validate_metric",
                            lambda *args: calls.append(args) or validate(*args))
        trace = descent_to_critical(f, g, inst.nbhd, "p10")
        assert trace.points == ["p10", "p5", "p4", "p8"]
        for mode in ("local", "global"):
            assert descent_step(f, g, inst.nbhd, "p10", 0.1, mode=mode) == "p8"
        assert calls == []

    def test_sublevel_step_is_ekeland_on_the_subspace(self):
        # reference: the Ekeland point of f restricted to the subspace M
        binding = 0
        for seed in range(12):
            inst = gen_random_instance(
                [41, seed], 10, metric_kind=["graph", "matrix", "grid"][seed % 3],
                field_spec={"f": {"p_inf": 0.2}, "g": {"p_inf": 0.2}})
            f, g = inst.field("f"), inst.field("g")
            for x0, eps in itertools.product(f.dom(), (0.05, 0.5, 2.0)):
                m = sublevel_diff(f, g, f.value(x0) - g.value(x0), TOL)
                want = ekeland_point(restrict(f, m), x0, eps)
                got = variational._sublevel_ekeland(f, g, x0, eps, TOL)
                assert got == want
                binding += want != ekeland_point(f, x0, eps)
        assert binding > 0   # M excludes the unconstrained answer somewhere

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_traces_always_terminate_critically(self, seed):
        inst = gen_random_instance([seed], 9, field_spec={"f": {"p_inf": 0.1}})
        f = inst.field("f")
        rng = np.random.default_rng(seed)
        g = scale_field(f, float(rng.uniform(0.1, 0.9)))
        dom = f.dom()
        x0 = dom[int(rng.integers(0, len(dom)))]
        trace = descent_to_critical(f, g, inst.nbhd, x0)
        assert trace.terminal_flag == "reached-0crit"
        assert len(trace.points) <= inst.space.n
        assert verify_trace(trace, f, g, inst.nbhd) == []


class TestCheckCompact:
    def test_example(self, e3, f013, e3_path_nbhd):
        g = scale_field(f013, 0.5)
        report = check_compact(f013, g, e3_path_nbhd)
        assert report.hypothesis_ok and report.conclusion_ok
        assert report.witness == "a"

    def test_constant_g(self, f013, e3_path_nbhd):
        g = ScalarField(f013.space, (2.0, 2.0, 2.0))
        report = check_compact(f013, g, e3_path_nbhd)
        assert report.hypothesis_ok and report.conclusion_ok

    def test_constant_f(self, e3, e3_path_nbhd):
        f = ScalarField(e3, (1.0, 1.0, 1.0))
        g = ScalarField(e3, (0.0, 0.2, 0.1))
        report = check_compact(f, g, e3_path_nbhd)
        assert report.hypothesis_ok and report.conclusion_ok

    def test_violating_pair_classified(self, f013, e3_path_nbhd):
        g = scale_field(f013, 2.0)
        report = check_compact(f013, g, e3_path_nbhd)
        assert not report.hypothesis_ok
        assert report.conclusion_ok is None
        assert report.exit_code() == 1


class TestCheckTZ:
    def test_truncated_example(self, f013):
        g = truncate(f013, 1.0)
        report = check_tz(f013, g)
        assert report.hypothesis_ok and report.conclusion_ok
        # pointwise: (0,1,3) >= (0,1,1)
        assert report.slack >= -TOL

    def test_scaled_g(self, f013):
        report = check_tz(f013, scale_field(f013, 0.3))
        assert report.conclusion_ok

    def test_g_equals_f_has_zero_slack(self, f013):
        report = check_tz(f013, f013)
        assert report.conclusion_ok and report.slack == pytest.approx(0.0)

    def test_violating_pair_classified(self, f013):
        report = check_tz(f013, scale_field(f013, 2.0))
        assert not report.hypothesis_ok and report.exit_code() == 1


class TestCheckLips:
    def test_truncated_example(self, f013):
        g = truncate(f013, 1.0)
        report = check_lips(f013, g, 1.0)
        assert report.hypothesis_ok and report.conclusion_ok
        assert report.details["inf_all"] == pytest.approx(0.0)

    def test_g_equals_f(self, f013):
        report = check_lips(f013, f013, 0.5)
        assert report.conclusion_ok and report.slack == pytest.approx(0.0)

    def test_requires_finite_fields(self, e3):
        f = ScalarField(e3, (0.0, INF, 1.0))
        with pytest.raises(ParameterError):
            check_lips(f, f, 0.5)

    def test_nan_eps(self, f013):
        with pytest.raises(ParameterError, match="^eps must be positive, got nan$"):
            check_lips(f013, f013, math.nan)


class TestCheckLSC:
    def test_g_equals_f(self, f013):
        report = check_lsc(f013, f013, 0.5, 0.5)
        assert report.hypothesis_ok and report.conclusion_ok

    def test_truncated_with_large_eps(self, f013):
        g = truncate(f013, 1.0)
        report = check_lsc(f013, g, 0.9, 5.0)
        assert report.conclusion_ok

    def test_r_out_of_range(self, f013):
        with pytest.raises(ParameterError):
            check_lsc(f013, f013, 1.0, 0.5)

    def test_nan_eps(self, f013):
        with pytest.raises(ParameterError, match="^eps must be positive, got nan$"):
            check_lsc(f013, f013, 0.5, math.nan)

    def test_g_with_inf_values(self, e3):
        # g infinite exactly off dom f: hypothesis on dom f still holds
        f = ScalarField(e3, (0.0, 1.0, INF))
        g = scale_field(f, 0.5)
        report = check_lsc(f, g, 0.5, 0.5)
        assert report.hypothesis_ok and report.conclusion_ok

    def test_g_infinite_on_dom_f_is_hypothesis_violation(self, f013):
        g = ScalarField(f013.space, (0.0, INF, 1.0))
        report = check_lsc(f013, g, 0.5, 0.5)
        assert not report.hypothesis_ok
        assert "b" in report.hypothesis_witnesses


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_infima_overflowed_to_one_infinity_leave_no_gap(n, sign):
    """f - g and f - r g overflow to the same infinity at every point, so
    the infimum over the space equals the one over the critical set."""
    space = MetricSpace(tuple("ab")[:n], 1.0 - np.eye(n))
    f = ScalarField(space, (sign * 1e308,) * n)
    g = ScalarField(space, (-sign * 1e308,) * n)
    reports = (check_lips(f, g, 0.5),
               check_compact(f, g, all_pairs_neighborhoods(space)),
               check_lsc(f, g, 0.95, 0.5))
    for report in reports:
        assert report.hypothesis_ok and report.conclusion_ok, report.to_dict()
        assert math.copysign(1.0, report.slack) == 1.0 and report.slack == 0.0
        assert report.witness == "a"
    assert set(reports[0].details.values()) == {sign * INF, 0.5}


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_determination_never_falsified(seed):
    from slopekit import gen_dominated_pair
    inst = gen_random_instance([seed], 8, field_spec={"f": {"p_inf": 0.1}})
    f = inst.field("f")
    for k, mode in enumerate(("truncate", "scale", "compose")):
        g, _ = gen_dominated_pair([seed, k], f, mode)
        report = check_tz(f, g)
        assert report.hypothesis_ok, report.hypothesis_witnesses
        assert report.conclusion_ok, report.to_dict()
        report = check_lsc(f, g, 0.5, 0.5)
        assert report.hypothesis_ok and report.conclusion_ok, report.to_dict()


# each entry that takes a level, with the rule its refusal states
LEVEL_RULES = {
    "eps_argmin": (lambda f, nbhd, v: eps_argmin(f, v),
                   "eps must be nonnegative"),
    "eps_crit": (lambda f, nbhd, v: eps_crit(f, nbhd, v),
                 "eps must be nonnegative"),
    "eps_Crit": (lambda f, nbhd, v: eps_Crit(f, v), "eps must be nonnegative"),
    "descent_step": (lambda f, nbhd, v: descent_step(
        f, scale_field(f, 0.5), nbhd, "c", v), "eps must be positive"),
    "check_lips": (lambda f, nbhd, v: check_lips(f, scale_field(f, 0.5), v),
                   "eps must be positive"),
    "check_lsc": (lambda f, nbhd, v: check_lsc(f, scale_field(f, 0.5), 0.5, v),
                  "eps must be positive"),
    "descent_to_critical": (lambda f, nbhd, v: descent_to_critical(
        f, scale_field(f, 0.5), nbhd, "a", eps0=v), "eps0 must be positive"),
    "ekeland_point": (lambda f, nbhd, v: ekeland_point(f, "c", v),
                      "lambda must be positive"),
    "ball_neighborhoods": (lambda f, nbhd, v: ball_neighborhoods(f.space, v),
                           "ball radius must be positive"),
}


@pytest.mark.parametrize("entry", sorted(LEVEL_RULES))
@pytest.mark.parametrize("level", [-1.0, -INF, math.nan, 0.0, -0.0])
def test_level_refusals(f013, e3_path_nbhd, entry, level):
    call, rule = LEVEL_RULES[entry]
    if rule.endswith("nonnegative") and level == 0:
        call(f013, e3_path_nbhd, level)   # a zero level is allowed
        return
    with pytest.raises(ParameterError) as info:
        call(f013, e3_path_nbhd, level)
    assert type(info.value) is ParameterError
    assert str(info.value) == f"{rule}, got {level}"


@pytest.mark.parametrize("start", ["a", "b", "c"])
def test_eps0_refused_from_every_start(f013, e3_path_nbhd, start):
    # from a, 0-critical at once, a trace came back; from c the refusal
    # named eps0 / 2 as eps
    g = scale_field(f013, 0.5)
    with pytest.raises(ParameterError,
                       match=r"^eps0 must be positive, got -1\.0$"):
        descent_to_critical(f013, g, e3_path_nbhd, start, eps0=-1.0)


def test_outside_dom_f_has_one_message(e3, e3_path_nbhd):
    f = ScalarField(e3, (0.0, INF, 1.0))
    g = scale_field(f, 0.5)
    for call in (lambda: ekeland_point(f, "b", 1.0),
                 lambda: descent_step(f, g, e3_path_nbhd, "b", 0.5),
                 lambda: descent_to_critical(f, g, e3_path_nbhd, "b"),
                 lambda: local_slope(f, e3_path_nbhd, "b"),
                 lambda: global_slope(f, "b")):
        with pytest.raises(DomainError, match=r"^point 'b' is outside dom f$"):
            call()
    # the level is refused first, as before
    with pytest.raises(ParameterError):
        ekeland_point(f, "b", -1.0)
    with pytest.raises(ParameterError):
        descent_step(f, g, e3_path_nbhd, "b", -1.0)


# The tolerance boundary at b = 1.0, tol = 1e-9, with A = fl(b + tol) and
# A - b > tol.
A = 1.0 + TOL
ABOVE = math.nextafter(A, INF)
BELOW = math.nextafter(A, -INF)


def test_verify_trace_tolerance_boundary(e3, e3_path_nbhd):
    """f(y) <= f(x) - eps * dist(y, x) + tol and (f - g)(y) <= (f - g)(x)
    + tol, both at 1.0 + tol: A passes and the next float fails both."""
    g = ScalarField(e3, (1.0, 0.0, 0.0))
    for value, problems in ((A, 0), (ABOVE, 2)):
        f = ScalarField(e3, (2.0, value, -10.0))   # inf f keeps the budget
        trace = DescentTrace(points=["a", "b"], eps_schedule=[1.0],
                             step_distances=[1.0], f_values=[2.0, value],
                             diff_values=[1.0, value],
                             terminal_flag="budget-exhausted")
        assert len(verify_trace(trace, f, g, e3_path_nbhd, TOL)) == problems


def test_check_tz_slack_tolerance_boundary(e3, f013):
    """The conclusion compares the slack (f - inf f) - (g - inf g), a
    difference, with -tol.  At b, f - inf f = 1.0: g - inf g = A, which the
    hypothesis admits, falsifies the conclusion; the float below A does not."""
    for value, ok in ((BELOW, True), (A, False)):
        report = check_tz(f013, ScalarField(e3, (0.0, value, 3.0)), TOL)
        assert report.hypothesis_ok
        assert (report.conclusion_ok, report.slack) == (ok, 1.0 - value)
