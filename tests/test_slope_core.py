import copy
import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (DomainError, FatalFinding, ImproperFieldError,
                      MetricSpace, NeighborhoodSystem, ParameterError,
                      ScalarField, UndefinedArithmeticError, add_fields,
                      check_lsc, check_tz, domination_witnesses, eps_argmin,
                      eps_crit, eps_Crit, explicit_neighborhoods,
                      gen_dominated_pair, gen_random_instance,
                      global_slope, local_slope,
                      log_distance_field, pasch_hausdorff, pos_part, restrict,
                      scale_field, slope_profile, slopes,
                      strict_comparison_witnesses, sub_fields, sublevel_diff,
                      truncate)
from slopekit import slope_core
from slopekit.metric_space import metric_closure

INF = math.inf
TOL = 1e-9


class TestScalarField:
    def test_dom_and_proper(self, e3):
        f = ScalarField(e3, (0.0, INF, 2.0))
        assert f.dom() == ("a", "c")
        assert f.is_proper()
        assert not ScalarField(e3, (INF, INF, INF)).is_proper()

    def test_rejects_nan_and_minus_inf(self, e3):
        with pytest.raises(ParameterError):
            ScalarField(e3, (0.0, math.nan, 1.0))
        with pytest.raises(ParameterError):
            ScalarField(e3, (0.0, -INF, 1.0))

    def test_length_mismatch(self, e3):
        with pytest.raises(ParameterError):
            ScalarField(e3, (0.0, 1.0))

    def test_inf_minus_inf_rejected(self, e3):
        f = ScalarField(e3, (0.0, INF, 1.0))
        with pytest.raises(UndefinedArithmeticError):
            sub_fields(f, f)

    @pytest.mark.parametrize("values, want", [
        ((1, 2, 3), (1.0, 2.0, 3.0)),
        ((True, False, True), (1.0, 0.0, 1.0)),
        ((np.float32(0.1), np.int64(2), np.float64(3.0)),
         (0.10000000149011612, 2.0, 3.0)),
        (("1.5", "inf", " 2 "), (1.5, INF, 2.0)),
        (("1_000", 1, 2), (1000.0, 1.0, 2.0)),
        ((Fraction(1, 3), 1, 2), (1 / 3, 1.0, 2.0)),
        ((v for v in (1.0, 2.0, 3.0)), (1.0, 2.0, 3.0)),
    ])
    def test_accepted_values(self, e3, values, want):
        f = ScalarField(e3, values)
        assert f.values == want and all(type(v) is float for v in f.values)
        assert f.array.tolist() == list(want)

    @pytest.mark.parametrize("values, error, message", [
        ((10 ** 400, 1, 2), OverflowError, "int too large to convert to float"),
        ((1.0, math.nan, 2.0), ParameterError,
         "field value nan is not in R ∪ {+inf}"),
        (("nan", 1, 2), ParameterError, "field value nan is not in R ∪ {+inf}"),
        ((1.0, -INF, math.nan), ParameterError,
         "field value -inf is not in R ∪ {+inf}"),
        ((1.0, 2.0), ParameterError, "2 values for 3 points"),
        ((1.0, 2.0, 3.0, 4.0), ParameterError, "4 values for 3 points"),
        # numpy reads None as nan, float() refuses it
        ((None, 1.0, 2.0), TypeError, "float() argument must be a string or "
         "a real number, not 'NoneType'"),
        ((None,), TypeError, "not 'NoneType'"),
        # numpy reads nested lists as one 2-D array, float() refuses them
        (([1.0], 2.0, 3.0), TypeError, "not 'list'"),
        (([1.0], [2.0], [3.0]), TypeError, "not 'list'"),
        (("x", 1, 2), ValueError, "could not convert string to float: 'x'"),
        ((1.0, "x", None), ValueError, "could not convert string to float: 'x'"),
    ])
    def test_refused_values(self, e3, values, error, message):
        with pytest.raises(error) as info:
            ScalarField(e3, values)
        assert type(info.value) is error and message in str(info.value)

    @pytest.mark.parametrize("values, lo, hi", [
        # Python's min and max keep the first of tied 0.0 and -0.0; numpy's
        # min of (0.0, -0.0) is -0.0
        ((0.0, -0.0, INF), 0.0, 0.0),
        ((-0.0, 0.0, INF), -0.0, -0.0),
        ((INF, -0.0, 0.0), -0.0, -0.0),
        ((2.0, 0.0, -0.0), 0.0, 2.0),
    ])
    def test_signed_zeros_of_min_and_max(self, e3, values, lo, hi):
        f = ScalarField(e3, values)
        got = f.min_finite(), f.max_finite()
        assert got == (lo, hi)
        assert [math.copysign(1, v) for v in got] == \
            [math.copysign(1, v) for v in (lo, hi)]

    def test_min_and_max_of_an_improper_field(self, e3):
        f = ScalarField(e3, (INF, INF, INF))
        for extreme in (f.min_finite, f.max_finite):
            with pytest.raises(ImproperFieldError,
                               match="field is identically"):
                extreme()
        assert f.dom() == () and not f.is_proper()

    def test_equality_is_by_space_and_values(self, e3):
        f = ScalarField(e3, (0.0, INF, 2.0))
        assert f == ScalarField(MetricSpace(e3.points, e3.dist), (0, "inf", 2))
        assert f != ScalarField(e3, (0.0, INF, 3.0))
        assert f != ScalarField(MetricSpace(e3.points, 2 * e3.dist), f.values)
        assert (f == f.values) is False and (f != f.values) is True

    def test_pos_part(self):
        assert pos_part(-2.0) == 0.0
        assert pos_part(3.0) == 3.0
        assert pos_part(INF) == INF


def loop_slope(f, x, others):
    """Reference: the pointwise definition, one pair at a time."""
    i = f.space.index(x)
    best = 0.0
    for y in others:
        j = f.space.index(y)
        if f.values[j] == INF:
            continue
        q = pos_part(f.values[i] - f.values[j]) / f.space.dist[i, j]
        if q > best:
            best = q
    return best


def loop_pasch_hausdorff(f, eps):
    n = f.space.n
    return tuple(min(f.values[j] + eps * f.space.dist[j, i]
                     for j in range(n) if f.values[j] != INF)
                 for i in range(n))


class TestSlopeKernel:
    @given(seed=st.integers(0, 10**6),
           kind=st.sampled_from(["graph", "matrix", "grid"]),
           n=st.integers(2, 25), p_inf=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=80, deadline=None)
    def test_matches_pointwise_loops_exactly(self, seed, kind, n, p_inf):
        inst = gen_random_instance([seed], n, metric_kind=kind,
                                   field_spec={"f": {"p_inf": p_inf}})
        f = inst.field("f")
        pts = f.space.points
        for x, v, ls, gs in zip(pts, f.values, slopes(f, inst.nbhd), slopes(f)):
            if v == INF:
                assert ls == gs == INF
                continue
            assert ls == loop_slope(f, x, inst.nbhd.of(x))
            assert gs == loop_slope(f, x, [y for y in pts if y != x])
        for eps in (0.25, 1.0, 3.0):
            assert pasch_hausdorff(f, eps).values == loop_pasch_hausdorff(f, eps)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_pointwise_loops_bytewise(self, seed):
        """Signed zeros, a subnormal, differences that overflow to +inf,
        +inf values and ties; ``tobytes`` tells -0.0 from 0.0.  A diagonal
        entry may be off zero within the tolerance, so 0 / d_xx = -0.0."""
        rng = np.random.default_rng([19, seed])
        n = int(rng.integers(1, 20))
        dist = metric_closure(rng.uniform(0.2, 2.0, (n, n)))
        np.fill_diagonal(dist, rng.choice([0.0, -1e-10, 1e-10], n))
        space = MetricSpace(tuple(f"p{i}" for i in range(n)), dist)
        vals = rng.choice(
            [0.0, -0.0, 1e-320, 1e300, -1e300, 1e308, -1e308, INF, 1.0, 2.0], n)
        if not np.isfinite(vals).any():
            vals[0] = -0.0
        f = ScalarField(space, tuple(vals.tolist()))
        pts = space.points
        nbhd = explicit_neighborhoods(space, [
            (pts[i], pts[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.4])

        def loop(others):
            return np.array([INF if v == INF else loop_slope(f, x, others(x))
                             for x, v in zip(pts, f.values)])

        assert slopes(f).tobytes() == \
            loop(lambda x: [y for y in pts if y != x]).tobytes()
        assert slopes(f, nbhd).tobytes() == loop(nbhd.of).tobytes()

    def test_computed_once_per_field_and_system(self, f013, e3_path_nbhd):
        g = slopes(f013)
        loc = slopes(f013, e3_path_nbhd)
        assert slopes(f013) is g
        assert slopes(f013, e3_path_nbhd) is loc
        assert not g.flags.writeable and not loc.flags.writeable
        other = NeighborhoodSystem(e3_path_nbhd.points,
                                   dict(e3_path_nbhd.neighbors))
        assert other == e3_path_nbhd
        assert slopes(f013, other) is not loc
        assert list(slopes(f013, other)) == list(loc) == [0.0, 1.0, 2.0]

    def test_fields_and_systems_are_frozen(self, f013, e3_path_nbhd):
        with pytest.raises(dataclasses.FrozenInstanceError):
            f013.values = (1.0, 1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e3_path_nbhd.neighbors = {}
        with pytest.raises(TypeError):
            e3_path_nbhd.neighbors["a"] = frozenset()
        with pytest.raises(ValueError):
            f013.array[0] = 5.0

    def test_copies_get_their_own_cache(self):
        inst = gen_random_instance(1, 6)
        want = list(slopes(inst.field("f"), inst.nbhd))
        for dup in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert dup == inst
            assert dup.field("f")._slopes == {}
            assert list(slopes(dup.field("f"), dup.nbhd)) == want

    def test_system_must_cover_the_space(self, f013):
        partial = NeighborhoodSystem(("a", "b"), {"a": {"b"}, "b": {"a"}})
        with pytest.raises(DomainError):
            local_slope(f013, partial, "a")

    @pytest.mark.parametrize("points", [
        ("c", "b", "a"), ("a", "b"), ("a", "b", "c", "d")],
        ids=["reordered", "smaller", "larger"])
    def test_system_on_another_point_list(self, f013, points):
        """Only a system on the space's own point list gives local slopes;
        no reordering is attempted, and nothing is cached."""
        nbhd = NeighborhoodSystem(points, {p: set(points) - {p} for p in points})
        with pytest.raises(DomainError, match="another point list"):
            local_slope(f013, nbhd, "a")
        with pytest.raises(DomainError, match="another point list"):
            slopes(f013, nbhd)
        assert id(nbhd) not in f013._slopes

    def test_profile_skips_points_off_dom(self, e3, e3_path_nbhd):
        f = ScalarField(e3, (0.0, INF, 3.0))
        prof = slope_profile(f, e3_path_nbhd)
        assert prof.local == {"a": 0.0, "c": 0.0}
        assert prof.global_ == {"a": 0.0, "c": 1.5}

    def test_eps_Crit_recheck_catches_a_wrong_kernel(self, e3, monkeypatch):
        f = ScalarField(e3, (0.0, 2.0, 3.0))
        monkeypatch.setattr(slope_core, "slopes", lambda h, nbhd=None: np.zeros(3))
        with pytest.raises(FatalFinding) as err:
            eps_Crit(f, 0.5)
        # first member in point order, then first y: b fails against a
        assert err.value.witness == {"x": "b", "y": "a", "eps": 0.5}


class TestSlopeComparisons:
    def test_domination(self, f013):
        assert domination_witnesses(f013, scale_field(f013, 0.5)) == []
        assert domination_witnesses(f013, scale_field(f013, 2.0)) == ["b", "c"]

    def test_outside_dom_g_always_counts(self, e3, f013, e3_path_nbhd):
        g = ScalarField(e3, (INF, 0.0, 0.0))
        assert domination_witnesses(f013, g) == ["a"]
        # a is 0-critical for f, yet counts because g(a) = +inf
        assert strict_comparison_witnesses(f013, g, e3_path_nbhd) == ["a"]

    def test_outside_dom_g_counts_when_the_slope_of_f_overflows(self):
        # the global slope of f at x is 2e308 / 1 = +inf, that of g is +inf
        space = MetricSpace(("x", "y"), [[0, 1], [1, 0]])
        f = ScalarField(space, (1e308, -1e308))
        g = ScalarField(space, (INF, 0.0))
        assert slopes(f)[0] == INF
        assert domination_witnesses(f, g) == ["x"]
        report = check_lsc(f, g, 0.5, 0.5)
        assert not report.hypothesis_ok and report.exit_code() == 1
        assert report.hypothesis_witnesses == ["x"]

    def test_strict_comparison(self, f013, e3_path_nbhd):
        half = scale_field(f013, 0.5)
        assert strict_comparison_witnesses(f013, half, e3_path_nbhd) == []
        assert strict_comparison_witnesses(f013, f013) == ["b", "c"]

    def test_fields_on_different_spaces(self, f013):
        other = MetricSpace(("x", "y", "z"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        g = ScalarField(other, f013.values)
        with pytest.raises(ParameterError):
            domination_witnesses(f013, g)


class TestLocalSlope:
    def test_path_example(self, f013, e3_path_nbhd):
        assert local_slope(f013, e3_path_nbhd, "c") == 2.0

    def test_local_minimum_is_zero(self, f013, e3_path_nbhd):
        assert local_slope(f013, e3_path_nbhd, "a") == 0.0

    def test_constant_field(self, e3, e3_path_nbhd):
        f = ScalarField(e3, (1.0, 1.0, 1.0))
        assert all(local_slope(f, e3_path_nbhd, x) == 0.0 for x in e3.points)

    def test_outside_dom_raises(self, e3, e3_path_nbhd):
        f = ScalarField(e3, (0.0, INF, 1.0))
        with pytest.raises(DomainError):
            local_slope(f, e3_path_nbhd, "b")

    def test_neighbor_outside_dom_contributes_zero(self, e3, e3_path_nbhd):
        f = ScalarField(e3, (0.0, INF, 1.0))
        assert local_slope(f, e3_path_nbhd, "c") == 0.0

    def test_empty_neighbors_give_zero(self, e3):
        from slopekit.metric_space import NeighborhoodSystem
        empty = NeighborhoodSystem(e3.points, {})
        f = ScalarField(e3, (5.0, 0.0, 0.0))
        assert local_slope(f, empty, "a") == 0.0


class TestGlobalSlope:
    def test_examples(self, f013):
        assert global_slope(f013, "c") == 2.0
        assert global_slope(f013, "b") == 1.0
        assert global_slope(f013, "a") == 0.0

    def test_dominates_local(self, f013, e3_path_nbhd):
        for x in f013.dom():
            assert global_slope(f013, x) >= local_slope(f013, e3_path_nbhd, x)

    def test_finite_on_finite_spaces(self, e3):
        f = ScalarField(e3, (100.0, INF, 0.0))
        assert math.isfinite(global_slope(f, "a"))


class TestEpsSets:
    def test_eps_argmin(self, f013):
        assert eps_argmin(f013, 1.0) == ("a", "b")
        assert eps_argmin(f013, 0.0) == ("a",)
        assert eps_argmin(f013, 3.0) == ("a", "b", "c")

    def test_eps_argmin_improper(self, e3):
        with pytest.raises(ImproperFieldError):
            eps_argmin(ScalarField(e3, (INF, INF, INF)), 1.0)

    def test_eps_crit(self, f013, e3_path_nbhd):
        assert eps_crit(f013, e3_path_nbhd, 0.0) == ("a",)
        assert eps_crit(f013, e3_path_nbhd, 5.0) == ("a", "b", "c")

    def test_eps_Crit(self, f013):
        assert eps_Crit(f013, 1.0) == ("a", "b")
        assert eps_Crit(f013, 5.0) == ("a", "b", "c")

    def test_negative_eps(self, f013, e3_path_nbhd):
        with pytest.raises(ParameterError):
            eps_Crit(f013, -0.5)
        with pytest.raises(ParameterError):
            eps_crit(f013, e3_path_nbhd, -0.5)

    def test_nan_eps(self, f013, e3_path_nbhd):
        for call in (lambda: eps_argmin(f013, math.nan),
                     lambda: eps_crit(f013, e3_path_nbhd, math.nan),
                     lambda: eps_Crit(f013, math.nan),
                     lambda: pasch_hausdorff(f013, math.nan)):
            with pytest.raises(ParameterError, match="eps must be"):
                call()

    def test_eps_Crit_pointwise_form(self, f013):
        # frozen oracle: direct evaluation of f(y) >= f(x) - eps*d(y,x)
        eps = 1.0
        expected = []
        for x in f013.space.points:
            if f013.value(x) == INF:
                continue
            if all(f013.value(y) >= f013.value(x)
                   - eps * f013.space.distance(y, x) - TOL
                   for y in f013.space.points):
                expected.append(x)
        assert list(eps_Crit(f013, eps)) == expected


class TestEpsCritCache:
    def test_repeat_call_reads_the_cache(self, f013, monkeypatch):
        crit = eps_Crit(f013, 1.0)
        # neither the slopes nor the pointwise re-check run again
        monkeypatch.setattr(slope_core, "slopes", None)
        monkeypatch.setattr(slope_core.np, "argwhere", None)
        assert eps_Crit(f013, 1.0) is crit
        assert eps_Crit(f013, 1.0, TOL) is crit
        assert list(f013._crit) == [(1.0, TOL)]

    def test_each_eps_and_tol_has_its_own_entry(self, e3, monkeypatch):
        f = ScalarField(e3, (0.0, 1.0, 1.5))   # global slopes 0, 1, 0.75
        assert eps_Crit(f, 0.8) == ("a", "c")
        assert eps_Crit(f, 0.25) == ("a",)
        assert eps_Crit(f, 0.25, 0.5) == ("a", "c")
        monkeypatch.setenv("SLOPEKIT_TOL", "0.5")
        assert eps_Crit(f, 0.25) == ("a", "c")
        monkeypatch.setenv("SLOPEKIT_TOL", "1.0")
        assert eps_Crit(f, 0.0) == ("a", "b", "c")
        assert set(f._crit) == {(0.8, TOL), (0.25, TOL), (0.25, 0.5),
                                (0.0, 1.0)}

    def test_failed_recheck_is_not_cached(self, e3, monkeypatch):
        f = ScalarField(e3, (0.0, 2.0, 3.0))
        with monkeypatch.context() as m:
            m.setattr(slope_core, "slopes", lambda h, nbhd=None: np.zeros(3))
            for _ in range(2):
                with pytest.raises(FatalFinding):
                    eps_Crit(f, 0.5)
        assert f._crit == {}
        assert eps_Crit(f, 0.5) == ("a",)

    def test_copies_start_with_an_empty_cache(self):
        inst = gen_random_instance(2, 8)
        f = inst.field("f")
        want = eps_Crit(f, 0.5)
        assert f._crit
        for dup in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f),
                    pickle.loads(pickle.dumps(inst)).field("f")):
            assert dup._crit == {}
            assert eps_Crit(dup, 0.5) == want


class TestPaschHausdorff:
    def test_example(self, f013):
        reg = pasch_hausdorff(f013, 1.0)
        assert reg.values == (0.0, 1.0, 2.0)

    def test_coincidence_set_is_eps_Crit(self, f013):
        reg = pasch_hausdorff(f013, 1.0)
        coincide = tuple(x for x in f013.space.points
                         if abs(reg.value(x) - f013.value(x)) <= TOL)
        assert coincide == eps_Crit(f013, 1.0)

    def test_lipschitz_field_unchanged(self, e3):
        f = ScalarField(e3, (0.0, 0.5, 1.0))   # 0.5-Lipschitz on e3
        reg = pasch_hausdorff(f, 1.0)
        assert reg.values == f.values

    def test_single_finite_point(self, e3):
        f = ScalarField(e3, (INF, 2.0, INF))
        reg = pasch_hausdorff(f, 1.5)
        assert reg.values == (2.0 + 1.5 * 1.0, 2.0, 2.0 + 1.5 * 1.0)

    def test_improper_rejected(self, e3):
        with pytest.raises(ImproperFieldError):
            pasch_hausdorff(ScalarField(e3, (INF, INF, INF)), 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda f, g: pasch_hausdorff(f, 1.0), "f is identically +inf"),
    (lambda f, g: sublevel_diff(f, g, 0.0), "f is identically +inf"),
    (lambda f, g: check_tz(f, g), "f is identically +inf"),
    (lambda f, g: check_lsc(f, g, 0.5, 0.5), "f is identically +inf"),
    (lambda f, g: gen_dominated_pair(0, f), "f is identically +inf"),
    (lambda f, g: f.min_finite(), "field is identically +inf"),
    (lambda f, g: eps_argmin(f, 1.0), "field is identically +inf"),
], ids=["pasch_hausdorff", "sublevel_diff", "check_tz", "check_lsc",
        "gen_dominated_pair", "min_finite", "eps_argmin"])
def test_improper_field_refused_in_one_wording(e3, f013, call, message):
    """Each refusal of a field that is identically +inf is
    ``_require_proper``'s."""
    with pytest.raises(ImproperFieldError) as info:
        call(ScalarField(e3, (INF, INF, INF)), f013)
    assert str(info.value) == message


class TestTruncate:
    def test_example_slope_drop(self, f013):
        g1 = truncate(f013, 1.0)
        assert g1.values == (0.0, 1.0, 1.0)
        assert global_slope(g1, "c") == 0.5

    def test_lambda_above_max(self, f013):
        assert truncate(f013, 10.0).values == f013.values

    def test_lambda_below_min(self, f013, e3_path_nbhd):
        g1 = truncate(f013, -1.0)
        assert g1.values == (-1.0, -1.0, -1.0)
        assert all(global_slope(g1, x) == 0.0 for x in g1.space.points)


def derived_inputs():
    """Seeded fields with -0.0, subnormals, ties and +inf, on n = 1-12."""
    rng = np.random.default_rng(29)
    for n in (1, 2, 5, 12):
        space = MetricSpace(tuple(f"p{i}" for i in range(n)),
                            metric_closure(rng.uniform(0.2, 2.0, (n, n))))
        for _ in range(4):
            vals = rng.choice([0.0, -0.0, 5e-324, 1e-310, 1.0, 1.0, 2.5, -3.0,
                               INF], n)
            if not np.isfinite(vals).any():
                vals[0] = -0.0
            yield ScalarField(space, tuple(vals.tolist()))


class TestDerivedFields:
    """scale_field, truncate and pasch_hausdorff adopt the array they
    compute: each field equals, bit for bit, the one the public constructor
    makes from the values of the formula, and owns a frozen array."""

    def check(self, got, f, formula):
        want = ScalarField(f.space, tuple(formula.tolist()))
        assert got.values == want.values
        assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
        assert got.array.tobytes() == want.array.tobytes()
        assert not got.array.flags.writeable
        assert not np.shares_memory(got.array, f.array)
        assert not np.shares_memory(got.array, f.space.dist)
        assert got == want and got._slopes == {} and got._crit == {}

    def test_scale_field(self):
        for f in derived_inputs():
            for r in (0.0, -0.0, 0.5, 1.0, 3.0, 1e-300, 2.0 ** -1074):
                want = np.zeros(f.space.n) if r == 0 else r * f.array
                self.check(scale_field(f, r), f, want)

    def test_truncate(self):
        for f in derived_inputs():
            for lam in (-3.0, -0.0, 0.0, 5e-324, 1.0, 2.5, INF, math.nan):
                v = f.array
                self.check(truncate(f, lam), f, np.where(lam < v, lam, v))

    def test_pasch_hausdorff(self):
        for f in derived_inputs():
            if not f.is_proper():
                continue
            fin = np.isfinite(f.array)
            for eps in (1e-300, 0.5, 1.0, 3.0):
                want = (f.array[fin, None] + eps * f.space.dist[fin]).min(axis=0)
                self.check(pasch_hausdorff(f, eps), f, want)

    @pytest.mark.parametrize("call, message", [
        (lambda f: scale_field(f, math.nan), "field value nan is not in R ∪ {+inf}"),
        (lambda f: truncate(f, -INF), "field value -inf is not in R ∪ {+inf}"),
        (lambda f: scale_field(f, -1.0), "scale factor must be nonnegative, got -1.0"),
        (lambda f: pasch_hausdorff(f, INF), "eps must be positive and finite, got inf"),
        (lambda f: pasch_hausdorff(f, -0.0), "eps must be positive and finite, got -0.0"),
    ])
    def test_refused(self, f013, call, message):
        with pytest.raises(ParameterError) as info:
            call(f013)
        assert type(info.value) is ParameterError and str(info.value) == message


@pytest.mark.filterwarnings("error")
class TestNoFloatingPointWarnings:
    """eps = inf and products eps * d that overflow give the sets and fields
    of the formulas, without a RuntimeWarning."""

    def test_eps_Crit_of_inf_is_dom_f(self, e3):
        for vals in ((0.0, 1.0, 3.0), (0.0, INF, 3.0)):
            f = ScalarField(e3, vals)
            assert eps_Crit(f, INF) == f.dom()

    @pytest.mark.parametrize("vals", [(0.0, 1.0, 3.0), (0.0, INF, 3.0),
                                      (1e308, 1e308, 0.0)])
    def test_overflowing_products(self, e3, vals):
        f, eps = ScalarField(e3, vals), 1e308   # eps * 2 overflows
        assert eps_Crit(f, eps) == f.dom()
        fin = np.isfinite(f.array)
        with np.errstate(over="ignore"):
            want = (f.array[fin, None] + eps * e3.dist[fin]).min(axis=0)
        assert pasch_hausdorff(f, eps).array.tobytes() == want.tobytes()

    def test_overflowing_differences(self):
        # f(x) - f(y) = 2e308 rounds to +inf, the intended quotient
        f = ScalarField(MetricSpace(("x", "y"), [[0, 1], [1, 0]]),
                        (1e308, -1e308))
        assert slopes(f).tolist() == [INF, 0.0]

    def test_regularization_that_overflows_is_inf(self):
        # the exact value 4e308 at y is above the largest double
        f = ScalarField(MetricSpace(("x", "y"), [[0, 4], [4, 0]]), (0.0, INF))
        assert pasch_hausdorff(f, 1e308).values == (0.0, INF)


class TestCritRecheckWitness:
    def test_an_improper_field_has_no_members(self, e3):
        f = ScalarField(e3, (INF, INF, INF))
        for eps in (0.0, 0.5, INF):
            assert eps_Crit(f, eps) == ()

    @pytest.mark.parametrize("seed", range(12))
    def test_faked_member_names_the_old_witness(self, seed, monkeypatch):
        """With every slope faked to 0, the in-place re-check names the first
        (x, y) of the boolean formula it replaced, in row-major order."""
        inst = gen_random_instance([7, seed], int(seed % 6) + 2,
                                   field_spec={"f": {"p_inf": 0.3 * (seed % 2)}})
        f, eps, tol = inst.field("f"), 0.25 * (seed % 3), TOL
        v, pts = f.array, f.space.points
        rows = np.flatnonzero(np.isfinite(v))
        d = f.space.dist[rows]
        bad = np.argwhere(v[None, :] < v[rows, None] - eps * d - tol * (1 + d))
        monkeypatch.setattr(slope_core, "slopes",
                            lambda h, nbhd=None: np.zeros(h.space.n))
        if not len(bad):
            assert eps_Crit(f, eps, tol) == f.dom()
            return
        with pytest.raises(FatalFinding) as info:
            eps_Crit(f, eps, tol)
        i, j = bad[0]
        assert info.value.witness == {"x": pts[rows[i]], "y": pts[j], "eps": eps}


class TestLogDistanceField:
    def test_values_and_bound(self, e3):
        phi = log_distance_field(e3, "a")
        assert phi.value("a") == INF
        assert phi.value("b") == 0.0
        assert phi.value("c") == pytest.approx(-math.log(2))
        assert global_slope(phi, "b") == pytest.approx(math.log(2))
        assert global_slope(phi, "b") <= 1.0 / e3.distance("b", "a")
        assert global_slope(phi, "c") == 0.0

    def test_two_point_space(self):
        from slopekit import MetricSpace
        space = MetricSpace(("u", "v"), [[0, 3], [3, 0]])
        phi = log_distance_field(space, "u")
        assert global_slope(phi, "v") == 0.0

    def test_single_point_rejected(self):
        from slopekit import MetricSpace
        with pytest.raises(ParameterError):
            log_distance_field(MetricSpace(("u",), [[0]]), "u")


class TestSublevelDiff:
    def test_example(self, e3, f013):
        g = ScalarField(e3, (0.0, 0.5, 1.5))
        assert sublevel_diff(f013, g, 1.0) == ("a", "b")

    def test_large_lambda_gives_dom(self, e3, f013):
        g = ScalarField(e3, (0.0, 0.5, 1.5))
        assert sublevel_diff(f013, g, 100.0) == ("a", "b", "c")

    def test_g_infinite_included(self, e3, f013):
        g = ScalarField(e3, (INF, INF, INF))
        assert sublevel_diff(f013, g, -100.0) == ("a", "b", "c")

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pointwise_definition(self, seed):
        inst = gen_random_instance([31, seed], 12, field_spec={
            "f": {"p_inf": 0.3}, "g": {"p_inf": 0.3}})
        f, g = inst.field("f"), inst.field("g")
        ties = [a - b for a, b in zip(f.values, g.values) if INF not in (a, b)]
        lams = (-INF, -1.0, 0.0, 0.5, *ties[:4], INF, math.nan)
        for lam, tol in itertools.product(lams, (0.0, TOL)):
            want = tuple(p for p, a, b in zip(f.space.points, f.values, g.values)
                         if a != INF and (b == INF or a - b <= lam + tol))
            assert sublevel_diff(f, g, lam, tol) == want


class TestRestrict:
    def test_full_restriction_is_identity(self, f013, e3_path_nbhd):
        f1 = restrict(f013, f013.space.points)
        for x in f013.space.points:
            assert global_slope(f1, x) == global_slope(f013, x)

    def test_sublevel_restriction_example(self, e3, f013):
        g = ScalarField(e3, (0.0, 0.5, 1.5))
        m1 = sublevel_diff(f013, g, 1.5)
        assert m1 == ("a", "b", "c")

    def test_two_point_restriction(self, f013):
        f1 = restrict(f013, ("b", "c"))
        assert global_slope(f1, "c") == 2.0
        assert global_slope(f1, "b") == 0.0

    def test_empty_subset_rejected(self, f013):
        with pytest.raises(ParameterError):
            restrict(f013, ())


def _random_pair(seed):
    inst = gen_random_instance([seed], 7, metric_kind="graph",
                               field_spec={"f": {"p_inf": 0.1},
                                           "g": {"p_inf": 0.1}})
    return inst


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_scaling_property(seed):
    inst = _random_pair(seed)
    f = inst.field("f")
    for r in (0.0, 0.5, 2.5):
        rf = scale_field(f, r)
        for x in f.dom():
            assert local_slope(rf, inst.nbhd, x) == pytest.approx(
                r * local_slope(f, inst.nbhd, x), abs=1e-12, rel=1e-12)
            assert global_slope(rf, x) == pytest.approx(
                r * global_slope(f, x), abs=1e-12, rel=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_subadditivity_property(seed):
    inst = _random_pair(seed)
    f, g = inst.field("f"), inst.field("g")
    h = add_fields(f, g)
    for x in set(f.dom()) & set(g.dom()):
        assert (local_slope(h, inst.nbhd, x)
                <= local_slope(f, inst.nbhd, x)
                + local_slope(g, inst.nbhd, x) + TOL)
        assert global_slope(h, x) <= global_slope(f, x) + global_slope(g, x) + TOL


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_truncation_never_increases_slopes(seed):
    inst = _random_pair(seed)
    g = inst.field("g")
    lam = (g.min_finite() + g.max_finite()) / 2.0
    g1 = truncate(g, lam)
    for x in g.dom():
        assert local_slope(g1, inst.nbhd, x) <= local_slope(g, inst.nbhd, x) + TOL
        assert global_slope(g1, x) <= global_slope(g, x) + TOL


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_crit_is_eps_lipschitz(seed):
    inst = _random_pair(seed)
    f = inst.field("f")
    for eps in (0.25, 1.0):
        crit = eps_Crit(f, eps)
        for x in crit:
            for y in crit:
                assert (abs(f.value(x) - f.value(y))
                        <= eps * inst.space.distance(x, y) + TOL)


# The tolerance boundary at b = 1.0, tol = 1e-9: A = fl(b + tol) is within
# tol of b and the next float above it is not.  As A - b > tol, a spelling
# of the comparisons as a - b <= tol would put A out too.
A = 1.0 + TOL
ABOVE = math.nextafter(A, INF)


class TestToleranceBoundary:
    def test_a_minus_b_exceeds_tol(self):
        assert A - 1.0 > TOL

    @staticmethod
    def field(e3, value):
        """Both slopes at b equal ``value``; at a they are 0, at c above 1.5."""
        return ScalarField(e3, (0.0, value, 3.0))

    def test_eps_argmin(self, e3):
        # inf f + eps = 0.0 + 1.0
        assert eps_argmin(self.field(e3, A), 1.0, TOL) == ("a", "b")
        assert eps_argmin(self.field(e3, ABOVE), 1.0, TOL) == ("a",)

    def test_eps_crit_and_eps_Crit(self, e3, e3_path_nbhd):
        for value, want in ((A, ("a", "b")), (ABOVE, ("a",))):
            f = self.field(e3, value)
            assert slopes(f, e3_path_nbhd)[1] == slopes(f)[1] == value
            assert eps_crit(f, e3_path_nbhd, 1.0, TOL) == want
            assert eps_Crit(f, 1.0, TOL) == want

    def test_sublevel_diff(self, e3):
        zero = ScalarField(e3, (0.0, 0.0, 0.0))
        assert sublevel_diff(self.field(e3, A), zero, 1.0, TOL) == ("a", "b")
        assert sublevel_diff(self.field(e3, ABOVE), zero, 1.0, TOL) == ("a",)

    def test_domination_witnesses(self, e3, f013):
        # the global slope of f013 at b is 1.0
        assert domination_witnesses(f013, self.field(e3, A), TOL) == []
        assert domination_witnesses(f013, self.field(e3, ABOVE), TOL) == ["b"]
