import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (MetricSpace, ParameterError, PLConvex, check_tz,
                      gen_random_pl, grid_space, mr_check, pl_from_dict)

from pl_oracle import definitional_global_slope, sample_to_field

TOL = 1e-9

ABS = PLConvex((0.0,), (-1.0, 1.0), 0.0)


class TestPLConvex:
    def test_abs_values(self):
        for x in (-2.0, -0.5, 0.0, 1.5):
            assert ABS.value(x) == abs(x)
        assert np.allclose(ABS.values([-2, 0, 3]), [2, 0, 3])

    def test_two_knot_values(self):
        f = PLConvex((0.0, 1.0), (-1.0, 0.0, 2.0), 0.0)
        assert f.value(-1.0) == 1.0
        assert f.value(0.5) == 0.0
        assert f.value(2.0) == 2.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            PLConvex((), (1.0,), 0.0)
        with pytest.raises(ParameterError):
            PLConvex((0.0, 0.0), (0.0, 1.0, 2.0), 0.0)
        with pytest.raises(ParameterError):
            PLConvex((0.0,), (1.0, -1.0), 0.0)     # decreasing slopes
        with pytest.raises(ParameterError):
            PLConvex((0.0,), (1.0,), 0.0)          # wrong slope count
        with pytest.raises(ParameterError, match="must be finite"):
            PLConvex((0.0,), (float("nan"), 1.0), 0.0)

    def test_round_trip(self):
        f = PLConvex((0.0, 1.0), (-1.0, 0.0, 2.0), 0.5)
        assert pl_from_dict(f.to_dict()) == f

    @pytest.mark.parametrize("call, message", [
        (lambda: PLConvex((0,), (0, 1), 10 ** 400),
         f"malformed anchor: {10 ** 400}"),
        (lambda: PLConvex(("a",), (0, 1), 0), "malformed knots entry: 'a'"),
        (lambda: PLConvex((0,), (0, None), 0), "malformed slopes entry: None"),
        (lambda: PLConvex(5, (0, 1), 0), "malformed knots: 5"),
        (lambda: ABS.value(10 ** 400), f"malformed x: {10 ** 400}"),
        (lambda: ABS.value("x"), "malformed x: 'x'"),
        (lambda: ABS.values([0.0, "x"]), "malformed x: [0.0, 'x']"),
        (lambda: ABS.value(None), "malformed x: None"),
        (lambda: ABS.values([None, 1.0]), "malformed x: [None, 1.0]"),
    ], ids=["anchor", "knot", "slope", "knots", "value-big", "value-string",
            "values", "value-none", "values-none"])
    def test_malformed_value_refused(self, call, message):
        """Knots, slopes, anchor and x are read as the loader reads them."""
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message

    def test_numbers_become_python_floats(self):
        f = PLConvex([np.float32(0.5), 1], np.array([-1, 0, 1]), np.int64(2))
        assert f == PLConvex((0.5, 1.0), (-1.0, 0.0, 1.0), 2.0)
        assert {type(v) for v in (*f.knots, *f.slopes, f.anchor)} == {float}
        assert type(f.value(np.float32(0.5))) is float


class TestSubdifferential:
    def test_abs(self):
        assert ABS.subdifferential(0.0) == (-1.0, 1.0)
        assert ABS.subdifferential(-1.0) == (-1.0, -1.0)
        assert ABS.subdifferential(2.0) == (1.0, 1.0)

    def test_slope_min_norm(self):
        assert ABS.slope(0.0) == 0.0
        assert ABS.slope(-3.0) == 1.0
        f = PLConvex((0.0,), (-2.0, 3.0), 0.0)
        assert f.slope(0.0) == 0.0          # 0 in [-2, 3]
        f = PLConvex((0.0,), (1.0, 3.0), 0.0)
        assert f.slope(0.0) == 1.0          # interval misses 0, nearest end
        f = PLConvex((0.0,), (-3.0, -1.0), 0.0)
        assert f.slope(0.0) == 1.0

    def test_flat_piece(self):
        f = PLConvex((0.0, 1.0), (-1.0, 0.0, 2.0), 0.0)
        assert f.slope(0.5) == 0.0
        assert f.subdifferential(1.0) == (0.0, 2.0)


class TestNormalized:
    def test_drops_fake_knot(self):
        f = PLConvex((0.0, 1.0), (-1.0, 1.0, 1.0), 0.0)
        fn = f.normalized()
        assert fn.knots == (0.0,) and fn.slopes == (-1.0, 1.0)

    def test_affine_keeps_marker(self):
        f = PLConvex((0.0, 1.0), (2.0, 2.0, 2.0), 0.0)
        fn = f.normalized()
        assert len(fn.knots) == 1 and fn.slopes == (2.0, 2.0)

    def test_values_unchanged(self):
        f = PLConvex((0.0, 1.0, 2.0), (-1.0, -1.0, 0.5, 0.5), 3.0)
        fn = f.normalized()
        for x in np.linspace(-2, 4, 31):
            assert fn.value(x) == pytest.approx(f.value(x), abs=TOL)


class TestMRCheck:
    def test_constant_shift(self):
        g = PLConvex(ABS.knots, ABS.slopes, ABS.anchor + 5.0)
        res = mr_check(g, ABS)
        assert res.matched and res.constant == pytest.approx(5.0)

    def test_constant_negative(self):
        g = PLConvex(ABS.knots, ABS.slopes, ABS.anchor - 5.0)
        res = mr_check(g, ABS)
        assert res.matched and res.constant == pytest.approx(-5.0)

    def test_mismatch_reported(self):
        g = PLConvex((-1.0, 0.0), (-1.0, -0.5, 1.0), 1.0)
        res = mr_check(ABS, g)
        assert not res.matched
        assert res.mismatch_at == pytest.approx(-1.0)
        assert res.subdiff_f != res.subdiff_g

    def test_redundant_knot_still_matches(self):
        f = PLConvex((0.0, 1.0), (-1.0, 1.0, 1.0), 0.0)
        res = mr_check(f, ABS)
        assert res.matched and res.constant == pytest.approx(0.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_perturbed_slope_always_mismatches(self, seed):
        f = gen_random_pl([seed])
        slopes = list(f.slopes)
        rng = np.random.default_rng(seed)
        i = int(rng.integers(0, len(slopes)))
        delta = float(rng.uniform(1e-3, 0.5))
        slopes[i:] = [s + delta for s in slopes[i:]]   # keeps convexity
        g = PLConvex(f.knots, tuple(slopes), f.anchor)
        assert not mr_check(f, g).matched

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_shifted_copy_always_matches(self, seed):
        f = gen_random_pl([seed])
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(-10, 10))
        g = PLConvex(f.knots, f.slopes, f.anchor + c)
        res = mr_check(g, f)
        assert res.matched and res.constant == pytest.approx(c, abs=TOL)


class TestSampleToField:
    def test_abs_on_unit_grid(self):
        space, _ = grid_space([(-1, 1)], [5])
        f = sample_to_field(ABS, space, -1, 1)
        assert f.values == (1.0, 0.5, 0.0, 0.5, 1.0)

    def test_requires_1d_grid(self):
        space, _ = grid_space([(0, 1), (0, 1)], [2, 2])
        with pytest.raises(ParameterError):
            sample_to_field(ABS, space, 0, 1)
        plain = MetricSpace(("a", "b"), [[0, 1], [1, 0]])
        with pytest.raises(ParameterError):
            sample_to_field(ABS, plain, 0, 1)
        line, _ = grid_space([(0, 1)], [4])   # a grid of other bounds
        with pytest.raises(ParameterError):
            sample_to_field(ABS, line, 0, 2)

    def test_sampled_dominated_pair(self):
        # g' between -f' and f' pointwise, so slopes of g stay dominated
        space, _ = grid_space([(-2, 2)], [9])
        g_pl = PLConvex((0.0,), (-0.5, 0.5), 0.0)
        f = sample_to_field(ABS, space, -2, 2)
        g = sample_to_field(g_pl, space, -2, 2)
        report = check_tz(f, g)
        assert report.hypothesis_ok and report.conclusion_ok


@given(seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_slope_matches_dense_sampling_oracle(seed):
    f = gen_random_pl([seed])
    lo = f.knots[0] - 2.0
    hi = f.knots[-1] + 2.0
    probes = list(f.knots)
    probes += [(a + b) / 2 for a, b in zip(f.knots, f.knots[1:])]
    probes += [lo, hi]
    # flank each probe inside its own linear piece so the defining sup is
    # attained at a sample, and keep all near-coincident grid points out:
    # a quotient over a sub-1e-6 gap is dominated by rounding noise
    h = 1e-3
    ys = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 10001),
                         [p - h for p in probes],
                         [p + h for p in probes]])
    for x in probes:
        approx = definitional_global_slope(f, x, ys[np.abs(ys - x) > 0.9 * h])
        assert approx == pytest.approx(f.slope(x), abs=TOL)


class TestToleranceBoundary:
    """``normalized`` and ``mr_check`` compare differences of slopes with
    tol.  At b = 1.0 and tol = 1e-9, A = fl(b + tol) has A - b > tol: the
    float below A is within tol of b, A is not."""
    A = 1.0 + TOL
    BELOW = np.nextafter(A, -np.inf)

    def test_normalized(self):
        for value, knots in ((self.BELOW, (0.0,)), (self.A, (0.0, 1.0))):
            f = PLConvex((0.0, 1.0), (0.0, 1.0, value), 0.0)
            assert f.normalized(TOL).knots == knots

    @pytest.mark.parametrize("f, g, result", [
        # these two raised AssertionError: their normalized forms differ
        # (f keeps its knot at 0, g drops it), yet no probe tells them apart
        (PLConvex((0, 1), (0, 1.5e-9, 1), 0), PLConvex((0, 1), (0, 0.5e-9, 1), 0),
         {"constant": 0.0}),
        (PLConvex((0, 1), (0, 1.5e-9, 1), 2), PLConvex((0, 1), (0, 0.5e-9, 1), 0.5),
         {"constant": 1.5}),
        # this one read "matched": the normalized forms agree within tol,
        # but the subdifferentials at 0 differ by 1.5e-9
        (PLConvex((0, 1), (0, 1.5e-9, 1.7e-9), 0), PLConvex((0, 1), (0, 0, 6e-10), 0),
         {"mismatch_at": 0.0, "subdiff_f": [0.0, 1.5e-9], "subdiff_g": [0.0, 0.0]}),
    ], ids=["raised", "raised-shifted", "matched"])
    def test_mr_check_decided_by_the_probes(self, f, g, result):
        assert mr_check(f, g, TOL).to_dict() == result

    def test_mr_check(self):
        f = PLConvex((0.0,), (0.0, 1.0), 0.0)
        same = mr_check(f, PLConvex((0.0,), (0.0, self.BELOW), 0.0), TOL)
        assert same.to_dict() == {"constant": 0.0}
        differ = mr_check(f, PLConvex((0.0,), (0.0, self.A), 0.0), TOL)
        assert differ.to_dict() == {"mismatch_at": 0.0, "subdiff_f": [0.0, 1.0],
                                    "subdiff_g": [0.0, self.A]}
