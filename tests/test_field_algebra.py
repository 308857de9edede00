"""The field algebra on one path: one same-space contract for every pair of
fields, derived fields built from arrays, and the suite's slopes as one
stacked (local, global) array."""

import bisect
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from slopekit import (ImproperFieldError, MetricSpace, ParameterError,
                      PLConvex, ScalarField,
                      UndefinedArithmeticError, add_fields,
                      all_pairs_neighborhoods, check_compact, check_lips,
                      check_lsc, check_tz, descent_step, descent_to_critical,
                      domination_witnesses, gen_random_instance, grid_space,
                      log_distance_field, restrict, scale_field,
                      strict_comparison_witnesses, sub_fields,
                      sublevel_diff, verify_trace)
from slopekit import suite
from slopekit.metric_space import metric_closure
from slopekit.slope_core import _same_space

from pl_oracle import sample_to_field

INF = math.inf
SAME = "fields live on different spaces"


# --- one same-space contract ----------------------------------------------

def two_points(d, names=("x", "y")):
    return MetricSpace(names, [[0, d], [d, 0]])


PAIR_FUNCTIONS = {
    "add_fields": lambda f, g, nbhd: add_fields(f, g),
    "sub_fields": lambda f, g, nbhd: sub_fields(f, g),
    "sublevel_diff": lambda f, g, nbhd: sublevel_diff(f, g, 0.0),
    "domination_witnesses": lambda f, g, nbhd: domination_witnesses(f, g),
    "strict_comparison_witnesses, global":
        lambda f, g, nbhd: strict_comparison_witnesses(f, g),
    "strict_comparison_witnesses, local":
        lambda f, g, nbhd: strict_comparison_witnesses(f, g, nbhd),
    "check_tz": lambda f, g, nbhd: check_tz(f, g),
    "check_lips": lambda f, g, nbhd: check_lips(f, g, 0.5),
    "check_lsc": lambda f, g, nbhd: check_lsc(f, g, 0.5, 0.5),
    "check_compact": lambda f, g, nbhd: check_compact(f, g, nbhd),
    "descent_step, local": lambda f, g, nbhd: descent_step(f, g, nbhd, "y", 0.5),
    "descent_step, global":
        lambda f, g, nbhd: descent_step(f, g, nbhd, "y", 0.5, mode="global"),
    "descent_to_critical":
        lambda f, g, nbhd: descent_to_critical(f, g, nbhd, "y"),
    "descent_to_critical from a 0-critical point":
        lambda f, g, nbhd: descent_to_critical(f, g, nbhd, "x"),
    "verify_trace": lambda f, g, nbhd: verify_trace(
        descent_to_critical(f, scale_field(f, 0.5), nbhd, "y"), f, g, nbhd),
}


def outcome(call, *args):
    """What a call gives, in a form that compares by value and by bits."""
    try:
        got = call(*args)
    except Exception as exc:   # noqa: BLE001 - the kind is compared
        return type(exc), str(exc)
    if isinstance(got, ScalarField):
        return got.space.points, got.array.tobytes()
    return got.to_dict() if hasattr(got, "to_dict") else got


@pytest.mark.parametrize("g_values", [(0.0, 0.5), (0.0, 5.0)])
@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_same_space_table(name, g_values):
    """f = (0, 1) on two points at distance 1.  With g on one space object
    or on an equal copy, every pair function gives the same result; with g
    on the same names at distance 10, or on other names, each one refuses
    the pair.  check_tz called g = (0, 5) at distance 10 falsified, with
    slack -4.0."""
    call = PAIR_FUNCTIONS[name]
    space = two_points(1.0)
    f = ScalarField(space, (0.0, 1.0))
    nbhd = all_pairs_neighborhoods(space)
    one = outcome(call, f, ScalarField(space, g_values), nbhd)
    copy = outcome(call, f, ScalarField(two_points(1.0), g_values), nbhd)
    assert copy == one and one != (ParameterError, SAME)
    for other in (two_points(10.0), two_points(1.0, ("u", "v"))):
        with pytest.raises(ParameterError) as info:
            call(f, ScalarField(other, g_values), nbhd)
        assert type(info.value) is ParameterError and str(info.value) == SAME


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 1.5])
def test_grid_and_its_caller_built_copy_are_one_space(p):
    """A space is its points and distances: a field on a grid and one on the
    space built from the grid's points and matrix live on one space.  While
    a grid also carried node coordinates, the pair was refused."""
    grid, _ = grid_space([(0.0, 1.0), (-1.0, 2.0)], [3, 4], p)
    copy = MetricSpace(grid.points, grid.dist)
    f = ScalarField(grid, np.linspace(0.0, 3.0, grid.n) ** 2)
    g = ScalarField(copy, np.linspace(1.0, -1.0, grid.n))
    _same_space(f, g)
    assert copy == grid and copy is not grid
    assert add_fields(f, g).values == tuple(
        a + b for a, b in zip(f.values, g.values))
    assert check_tz(f, g).to_dict() == check_tz(
        f, ScalarField(grid, g.values)).to_dict()


@pytest.mark.parametrize("name", ["sublevel_diff", "check_tz", "check_lsc"])
def test_improper_f_refused(name):
    space = two_points(1.0)
    f, g = ScalarField(space, (INF, INF)), ScalarField(space, (0.0, 1.0))
    with pytest.raises(ImproperFieldError) as info:
        PAIR_FUNCTIONS[name](f, g, all_pairs_neighborhoods(space))
    assert str(info.value) == "f is identically +inf"


# --- derived fields from arrays, against the loops they replace -----------

def loop_add_fields(f, g):
    return ScalarField(f.space, tuple(a + b for a, b in zip(f.values, g.values)))


def loop_sub_fields(f, g):
    out = []
    for a, b in zip(f.values, g.values):
        if a == INF and b == INF:
            raise UndefinedArithmeticError("inf - inf is undefined")
        if b == INF:
            raise ParameterError("f - g would take the value -inf")
        out.append(a - b)
    return ScalarField(f.space, tuple(out))


def loop_restrict(f, subset):
    sub = f.space.subspace(subset)
    return ScalarField(sub, tuple(f.value(p) for p in sub.points))


def loop_log_distance_field(space, a):
    i = space.index(a)
    return ScalarField(space, tuple(INF if j == i else -math.log(space.dist[j, i])
                                    for j in range(space.n)))


POOL = [0.0, -0.0, 5e-324, 1.0, 1.0, -3.0, 1e308, -1e308, INF]


def spaces():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 8):
        yield MetricSpace(tuple(f"p{i}" for i in range(n)),
                          metric_closure(rng.uniform(0.2, 2.0, (n, n))))


def field_pairs():
    """Seeded pairs over -0.0, a subnormal, ties, ±1e308 and +inf, so that
    sums and differences overflow to ±inf, at one point or at several."""
    rng = np.random.default_rng(37)
    for space in spaces():
        for _ in range(40):
            f = rng.choice(POOL, space.n)
            if not np.isfinite(f).any():
                f[0] = -0.0
            g = rng.choice(POOL, space.n)
            yield (ScalarField(space, tuple(f.tolist())),
                   ScalarField(space, tuple(g.tolist())))


def assert_same(got, want, *inputs):
    """Equal outcomes; a field also keeps a frozen array of its own."""
    assert outcome(lambda: got) == outcome(lambda: want)
    if isinstance(got, ScalarField):
        assert got.values == want.values
        assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
        assert not got.array.flags.writeable
        assert not any(np.shares_memory(got.array, h.array) for h in inputs)
        assert got == want and got._slopes == {} and got._crit == {}


def run(call, *args):
    try:
        return call(*args)
    except Exception as exc:   # noqa: BLE001 - compared with the loop's
        return exc


def same_error(got, want):
    return type(got) is type(want) and str(got) == str(want)


@pytest.mark.filterwarnings("error")
class TestDerivedFieldsFromArrays:
    @pytest.mark.parametrize("op, loop", [(add_fields, loop_add_fields),
                                          (sub_fields, loop_sub_fields)])
    def test_sum_and_difference(self, op, loop):
        kinds = set()
        for f, g in field_pairs():
            got, want = run(op, f, g), run(loop, f, g)
            kinds.add(type(want).__name__)
            if isinstance(want, Exception):
                assert same_error(got, want), (f.values, g.values)
            else:
                assert_same(got, want, f, g)
        assert kinds >= {"ScalarField", "ParameterError"}

    @pytest.mark.parametrize("f, g, error, message", [
        ((1.0, 2.0), (1e308, INF), ParameterError,
         "f - g would take the value -inf"),
        ((1.0, INF, 2.0, INF), (0.0, INF, INF, 0.0), UndefinedArithmeticError,
         "inf - inf is undefined"),
        ((1.0, 2.0, INF, INF), (0.0, INF, INF, 0.0), ParameterError,
         "f - g would take the value -inf"),
        ((-1e308, 1e308, 0.0), (1e308, -1e308, INF), ParameterError,
         "f - g would take the value -inf"),
        ((-1e308, 1e308, -1e308), (1e308, -1e308, 1e308), ParameterError,
         "field value -inf is not in R ∪ {+inf}"),
    ])
    def test_sub_fields_first_faulty_point(self, f, g, error, message):
        n = len(f)
        space = MetricSpace(tuple("abcd"[:n]), np.ones((n, n)) - np.eye(n))
        f, g = ScalarField(space, f), ScalarField(space, g)
        for call in (sub_fields, loop_sub_fields):
            with pytest.raises(error) as info:
                call(f, g)
            assert type(info.value) is error and str(info.value) == message

    def test_overflow_to_inf_is_silent(self):
        space = two_points(1.0)
        f = ScalarField(space, (1e308, -0.0))
        g = ScalarField(space, (1e308, -0.0))
        assert add_fields(f, g).values == (INF, -0.0)
        assert math.copysign(1.0, add_fields(f, g).values[1]) == -1.0
        h = ScalarField(space, (-1e308, -0.0))
        assert sub_fields(f, h).values == (INF, 0.0)
        with pytest.raises(ParameterError, match="field value -inf"):
            add_fields(h, h)

    def test_restrict(self):
        rng = np.random.default_rng(41)
        for f, _ in itertools.islice(field_pairs(), 0, None, 3):
            pts = f.space.points
            for _ in range(3):
                k = int(rng.integers(1, len(pts) + 1))
                subset = list(rng.permutation(pts)[:k])
                assert_same(restrict(f, subset), loop_restrict(f, subset), f)
            for subset in ((), (pts[0], "nowhere")):
                got, want = run(restrict, f, subset), run(loop_restrict, f, subset)
                assert same_error(got, want)

    def test_log_distance_field(self):
        for space in spaces():
            if space.n < 2:
                continue
            for a in space.points:
                assert_same(log_distance_field(space, a),
                            loop_log_distance_field(space, a))


# --- duplicate consumers read the kernel ----------------------------------

def loop_pl_value(f, x):
    i = bisect.bisect_right(f.knots, x)
    if i == 0:
        return f.anchor + f.slopes[0] * (x - f.knots[0])
    return f._knot_values[i - 1] + f.slopes[i] * (x - f.knots[i - 1])


@pytest.mark.filterwarnings("error")
def test_pl_value_and_sampling_keep_their_bits():
    f = PLConvex((-1.0, 0.0, 0.3), (-2.0, -0.5, 0.0, 1.75), 0.1)
    xs = [-3.0, -1.0, -0.5, -0.0, 0.0, 0.1, 0.3, 1 / 3, 2.0, 1e300]
    for x in xs:
        want = loop_pl_value(f, x)
        got = f.value(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    space, _ = grid_space([(-2.0, 2.0)], [17])
    got = sample_to_field(f, space, -2.0, 2.0)
    want = ScalarField(space, tuple(loop_pl_value(f, x) for x in
                                    np.linspace(-2.0, 2.0, 17).tolist()))
    assert got.array.tobytes() == want.array.tobytes()
    assert got.values == want.values and not got.array.flags.writeable


# --- the suite's stacked slopes -------------------------------------------

def test_flagged_order_on_a_crafted_mask():
    space = MetricSpace(tuple(f"p{i}" for i in range(5)),
                        np.ones((5, 5)) - np.eye(5))
    inst = SimpleNamespace(space=space)
    idx = np.array([3, 0, 2, 1])
    bad = np.array([[False, True, False, True],
                    [True, True, False, False]])
    assert list(suite._flagged(inst, idx, bad)) == [
        ((1, 0), "p3", "global"), ((0, 1), "p0", "local"),
        ((1, 1), "p0", "global"), ((0, 3), "p1", "local")]
    assert list(suite._flagged(inst, idx, np.zeros((2, 4), bool))) == []
    assert list(suite._flagged(inst, idx[:0], np.zeros((2, 0), bool))) == []


def test_slopes_at_stacks_local_over_global():
    inst = gen_random_instance([5], 7, field_spec={"f": {"p_inf": 0.3}})
    f = inst.field("f")
    idx = np.flatnonzero(np.isfinite(f.array))
    got = suite._slopes_at(inst, f, idx)
    assert got.shape == (2, len(idx))
    assert got[0].tobytes() == suite.slopes(f, inst.nbhd)[idx].tobytes()
    assert got[1].tobytes() == suite.slopes(f)[idx].tobytes()
