"""Tie-breaks of the determination checkers and of ``ekeland_point``.

With integer-valued fields many points share the least objective, so the
witness a checker reports depends on its tie-break rule: the first point
in point order. The random-float golden instances never tie, so these
tests compare the library, report for report, against reference copies
of the explicit loops the checkers and the Ekeland iteration were first
written with.
"""

import math

import numpy as np
import pytest

from slopekit import (CheckReport, ImproperFieldError, ParameterError,
                      ScalarField, check_compact, check_lips, check_lsc,
                      check_tz, domination_witnesses, ekeland_point,
                      eps_argmin, eps_crit, eps_Crit, gen_dominated_pair,
                      gen_random_instance, scale_field,
                      strict_comparison_witnesses, sublevel_diff, truncate)
from slopekit.variational import _sublevel_ekeland

INF = math.inf
TOL = 1e-9


# --- reference implementations: one explicit loop per checker -----------

def _ref_require_finite_everywhere(h, name):
    if any(v == INF for v in h.values):
        raise ParameterError(f"{name} must be finite-valued for this check")


def ref_check_tz(f, g, tol=TOL):
    if not f.is_proper():
        raise ImproperFieldError("f is identically +inf")
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("tz", hypothesis_ok=False, hypothesis_witnesses=bad)
    inf_f = f.min_finite()
    inf_g = g.min_finite()
    slack = INF
    witness = None
    for x in f.dom():
        margin = (f.value(x) - inf_f) - (g.value(x) - inf_g)
        if margin < slack:
            slack = margin
            witness = x
    return CheckReport(
        "tz", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_f": inf_f, "inf_g": inf_g})


def ref_check_lips(f, g, eps, tol=TOL):
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    _ref_require_finite_everywhere(f, "f")
    _ref_require_finite_everywhere(g, "g")
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("lips", hypothesis_ok=False, hypothesis_witnesses=bad)
    diff = {p: f.value(p) - g.value(p) for p in f.space.points}
    m_all = min(diff.values())
    crit = eps_Crit(f, eps, tol)
    m_crit = min(diff[p] for p in crit)
    witness = min((p for p in crit if diff[p] == m_crit),
                  key=f.space.index)
    # equal infima, overflowed to the same infinity included, leave no gap
    slack = 0.0 if m_all == m_crit else m_all - m_crit
    return CheckReport(
        "lips", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_all": m_all, "inf_crit": m_crit, "eps": eps})


def ref_check_lsc(f, g, r, eps, tol=TOL):
    if not 0 < r < 1:
        raise ParameterError(f"r must be in (0, 1), got {r}")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not f.is_proper():
        raise ImproperFieldError("f is identically +inf")
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("lsc", hypothesis_ok=False, hypothesis_witnesses=bad)

    def diff(p):
        gv = g.value(p)
        return -INF if gv == INF else f.value(p) - r * gv

    dom = f.dom()
    m_dom = min(diff(p) for p in dom)
    crit = eps_Crit(f, eps, tol)
    m_crit = min(diff(p) for p in crit)
    if m_dom == m_crit:
        slack = 0.0
    elif m_dom == -INF:
        slack = -INF
    else:
        slack = m_dom - m_crit
    witness = min((p for p in crit if diff(p) == m_crit), key=f.space.index)
    return CheckReport(
        "lsc", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_dom": m_dom, "inf_crit": m_crit, "r": r, "eps": eps})


def ref_check_compact(f, g, nbhd, tol=TOL):
    _ref_require_finite_everywhere(f, "f")
    _ref_require_finite_everywhere(g, "g")
    bad = strict_comparison_witnesses(f, g, nbhd, tol)
    if bad:
        return CheckReport("compact", hypothesis_ok=False,
                           hypothesis_witnesses=bad)
    diff = {p: f.value(p) - g.value(p) for p in f.space.points}
    m_all = min(diff.values())
    crit0 = eps_crit(f, nbhd, 0.0, tol)
    m_crit = min(diff[p] for p in crit0)
    witness = min((p for p in crit0 if diff[p] == m_crit), key=f.space.index)
    slack = 0.0 if m_all == m_crit else m_all - m_crit
    return CheckReport(
        "compact", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_all": m_all, "inf_crit0": m_crit})


def ref_ekeland_point(f, x0, lam):
    space = f.space
    i = space.index(x0)
    while True:
        fx = f.values[i]
        best = i
        for j in range(space.n):
            if f.values[j] <= fx - lam * space.dist[i, j]:
                if f.values[j] < f.values[best] or (
                        f.values[j] == f.values[best] and j < best):
                    best = j
        if best == i:
            return space.points[i]
        i = best


# --- instances with tied objectives -------------------------------------

def _outcome(check, *args):
    """The report's dict, or the type and text of the exception raised."""
    try:
        return repr(check(*args).to_dict())
    except (ParameterError, ImproperFieldError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _integer_field(space, rng, p_inf):
    vals = rng.integers(0, 4, size=space.n).astype(float)
    vals[rng.random(space.n) < p_inf] = INF
    if not np.isfinite(vals).any():
        vals[int(rng.integers(0, space.n))] = 0.0
    return ScalarField(space, tuple(vals.tolist()))


def _pairs(seed):
    """An instance and (f, g) pairs with integer-valued f: the dominated
    pairs of every gen_dominated_pair mode, shifts and constants of f, and
    random integer g, which mostly violate the hypotheses."""
    rng = np.random.default_rng(seed)
    kind = ("graph", "matrix", "grid")[seed % 3]
    n = int(rng.integers(2, 9))
    inst = gen_random_instance(seed, n, metric_kind=kind)
    f = _integer_field(inst.space, rng, 0.3 if seed % 2 else 0.0)
    gs = [gen_dominated_pair([seed, k], f, mode)[0]
          for k, mode in enumerate(("truncate", "scale", "compose"))]
    gs += [ScalarField(f.space, tuple(v - 1.0 for v in f.values)),
           ScalarField(f.space, (2.0,) * f.space.n),
           scale_field(f, 0.5),
           _integer_field(f.space, rng, 0.0),
           _integer_field(f.space, rng, 0.3)]
    return inst, [(f, g) for g in gs]


SEEDS = range(60)


def _assert_checkers_match(inst, f, g, r=0.5):
    for eps in (0.5, 2.0):
        assert _outcome(check_lips, f, g, eps) == \
            _outcome(ref_check_lips, f, g, eps)
        assert _outcome(check_lsc, f, g, r, eps) == \
            _outcome(ref_check_lsc, f, g, r, eps)
    assert _outcome(check_tz, f, g) == _outcome(ref_check_tz, f, g)
    assert _outcome(check_compact, f, g, inst.nbhd) == \
        _outcome(ref_check_compact, f, g, inst.nbhd)


@pytest.mark.parametrize("seed", SEEDS)
def test_checkers_match_reference_loops_on_ties(seed):
    inst, pairs = _pairs(seed)
    for f, g in pairs:
        _assert_checkers_match(inst, f, g)


HUGE = (-1e308, -1e307, 0.0, 1e307, 1e308, 1.7e308)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("seed", range(40))
def test_checkers_match_reference_loops_on_overflow(seed):
    # values near the float limit make f - g, f - r g and the tz margin
    # overflow to +-inf, and the margin to inf - inf = nan
    rng = np.random.default_rng([seed, 2])
    kind = ("graph", "matrix")[seed % 2]
    inst = gen_random_instance(seed, int(rng.integers(1, 5)), metric_kind=kind)
    n = inst.space.n
    f, g = (ScalarField(inst.space, tuple(rng.choice(HUGE, size=n).tolist()))
            for _ in range(2))
    for r in (0.5, 0.95):
        _assert_checkers_match(inst, f, g, r)
        _assert_checkers_match(inst, f, f, r)
        _assert_checkers_match(inst, f, scale_field(f, r), r)


def test_tie_instances_reach_every_outcome():
    # the instances above tie, and they exercise both sides of each check
    seen = set()
    ties = 0
    for seed in SEEDS:
        inst, pairs = _pairs(seed)
        for f, g in pairs:
            reports = [check_tz(f, g), check_lsc(f, g, 0.5, 0.5)]
            if all(map(math.isfinite, f.values + g.values)):
                reports += [check_lips(f, g, 0.5),
                            check_compact(f, g, inst.nbhd)]
            for report in reports:
                seen.add((report.name, report.hypothesis_ok))
            diffs = [a - b for a, b in zip(f.values, g.values)
                     if math.isfinite(a - b)]
            ties += len(diffs) > len(set(diffs))
    assert seen == {(name, ok) for name in ("tz", "lips", "lsc", "compact")
                    for ok in (True, False)}
    assert ties > 100


@pytest.mark.parametrize("lam", [0.1, 1.0, 1e300, INF])
def test_ekeland_point_matches_reference_loop_on_ties(lam):
    moved = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, 1])
        kind = ("graph", "matrix", "grid")[seed % 3]
        inst = gen_random_instance(seed, int(rng.integers(2, 10)),
                                   metric_kind=kind)
        f = _integer_field(inst.space, rng, 0.25)
        for x0 in f.dom():
            x = ekeland_point(f, x0, lam)
            assert x == ref_ekeland_point(f, x0, lam)
            moved += x != x0
    # with values in 0..3 and distances of at least 0.2, lam >= 1e300
    # admits no move
    assert (moved > 0) == (lam <= 1.0)


# --- the per-point loops that the array paths replaced ------------------
#
# Copies of the code that computed each objective, Ekeland move and field
# one point at a time in Python floats.  The array paths must give the
# same bits, signed zeros and overflowed infinities included.

def loop_least(objective, points):
    values = [objective(p) for p in points]
    least = min(v for v in values if not math.isnan(v))
    return least, points[values.index(least)]


def loop_conclusion(name, f, g, *args, tol=TOL):
    """(slack, witness, least over all, least over the critical set) of a
    checker whose hypothesis holds."""
    pts = f.space.points
    if name == "tz":
        inf_f, inf_g = f.min_finite(), g.min_finite()
        slack, witness = loop_least(
            lambda x: (f.value(x) - inf_f) - (g.value(x) - inf_g), f.dom())
        return slack, witness, inf_f, inf_g
    if name == "lsc":
        r, eps = args
        diff = {p: f.value(p) - r * g.value(p) for p in f.dom()}.get
        m_all, _ = loop_least(diff, f.dom())
        m_crit, witness = loop_least(diff, eps_Crit(f, eps, tol))
    else:
        diff = {p: f.value(p) - g.value(p) for p in pts}.get
        m_all, _ = loop_least(diff, pts)
        crit = (eps_Crit(f, args[0], tol) if name == "lips"
                else eps_crit(f, args[0], 0.0, tol))
        m_crit, witness = loop_least(diff, crit)
    slack = 0.0 if m_all == m_crit else m_all - m_crit
    return slack, witness, m_all, m_crit


def array_conclusion(report):
    least = [v for k, v in report.details.items() if k not in ("eps", "r")]
    return (report.slack, report.witness, *least)


def loop_ekeland_point(f, x0, lam):
    space = f.space
    i = space.index(x0)
    while True:
        best = min((j for j in range(space.n)
                    if f.values[j] <= f.values[i] - lam * space.dist[i, j]),
                   key=lambda j: (f.values[j], j), default=i)
        if best == i:
            return space.points[i]
        i = best


def loop_sublevel_ekeland(f, g, x0, eps, tol=TOL):
    m = set(sublevel_diff(f, g, f.value(x0) - g.value(x0), tol))
    f_m = ScalarField(f.space, tuple(
        v if p in m else INF for p, v in zip(f.space.points, f.values)))
    return loop_ekeland_point(f_m, x0, eps)


def loop_truncate(g, lam):
    lam = float(lam)
    return ScalarField(g.space, tuple(min(v, lam) for v in g.values))


def loop_scale_field(f, r):
    if r == 0:
        return ScalarField(f.space, (0.0,) * f.space.n)
    return ScalarField(f.space, tuple(r * v for v in f.values))


def loop_eps_argmin(f, eps, tol=TOL):
    lo = f.min_finite()
    return tuple(p for p, v in zip(f.space.points, f.values)
                 if v <= lo + eps + tol)


def _bits(build, *args):
    """The values of the field built, bit for bit, or the error raised."""
    try:
        return build(*args).array.tobytes()
    except ParameterError as exc:
        return f"ParameterError: {exc}"


def _signed_zero_field(space, rng, p_inf):
    """Values in {-0.0, 0.0, 1.0, 2.0} and +inf: objectives tie at both
    zeros."""
    vals = rng.choice([-0.0, 0.0, 0.0, -0.0, 1.0, 2.0], size=space.n)
    vals[rng.random(space.n) < p_inf] = INF
    if not np.isfinite(vals).any():
        vals[0] = -0.0
    return ScalarField(space, tuple(vals.tolist()))


def _flip_zeros(f, rng):
    """f with the sign of some of its zeros flipped: the same slopes."""
    vals = np.array(f.values)
    flip = (vals == 0.0) & (rng.random(f.space.n) < 0.5)
    vals[flip] = -vals[flip]
    return ScalarField(f.space, tuple(vals.tolist()))


def _assert_conclusions_match(inst, f, g, r=0.5):
    reports = [(check_tz(f, g), ())]
    for eps in (0.5, 2.0):
        reports.append((check_lsc(f, g, r, eps), (r, eps)))
    if np.isfinite(f.array).all() and np.isfinite(g.array).all():
        reports += [(check_lips(f, g, eps), (eps,)) for eps in (0.5, 2.0)]
        reports.append((check_compact(f, g, inst.nbhd), (inst.nbhd,)))
    held = 0
    for report, args in reports:
        if report.hypothesis_ok:
            assert repr(array_conclusion(report)) == \
                repr(loop_conclusion(report.name, f, g, *args))
            held += 1
    return held


@pytest.mark.parametrize("seed", range(30))
def test_conclusions_match_loops_on_signed_zero_ties(seed):
    rng = np.random.default_rng([seed, 3])
    kind = ("graph", "matrix", "grid")[seed % 3]
    inst = gen_random_instance(seed, int(rng.integers(2, 9)), metric_kind=kind)
    f = _signed_zero_field(inst.space, rng, 0.3 if seed % 2 else 0.0)
    held = 0
    for g in (f, _flip_zeros(f, rng), scale_field(_flip_zeros(f, rng), 0.5),
              truncate(f, -0.0), truncate(_flip_zeros(f, rng), 0.0)):
        held += _assert_conclusions_match(inst, f, g)
    assert held


def test_signed_zero_ties_reach_both_signs():
    # the least objectives above include both zeros, so a tie of 0.0 and
    # -0.0 decides the sign that the report shows
    least = set()
    for seed in range(0, 30, 2):
        rng = np.random.default_rng([seed, 3])
        inst = gen_random_instance(seed, int(rng.integers(2, 9)),
                                   metric_kind=("graph", "matrix", "grid")[seed % 3])
        f = _signed_zero_field(inst.space, rng, 0.0)
        g = _flip_zeros(f, rng)
        for report in (check_lips(f, g, 0.5), check_compact(f, g, inst.nbhd)):
            least.update(map(repr, array_conclusion(report)[2:]))
    assert {"0.0", "-0.0"} <= least


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_conclusions_match_loops_after_overflow():
    # values near the float limit: the tz margins of the pairs whose
    # hypothesis holds reach +inf and nan (inf - inf), and f - g and f - r g
    # overflow to +-inf
    objectives = set()
    for seed in range(40):
        rng = np.random.default_rng([seed, 4])
        kind = ("graph", "matrix")[seed % 2]
        inst = gen_random_instance(seed, int(rng.integers(1, 6)),
                                   metric_kind=kind)
        n = inst.space.n
        f = ScalarField(inst.space, tuple(rng.choice(HUGE, size=n).tolist()))
        g = ScalarField(inst.space,
                        tuple(rng.choice(HUGE + (INF,), size=n).tolist()))
        for r in (0.5, 0.95):
            for h in (g, f, scale_field(f, r), truncate(f, 1e307)):
                _assert_conclusions_match(inst, f, h, r)
                if check_tz(f, h).hypothesis_ok:
                    with np.errstate(invalid="ignore"):
                        margin = ((f.array - f.min_finite())
                                  - (h.array - h.min_finite()))
                    objectives.update(map(repr, margin.tolist()))
    assert {"inf", "nan"} <= objectives


@pytest.mark.parametrize("lam", [1e-300, 0.1, 1.0, INF, math.nan])
def test_ekeland_point_matches_loop(lam):
    moved = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, 5])
        kind = ("graph", "matrix", "grid")[seed % 3]
        inst = gen_random_instance(seed, int(rng.integers(2, 10)),
                                   metric_kind=kind)
        f = (_signed_zero_field if seed % 2 else _integer_field)(
            inst.space, rng, 0.25)
        for x0 in f.dom():
            with np.errstate(invalid="ignore"):   # inf * 0 in the loops
                want = loop_ekeland_point(f, x0, lam)
                ref = ref_ekeland_point(f, x0, lam)
            x = ekeland_point(f, x0, lam)
            assert x == want == ref
            moved += x != x0
    # lam = 1e-300 moves between equal values, where lam * dist is lost in
    # rounding, to the lower index; inf and nan admit no move
    assert (moved > 0) == (lam <= 1.0)


def test_tiny_lambda_moves_to_an_equal_value_of_lower_index(e3):
    # 1.0 - 1e-300 * dist rounds to 1.0, so b and c both qualify from c
    f = ScalarField(e3, (2.0, 1.0, 1.0))
    assert ekeland_point(f, "c", 1e-300) == "b"
    assert loop_ekeland_point(f, "c", 1e-300) == "b"


def test_sublevel_ekeland_matches_the_set_build():
    binds = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, 6])
        kind = ("graph", "matrix", "grid")[seed % 3]
        inst = gen_random_instance(seed, int(rng.integers(2, 12)),
                                   metric_kind=kind)
        f = _integer_field(inst.space, rng, 0.2 if seed % 2 else 0.0)
        for g in (_integer_field(inst.space, rng, 0.0),
                  _signed_zero_field(inst.space, rng, 0.2),
                  scale_field(f, 0.5)):
            for x0 in f.dom():
                for eps in (1e-300, 0.1, 1.0):
                    x = _sublevel_ekeland(f, g, x0, eps, TOL)
                    assert x == loop_sublevel_ekeland(f, g, x0, eps)
                    binds += x != ekeland_point(f, x0, eps)
    # M = {f - g <= (f - g)(x0)} changes the Ekeland point this often
    assert binds > 100


@pytest.mark.parametrize("lam", [0.0, -0.0, 1.0, -1.0, math.nan, INF, -INF])
def test_truncate_matches_loop(lam):
    for seed in range(20):
        rng = np.random.default_rng([seed, 7])
        inst = gen_random_instance(seed, int(rng.integers(1, 9)))
        f = _signed_zero_field(inst.space, rng, 0.3)
        assert _bits(truncate, f, lam) == _bits(loop_truncate, f, lam)


# r * 1e308 overflows; r = inf gives inf * 0 = nan, and ParameterError
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("r", [0.0, -0.0, 0.5, 1.0, 3.0, 1e308, INF])
def test_scale_field_matches_loop(r):
    for seed in range(20):
        rng = np.random.default_rng([seed, 8])
        inst = gen_random_instance(seed, int(rng.integers(1, 9)))
        for f in (_signed_zero_field(inst.space, rng, 0.3),
                  ScalarField(inst.space, tuple(
                      rng.choice(HUGE, size=inst.space.n).tolist()))):
            assert _bits(scale_field, f, r) == _bits(loop_scale_field, f, r)


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, INF])
def test_eps_argmin_matches_loop(eps):
    for seed in range(20):
        rng = np.random.default_rng([seed, 9])
        inst = gen_random_instance(seed, int(rng.integers(1, 9)))
        f = _signed_zero_field(inst.space, rng, 0.3)
        assert eps_argmin(f, eps) == loop_eps_argmin(f, eps)
