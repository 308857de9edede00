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
                      check_tz, domination_witnesses, ekeland_point, eps_crit,
                      eps_Crit, gen_dominated_pair, gen_random_instance,
                      scale_field, strict_comparison_witnesses)

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
