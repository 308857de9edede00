"""Constructive Ekeland points, descent traces, and determination checkers.

On a finite space the Ekeland point is computed by a greedy strict-descent
iteration that terminates because f strictly decreases at every move.
Checkers separate hypothesis failures (the instance does not owe the
conclusion) from conclusion failures (a fatal finding: the instance would
contradict a proved statement).
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import (_at_least, _exceeds, _parsed, _quiet, _require_level,
                     _shown, _within, resolve_tol)
from .errors import FatalFinding, HypothesisViolation, ParameterError
from .metric_space import NeighborhoodSystem
from .slope_core import (INF, ScalarField, _crit_rows, _require_in_dom,
                         _require_proper, _same_space, _sublevel_mask,
                         domination_witnesses, local_slope, slopes,
                         strict_comparison_witnesses)


def ekeland_point(f: ScalarField, x0, lam: float):
    """A point x_lam in lam-Crit(f) with f(x_lam) <= f(x0) - lam*dist(x0, x_lam).

    Greedy iteration: move to the f-minimal point of
    S(x) = {y : f(y) <= f(x) - lam*dist(y, x)} (ties broken by point
    order) until S(x) = {x}.
    """
    lam = _require_level(lam, "lambda")
    i = _require_in_dom(f, x0)
    return f.space.points[_ekeland_index(f.array, f.space.dist, i, lam)]


def _ekeland_index(v, dist, i, lam):
    """Ekeland's iteration on the values ``v`` from index i: the first argmin
    of v over S(x_i) until that is i."""
    with _quiet():   # lam d may round to inf: no j that far is in S(x_i)
        while lam < INF:   # lam = inf admits no j, not even i
            cand = (v <= v[i] - lam * dist[i]).nonzero()[0]
            best = cand[v[cand].argmin()] if len(cand) else i
            if best == i:
                break
            i = best
    return i


def descent_step(f: ScalarField, g: ScalarField, nbhd: NeighborhoodSystem,
                 x0, eps: float, mode: str = "local", tol=None):
    """One constrained Ekeland step.

    Returns x in eps-crit(f) (local mode) or eps-Crit(f) (global mode)
    with f(x) <= f(x0) - eps*dist(x, x0) and (f-g)(x) <= (f-g)(x0).
    The step runs the Ekeland iteration on f + i_M, with M the sub-level
    set of f - g at (f-g)(x0) and i_M = 0 on M, +inf off it; restriction
    invariance transfers criticality back to f.
    """
    tol = resolve_tol(tol)
    if mode not in ("local", "global"):
        raise ParameterError(
            f"mode must be 'local' or 'global', got {_shown(mode)}")
    eps = _require_level(eps)
    _require_in_dom(f, x0)
    bad = strict_comparison_witnesses(
        f, g, nbhd if mode == "local" else None, tol)
    if bad:
        raise HypothesisViolation(
            f"strict slope comparison fails at {bad[0]!r}", witnesses=bad)
    return _sublevel_ekeland(f, g, x0, eps, tol)


def _sublevel_ekeland(f, g, x0, eps, tol):
    """The Ekeland point from x0 of f + i_M, M = {f - g <= (f-g)(x0)}: that
    of f on the subspace M, tie-break included, without building M."""
    m = _sublevel_mask(f, g, f.value(x0) - g.value(x0), tol)
    i = _ekeland_index(np.where(m, f.array, INF), f.space.dist,
                       f.space.index(x0), eps)
    return f.space.points[i]


@dataclass
class DescentTrace:
    points: list            # x0, ..., xN
    eps_schedule: list      # eps used at each recorded move (length N)
    step_distances: list    # dist(x_{n+1}, x_n) (length N)
    f_values: list          # f along the trace (length N+1)
    diff_values: list       # (f - g) along the trace (length N+1)
    terminal_flag: str      # "reached-0crit" | "budget-exhausted"

    def to_dict(self) -> dict:
        return asdict(self)


def descent_to_critical(f: ScalarField, g: ScalarField, nbhd: NeighborhoodSystem,
                        x0, eps0: float = 1.0, tol=None) -> DescentTrace:
    """Iterate constrained descent steps, at the levels eps0 / 2^n for
    n = 1..200, until a 0-critical point of f.

    The constraint level is updated to (f-g)(x_n) at every step.  Steps
    that do not move (x already eps_n-critical but not 0-critical) only
    consume levels; recorded steps strictly decrease f, so on a finite
    space the trace has fewer points than the space.  A longer trace would
    realize the impossible escaping branch of the dichotomy and is raised
    as a fatal finding.
    """
    tol = resolve_tol(tol)
    _same_space(f, g)   # also when x0 is already 0-critical
    eps0 = _require_level(eps0, "eps0")
    x = x0
    trace = DescentTrace(
        points=[x0], eps_schedule=[], step_distances=[],
        f_values=[f.value(x0)], diff_values=[f.value(x0) - g.value(x0)],
        terminal_flag="budget-exhausted")
    for n in range(1, 201):
        eps = eps0 / 2.0 ** n
        if _within(local_slope(f, nbhd, x), 0.0, tol):
            break
        # f and g are fixed: the hypothesis that step 1 checks holds for all
        y = (descent_step(f, g, nbhd, x, eps, mode="local", tol=tol) if n == 1
             else _sublevel_ekeland(f, g, x, eps, tol))
        if y != x:
            trace.points.append(y)
            trace.eps_schedule.append(eps)
            trace.step_distances.append(f.space.distance(y, x))
            trace.f_values.append(f.value(y))
            trace.diff_values.append(f.value(y) - g.value(y))
            if len(trace.points) > f.space.n:
                raise FatalFinding(
                    "descent trace longer than the space: escaping branch "
                    "realized on a finite space", witness=trace.to_dict())
            x = y
    if _within(local_slope(f, nbhd, x), 0.0, tol):
        trace.terminal_flag = "reached-0crit"
    return trace


def verify_trace(trace: DescentTrace, f: ScalarField, g: ScalarField,
                 nbhd: NeighborhoodSystem, tol=None) -> list:
    """Brute-force re-check of every trace invariant; returns violations.

    The recorded values must be those of the pair at the trace's points,
    bit for bit: f and f - g at each point, and the distance of each step.
    """
    tol = resolve_tol(tol)
    _same_space(f, g)
    m = len(trace.points)
    if not (len(trace.f_values) == len(trace.diff_values) == m
            and len(trace.eps_schedule) == len(trace.step_distances) == m - 1):
        return ["trace lists have inconsistent lengths"]
    problems = []
    for k, x in enumerate(trace.points):
        fx = f.value(x)
        diff = fx - g.value(x)
        if trace.f_values[k] != fx:
            problems.append(f"point {k}: recorded f = {trace.f_values[k]} "
                            f"!= f({x!r}) = {fx}")
        if trace.diff_values[k] != diff:
            problems.append(f"point {k}: recorded f - g = "
                            f"{trace.diff_values[k]} != (f - g)({x!r}) = {diff}")
    for n, (x, y) in enumerate(zip(trace.points, trace.points[1:])):
        d = f.space.distance(y, x)
        if trace.step_distances[n] != d:
            problems.append(f"step {n}: recorded distance "
                            f"{trace.step_distances[n]} != dist({y!r}, {x!r}) "
                            f"= {d}")
    for n, eps in enumerate(trace.eps_schedule):
        if not eps > 0:   # nan too: the bounds below would then test nothing
            problems.append(f"step {n}: eps {eps} is not positive")
        lhs = trace.f_values[n + 1]
        rhs = trace.f_values[n] - eps * trace.step_distances[n]
        if _exceeds(lhs, rhs, tol):
            problems.append(f"step {n}: f does not decrease by eps*dist "
                            f"({lhs} > {rhs})")
        if _exceeds(trace.diff_values[n + 1], trace.diff_values[n], tol):
            problems.append(f"step {n}: f - g increased along the trace")
    budget = sum(e * d for e, d in zip(trace.eps_schedule, trace.step_distances))
    allowance = trace.f_values[0] - f.min_finite()
    if _exceeds(budget, allowance, tol):
        problems.append(f"eps-weighted length {budget} exceeds "
                        f"f(x0) - inf f = {allowance}")
    if trace.terminal_flag == "reached-0crit":
        if _exceeds(local_slope(f, nbhd, trace.points[-1]), 0.0, tol):
            problems.append("terminal point is not 0-critical")
    return problems


@dataclass
class CheckReport:
    name: str
    hypothesis_ok: bool
    hypothesis_witnesses: list = field(default_factory=list)
    conclusion_ok: bool = None   # None when the hypothesis fails
    witness: str = None
    slack: float = None
    details: dict = field(default_factory=dict)

    def exit_code(self) -> int:
        if not self.hypothesis_ok:
            return 1
        return 0 if self.conclusion_ok else 2

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "hypothesis": "satisfied" if self.hypothesis_ok else "violated",
            "hypothesis_witnesses": list(self.hypothesis_witnesses),
            "conclusion": (None if self.conclusion_ok is None
                           else ("verified" if self.conclusion_ok else "falsified")),
            "witness": self.witness,
            "slack": self.slack,
            "details": self.details,
        }


def _require_finite_everywhere(h: ScalarField, name: str):
    if len(h._dom) < h.space.n:
        raise ParameterError(f"{name} must be finite-valued for this check")


def _least(values, rows):
    """The least of ``values`` at the indices ``rows`` and the first of them
    that attains it, by np.argmin, with its own value: of tied 0.0 and -0.0
    the first is kept.  A nan value, inf - inf after an overflow, is skipped."""
    w = values[rows]
    ok = (w == w).nonzero()[0]
    k = ok[w[ok].argmin()]
    return w[k].item(), rows[k]


def _localized(name, f, diff, rows, crit, tol, names, **params):
    """The report, hypothesis held, that the least of ``diff`` over the
    indices ``rows`` is attained on ``crit``, its infima named ``names``.
    Equal infima, the same overflowed infinity too, give slack 0."""
    m_all, _ = _least(diff, rows)
    m_crit, k = _least(diff, crit)
    slack = 0.0 if m_all == m_crit else m_all - m_crit
    return CheckReport(name, hypothesis_ok=True,
                       conclusion_ok=_at_least(slack, 0.0, tol),
                       witness=f.space.points[k], slack=slack,
                       details=dict(zip(names, (m_all, m_crit)), **params))


def check_tz(f: ScalarField, g: ScalarField, tol=None) -> CheckReport:
    """Global-slope domination forces f - inf f >= g - inf g on dom f."""
    tol = resolve_tol(tol)
    _require_proper(f)
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("tz", hypothesis_ok=False, hypothesis_witnesses=bad)
    inf_f, inf_g = f.min_finite(), g.min_finite()
    with _quiet():   # as Python floats do
        slack, k = _least((f.array - inf_f) - (g.array - inf_g), f._dom)
    return CheckReport(
        "tz", hypothesis_ok=True, conclusion_ok=_at_least(slack, 0.0, tol),
        witness=f.space.points[k], slack=slack,
        details={"inf_f": inf_f, "inf_g": inf_g})


def check_lips(f: ScalarField, g: ScalarField, eps: float, tol=None) -> CheckReport:
    """For finite-valued dominated pairs, inf(f-g) is attained on eps-Crit f."""
    tol = resolve_tol(tol)
    eps = _require_level(eps)
    _require_finite_everywhere(f, "f")
    _require_finite_everywhere(g, "g")
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("lips", hypothesis_ok=False, hypothesis_witnesses=bad)
    with _quiet():   # f - g may round to ±inf
        return _localized("lips", f, f.array - g.array, np.arange(f.space.n),
                          _crit_rows(f, eps, tol)[0], tol,
                          ("inf_all", "inf_crit"), eps=eps)


def check_lsc(f: ScalarField, g: ScalarField, r: float, eps: float,
              tol=None) -> CheckReport:
    """inf over dom f of (f - r g) equals its inf over eps-Crit f, r in (0,1)."""
    tol = resolve_tol(tol)
    r = _parsed(float, r, "r")
    if not 0 < r < 1:
        raise ParameterError(f"r must be in (0, 1), got {r}")
    eps = _require_level(eps)
    _require_proper(f)
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("lsc", hypothesis_ok=False, hypothesis_witnesses=bad)
    # f finite and g = +inf give f - r g = -inf: the domain convention
    with _quiet():   # inf - inf off dom f
        return _localized("lsc", f, f.array - r * g.array, f._dom,
                          _crit_rows(f, eps, tol)[0], tol,
                          ("inf_dom", "inf_crit"), r=r, eps=eps)


def check_compact(f: ScalarField, g: ScalarField, nbhd: NeighborhoodSystem,
                  tol=None) -> CheckReport:
    """Strict local-slope comparison localizes inf(f-g) on 0crit f."""
    tol = resolve_tol(tol)
    _require_finite_everywhere(f, "f")
    _require_finite_everywhere(g, "g")
    bad = strict_comparison_witnesses(f, g, nbhd, tol)
    if bad:
        return CheckReport("compact", hypothesis_ok=False,
                           hypothesis_witnesses=bad)
    # 0-crit f is where the local slope is at most tol: f is finite
    with _quiet():   # f - g may round to ±inf
        return _localized("compact", f, f.array - g.array, np.arange(f.space.n),
                          _within(slopes(f, nbhd), 0.0, tol).nonzero()[0], tol,
                          ("inf_all", "inf_crit0"))
