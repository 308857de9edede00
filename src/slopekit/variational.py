"""Constructive Ekeland points, descent traces, and determination checkers.

On a finite space the Ekeland point is computed by a greedy strict-descent
iteration that terminates because f strictly decreases at every move.
Checkers separate hypothesis failures (the instance does not owe the
conclusion) from conclusion failures (a fatal finding: the instance would
contradict a proved statement).
"""

import math
from dataclasses import dataclass, field

from .config import resolve_tol
from .errors import (DomainError, FatalFinding, HypothesisViolation,
                     ImproperFieldError, ParameterError)
from .metric_space import NeighborhoodSystem
from .slope_core import (INF, ScalarField, domination_witnesses, eps_crit,
                         eps_Crit, local_slope, sublevel_diff,
                         strict_comparison_witnesses)


def ekeland_point(f: ScalarField, x0, lam: float):
    """A point x_lam in lam-Crit(f) with f(x_lam) <= f(x0) - lam*dist(x0, x_lam).

    Greedy iteration: move to the f-minimal point of
    S(x) = {y : f(y) <= f(x) - lam*dist(y, x)} (ties broken by point
    order) until S(x) = {x}.
    """
    if lam <= 0:
        raise ParameterError(f"lambda must be positive, got {lam}")
    space = f.space
    i = space.index(x0)
    if not math.isfinite(f.values[i]):
        raise DomainError(f"start point {x0!r} is outside dom f")
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
        raise ParameterError(f"mode must be 'local' or 'global', got {mode!r}")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    i = f.space.index(x0)
    if not math.isfinite(f.values[i]):
        raise DomainError(f"start point {x0!r} is outside dom f")
    bad = strict_comparison_witnesses(
        f, g, nbhd if mode == "local" else None, tol)
    if bad:
        raise HypothesisViolation(
            f"strict slope comparison fails at {bad[0]!r}", witnesses=bad)
    return _sublevel_ekeland(f, g, x0, eps, tol)


def _sublevel_ekeland(f, g, x0, eps, tol):
    """The Ekeland point from x0 of f + i_M, M = {f - g <= (f-g)(x0)}: that
    of f on the subspace M, tie-break included, without building M."""
    m = set(sublevel_diff(f, g, f.value(x0) - g.value(x0), tol))
    f_m = ScalarField(f.space, tuple(
        v if p in m else INF for p, v in zip(f.space.points, f.values)))
    return ekeland_point(f_m, x0, eps)


@dataclass
class DescentTrace:
    points: list            # x0, ..., xN
    eps_schedule: list      # eps used at each recorded move (length N)
    step_distances: list    # dist(x_{n+1}, x_n) (length N)
    f_values: list          # f along the trace (length N+1)
    diff_values: list       # (f - g) along the trace (length N+1)
    terminal_flag: str      # "reached-0crit" | "budget-exhausted"

    def to_dict(self) -> dict:
        return {
            "points": list(self.points),
            "eps_schedule": list(self.eps_schedule),
            "step_distances": list(self.step_distances),
            "f_values": list(self.f_values),
            "diff_values": list(self.diff_values),
            "terminal_flag": self.terminal_flag,
        }


def default_eps_schedule(eps0: float = 1.0, length: int = 200):
    """eps_n = eps0 / 2^n, n = 1..length."""
    return [eps0 / 2.0 ** n for n in range(1, length + 1)]


def descent_to_critical(f: ScalarField, g: ScalarField, nbhd: NeighborhoodSystem,
                        x0, eps_schedule=None, eps0: float = 1.0,
                        tol=None) -> DescentTrace:
    """Iterate constrained descent steps until a 0-critical point of f.

    The constraint level is updated to (f-g)(x_n) at every step.  Steps
    that do not move (x already eps_n-critical but not 0-critical) only
    consume schedule entries; recorded steps strictly decrease f, so on a
    finite space the trace has fewer points than the space.  A longer
    trace would realize the impossible escaping branch of the dichotomy
    and is raised as a fatal finding.
    """
    tol = resolve_tol(tol)
    if eps_schedule is None:
        eps_schedule = default_eps_schedule(eps0)
    else:
        eps_schedule = [float(e) for e in eps_schedule]
        if any(e <= 0 for e in eps_schedule):
            raise ParameterError("eps schedule must be positive")
        if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
            raise ParameterError("eps schedule must be strictly decreasing")

    x = x0
    trace = DescentTrace(
        points=[x0], eps_schedule=[], step_distances=[],
        f_values=[f.value(x0)], diff_values=[f.value(x0) - g.value(x0)],
        terminal_flag="budget-exhausted")
    checked = False
    for eps in eps_schedule:
        if local_slope(f, nbhd, x) <= tol:
            trace.terminal_flag = "reached-0crit"
            break
        if checked:
            # f and g are fixed, so the first step's hypothesis check holds
            y = _sublevel_ekeland(f, g, x, eps, tol)
        else:
            y = descent_step(f, g, nbhd, x, eps, mode="local", tol=tol)
            checked = True
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
    else:
        if local_slope(f, nbhd, x) <= tol:
            trace.terminal_flag = "reached-0crit"
    return trace


def verify_trace(trace: DescentTrace, f: ScalarField, g: ScalarField,
                 nbhd: NeighborhoodSystem, tol=None) -> list:
    """Brute-force re-check of every trace invariant; returns violations."""
    tol = resolve_tol(tol)
    problems = []
    for n, eps in enumerate(trace.eps_schedule):
        lhs = trace.f_values[n + 1]
        rhs = trace.f_values[n] - eps * trace.step_distances[n]
        if lhs > rhs + tol:
            problems.append(f"step {n}: f does not decrease by eps*dist "
                            f"({lhs} > {rhs})")
        if trace.diff_values[n + 1] > trace.diff_values[n] + tol:
            problems.append(f"step {n}: f - g increased along the trace")
    budget = sum(e * d for e, d in zip(trace.eps_schedule, trace.step_distances))
    allowance = trace.f_values[0] - f.min_finite()
    if budget > allowance + tol:
        problems.append(f"eps-weighted length {budget} exceeds "
                        f"f(x0) - inf f = {allowance}")
    if trace.terminal_flag == "reached-0crit":
        if local_slope(f, nbhd, trace.points[-1]) > tol:
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
    if any(v == INF for v in h.values):
        raise ParameterError(f"{name} must be finite-valued for this check")


def check_tz(f: ScalarField, g: ScalarField, tol=None) -> CheckReport:
    """Global-slope domination forces f - inf f >= g - inf g on dom f."""
    tol = resolve_tol(tol)
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


def check_lips(f: ScalarField, g: ScalarField, eps: float, tol=None) -> CheckReport:
    """For finite-valued dominated pairs, inf(f-g) is attained on eps-Crit f."""
    tol = resolve_tol(tol)
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    _require_finite_everywhere(f, "f")
    _require_finite_everywhere(g, "g")
    bad = domination_witnesses(f, g, tol)
    if bad:
        return CheckReport("lips", hypothesis_ok=False, hypothesis_witnesses=bad)
    diff = {p: f.value(p) - g.value(p) for p in f.space.points}
    m_all = min(diff.values())
    crit = eps_Crit(f, eps, tol)
    m_crit = min(diff[p] for p in crit)
    witness = min((p for p in crit if diff[p] == m_crit),
                  key=f.space.index)
    slack = m_all - m_crit   # <= 0 always; equality means verified
    return CheckReport(
        "lips", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_all": m_all, "inf_crit": m_crit, "eps": eps})


def check_lsc(f: ScalarField, g: ScalarField, r: float, eps: float,
              tol=None) -> CheckReport:
    """inf over dom f of (f - r g) equals its inf over eps-Crit f, r in (0,1)."""
    tol = resolve_tol(tol)
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
        # domain convention: g = +inf with f finite gives -inf
        gv = g.value(p)
        return -INF if gv == INF else f.value(p) - r * gv

    dom = f.dom()
    m_dom = min(diff(p) for p in dom)
    crit = eps_Crit(f, eps, tol)
    m_crit = min(diff(p) for p in crit)
    if m_dom == -INF and m_crit == -INF:
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
    diff = {p: f.value(p) - g.value(p) for p in f.space.points}
    m_all = min(diff.values())
    crit0 = eps_crit(f, nbhd, 0.0, tol)
    m_crit = min(diff[p] for p in crit0)
    witness = min((p for p in crit0 if diff[p] == m_crit), key=f.space.index)
    slack = m_all - m_crit
    return CheckReport(
        "compact", hypothesis_ok=True, conclusion_ok=slack >= -tol,
        witness=witness, slack=slack,
        details={"inf_all": m_all, "inf_crit0": m_crit})
