"""Property-test driver: every documented invariant over random instances.

Each check takes an instance and returns a list of failure records
(empty means pass).  The driver is deterministic given (seed, config),
aggregates results sorted by instance seed, and archives a replayable
counterexample for every failure.  Deliberate mutations of core
operations can be injected through the config to confirm the suite
actually detects breakage.
"""

import copy
import os
import pickle
import signal
import threading
import warnings
from collections import Counter

import numpy as np

from .config import (_below, _exceeds, _index, _named, _parsed, _shown,
                     _within, resolve_tol)
from .errors import FatalFinding, HypothesisViolation, ParameterError
from .instances import STREAM, _drawer, _expect, _seed, gen_dominated_pair
from .metric_space import NeighborhoodSystem, validate_metric
from .slope_core import (INF, ScalarField, _crit_rows, _points_where,
                         add_fields, eps_Crit, global_slope,
                         log_distance_field, pasch_hausdorff, restrict,
                         scale_field, slopes, sub_fields, sublevel_diff,
                         truncate)
from .variational import (check_compact, check_lips, check_lsc,
                          check_tz, descent_to_critical, ekeland_point,
                          verify_trace)

SCALING_RTOL = 1e-12
_EPS_VALUES = (0.25, 1.0, 3.0)   # the eps levels of the eps-Crit checks


def _fail(detail, **witness):
    return {"detail": detail, "witness": witness}


def default_ops() -> dict:
    return {
        "truncate": truncate,
        "ekeland_point": ekeland_point,
        "nbhd_transform": lambda nbhd: nbhd,
    }


# --- deliberate mutations, used to test the suite's own sensitivity ----

def _broken_truncate(g: ScalarField, lam: float) -> ScalarField:
    # applies the cutoff at a single point only
    vals = list(g.values)
    i = max(g._dom.tolist(), key=lambda j: vals[j])
    vals[i] = min(vals[i], _parsed(float, lam, "lambda"))
    return ScalarField(g.space, tuple(vals))


def _noncritical_ekeland(f: ScalarField, x0, lam: float):
    return x0


def _drop_one_direction(nbhd: NeighborhoodSystem) -> NeighborhoodSystem:
    neighbors = {p: set(q) for p, q in nbhd.neighbors.items()}
    for p in nbhd.points:
        if neighbors[p]:
            neighbors[p].remove(min(neighbors[p]))
            break
    return NeighborhoodSystem(nbhd.points, neighbors)


MUTATIONS = {
    "broken_truncate": lambda ops: ops.update(truncate=_broken_truncate),
    "evp_noncritical": lambda ops: ops.update(ekeland_point=_noncritical_ekeland),
    "asymmetric_neighborhood":
        lambda ops: ops.update(nbhd_transform=_drop_one_direction),
}


# --- individual checks -------------------------------------------------

def check_metric_axioms(inst, rng, ops, tol):
    report = validate_metric(inst.space.dist, tol)
    if report.ok:
        return []
    return [_fail("metric axiom violated", report=report.to_dict())]


def check_neighborhood_symmetry(inst, rng, ops, tol):
    try:
        inst.nbhd.validate()
    except ParameterError as exc:
        return [_fail(f"neighborhood system invalid: {exc}")]
    return []


def _slopes_at(inst, h, idx) -> np.ndarray:
    """The slopes of h at the indices idx, as a 2 x len(idx) array: local
    slopes in row 0, global ones in row 1."""
    return np.array((slopes(h, inst.nbhd)[idx], slopes(h)[idx]))


def _flagged(inst, idx, bad):
    """((row, k), point, kind) for each entry of the 2 x len(idx) mask
    ``bad`` that holds, ordered by point and then local before global."""
    for k, row in zip(*bad.T.nonzero()):
        yield (row, k), inst.space.points[idx[k]], ("local", "global")[row]


def check_slope_scaling(inst, rng, ops, tol):
    f = inst.field("f")
    idx = f._dom
    base = _slopes_at(inst, f, idx)
    failures = []
    for r in (0.0, 0.5, float(rng.uniform(0.0, 3.0))):
        got = _slopes_at(inst, scale_field(f, r), idx)
        want = r * base
        bad = np.abs(got - want) > SCALING_RTOL * np.maximum(1.0, np.abs(want))
        for at, x, kind in _flagged(inst, idx, bad):
            failures.append(_fail(
                f"{kind} slope of {r}*f at {x} is {got[at].item()}, "
                f"expected {want[at].item()}", r=r, x=x))
    return failures


def check_subadditivity(inst, rng, ops, tol):
    f, g = inst.field("f"), inst.field("g")
    h = add_fields(f, g)
    idx = h._dom   # dom f ∩ dom g
    sf, sg, sh = (_slopes_at(inst, q, idx) for q in (f, g, h))
    return [_fail(f"{kind} slope of f+g at {x} exceeds the sum of slopes", x=x)
            for _, x, kind in _flagged(inst, idx, _exceeds(sh, sf + sg, tol))]


def check_difference_bound(inst, rng, ops, tol):
    f, g = inst.field("f"), inst.field("g")
    g_fin = truncate(g, g.max_finite())   # finite-valued version of g
    idx = f._dom
    sf, sg, sd = (_slopes_at(inst, q, idx)
                  for q in (f, g_fin, sub_fields(f, g_fin)))
    return [_fail(f"{kind} slope of f-g at {x} below |slope f| - |slope g|", x=x)
            for _, x, kind in _flagged(inst, idx, _below(sd, sf - sg, tol))]


def check_global_ge_local(inst, rng, ops, tol):
    f = inst.field("f")
    idx = f._dom
    local, global_ = _slopes_at(inst, f, idx)
    return [_fail(f"global slope below local slope at {inst.space.points[i]}",
                  x=inst.space.points[i])
            for i in idx[_below(global_, local, tol)]]


def check_log_bound(inst, rng, ops, tol):
    if inst.space.n < 2:
        return []
    failures = []
    for a_index, a in enumerate(inst.space.points):
        phi = log_distance_field(inst.space, a)
        idx = phi._dom   # every point but a
        bound = 1.0 / inst.space.dist[idx, a_index]
        for i in idx[_exceeds(slopes(phi)[idx], bound, tol)]:
            x = inst.space.points[i]
            failures.append(_fail(
                f"log-distance slope bound fails at {x} (center {a})",
                a=a, x=x))
    return failures


def check_truncation(inst, rng, ops, tol):
    g = inst.field("g")
    lo, hi = g.min_finite(), g.max_finite()
    idx = g._dom
    base = _slopes_at(inst, g, idx)
    failures = []
    for lam in (lo, (lo + hi) / 2.0, float(rng.uniform(lo - 1.0, hi + 1.0))):
        got = _slopes_at(inst, ops["truncate"](g, lam), idx)
        for _, x, kind in _flagged(inst, idx, _exceeds(got, base, tol)):
            failures.append(_fail(
                f"truncation increased the {kind} slope at {x}",
                lam=lam, x=x))
    return failures


def check_crit_lipschitz(inst, rng, ops, tol):
    f = inst.field("f")
    failures = []
    for eps in _EPS_VALUES:
        idx, crit = _crit_rows(f, eps, tol)   # eps_Crit(f, eps, tol)
        v = f.array[idx]
        bad = _exceeds(np.abs(v[:, None] - v[None, :]),
                       eps * inst.space.dist.take(idx, 0).take(idx, 1), tol)
        for a, b in zip(*bad.nonzero()):
            x, y = crit[a], crit[b]
            failures.append(_fail(
                f"f is not {eps}-Lipschitz on {eps}-Crit at ({x}, {y})",
                eps=eps, x=x, y=y))
    return failures


def check_ph_coincidence(inst, rng, ops, tol):
    f = inst.field("f")
    failures = []
    for eps in _EPS_VALUES:
        reg = pasch_hausdorff(f, eps)
        coincide = {x for x, fin, fv, rv in
                    zip(inst.space.points, f._in_dom.tolist(), f.values,
                        reg.values) if fin and _within(abs(fv - rv), 0.0, tol)}
        crit = set(eps_Crit(f, eps, tol))
        if coincide != crit:
            failures.append(_fail(
                f"coincidence set != {eps}-Crit",
                eps=eps, coincide=sorted(coincide), crit=sorted(crit)))
        # the regularization itself must be eps-Lipschitz
        v = reg.array
        bad = _exceeds(np.abs(v[:, None] - v[None, :]), eps * inst.space.dist, tol)
        failures += [_fail("regularization is not eps-Lipschitz", eps=eps,
                           x=inst.space.points[i], y=inst.space.points[j])
                     for i, j in zip(*bad.nonzero()) if i > j]
    return failures


def check_restriction_invariance(inst, rng, ops, tol):
    f, g = inst.field("f"), inst.field("g")
    dom_fg = _points_where(f, g._in_dom)
    if not dom_fg:
        return []
    x0 = dom_fg[int(rng.integers(0, len(dom_fg)))]
    lam = f.value(x0) - g.value(x0)
    m1 = sublevel_diff(f, g, lam, tol)
    f1 = restrict(f, m1)   # point k of f1 is m1[k]
    idx = np.array([inst.space.index(x) for x in m1])
    # slopes of g are +inf off dom g, so a point there never qualifies
    sf, sg = _slopes_at(inst, f, idx), _slopes_at(inst, g, idx)
    s1 = np.array((slopes(f1, inst.nbhd.restrict(m1)), slopes(f1)))
    bad = (sf > sg) & _exceeds(np.abs(s1 - sf), 0.0, tol)
    failures = [_fail(f"{kind} slope changed under restriction at {x}", x=x,
                      lam=lam)
                for _, x, kind in _flagged(inst, idx, bad)]
    # restriction to the sub-level set intersected with an s-critical set
    s = global_slope(f, x0)
    keep = _within(sf[1], s, tol)
    if keep.any():
        m2 = [x for x, k in zip(m1, keep) if k]
        gf, gg = sf[1][keep], sg[1][keep]
        bad2 = (gf > gg) & _exceeds(np.abs(slopes(restrict(f, m2)) - gf), 0.0, tol)
        failures += [_fail(
            f"global slope changed under critical restriction at {x}",
            x=x, lam=lam, s=s) for x, b in zip(m2, bad2) if b]
    return failures


def check_trivial_inf_dom(inst, rng, ops, tol):
    f = inst.field("f")
    if not (slopes(f)[f._dom] < INF).all():
        return [_fail("global slope not finite on all of dom f")]
    return []


def check_evp(inst, rng, ops, tol):
    f = inst.field("f")
    dom = f.dom()
    failures = []
    x0 = dom[int(rng.integers(0, len(dom)))]
    for lam in (0.3, 1.0, float(rng.uniform(0.05, 5.0))):
        x = ops["ekeland_point"](f, x0, lam)
        d = inst.space.distance(x0, x)
        if _exceeds(global_slope(f, x), lam, tol):
            failures.append(_fail(
                f"EVP output not {lam}-critical", x0=x0, lam=lam, x=x))
        if _exceeds(f.value(x), f.value(x0) - lam * d, tol):
            failures.append(_fail(
                "EVP output violates the descent inequality",
                x0=x0, lam=lam, x=x))
        if _exceeds(d, (f.value(x0) - f.min_finite()) / lam, tol):
            failures.append(_fail(
                "EVP output violates the classical distance bound",
                x0=x0, lam=lam, x=x))
    return failures


def check_descent(inst, rng, ops, tol):
    f = inst.field("f")
    r = float(rng.uniform(0.1, 0.9))
    g = scale_field(f, r)
    dom = f.dom()
    x0 = dom[int(rng.integers(0, len(dom)))]
    trace = descent_to_critical(f, g, inst.nbhd, x0, tol=tol)
    failures = [_fail(p, x0=x0, r=r)
                for p in verify_trace(trace, f, g, inst.nbhd, tol)]
    if trace.terminal_flag != "reached-0crit":
        failures.append(_fail("descent did not reach 0crit", x0=x0, r=r))
    return failures


def check_determination(inst, rng, ops, tol):
    f = inst.field("f")
    failures = []
    f_finite = f._in_dom.all()
    for mode in ("truncate", "scale", "compose"):
        pair_seed = int(rng.integers(0, 2 ** 62))
        g, params = gen_dominated_pair(pair_seed, f, mode, tol)
        reports = [check_tz(f, g, tol)]
        if f_finite:
            reports.append(check_lips(f, g, 0.5, tol))
        reports.append(check_lsc(f, g, 0.5, 0.5, tol))
        for report in reports:
            if report.hypothesis_ok and not report.conclusion_ok:
                failures.append(_fail(
                    f"{report.name} falsified on a dominated pair",
                    mode=mode, params=params, report=report.to_dict()))
    if f_finite:
        r = float(rng.uniform(0.1, 0.9))
        g = scale_field(f, r)
        report = check_compact(f, g, inst.nbhd, tol)
        if report.hypothesis_ok and not report.conclusion_ok:
            failures.append(_fail("compact falsified on a scaled pair",
                                  r=r, report=report.to_dict()))
    return failures


def check_domination_constructors(inst, rng, ops, tol):
    # gen_dominated_pair tests its pair for domination and raises a
    # FatalFinding, which run_suite records, when the test fails
    f = inst.field("f")
    for mode in ("truncate", "scale", "compose"):
        gen_dominated_pair(int(rng.integers(0, 2 ** 62)), f, mode, tol)
    return []


CHECKS = {
    "metric_axioms": check_metric_axioms,
    "neighborhood_symmetry": check_neighborhood_symmetry,
    "slope_scaling": check_slope_scaling,
    "subadditivity": check_subadditivity,
    "difference_bound": check_difference_bound,
    "global_ge_local": check_global_ge_local,
    "log_bound": check_log_bound,
    "truncation": check_truncation,
    "crit_lipschitz": check_crit_lipschitz,
    "ph_coincidence": check_ph_coincidence,
    "restriction_invariance": check_restriction_invariance,
    "trivial_inf_dom": check_trivial_inf_dom,
    "evp": check_evp,
    "descent": check_descent,
    "determination": check_determination,
    "domination_constructors": check_domination_constructors,
}

DEFAULT_CONFIG = {
    "seed": 0,
    "instances": 100,
    "max_points": STREAM["max_points"],
    "kinds": list(STREAM["kinds"]),
    "p_inf": list(STREAM["p_inf"]),
    "checks": sorted(CHECKS),
    "mutation": None,
}


def _run_share(cfg, ops, tol, stream):
    """Pass and fail counts by (check name, "pass" or "fail") and the
    counterexample records of the (instance, rng) pairs of ``stream``."""
    counts, records = Counter(), []
    for inst, rng in stream:
        # mutated neighborhoods flow into every check of this instance
        inst.nbhd = ops["nbhd_transform"](inst.nbhd)
        for name in cfg["checks"]:
            try:
                failures = CHECKS[name](inst, rng, ops, tol)
            except FatalFinding as exc:
                failures = [_fail(f"fatal finding: {exc}", payload=exc.witness)]
            except HypothesisViolation as exc:
                failures = [_fail(f"unexpected hypothesis violation: {exc}",
                                  witnesses=exc.witnesses)]
            counts[name, "fail" if failures else "pass"] += 1
            records += [{
                "seed": list(inst.seed),
                "check": name,
                "detail": failure["detail"],
                "witness": failure.get("witness", {}),
                "instance": inst.to_dict(),
            } for failure in failures]
    return counts, records


def _workers(count):
    """How many processes share a batch of ``count`` instances: one per CPU
    of this process's affinity mask, at most one per instance; one where
    fork or the mask is missing, or while another Python thread runs, as
    a forked child would hold that thread's locks but not the thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _forked_shares(run_share, workers):
    """[run_share(k, workers) for k < workers]: share 0 runs here and each
    other share in a forked child, which sends its result back over a pipe
    as one pickle.  None if any share raised an ``Exception`` or fork
    failed.  Every child is reaped before this returns or raises."""
    pids, pipes, statuses = [], [], []
    done = False
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out, warnings.catch_warnings():
                # Python 3.12+ warns at a fork while another OS thread runs,
                # and numpy's OpenBLAS pool is one.  OpenBLAS shuts that pool
                # down at each fork (pthread_atfork) and restarts it at its
                # next call; _workers rules out every Python thread.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                    r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
                if pid == 0:
                    # the child leaves through os._exit whatever happens, so
                    # it never returns into the caller's program; status 1
                    # reports an exception
                    status = 1
                    try:
                        pickle.dump(run_share(k, workers), out)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        shares = [run_share(0, workers)]
        payloads = [pipe.read() for pipe in pipes]
        done = True
    except Exception:
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:   # no child outlives the call
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    if any(statuses):
        return None
    return shares + [pickle.loads(payload) for payload in payloads]


def run_suite(config=None, tol=None) -> dict:
    """Run the configured checks over generated instances.

    Returns a deterministic report: per-check pass/fail counts plus a
    counterexample record (serialized instance, check name, details) for
    every failure, sorted by instance seed.  A malformed config raises
    ``ShapeError`` or ``ParameterError`` before anything is drawn or forked.
    The batch may be shared among forked processes, one per CPU of the
    affinity mask (``_workers``); the report does not depend on how many.
    """
    tol = resolve_tol(tol)
    # the report owns its config: no list in it is the caller's or the default's
    cfg = copy.deepcopy({**DEFAULT_CONFIG, **_expect(
        {} if config is None else config, dict, "suite config")})
    unknown = cfg.keys() - DEFAULT_CONFIG.keys()
    if unknown:
        shown = ", ".join(map(_shown, sorted(unknown, key=_named)))
        raise ParameterError(f"unknown config keys: [{shown}]")
    if not _expect(cfg["checks"], list, "checks"):
        raise ParameterError("checks must be a nonempty list")
    seed = _parsed(_seed, cfg["seed"], "seed")
    count = _parsed(_index, cfg["instances"], "instances")
    if count < 0:
        raise ParameterError(
            f"instances must not be negative, got {_shown(count)}")
    draw = _drawer(seed, cfg["max_points"], cfg["kinds"], cfg["p_inf"])
    names = Counter(map(_named, cfg["checks"]))
    if unknown := names.keys() - CHECKS.keys():
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    if repeated := sorted(name for name, k in names.items() if k > 1):
        raise ParameterError(f"repeated checks: {repeated}")
    ops = default_ops()
    if mutation := cfg["mutation"]:
        if not (isinstance(mutation, str) and mutation in MUTATIONS):
            raise ParameterError(f"unknown mutation {_shown(mutation)}")
        MUTATIONS[mutation](ops)

    def run_share(start, step):
        return _run_share(cfg, ops, tol, map(draw, range(start, count, step)))

    shares = None
    workers = _workers(count)
    if workers > 1:
        shares = _forked_shares(run_share, workers)
    if shares is None:
        # one process, or a worker raised: this run raises the first
        # exception in instance order, as the batch would in one process
        shares = [run_share(0, 1)]
    counts, counterexamples = Counter(), []
    for share_counts, records in shares:
        counts.update(share_counts)
        counterexamples += records
    summary = {name: {"pass": counts[name, "pass"], "fail": counts[name, "fail"]}
               for name in cfg["checks"]}
    counterexamples.sort(key=lambda c: (c["seed"], c["check"]))
    return {
        "config": cfg,
        "summary": summary,
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }


def summary_csv(report: dict) -> str:
    lines = ["check,pass,fail"]
    for name in sorted(report["summary"]):
        row = report["summary"][name]
        lines.append(f"{name},{row['pass']},{row['fail']}")
    return "\n".join(lines) + "\n"
