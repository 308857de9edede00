"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee over large batches of generated
instances and prints a single pass/fail line.  Tolerances are stated
inline; all batches are seeded and deterministic.
"""

import math
import time

import numpy as np

from slopekit import (check_lips, check_lsc, check_tz, gen_dominated_pair,
                      gen_random_pl, scale_field, mr_check, PLConvex)
from slopekit.instances import instance_stream
from slopekit.suite import (check_crit_lipschitz, check_descent,
                            check_difference_bound, check_evp,
                            check_global_ge_local, check_log_bound,
                            check_ph_coincidence, check_restriction_invariance,
                            check_slope_scaling, check_subadditivity,
                            check_truncation, default_ops, run_suite)

from pl_oracle import definitional_global_slope

TOL = 1e-9


def _verdict(label, failures):
    ok = not failures
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, failures[:5]


def test_acceptance_1_slope_calculus():
    """1000 instances: scaling exact to 1e-12 relative, subadditivity and
    difference bounds with slack >= -1e-9, global >= local, under 10 s."""
    ops = default_ops()
    failures = []
    start = time.perf_counter()
    for inst, rng in instance_stream(1000, 101):
        failures += check_slope_scaling(inst, rng, ops, TOL)
        failures += check_subadditivity(inst, rng, ops, TOL)
        failures += check_difference_bound(inst, rng, ops, TOL)
        failures += check_global_ge_local(inst, rng, ops, TOL)
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append({"detail": f"runtime {elapsed:.2f}s exceeds 10s"})
    _verdict("acceptance 1 (slope calculus, 1000 instances)", failures)


def test_acceptance_2_slope_bounds():
    """1000 instances x 3 eps: log-distance bound, truncation monotonicity,
    eps-Lipschitz on eps-Crit, restriction invariance, and the coincidence
    set of the regularization, all with zero violations at 1e-9."""
    ops = default_ops()
    failures = []
    for inst, rng in instance_stream(1000, 202):
        failures += check_log_bound(inst, rng, ops, TOL)
        failures += check_truncation(inst, rng, ops, TOL)
        failures += check_crit_lipschitz(inst, rng, ops, TOL)
        failures += check_ph_coincidence(inst, rng, ops, TOL)
        failures += check_restriction_invariance(inst, rng, ops, TOL)
    _verdict("acceptance 2 (bounds and invariances, 1000 instances x 3 eps)", failures)


def test_acceptance_3_ekeland():
    """1002 (instance, start, lambda) triples: the returned point is
    lambda-critical, satisfies the descent inequality with slack >= -1e-9,
    and lies within the classical distance bound."""
    ops = default_ops()
    failures = []
    triples = 0
    for inst, rng in instance_stream(334, 303):
        failures += check_evp(inst, rng, ops, TOL)   # three lambdas each
        triples += 3
    assert triples >= 1000
    _verdict(f"acceptance 3 (Ekeland points, {triples} triples)", failures)


def test_acceptance_4_determination():
    """1000 dominated pairs per constructor mode: no checker conclusion is
    ever falsified while its hypothesis holds; deliberately violating
    pairs are classified as hypothesis violations (exit 1, never 2)."""
    failures = []
    per_mode = {m: 0 for m in ("truncate", "scale", "compose")}
    for inst, rng in instance_stream(1000, 404):
        f = inst.field("f")
        f_finite = all(math.isfinite(v) for v in f.values)
        for mode in per_mode:
            g, params = gen_dominated_pair(int(rng.integers(0, 2 ** 62)),
                                           f, mode, TOL)
            per_mode[mode] += 1
            reports = [check_tz(f, g, TOL),
                       check_lsc(f, g, 0.5, 0.5, TOL)]
            if f_finite:
                reports.append(check_lips(f, g, 0.5, TOL))
            for report in reports:
                if report.hypothesis_ok and not report.conclusion_ok:
                    failures.append({"detail": f"{report.name} falsified",
                                     "mode": mode, "params": params})
    assert all(v >= 1000 for v in per_mode.values())
    # violating pairs: g with strictly larger slopes must exit 1, never 2
    for inst, rng in instance_stream(100, 405):
        f = inst.field("f")
        if not all(math.isfinite(v) for v in f.values):
            continue
        if all(v == f.values[0] for v in f.values):
            continue   # constant f: doubling it still dominates
        g = scale_field(f, 2.0)
        for report in (check_tz(f, g, TOL),
                       check_lips(f, g, 0.5, TOL),
                       check_lsc(f, g, 0.5, 0.5, TOL)):
            if report.exit_code() != 1:
                failures.append({"detail": f"{report.name} misclassified a "
                                 f"hypothesis violation as {report.exit_code()}"})
    _verdict("acceptance 4 (determination, 1000 pairs per mode)", failures)


def test_acceptance_5_descent():
    """500 strict-comparison instances (g = r f): descent reaches a
    0-critical point in at most n_points steps, every trace invariant
    holds including the eps-weighted length budget, and the escaping
    branch never triggers."""
    ops = default_ops()
    failures = []
    for inst, rng in instance_stream(500, 505):
        failures += check_descent(inst, rng, ops, TOL)
    _verdict("acceptance 5 (descent dichotomy, 500 instances)", failures)


def test_acceptance_6_convex1d():
    """200 random PL convex functions: the closed-form slope matches a
    10^4-point sampling of the definitional slope within 1e-9; on 200
    identical-slope pairs the comparison returns a constant with
    max |f - g - c| <= 1e-9; perturbing any slope by >= 1e-3 is always
    reported as a mismatch."""
    failures = []
    for i in range(200):
        f = gen_random_pl([606, i])
        lo, hi = f.knots[0] - 2.0, f.knots[-1] + 2.0
        probes = list(f.knots)
        probes += [(a + b) / 2 for a, b in zip(f.knots, f.knots[1:])]
        probes += [lo, hi]
        # 10^4 samples: a uniform grid plus two points flanking each probe
        # inside its linear piece, so the defining sup is actually attained
        h = 1e-3
        ys = np.concatenate([np.linspace(lo, hi, 10000),
                             [p - h for p in probes],
                             [p + h for p in probes]])
        for x in probes:
            # keep the flanking points, drop near-coincident grid points
            # whose tiny gap would amplify rounding noise
            approx = definitional_global_slope(f, x, ys[np.abs(ys - x) > 0.9 * h])
            if abs(approx - f.slope(x)) > TOL:
                failures.append({"detail": "slope disagrees with sampling",
                                 "i": i, "x": x, "closed_form": f.slope(x),
                                 "sampled": approx})
    rng = np.random.default_rng(607)
    for i in range(200):
        f = gen_random_pl([608, i])
        shift = float(rng.uniform(-10.0, 10.0))
        g = PLConvex(f.knots, f.slopes, f.anchor + shift)
        res = mr_check(f, g, TOL)
        if not res.matched:
            failures.append({"detail": "identical slope data not matched", "i": i})
            continue
        xs = np.linspace(f.knots[0] - 3.0, f.knots[-1] + 3.0, 500)
        gap = np.max(np.abs(f.values(xs) - g.values(xs) - res.constant))
        if gap > TOL:
            failures.append({"detail": f"constant off by {gap}", "i": i})
        slopes = list(f.slopes)
        j = int(rng.integers(0, len(slopes)))
        delta = float(rng.uniform(1e-3, 0.1))
        slopes[j:] = [s + delta for s in slopes[j:]]
        mutated = PLConvex(f.knots, tuple(slopes), f.anchor)
        if mr_check(f, mutated, TOL).matched:
            failures.append({"detail": "perturbed pair not flagged", "i": i,
                             "slope_index": j, "delta": delta})
    _verdict("acceptance 6 (convex 1D, 200 functions / 200 pairs)", failures)


def test_acceptance_7_mutation_sensitivity():
    """Each deliberately broken operation causes at least one suite
    failure with an archived, replayable counterexample."""
    targets = {"broken_truncate": "truncation",
               "evp_noncritical": "evp",
               "asymmetric_neighborhood": "neighborhood_symmetry"}
    failures = []
    for mutation, check in targets.items():
        report = run_suite({"instances": 40, "max_points": 10,
                            "mutation": mutation})
        hits = [c for c in report["counterexamples"]
                if c["check"] == check and c.get("instance")]
        if report["ok"] or not hits:
            failures.append({"detail": f"mutation {mutation} went undetected"})
    _verdict("acceptance 7 (mutation sensitivity, 3 mutations)", failures)
