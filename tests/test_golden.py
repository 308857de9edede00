"""Golden outputs: the JSON of ``slopes``, ``evp``, ``descent`` and ``check``,
plus Pasch-Hausdorff values and suite reports, on seeded instances of each
kind up to n = 100.

Each case is reduced to the SHA-256 of its canonical JSON (floats written
with ``repr``), so any change in any bit of any output fails the test.
The digests in ``golden_digests.json`` were recorded with the scalar-loop
slope code, and the ``TOL_CASES`` digests with the tolerance comparisons
still spelled inline, before ``config`` decided them.  Record a digest
again only for a change meant to alter outputs, and only where the old
output is shown to be a floating-point artefact, not a result:

    PYTHONPATH=src python tests/test_golden.py

Each suite case names its checks in a literal list, as a suite report
holds its config and runs its checks in that order.  So a check added to
``suite.CHECKS`` moves no digest here; it comes with a golden case of its
own (``test_every_check_runs_in_a_golden_case``).  A new check draws
nothing from the instance rng, which every check after it in a list
shares, and seeds its own generator through ``instances._rng``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

import numpy as np
import pytest

from slopekit import (gen_random_instance, pasch_hausdorff, run_suite,
                      save_instance, scale_field, slope_profile, truncate)
from slopekit.cli import main
from slopekit.suite import CHECKS

DIGESTS = os.path.join(os.path.dirname(__file__), "golden_digests.json")

# (kind, n, p_inf)
INSTANCES = [(kind, n, p_inf)
             for kind in ("graph", "matrix", "grid")
             for n, p_inf in ((7, 0.0), (12, 0.25), (40, 0.0), (100, 0.1))]

# sorted(suite.CHECKS) when each suite case came to name its own checks
RECORDED_CHECKS = [
    "crit_lipschitz", "descent", "determination", "difference_bound",
    "domination_constructors", "evp", "global_ge_local", "log_bound",
    "metric_axioms", "neighborhood_symmetry", "ph_coincidence",
    "restriction_invariance", "slope_scaling", "subadditivity",
    "trivial_inf_dom", "truncation"]

SUITES = {
    "suite-default": {"instances": 60, "checks": RECORDED_CHECKS},
    "suite-broken_truncate": {"instances": 30, "mutation": "broken_truncate",
                              "checks": RECORDED_CHECKS},
    "suite-evp_noncritical": {"instances": 30, "mutation": "evp_noncritical",
                              "checks": RECORDED_CHECKS},
    # neighborhood_symmetry is pinned in a case of its own, so that this
    # digest, recorded without it, stays as it was
    "suite-asymmetric_neighborhood": {
        "instances": 30, "mutation": "asymmetric_neighborhood",
        "checks": ["crit_lipschitz", "descent", "determination",
                   "difference_bound", "domination_constructors", "evp",
                   "global_ge_local", "log_bound", "metric_axioms",
                   "ph_coincidence", "restriction_invariance",
                   "slope_scaling", "subadditivity", "trivial_inf_dom",
                   "truncation"]},
    "suite-asymmetric_neighborhood-symmetry": {
        "instances": 30, "mutation": "asymmetric_neighborhood",
        "checks": ["neighborhood_symmetry"]},
}


# The cases above run at the default tolerance, 1e-9.  These pin the
# tolerance boundary: the suite at an explicit tol of 0 and 1e-3, and one
# instance of each kind under SLOPEKIT_TOL=1e-3.
TOL_SUITES = {"suite-tol-0": 0.0, "suite-tol-1e-3": 1e-3}
TOL_SUITE_CONFIG = {"instances": 60, "checks": RECORDED_CHECKS}
TOL_INSTANCES = [f"tol-1e-3-{kind}-40-0.1" for kind in ("graph", "matrix", "grid")]
TOL_CASES = list(TOL_SUITES) + TOL_INSTANCES


def _instance(kind, n, p_inf):
    inst = gen_random_instance([2024, n], n, metric_kind=kind,
                               field_spec={"f": {"p_inf": p_inf},
                                           "g": {"p_inf": p_inf}})
    f = inst.field("f")
    inst.fields["h"] = scale_field(f, 0.5)
    lo, hi = f.min_finite(), f.max_finite()
    inst.fields["t"] = truncate(f, (lo + hi) / 2.0)
    return inst


def _cli(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "-o", str(out)])
    result = json.loads(out.read_text()) if out.exists() else None
    if out.exists():
        out.unlink()
    return {"exit": code, "output": result, "stderr": err.getvalue()}


def _instance_outputs(kind, n, p_inf, tmp):
    inst = _instance(kind, n, p_inf)
    path = tmp / "inst.json"
    save_instance(inst, path)
    out = tmp / "out.json"
    f = inst.field("f")
    dom = f.dom()
    start = max(dom, key=f.value)
    profile = slope_profile(f, inst.nbhd)
    eps = float(np.median(list(profile.global_.values())))
    res = {
        "profile": {"local": profile.local, "global": profile.global_},
        "ph": {str(e): list(pasch_hausdorff(f, e).values)
               for e in (0.25, eps, 3.0)},
    }
    cmds = {
        "slopes": ["slopes", str(path), "--eps", "0.5", "--eps", repr(eps)],
        "slopes-g": ["slopes", str(path), "--field", "g", "--eps", "1.0"],
        "evp": ["evp", str(path), "--from", start, "--lambda", repr(eps)],
        "evp-small": ["evp", str(path), "--from", dom[0], "--lambda", "0.1"],
        "descent-g": ["descent", str(path), "--from", start],
        "descent-h": ["descent", str(path), "--from", start, "--g", "h"],
        "descent-t": ["descent", str(path), "--from", start, "--g", "t"],
        "descent-global-h": ["descent", str(path), "--from", start, "--g", "h",
                             "--mode", "global", "--eps0", repr(eps)],
    }
    for which in ("tz", "lips", "lsc", "compact"):
        for g in ("g", "h", "t"):
            cmds[f"check-{which}-{g}"] = ["check", str(path), "--which", which,
                                          "--g", g, "--eps", repr(eps)]
    for name, argv in cmds.items():
        res[name] = _cli(argv, out)
    return res


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _compute(case, tmp):
    if case in SUITES:
        return run_suite(SUITES[case])
    if case in TOL_SUITES:
        return run_suite(TOL_SUITE_CONFIG, tol=TOL_SUITES[case])
    if case in TOL_INSTANCES:
        with mock.patch.dict(os.environ, {"SLOPEKIT_TOL": "1e-3"}):
            return _compute(case[len("tol-1e-3-"):], tmp)
    kind, n, p_inf = case.split("-")
    return _instance_outputs(kind, int(n), float(p_inf), tmp)


CASES = [f"{k}-{n}-{p}" for k, n, p in INSTANCES] + list(SUITES) + TOL_CASES


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path):
    with open(DIGESTS) as fh:
        want = json.load(fh)[case]
    assert _digest(_compute(case, tmp_path)) == want


def test_every_check_runs_in_a_golden_case():
    configs = [*SUITES.values(), TOL_SUITE_CONFIG]
    ran = {name for config in configs for name in config["checks"]}
    assert sorted(CHECKS.keys() - ran) == []


if __name__ == "__main__":
    import pathlib
    import tempfile
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            digests[case] = _digest(_compute(case, pathlib.Path(tmp)))
            print(case, digests[case], file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
