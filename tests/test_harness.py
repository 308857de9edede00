import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (CheckReport, HypothesisViolation, ImproperFieldError,
                      ParameterError, eps_argmin, gen_dominated_pair,
                      gen_random_instance, gen_random_pl, global_slope,
                      instance_from_dict, load_instance, run_suite,
                      save_instance, summary_csv)
from slopekit import metric_space, suite
from slopekit.config import resolve_tol
from slopekit.instances import instance_stream

INF = math.inf
TOL = 1e-9


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["graph", "matrix", "grid"])
    def test_json_round_trip(self, kind, tmp_path):
        inst = gen_random_instance(42, 7, metric_kind=kind,
                                   field_spec={"f": {"p_inf": 0.2}, "g": {}})
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back == inst
        assert back.to_json() == inst.to_json()

    def test_equality_ignores_the_specs(self):
        inst = gen_random_instance(42, 6, metric_kind="grid")
        respelled = dataclasses.replace(inst, metric_spec={"kind": "matrix"},
                                        nbhd_spec=None)
        assert respelled.nbhd_spec["kind"] == "explicit"
        assert respelled == inst
        assert dataclasses.replace(inst, seed=7) != inst
        assert dataclasses.replace(inst, provenance={}) != inst
        assert dataclasses.replace(inst, fields={}) != inst
        assert (inst == inst.to_dict()) is False

    def test_inf_encoding(self):
        inst = gen_random_instance(3, 6, field_spec={"f": {"p_inf": 0.5}})
        obj = inst.to_dict()
        vals = obj["fields"]["f"]
        assert any(v == "inf" for v in vals)
        assert instance_from_dict(obj).field("f").values == inst.field("f").values

    def test_provenance_recorded(self):
        inst = gen_random_instance([7, 1], 5)
        prov = inst.provenance
        assert prov["generator"] == "gen_random_instance"
        assert "PCG64" in prov["algorithm"]
        assert prov["params"]["seed"] == [7, 1]

    def test_grid_instance_loads_in_one_build(self, monkeypatch):
        inst = gen_random_instance([3, 1], 10, metric_kind="grid")
        obj = inst.to_dict()
        calls = []
        validate = metric_space.validate_metric
        monkeypatch.setattr(metric_space, "validate_metric",
                            lambda *args: calls.append(args) or validate(*args))
        back = instance_from_dict(obj)
        assert len(calls) == 1
        assert back == inst and back.to_json() == inst.to_json()

    def test_grid_neighborhoods_need_a_grid_metric(self):
        with pytest.raises(ParameterError):
            instance_from_dict({"points": ["a", "b"],
                                "metric": {"kind": "matrix",
                                           "dist": [[0, 1], [1, 0]]},
                                "neighborhoods": {"kind": "grid"}})

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError):
            gen_random_instance(0, 5, metric_kind="hyperbolic")
        with pytest.raises(ParameterError):
            instance_from_dict({"points": ["a"],
                                "metric": {"kind": "nope"},
                                "neighborhoods": {"kind": "all"}})


class TestGenerators:
    @pytest.mark.parametrize("kind", ["graph", "matrix", "grid"])
    def test_deterministic(self, kind):
        a = gen_random_instance([11, 2], 8, metric_kind=kind)
        b = gen_random_instance([11, 2], 8, metric_kind=kind)
        assert a.to_json() == b.to_json()

    def test_seeds_differ(self):
        a = gen_random_instance(1, 8)
        b = gen_random_instance(2, 8)
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must not be negative, got -1"),
        ([5, -2], "seed must not be negative, got -2"),
        ("s", "malformed seed: 's'"),
    ])
    def test_bad_seed_refused(self, seed, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            gen_random_instance(seed, 4)

    # every seeded generator reads its seed through instances._rng; these
    # raised numpy's TypeError or ValueError
    @pytest.mark.parametrize("call,message", [
        (lambda f: gen_dominated_pair(-1, f), "seed must not be negative, got -1"),
        (lambda f: gen_dominated_pair(5.5, f), "malformed seed: 5.5"),
        (lambda f: gen_random_pl(-2), "seed must not be negative, got -2"),
        (lambda f: gen_random_pl("s"), "malformed seed: 's'"),
        (lambda f: next(instance_stream(2, -1)),
         "seed must not be negative, got -1"),
    ], ids=["dominated-negative", "dominated-fraction", "pl-negative",
            "pl-string", "stream-negative"])
    def test_bad_seed_refused_by_every_generator(self, call, message):
        f = gen_random_instance(3, 5).field("f")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call(f)

    @pytest.mark.parametrize("seed, same", [(5.0, 5), ([2024.0, 7], [2024, 7])],
                             ids=["float", "float-list"])
    def test_integral_float_seed_every_generator(self, seed, same):
        f = gen_random_instance(3, 5).field("f")
        assert gen_dominated_pair(seed, f, "compose")[1] == \
            gen_dominated_pair(same, f, "compose")[1]
        assert gen_random_pl(seed) == gen_random_pl(same)

    @pytest.mark.parametrize("seed", [5, [2024, 7], (3, 1), np.int64(9)],
                             ids=["int", "list", "tuple", "numpy-int"])
    def test_seeds_keep_their_streams(self, seed):
        """A seed numpy took before _rng still draws the same numbers."""
        f = gen_random_instance(3, 5).field("f")
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(f.min_finite(), f.max_finite()))
        r = float(rng.uniform(0.0, 1.0))
        assert gen_dominated_pair(seed, f, "compose")[1] == {
            "mode": "compose", "lam": lam, "r": r}
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        assert len(gen_random_pl(seed).knots) == k

    @pytest.mark.parametrize("kind", ["graph", "matrix", "grid"])
    @pytest.mark.parametrize("seed, same", [(5.0, 5), ([2024.0, 7], [2024, 7])],
                             ids=["float", "float-list"])
    def test_integral_float_seed(self, seed, same, kind):
        """The generator is seeded with the seed it records."""
        assert gen_random_instance(seed, 5, metric_kind=kind).to_dict() == \
            gen_random_instance(same, 5, metric_kind=kind).to_dict()

    def test_neighborhoods_symmetric(self):
        for seed in range(20):
            inst = gen_random_instance(seed, 6,
                                       metric_kind=["graph", "matrix", "grid"][seed % 3])
            inst.nbhd.validate()

    def test_p_inf_one_gives_improper_field(self):
        inst = gen_random_instance(0, 5, field_spec={"f": {"p_inf": 1.0}})
        f = inst.field("f")
        assert not f.is_proper()
        with pytest.raises(ImproperFieldError):
            eps_argmin(f, 1.0)

    def test_p_inf_zero_gives_finite_field(self):
        inst = gen_random_instance(0, 5, field_spec={"f": {"p_inf": 0.0}})
        assert all(v != INF for v in inst.field("f").values)

    def test_single_point_space(self):
        inst = gen_random_instance(0, 1)
        assert inst.space.n == 1

    def test_random_pl_deterministic_and_convex(self):
        for seed in range(30):
            f = gen_random_pl(seed)
            assert f == gen_random_pl(seed)
            assert all(b >= a for a, b in zip(f.slopes, f.slopes[1:]))
            assert all(b > a for a, b in zip(f.knots, f.knots[1:]))


class TestDominatedPair:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_independent_brute_check(self, seed):
        inst = gen_random_instance([seed], 7, field_spec={"f": {"p_inf": 0.1}})
        f = inst.field("f")
        for k, mode in enumerate(("truncate", "scale", "compose")):
            g, params = gen_dominated_pair([seed, k], f, mode)
            assert params["mode"] == mode
            for x in f.dom():
                assert global_slope(g, x) <= global_slope(f, x) + TOL

    def test_improper_base_rejected(self):
        inst = gen_random_instance(0, 4, field_spec={"f": {"p_inf": 1.0}})
        with pytest.raises(ImproperFieldError) as info:
            gen_dominated_pair(0, inst.field("f"), "scale")
        assert str(info.value) == "f is identically +inf"

    def test_unknown_mode(self):
        inst = gen_random_instance(0, 4)
        with pytest.raises(ParameterError):
            gen_dominated_pair(0, inst.field("f"), "square")


@pytest.mark.parametrize("p_inf,message", [
    (math.nan, "p_inf must be in [0, 1], got nan"),
    (1.5, "p_inf must be in [0, 1], got 1.5"),
    (-0.0001, "p_inf must be in [0, 1], got -0.0001"),
    ("x", "malformed p_inf: 'x'"),
    (None, "malformed p_inf: None"),
])
def test_p_inf_refused_before_the_metric_is_built(monkeypatch, p_inf, message):
    from slopekit import instances
    monkeypatch.setattr(instances, "metric_closure", None)
    with pytest.raises(ParameterError) as info:
        gen_random_instance(0, 4, metric_kind="matrix",
                            field_spec={"f": {}, "g": {"p_inf": p_inf}})
    assert str(info.value) == message


@pytest.mark.parametrize("n, kind, message", [
    (0, "graph", "need at least one point, got 0"),
    (1, "grid", "grid instances need at least two points"),
])
def test_too_few_points_refused(n, kind, message):
    with pytest.raises(ParameterError) as info:
        gen_random_instance(0, n, metric_kind=kind)
    assert str(info.value) == message


class TestSuite:
    def test_clean_run_passes(self):
        report = run_suite({"instances": 24, "max_points": 8})
        assert report["ok"]
        assert not report["counterexamples"]
        for row in report["summary"].values():
            assert row["fail"] == 0 and row["pass"] == 24

    def test_deterministic(self):
        cfg = {"instances": 12, "max_points": 7}
        a = run_suite(cfg)
        b = run_suite(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unknown_check_rejected(self):
        with pytest.raises(ParameterError):
            run_suite({"checks": ["not_a_check"]})
        with pytest.raises(ParameterError):
            run_suite({"mutation": "not_a_mutation"})

    @pytest.mark.parametrize("mutation,check", [
        ("broken_truncate", "truncation"),
        ("evp_noncritical", "evp"),
        ("asymmetric_neighborhood", "neighborhood_symmetry"),
    ])
    def test_mutation_detected_with_counterexample(self, mutation, check):
        report = run_suite({"instances": 24, "max_points": 8,
                            "mutation": mutation})
        assert not report["ok"]
        hits = [c for c in report["counterexamples"] if c["check"] == check]
        assert hits
        # every counterexample is replayable from its archived instance
        replay = instance_from_dict(hits[0]["instance"])
        assert replay.space.n >= 1

    def test_symmetry_check_sees_the_mutated_system(self):
        # the mutation breaks every system with a neighbour pair; applying
        # it a second time inside the check could mend the first break
        from slopekit.instances import instance_stream
        report = run_suite({"instances": 60,
                            "mutation": "asymmetric_neighborhood",
                            "checks": ["neighborhood_symmetry"]})
        broken = sum(any(inst.nbhd.neighbors.values())
                     for inst, _ in instance_stream(60, 0))
        assert report["summary"]["neighborhood_symmetry"]["fail"] == broken
        assert broken == 58

    def test_symmetry_messages_independent_of_hash_seed(self):
        code = ("import json; from slopekit import run_suite; "
                "print(json.dumps(run_suite({'instances': 60, "
                "'mutation': 'asymmetric_neighborhood', "
                "'checks': ['neighborhood_symmetry']}), sort_keys=True))")
        src = os.path.dirname(os.path.dirname(metric_space.__file__))
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src,
                                 "PYTHONHASHSEED": str(seed)}).stdout
            for seed in (0, 1)}
        assert len(outputs) == 1

    def test_non_dominated_constructor_is_a_fatal_finding(self, monkeypatch):
        from slopekit import ScalarField, instances

        def steep_truncate(g, lam):
            # slope of at least 1e6 / d at the last point: never dominated
            return ScalarField(g.space, tuple(1e6 * k for k in range(g.space.n)))

        monkeypatch.setattr(instances, "truncate", steep_truncate)
        cfg = {"instances": 12, "max_points": 6, "p_inf": [0.0],
               "checks": ["domination_constructors"]}
        report = run_suite(cfg)
        multi_point = sum(inst.space.n > 1 for inst, _ in
                          instances.instance_stream(12, 0, 6, p_inf=[0.0]))
        assert multi_point > 0
        assert report["summary"]["domination_constructors"] == {
            "pass": 12 - multi_point, "fail": multi_point}
        for c in report["counterexamples"]:
            assert c["detail"] == ("fatal finding: domination constructor "
                                   "emitted a non-dominated pair")
            assert c["witness"]["payload"]["mode"] == "truncate"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ParameterError, match="tolerance"):
            run_suite({"instances": 4}, tol=-1e-9)

    def test_summary_csv(self):
        report = run_suite({"instances": 6, "max_points": 5,
                            "checks": ["evp", "descent"]})
        csv = summary_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "check,pass,fail"
        assert lines[1] == "descent,6,0"
        assert lines[2] == "evp,6,0"


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1e-9, -1.0, math.nan, INF, -INF])
    def test_bad_explicit_tolerance(self, tol):
        with pytest.raises(ParameterError, match="tolerance"):
            resolve_tol(tol)

    @pytest.mark.parametrize("tol", [0.0, -0.0, 1e-12, 0.5])
    def test_explicit_tolerance_kept(self, tol):
        assert resolve_tol(tol) == tol

    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1e-9", "abc"])
    def test_bad_environment_tolerance(self, raw, monkeypatch):
        monkeypatch.setenv("SLOPEKIT_TOL", raw)
        with pytest.raises(ParameterError, match="SLOPEKIT_TOL"):
            resolve_tol()

    def test_environment_tolerance(self, monkeypatch):
        monkeypatch.setenv("SLOPEKIT_TOL", "1e-6")
        assert resolve_tol() == 1e-6 and resolve_tol(0.0) == 0.0


def _highest_point(f, x0, lam):
    """A stand-in Ekeland point: the highest point of dom f."""
    return f.space.points[f._dom[f.array[f._dom].argmax()]]


def _forced_violation(*args, **kwargs):
    raise HypothesisViolation("forced", witnesses=["w"])


# check -> (suite name to replace, its replacement given the original,
#           the detail of the failure record, its witness keys)
BROKEN_RECORDS = {
    "metric_axioms": ("validate_metric", lambda real: lambda dist, tol:
                      real(-dist, tol),
                      r"metric axiom violated", {"report"}),
    "slope_scaling": ("scale_field", lambda real: lambda f, r: real(f, r + 1),
                      r"(local|global) slope of \S+\*f at \S+ is \S+, "
                      r"expected \S+", {"r", "x"}),
    "log_bound": ("log_distance_field", lambda real: lambda space, a:
                  suite.scale_field(real(space, a), 10.0),
                  r"log-distance slope bound fails at \S+ \(center \S+\)",
                  {"a", "x"}),
    "crit_lipschitz": ("_crit_rows", lambda real: lambda f, eps, tol:
                       (f._dom, tuple(f.space.points[i] for i in f._dom)),
                       r"f is not \S+-Lipschitz on \S+-Crit at \(\S+, \S+\)",
                       {"eps", "x", "y"}),
    "ph_coincidence": ("eps_Crit", lambda real: lambda f, eps, tol: (),
                       r"coincidence set != \S+-Crit",
                       {"eps", "coincide", "crit"}),
    "trivial_inf_dom": ("slopes", lambda real: lambda f, nbhd=None:
                        np.full(f.space.n, INF),
                        r"global slope not finite on all of dom f", set()),
    "evp-descent-inequality": (
        "default_ops", lambda real: lambda: dict(
            real(), ekeland_point=_highest_point),
        r"EVP output violates the descent inequality", {"x0", "lam", "x"}),
    "evp-distance-bound": (
        "default_ops", lambda real: lambda: dict(
            real(), ekeland_point=_highest_point),
        r"EVP output violates the classical distance bound",
        {"x0", "lam", "x"}),
    "descent": ("descent_to_critical", lambda real: lambda *args, **kwargs:
                dataclasses.replace(real(*args, **kwargs),
                                    terminal_flag="budget-exhausted"),
                r"descent did not reach 0crit", {"x0", "r"}),
    "determination-tz": ("check_tz", lambda real: lambda f, g, tol:
                         CheckReport("tz", True, conclusion_ok=False),
                         r"tz falsified on a dominated pair",
                         {"mode", "params", "report"}),
    "determination-compact": ("check_compact", lambda real:
                              lambda f, g, nbhd, tol: CheckReport(
                                  "compact", True, conclusion_ok=False),
                              r"compact falsified on a scaled pair",
                              {"r", "report"}),
    "descent-hypothesis": ("descent_to_critical",
                           lambda real: _forced_violation,
                           r"unexpected hypothesis violation: forced",
                           {"witnesses"}),
}


@pytest.mark.parametrize("case", BROKEN_RECORDS)
def test_failure_records(monkeypatch, case):
    """Each failure record of a check, forced by breaking what it tests:
    a failed instance, the record's detail and its witness keys."""
    name, broken, detail, keys = BROKEN_RECORDS[case]
    monkeypatch.setattr(suite, name, broken(getattr(suite, name)))
    check = case.split("-")[0]
    report = run_suite({"instances": 6, "max_points": 6, "p_inf": [0.0],
                        "checks": [check]})
    assert report["summary"][check]["fail"] > 0
    records = [c for c in report["counterexamples"]
               if re.fullmatch(detail, c["detail"])]
    assert records
    assert all(c["check"] == check and set(c["witness"]) == keys
               for c in records)
    json.dumps(report)   # as the CLI writes it
