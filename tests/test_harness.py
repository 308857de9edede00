import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (ImproperFieldError, ParameterError,
                      eps_argmin, gen_dominated_pair, gen_random_instance,
                      gen_random_pl, global_slope, instance_from_dict,
                      load_instance, run_suite, save_instance, summary_csv)
from slopekit import metric_space
from slopekit.config import resolve_tol

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
        with pytest.raises(ParameterError):
            gen_dominated_pair(0, inst.field("f"), "scale")

    def test_unknown_mode(self):
        inst = gen_random_instance(0, 4)
        with pytest.raises(ParameterError):
            gen_dominated_pair(0, inst.field("f"), "square")


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

    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1e-9"])
    def test_bad_environment_tolerance(self, raw, monkeypatch):
        monkeypatch.setenv("SLOPEKIT_TOL", raw)
        with pytest.raises(ParameterError, match="SLOPEKIT_TOL"):
            resolve_tol()

    def test_environment_tolerance(self, monkeypatch):
        monkeypatch.setenv("SLOPEKIT_TOL", "1e-6")
        assert resolve_tol() == 1e-6 and resolve_tol(0.0) == 0.0
