import argparse
import ast
import collections
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from slopekit import (Instance, gen_random_instance, metric_space,
                      save_instance, scale_field)
from slopekit import cli, instances, suite
from slopekit.cli import main

INF = math.inf


@pytest.fixture
def inst_path(tmp_path, e3, e3_path_nbhd, f013):
    inst = Instance(e3, e3_path_nbhd,
                    {"f": f013, "g": scale_field(f013, 0.5)})
    path = tmp_path / "e3.json"
    save_instance(inst, path)
    return str(path)


@pytest.fixture
def bad_pair_path(tmp_path, e3, e3_path_nbhd, f013):
    # g with the larger slopes: every checker hypothesis fails
    inst = Instance(e3, e3_path_nbhd,
                    {"f": f013, "g": scale_field(f013, 2.0)})
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    return str(path)


class TestValidate:
    def test_valid_instance(self, inst_path, capsys):
        assert main(["validate", inst_path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_broken_matrix(self, tmp_path, capsys):
        obj = {"points": ["a", "b", "c"],
               "metric": {"kind": "matrix",
                          "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]},
               "neighborhoods": {"kind": "all"}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"] and report["violations"]

    @pytest.mark.parametrize("entry", ["dist", "field"])
    def test_integer_past_the_float_range(self, tmp_path, capsys, entry):
        # json reads 10**400 as a Python int, which float() refuses
        big = {"dist": [[0, 10 ** 400], [10 ** 400, 0]],
               "field": [[0, 1], [1, 0]]}[entry]
        obj = {"points": ["a", "b"], "metric": {"kind": "matrix", "dist": big},
               "neighborhoods": {"kind": "all"},
               "fields": {"f": [10 ** 400 if entry == "field" else 0, 1]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == {
            "dist": "input error: distance matrix entries must be finite\n",
            "field": f"input error: malformed value of field 'f': {10 ** 400}\n",
        }[entry]

    @pytest.mark.parametrize("metric", [
        {"kind": "graph", "edges": [[0, 1, 1e-10], [1, 2, 1.0]]},
        {"kind": "grid", "bounds": [[0.0, 2e-10]], "resolution": [3]}])
    def test_broken_built_metric_prints_its_report(self, tmp_path, capsys,
                                                   metric):
        """A graph or grid whose metric fails is reported like a matrix."""
        obj = {"points": ["n0", "n1", "n2"], "metric": metric,
               "neighborhoods": {"kind": "all"}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert not report["ok"]
        assert {v["kind"] for v in report["violations"]} == {"negative"}

    def test_instance_validated_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "graph.json"
        save_instance(gen_random_instance(3, 9, metric_kind="graph"), path)
        calls = []
        validate = metric_space.validate_metric
        monkeypatch.setattr(metric_space, "validate_metric", lambda *args:
                            calls.append(args) or validate(*args))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True,
                                                       "violations": []}
        assert len(calls) == 1

    @pytest.mark.parametrize("obj, message", [
        ({"points": [], "metric": {"kind": "grid", "bounds": [[0, 1], [0, 1]],
                                   "resolution": [1000, 1000]},
          "neighborhoods": {"kind": "grid"}},
         "grid points do not match the points list"),
        ({"points": [f"p{i}" for i in range(20000)],
          "metric": {"kind": "graph",
                     "edges": [[i, i + 1, 1.0] for i in range(19999)]},
          "neighborhoods": {"kind": "all"}},
         "the number of points must be at most 1000, got 20000"),
    ], ids=["grid-of-a-million-nodes", "graph-of-20000-points"])
    def test_oversized_instance_is_input_error(self, tmp_path, capsys, obj,
                                               message):
        # these exited 1 with numpy's _ArrayMemoryError
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 3

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 3


class TestGen:
    def test_gen_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--seed", "5", "--n", "7", "--kind", "matrix",
                     "-o", out]) == 0
        assert main(["validate", out]) == 0

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--seed", "9", "--n", "6", "-o", str(a)])
        main(["gen", "--seed", "9", "--n", "6", "-o", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("n", [10**7, instances.MAX_POINTS + 1, 0, -3])
    def test_size_refused_before_allocating(self, n, monkeypatch, capsys):
        # gen_random_instance refuses the size before it draws anything
        monkeypatch.setattr(instances, "_rng", None)
        tracemalloc.start()
        try:
            assert main(["gen", "--n", str(n), "--kind", "grid"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want = (f"n_points must be at most {instances.MAX_POINTS}, got {n}"
                if n > 0 else f"need at least one point, got {n}")
        assert capsys.readouterr().err == f"input error: {want}\n"

    def test_size_limit_inclusive(self, monkeypatch, capsys):
        sizes = []
        monkeypatch.setattr(cli, "gen_random_instance", lambda seed, n, **kw:
                            sizes.append(n) or gen_random_instance(seed, 3))
        assert main(["gen", "--n", str(instances.MAX_POINTS)]) == 0
        assert main(["gen", "--n", "1"]) == 0
        assert sizes == [instances.MAX_POINTS, 1]


    def test_negative_seed_refused_before_building(self, monkeypatch,
                                                   capsys):
        # numpy refused it with a ValueError and a traceback, exit 1
        monkeypatch.setattr(instances.np.random, "default_rng", None)
        assert main(["gen", "--seed", "-1", "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: seed must not be negative, got -1\n")

    @pytest.mark.parametrize("p_inf", ["nan", "1.5", "-0.5", "inf"])
    def test_p_inf_outside_the_unit_interval(self, p_inf, capsys):
        assert main(["gen", "--n", "3", "--p-inf", p_inf]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: p_inf must be in [0, 1], "
                                f"got {float(p_inf)}\n")

    @pytest.mark.parametrize("p_inf", ["0", "1.0"])
    def test_p_inf_at_the_ends(self, p_inf, capsys):
        assert main(["gen", "--n", "3", "--p-inf", p_inf]) == 0
        fields = json.loads(capsys.readouterr().out)["fields"]
        assert all((v == "inf") == (p_inf == "1.0") for v in fields["f"])


class TestSlopes:
    def test_report(self, inst_path, capsys):
        assert main(["slopes", inst_path, "--eps", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"]["c"]["global_slope"] == 2.0
        assert report["points"]["c"]["local_slope"] == 2.0
        sets = report["eps_sets"]["1.0"]
        assert sets["eps_argmin"] == ["a", "b"]
        assert sets["eps_Crit"] == ["a", "b"]

    def test_unknown_field(self, inst_path):
        assert main(["slopes", inst_path, "--field", "h"]) == 3

    def test_nan_eps_is_input_error(self, inst_path, capsys):
        assert main(["slopes", inst_path, "--eps", "nan"]) == 3
        assert capsys.readouterr().out == ""


class TestEvp:
    def test_descends_to_minimizer(self, inst_path, capsys):
        assert main(["evp", inst_path, "--from", "c", "--lambda", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x_lambda"] == "a"
        assert out["distance_from_start"] == 2.0

    def test_large_lambda_stays_put(self, inst_path, capsys):
        assert main(["evp", inst_path, "--from", "c", "--lambda", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["x_lambda"] == "c"

    def test_bad_lambda_is_input_error(self, inst_path):
        assert main(["evp", inst_path, "--from", "c", "--lambda", "-1"]) == 3

    def test_nan_lambda_is_input_error(self, inst_path, capsys):
        # exited 0 and reported the start point as the Ekeland point
        assert main(["evp", inst_path, "--from", "c", "--lambda", "nan"]) == 3
        assert capsys.readouterr().out == ""


class TestDescent:
    def test_trace(self, inst_path, capsys):
        assert main(["descent", inst_path, "--from", "c"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["points"] == ["c", "a"]
        assert trace["terminal_flag"] == "reached-0crit"

    def test_hypothesis_violation_exit_1(self, bad_pair_path):
        assert main(["descent", bad_pair_path, "--from", "c"]) == 1


    def test_failed_recheck_is_a_fatal_finding(self, inst_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(cli, "verify_trace",
                            lambda *args: ["step 0: f - g increased"])
        assert main(["descent", inst_path, "--from", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        head, witness = captured.err.split("\n", 1)
        assert head == "FATAL FINDING: step 0: f - g increased"
        assert json.loads(witness) == {
            "points": ["c", "a"], "eps_schedule": [0.5],
            "step_distances": [2.0], "f_values": [3.0, 0.0],
            "diff_values": [1.5, 0.0], "terminal_flag": "reached-0crit"}


class TestCheck:
    def test_verified_exit_0(self, inst_path, capsys):
        for which in ("tz", "lips", "lsc", "compact"):
            assert main(["check", inst_path, "--which", which]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["hypothesis"] == "satisfied"
            assert report["conclusion"] == "verified"

    def test_hypothesis_violation_exit_1(self, bad_pair_path, capsys):
        for which in ("tz", "lips", "lsc", "compact"):
            assert main(["check", bad_pair_path, "--which", which]) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["hypothesis"] == "violated"
            assert report["conclusion"] is None


class TestMr:
    def _write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_constant(self, tmp_path, capsys):
        f = self._write(tmp_path, "f.json",
                        {"knots": [0.0], "slopes": [-1, 1], "anchor": 5.0})
        g = self._write(tmp_path, "g.json",
                        {"knots": [0.0], "slopes": [-1, 1], "anchor": 0.0})
        assert main(["mr", f, g]) == 0
        assert json.loads(capsys.readouterr().out)["constant"] == 5.0

    def test_mismatch(self, tmp_path, capsys):
        f = self._write(tmp_path, "f.json",
                        {"knots": [0.0], "slopes": [-1, 1], "anchor": 0.0})
        g = self._write(tmp_path, "g.json",
                        {"knots": [0.0], "slopes": [-2, 1], "anchor": 0.0})
        assert main(["mr", f, g]) == 0
        assert "mismatch_at" in json.loads(capsys.readouterr().out)

    def test_tolerance_boundary_pair_matches(self, tmp_path, capsys):
        """A pair whose normalized forms differ with no probe telling their
        subdifferentials apart; it exited 1 with an AssertionError."""
        f = self._write(tmp_path, "f.json", {"knots": [0, 1],
                                             "slopes": [0, 1.5e-9, 1], "anchor": 0})
        g = self._write(tmp_path, "g.json", {"knots": [0, 1],
                                             "slopes": [0, 0.5e-9, 1], "anchor": 0})
        assert main(["mr", f, g]) == 0
        assert json.loads(capsys.readouterr().out) == {"constant": 0.0}

    def test_invalid_pl(self, tmp_path):
        f = self._write(tmp_path, "f.json",
                        {"knots": [0.0], "slopes": [1, -1], "anchor": 0.0})
        assert main(["mr", f, f]) == 3


    @pytest.mark.parametrize("obj", [
        [1],
        {"knots": 5, "slopes": [1, 2], "anchor": 0.0},
        {"knots": ["a"], "slopes": [1, 2], "anchor": 0.0},
        {"knots": [0.0], "slopes": {"s": 1}, "anchor": 0.0},
        {"knots": [0.0], "slopes": [1, None], "anchor": 0.0},
        {"knots": [0.0], "slopes": [1, 2], "anchor": None},
        {"knots": [0.0], "slopes": [1, 2], "anchor": [0.0]},
        {"knots": [0.0], "slopes": [1, 2]},
    ], ids=["list", "knots-number", "knot-string", "slopes-object",
            "slope-null", "anchor-null", "anchor-list", "anchor-missing"])
    def test_malformed_pl_is_input_error(self, tmp_path, capsys, obj):
        f = self._write(tmp_path, "f.json", obj)
        g = self._write(tmp_path, "g.json",
                        {"knots": [0.0], "slopes": [-1, 1], "anchor": 0.0})
        for argv in (["mr", f, g], ["mr", g, f]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error: ")


class TestSuite:
    def test_clean_suite(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": 9, "max_points": 6}))
        out = str(tmp_path / "report.json")
        assert main(["suite", "--config", str(cfg), "-o", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"]
        csv = (tmp_path / "report.csv").read_text()
        assert csv.startswith("check,pass,fail")

    def test_mutated_suite_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": 9, "max_points": 6,
                                   "mutation": "evp_noncritical",
                                   "checks": ["evp"]}))
        out = str(tmp_path / "report.json")
        assert main(["suite", "--config", str(cfg), "-o", out]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["counterexamples"]


    @pytest.mark.parametrize("config,message", [
        ({"max_points": 0}, "max_points must be at least 2, got 0"),
        ({"max_points": 1}, "max_points must be at least 2, got 1"),
        ({"max_points": 0, "kinds": ["graph"]},
         "max_points must be at least 1, got 0"),
        ({"kinds": []}, "kinds must be a nonempty list"),
        ({"p_inf": []}, "p_inf must be a nonempty list"),
        ({"checks": []}, "checks must be a nonempty list"),
        ({"kinds": "grid"}, "kinds must be a JSON list, got str"),
        ({"checks": "evp"}, "checks must be a JSON list, got str"),
        ({"checks": [["evp"]]}, "unknown checks: [\"['evp']\"]"),
        ({"instances": "abc"}, "malformed instances: 'abc'"),
        ({"instances": 2.5}, "malformed instances: 2.5"),
        ({"seed": [1]}, "malformed seed: [1]"),
        ({"max_points": None}, "malformed max_points: None"),
        ([1, 2], "suite config must be a JSON object, got list"),
        ({"instance": 3}, "unknown config keys: ['instance']"),
        ({"mutation": ["evp_noncritical"]},
         "unknown mutation ['evp_noncritical']"),
        ({"p_inf": [1.5]}, "p_inf must be in [0, 1], got 1.5"),
        ({"p_inf": [math.nan]}, "p_inf must be in [0, 1], got nan"),
        ({"p_inf": ["x"]}, "malformed p_inf: 'x'"),
        ({"instances": 1, "p_inf": [1.0]},
         "p_inf must be below 1 in the suite: a field that is +inf "
         "everywhere has no start point"),
        ({"instances": -4}, "instances must not be negative, got -4"),
        (None, "suite config must be a JSON object, got NoneType"),
        ({"seed": -1}, "seed must not be negative, got -1"),
        ({"instances": 1, "seed": -1}, "seed must not be negative, got -1"),
        ({"max_points": 1001}, "max_points must be at most 1000, got 1001"),
        ({"instances": 0, "max_points": 10**6},
         "max_points must be at most 1000, got 1000000"),
        ({"kinds": ["graph", "bogus"], "instances": 0},
         "unknown metric kind 'bogus'"),
        ({"kinds": ["graph", "bogus"], "instances": 1},
         "unknown metric kind 'bogus'"),
        ({"kinds": ["graph", "bogus"], "instances": 2},
         "unknown metric kind 'bogus'"),
        ({"kinds": [1]}, "unknown metric kind 1"),
        ({"kinds": ["grid"], "max_points": 1},
         "max_points must be at least 2, got 1"),
        ({"p_inf": [1]}, "p_inf must be below 1 in the suite: a field that "
         "is +inf everywhere has no start point"),
        ({"instances": 4, "checks": ["evp", "evp"]},
         "repeated checks: ['evp']"),
    ])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config,
                                             message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))   # nan as json writes it
        assert main(["suite", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_config_echo_is_verbatim(self, tmp_path, capsys):
        config = {"seed": 3, "instances": 2.0, "max_points": "4",
                  "kinds": ["graph"], "p_inf": [0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["suite", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == {**suite.DEFAULT_CONFIG, **config}
        assert report["summary"]["evp"] == {"pass": 2, "fail": 0}


class TestSuiteOutputs:
    @pytest.mark.parametrize("output,csv", [
        ("out.v2/rep", "out.v2/rep.csv"),
        ("rep", "rep.csv"),
        ("rep.json", "rep.csv"),
        (None, None),   # no report file, so no CSV either
    ])
    def test_csv_written_beside_the_report(self, tmp_path, monkeypatch,
                                           output, csv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.v2").mkdir()
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"instances": 2, "checks": ["metric_axioms"]}))
        argv = ["suite", "--config", "cfg.json"]
        assert main(argv + (["-o", output] if output else [])) == 0
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*.csv"))
        assert written == ([csv] if csv else [])
        if csv:
            assert (tmp_path / csv).read_text().startswith("check,pass,fail\n")


def test_grid_neighborhoods_on_a_matrix_metric(tmp_path):
    obj = {"points": ["a", "b"],
           "metric": {"kind": "matrix", "dist": [[0, 1], [1, 0]]},
           "neighborhoods": {"kind": "grid"}, "fields": {"f": [0, 1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["slopes", str(path)]) == 3


def three_points(**metric):
    """A valid 3-point graph instance; keyword arguments replace entries."""
    obj = {"points": ["a", "b", "c"],
           "metric": {"kind": "graph",
                      "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 3.0]]},
           "neighborhoods": {"kind": "all"},
           "fields": {"f": [0.0, 1.0, 2.0]}}
    obj.update(metric)
    return obj


GRID = {"kind": "grid", "bounds": [[0.0, 1.0]], "resolution": [3], "p": 2}


@pytest.mark.parametrize("obj", [
    three_points(metric={"kind": "matrix",
                         "dist": [[0, 1, 2], [1, 0, "x"], [2, 1, 0]]}),
    three_points(metric={"kind": "matrix",
                         "dist": [[0, 1, 2], [1, 0], [2, 1, 0]]}),
    three_points(metric={"kind": "graph", "edges": [[0, 1], [1, 2, 1.0]]}),
    three_points(metric={"kind": "graph",
                         "edges": [[0, 1, 1.0], ["x", 2, 1.0]]}),
    three_points(metric={"kind": "graph",
                         "edges": [[0, 1, 1.0], [1, 2.5, 1.0]]}),
    three_points(metric={"kind": "graph",
                         "edges": [[0, 1, 1.0], [1, 2, "w"]]}),
    three_points(metric={"kind": "graph",
                         "edges": [[0, 1, 1.0], [1, 2, float("nan")],
                                   [0, 2, 3.0]]}),
    three_points(metric={"kind": "graph",
                         "edges": [[0, 1, 1.0], [1, 2, float("inf")],
                                   [0, 2, 3.0]]}),
    three_points(neighborhoods={"kind": "explicit", "adj": [[0, 9]]}),
    three_points(neighborhoods={"kind": "explicit", "adj": [[0, -1]]}),
    three_points(neighborhoods={"kind": "explicit", "adj": [[0, 1, 2]]}),
    three_points(neighborhoods={"kind": "explicit", "adj": [[0, 1.7]]}),
    three_points(neighborhoods={"kind": "ball", "r": "x"}),
    three_points(fields={"f": [0.0, "q", 2.0]}),
    three_points(fields={"f": 3}),
    three_points(points=["n0", "n1", "n2"], metric=dict(GRID, p="x")),
    three_points(points=["n0", "n1", "n2"],
                 metric=dict(GRID, bounds=[[0.0, "x"]])),
    three_points(points=["n0", "n1", "n2"],
                 metric=dict(GRID, resolution=["x"])),
    three_points(points=["n0", "n1", "n2"],
                 metric=dict(GRID, resolution=[2.7])),
    three_points(points=["a", "b"], metric={"kind": "matrix", "dist": [
        [0, 1, 2], [1, 0, 1], [2, 1, 0]]}, fields={"f": [0.0, "q"]}),
    three_points(metric=[1, 2]),
    three_points(seed="s"),
    three_points(seed=1.5),
    three_points(seed=float("inf")),
    three_points(seed=-1),
    three_points(seed=[3, -1]),
    [three_points()],
    three_points(metric=GRID),
    three_points(neighborhoods={"kind": "explicit", "adj": [[0, 1], [1]]}),
    three_points(neighborhoods={"kind": "cube"}),
], ids=["matrix-string", "matrix-ragged", "edge-pair", "edge-vertex-x",
        "edge-vertex-fraction", "edge-weight-w", "edge-weight-nan",
        "edge-weight-inf", "adj-9", "adj-minus-1", "adj-triple",
        "adj-fraction", "ball-r-x", "field-q", "field-number", "grid-p-x",
        "grid-bound-x", "grid-resolution-x", "grid-resolution-fraction",
        "matrix-points-mismatch", "metric-list", "seed-string",
        "seed-fraction", "seed-infinite", "seed-negative",
        "seed-list-negative", "top-level-list",
        "grid-points-mismatch", "adj-ragged", "neighborhood-kind-unknown"])
@pytest.mark.parametrize("command", ["validate", "slopes"])
def test_malformed_instance_is_input_error(tmp_path, capsys, obj, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))   # NaN and Infinity as json writes them
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


def without(key, obj):
    return {k: v for k, v in obj.items() if k != key}


GRID_POINTS = ["n0", "n1", "n2"]


# (key, an instance file without that key)
MISSING_KEYS = [
    ("points", {}),
    ("metric", without("metric", three_points())),
    ("neighborhoods", without("neighborhoods", three_points())),
    ("dist", three_points(metric={"kind": "matrix"})),
    ("edges", three_points(metric={"kind": "graph"})),
    ("bounds", three_points(points=GRID_POINTS,
                            metric=without("bounds", GRID))),
    ("resolution", three_points(points=GRID_POINTS,
                                metric=without("resolution", GRID))),
    ("r", three_points(neighborhoods={"kind": "ball"})),
    ("adj", three_points(neighborhoods={"kind": "explicit"})),
]


@pytest.mark.parametrize("key, obj", MISSING_KEYS,
                         ids=[key for key, _ in MISSING_KEYS])
@pytest.mark.parametrize("command", ["validate", "slopes"])
def test_missing_key_is_named(tmp_path, capsys, key, obj, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"input error: missing key '{key}' in the "
                        r"(instance|metric|neighborhoods)\n", captured.err)


@pytest.mark.parametrize("key", ["knots", "slopes", "anchor"])
def test_missing_pl_key_is_named(tmp_path, capsys, key):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(without(key, {"knots": [0.0], "slopes": [-1, 1],
                                             "anchor": 0.0})))
    assert main(["mr", str(path), str(path)]) == 3
    assert capsys.readouterr().err == (
        f"input error: missing key '{key}' in a PL function\n")


def test_program_key_error_is_not_an_input_error(inst_path, monkeypatch):
    """A KeyError from a fault of the program propagates: exit 3 would
    blame the input."""
    def fault(args):
        raise KeyError("points")
    monkeypatch.setattr(cli, "cmd_validate", fault)
    with pytest.raises(KeyError):
        main(["validate", inst_path])


def test_options_declared_once():
    """-o/--output and the shared arguments are each declared in one place,
    and every subcommand has the -o that main writes to."""
    tree = ast.parse(inspect.getsource(cli))
    declared = collections.Counter(
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument")
    for name in ("-o", "instance", "--f", "--g", "--field"):
        assert declared[name] == 1, name
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 8
    for parser in sub.choices.values():
        assert parser._option_string_actions["-o"].dest == "output"


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "abc"],                       # a bad type
    ["slopes", "x.json", "--eps", "one"],
    ["gen", "--kind", "cube"],                   # a bad choice
    ["descent", "x.json", "--from", "a", "--mode", "both"],
    ["check", "x.json"],                         # a missing required option
    ["evp", "x.json", "--lambda", "1"],
    ["validate"],                                # a missing positional
    ["mr", "f.json"],
    [],                                          # a missing subcommand
    ["bogus"],                                   # an unknown one
    ["validate", "x.json", "--bogus"],           # an unknown option
], ids=["type", "eps-type", "choice", "mode-choice", "required-option",
        "required-from", "positional", "mr-positional", "no-subcommand",
        "unknown-subcommand", "unknown-option"])
def test_malformed_command_line_is_input_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: slopekit")
    assert re.match(r"slopekit( \w+)?: error: ", lines[-1])


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"],
                                  ["check", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: slopekit")


def test_gen_writes_the_instance_layout(tmp_path, capsys):
    """gen prints, and writes with -o, the bytes of save_instance."""
    inst = gen_random_instance(4, 5, metric_kind="grid", field_spec={
        "f": {"p_inf": 0.0}, "g": {"p_inf": 0.0}})
    save_instance(inst, tmp_path / "saved.json")
    saved = (tmp_path / "saved.json").read_bytes()
    assert saved == (inst.to_json() + "\n").encode()
    out = str(tmp_path / "gen.json")
    argv = ["gen", "--seed", "4", "--n", "5", "--kind", "grid"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == saved
    assert main(argv + ["-o", out]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "gen.json").read_bytes() == saved


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"],
    ["slopes", "{bad}"],
    ["evp", "{bad}", "--from", "a", "--lambda", "1"],
    ["descent", "{bad}", "--from", "a"],
    ["check", "{bad}", "--which", "tz"],
    ["mr", "{bad}", "{pl}"],
    ["mr", "{pl}", "{bad}"],
    ["suite", "--config", "{bad}"],
], ids=["validate", "slopes", "evp", "descent", "check", "mr-f", "mr-g",
        "suite"])
def test_non_utf8_file_is_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00{\x00}\x00")   # UTF-16 with a BOM
    pl = tmp_path / "pl.json"
    pl.write_text(json.dumps({"knots": [0.0], "slopes": [-1, 1],
                              "anchor": 0.0}))
    argv = [a.format(bad=bad, pl=pl) for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: {bad} is not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"], ["mr", "{bad}", "{bad}"], ["suite", "--config", "{bad}"],
], ids=["validate", "mr", "suite"])
def test_integer_literal_past_the_digit_limit_is_input_error(tmp_path, capsys,
                                                             argv):
    """json.load raises ValueError, not JSONDecodeError, for an integer
    literal of more than 4,300 digits; it exited 1 with a traceback."""
    bad = tmp_path / "long.json"
    bad.write_text('{"points": ["a", "b"], "metric": {"kind": "matrix", '
                   f'"dist": [[0, {"1" * 5001}], [1, 0]]}}}}')
    assert main([a.format(bad=bad) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {bad}: Exceeds the limit "
                                   "(4300 digits) for integer string conversion")


def test_utf8_file_read_as_utf8(tmp_path, capsys):
    path = tmp_path / "names.json"
    path.write_bytes(json.dumps(three_points(points=["α", "β", "γ"]),
                                ensure_ascii=False).encode("utf-8"))
    assert main(["slopes", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)["points"]) == [
        "α", "β", "γ"]


def test_descent_refuses_eps0(inst_path, capsys):
    assert main(["descent", inst_path, "--from", "a", "--eps0", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: eps0 must be positive, got -1.0\n"


class TestSuiteCsvOutput:
    @pytest.mark.parametrize("output", ["report.csv", "report.CSV",
                                        "out.v2/rep.Csv"])
    def test_csv_report_refused_up_front(self, tmp_path, monkeypatch, capsys,
                                         output):
        # the summary went to the report's own path and replaced it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.v2").mkdir()
        monkeypatch.setattr(cli, "run_suite", None)
        assert main(["suite", "-o", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        stem = output[:-len(".csv")]
        assert captured.err == (
            f"input error: suite -o {output} would be overwritten by the CSV "
            f"summary, which goes to {stem}.csv; give the report another "
            "extension\n")
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_summary_written_after_the_report(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "summary_csv", lambda report: written.append(
            (tmp_path / "rep.json").read_text()) or "check,pass,fail\n")
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"instances": 2, "checks": ["metric_axioms"]}))
        assert main(["suite", "--config", str(tmp_path / "cfg.json"),
                     "-o", str(tmp_path / "rep.json")]) == 0
        assert [json.loads(text)["ok"] for text in written] == [True]
        assert (tmp_path / "rep.csv").read_text() == "check,pass,fail\n"


# -- the process exit: python -m slopekit.cli and the console script run
# cli.run(), which flushes and ends the process without the interpreter's
# teardown

# stdout block-buffered, as a default interpreter has it on a pipe or file
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def spawn(args, cwd, **kw):
    """``python args`` with this checkout's slopekit: (code, stdout,
    stderr), the outputs as bytes."""
    kw.setdefault("capture_output", True)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          timeout=120, **kw)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def process_dir(tmp_path, monkeypatch, e3, e3_path_nbhd, f013):
    """A directory with an instance whose h = 2f violates every checker
    hypothesis against f, a mutated suite config and an empty object; the
    in-process calls run in it too."""
    save_instance(Instance(e3, e3_path_nbhd,
                           {"f": f013, "g": scale_field(f013, 0.5),
                            "h": scale_field(f013, 2.0)}),
                  tmp_path / "e3.json")
    (tmp_path / "mutated.json").write_text(json.dumps(
        {"instances": 9, "max_points": 6, "mutation": "evp_noncritical",
         "checks": ["evp"]}))
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "kinds.json").write_text(json.dumps(
        {"kinds": ["graph", "bogus"], "instances": 1}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv,code,err", [
    (["validate", "e3.json"], 0, ""),
    (["check", "e3.json", "--which", "tz", "--g", "h"], 1, ""),
    (["suite", "--config", "mutated.json"], 2, ""),
    (["validate", "empty.json"], 3,
     "input error: missing key 'points' in the instance\n"),
    (["gen", "--seed", "-1"], 3,
     "input error: seed must not be negative, got -1\n"),
    (["suite", "--config", "kinds.json"], 3,
     "input error: unknown metric kind 'bogus'\n"),
], ids=["0-validate", "1-check-tz", "2-mutated-suite", "3-missing-key",
        "3-negative-seed", "3-unknown-kind"])
def test_process_exit_matches_main(process_dir, capsys, argv, code, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (code == 3) == (captured.out == "")
    assert spawn(["-m", "slopekit.cli", *argv], process_dir) == (
        code, captured.out.encode(), err.encode())


# f = (1e308, 1e308) and g = -f on two points: f - g overflows to +inf, and
# each child wrote numpy's "overflow encountered in subtract" to stderr
BIG_PAIR = {"points": ["a", "b"],
            "metric": {"kind": "matrix", "dist": [[0, 1], [1, 0]]},
            "neighborhoods": {"kind": "all"},
            "fields": {"f": [1e308, 1e308], "g": [-1e308, -1e308]}}


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def test_json_text_is_strict():
    """Non-finite floats are written as strings, at any depth; any other
    object keeps the bytes of the plain dump."""
    obj = {"b": [1.5, -0.0, 1e308], "t": (INF,),
           "a": {"x": INF, "y": -INF, "z": math.nan}}
    assert strict_json(instances._json_text(obj)) == {
        "a": {"x": "inf", "y": "-inf", "z": "nan"},
        "b": [1.5, -0.0, 1e308], "t": ["inf"]}
    finite = {"b": [1.5, -0.0, 1e308], "a": ("x", None, True)}
    assert instances._json_text(finite) == json.dumps(finite, indent=2,
                                                      sort_keys=True)


# An overflowed infimum, constant or difference is +inf, written as "inf",
# as instance files write it; these printed the token Infinity, not JSON.
@pytest.mark.parametrize("argv, report", [
    (["check", "big.json", "--which", "lips"],
     {"check": "lips", "conclusion": "verified", "hypothesis": "satisfied",
      "hypothesis_witnesses": [], "slack": 0.0, "witness": "a",
      "details": {"eps": 0.5, "inf_all": "inf", "inf_crit": "inf"}}),
    (["check", "big.json", "--which", "compact"],
     {"check": "compact", "conclusion": "verified", "hypothesis": "satisfied",
      "hypothesis_witnesses": [], "slack": 0.0, "witness": "a",
      "details": {"inf_all": "inf", "inf_crit0": "inf"}}),
    (["descent", "big.json", "--mode", "global", "--from", "a"],
     {"f_value": 1e308, "x": "a"}),
    (["descent", "big.json", "--from", "a"],
     {"diff_values": ["inf"], "eps_schedule": [], "f_values": [1e308],
      "points": ["a"], "step_distances": [],
      "terminal_flag": "reached-0crit"}),
    (["mr", "top.json", "bottom.json"], {"constant": "inf"}),
], ids=["check-lips", "check-compact", "descent-global", "descent-local",
        "mr"])
def test_process_overflow_is_quiet(process_dir, capsys, argv, report):
    (process_dir / "big.json").write_text(json.dumps(BIG_PAIR))
    for name, anchor in (("top", 1e308), ("bottom", -1e308)):
        (process_dir / f"{name}.json").write_text(json.dumps(
            {"knots": [0.0], "slopes": [-1.0, 1.0], "anchor": anchor}))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert strict_json(out) == report
    assert spawn(["-m", "slopekit.cli", *argv], process_dir) == (
        0, out.encode(), b"")


def test_process_overflowed_graph_is_not_disconnected(process_dir):
    # it said "graph is disconnected: no path from 'a' to 'c'"
    (process_dir / "path.json").write_text(json.dumps(
        {"points": ["a", "b", "c"], "neighborhoods": {"kind": "all"},
         "metric": {"kind": "graph",
                    "edges": [[0, 1, 1e308], [1, 2, 1e308]]}}))
    assert spawn(["-m", "slopekit.cli", "validate", "path.json"],
                 process_dir) == (
        3, b"", b"input error: the distance from 'a' to 'c' exceeds the "
                b"largest float\n")


def test_process_output_file_matches_main(process_dir):
    assert main(["gen", "--seed", "9", "--n", "6", "-o", "a.json"]) == 0
    assert spawn(["-m", "slopekit.cli", "gen", "--seed", "9", "--n", "6",
                  "-o", "b.json"], process_dir) == (0, b"", b"")
    assert (process_dir / "b.json").read_bytes() == (
        process_dir / "a.json").read_bytes()


def test_process_suite_report_and_summary_match_main(process_dir):
    (process_dir / "cfg.json").write_text(json.dumps({"instances": 4}))
    (process_dir / "child").mkdir()
    assert main(["suite", "--config", "cfg.json", "-o", "r.json"]) == 0
    assert spawn(["-m", "slopekit.cli", "suite", "--config", "../cfg.json",
                  "-o", "r.json"], process_dir / "child") == (0, b"", b"")
    for name in ("r.json", "r.csv"):
        assert (process_dir / "child" / name).read_bytes() == (
            process_dir / name).read_bytes()
    assert json.loads((process_dir / "r.json").read_text())["ok"]
    assert len((process_dir / "r.csv").read_text().splitlines()) == (
        1 + len(suite.CHECKS))


def test_console_script_entry(process_dir, capsys):
    """``[project.scripts]`` calls ``cli.run()`` and exits with what it
    returns; it returns nothing, as the process has ended."""
    assert main(["gen", "--n", "5"]) == 0
    assert spawn(["-c", "import sys; from slopekit.cli import run; "
                  "sys.exit(run())", "gen", "--n", "5"], process_dir) == (
        0, capsys.readouterr().out.encode(), b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_process_failed_flush_is_input_error(process_dir):
    # small enough to wait in stdout's buffer until run() flushes it
    with open("/dev/full", "wb") as full:
        assert spawn(["-m", "slopekit.cli", "gen", "--n", "3"], process_dir,
                     capture_output=False, stdout=full,
                     stderr=subprocess.PIPE) == (
            3, None, b"input error: [Errno 28] No space left on device\n")


def test_process_closed_stdout_is_input_error(process_dir):
    # sys.stdout is None; writing to it raised AttributeError, exit 1
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
         "slopekit.cli", "gen", "--n", "5"],
        cwd=process_dir, env=ENV, stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        3, b"input error: standard output is closed\n")


def test_process_closed_stderr_is_input_error(process_dir):
    # sys.stderr is None; print(file=None) wrote the message to stdout
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m",
         "slopekit.cli", "validate", "missing.json"],
        cwd=process_dir, env=ENV, stdout=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, b"")


@pytest.mark.parametrize("argv, code", [
    (["descent", "e3.json", "--from", "c", "--g", "h"], 1),
    (["validate", "missing.json"], 3),
], ids=["1-hypothesis", "3-missing-file"])
def test_process_unwritable_stderr_keeps_the_exit_code(process_dir, argv,
                                                       code):
    # fd 2 open for reading only: a write raised OSError (EBADF), exit 1
    with open(os.devnull, "rb") as read_only:
        assert spawn(["-m", "slopekit.cli", *argv], process_dir,
                     capture_output=False, stdout=subprocess.PIPE,
                     stderr=read_only) == (code, b"", None)


class _Exited(Exception):
    pass


@pytest.fixture
def run_argv(monkeypatch):
    """Call ``cli.run()`` in this process on ``argv``, its ``os._exit``
    replaced by an exception that carries the code."""
    def exit_(code):
        raise _Exited(code)
    monkeypatch.setattr(cli.os, "_exit", exit_)

    def call(*argv):
        monkeypatch.setattr(sys, "argv", ["slopekit", *argv])
        with pytest.raises(_Exited) as exited:
            cli.run()
        return exited.value.args[0]
    return call


def test_run_failed_flush_is_input_error(run_argv, monkeypatch, capsys):
    class Full:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", Full())
    assert run_argv("gen", "--n", "3") == 3
    assert capsys.readouterr().err == (
        "input error: [Errno 28] No space left on device\n")


def test_run_leaves_bad_command_line_to_system_exit(run_argv):
    with pytest.raises(SystemExit) as exc:
        run_argv("gen", "--n", "abc")
    assert exc.value.code == 3


class _Unwritable:
    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _Unwritable()],
                         ids=["closed", "unwritable"])
@pytest.mark.parametrize("argv, code", [
    (["descent", "e3.json", "--from", "c", "--g", "h"], 1),
    (["descent", "e3.json", "--from", "c"], 2),
    (["validate", "missing.json"], 3),
], ids=["1-hypothesis", "2-fatal-with-witness", "3-missing-file"])
def test_stderr_that_cannot_be_written_keeps_the_exit_code(
        process_dir, run_argv, monkeypatch, capsys, stderr, argv, code):
    """``main`` and ``run`` return the branch's code, and nothing meant for
    stderr reaches stdout."""
    monkeypatch.setattr(cli, "verify_trace",
                        lambda *args: ["step 0: f - g increased"])
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == code
    assert run_argv(*argv) == code
    assert capsys.readouterr().out == ""
