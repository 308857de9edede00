"""The three workloads.  Each is a closed loop: one caller in one process
issues op i+1 only after op i has returned.

A workload is built from its seed (the set-up the benchmark times), then
``run(i)`` performs op i, returns the seconds the program took, and
raises ``CheckFailed`` when an output is wrong.  ``run_in_process(i)`` is
the same op run entirely inside this process, so that it can be traced.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import inputs

# The default suite checks, fixed here so the workload cannot drift.
SUITE_CHECKS = (
    "crit_lipschitz", "descent", "determination", "difference_bound",
    "domination_constructors", "evp", "global_ge_local", "log_bound",
    "metric_axioms", "neighborhood_symmetry", "ph_coincidence",
    "restriction_invariance", "slope_scaling", "subadditivity",
    "trivial_inf_dom", "truncation")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def child_env(root):
    """Environment of every slopekit subprocess: this checkout's source,
    the default tolerance and a pinned hash seed."""
    env = dict(os.environ)
    env.pop("SLOPEKIT_TOL", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class SuiteSmall:
    """Suite scale: ``run_suite`` over batches of small instances.

    Op i is one batch of ``BATCH`` instances (n <= 12; kinds graph,
    matrix and grid; p_inf 0 and 0.2) under its own config seed, drawn
    from the workload seed and i.  The warm-up batch uses index -1.
    """

    name = "suite-small"
    TAIL_PERCENTILE = 90
    BATCH = 24

    def __init__(self, sk, root, workdir, seed):
        self.sk = sk
        self.seed = seed

    def run(self, i):
        batch_seed = int(np.random.default_rng(
            [self.seed, i + 1]).integers(0, 2 ** 31))
        config = {"seed": batch_seed, "instances": self.BATCH, "max_points": 12,
                  "kinds": ["graph", "matrix", "grid"], "p_inf": [0.0, 0.2],
                  "checks": list(SUITE_CHECKS), "mutation": None}
        t0 = time.perf_counter()
        report = self.sk.run_suite(config)
        elapsed = time.perf_counter() - t0
        _require(report["ok"], f"suite batch {batch_seed} reported failures")
        _require(sorted(report["summary"]) == sorted(SUITE_CHECKS),
                 "suite report has the wrong checks")
        for name, row in report["summary"].items():
            _require(row["pass"] + row["fail"] == self.BATCH,
                     f"check {name} ran {row['pass'] + row['fail']} instances")
        return elapsed

    run_in_process = run

    def warm_up(self):
        self.run(-1)

    def prepare(self):
        pass


class LargeInstance:
    """Single large instances: one analysis pipeline per op.

    The inputs are ``PER_KIND`` instance dicts of each kind (matrix,
    graph, 1-D grid, 2-D grid) on ``N`` points; op i analyses instance
    i mod the pool size.
    """

    name = "large-instance"
    TAIL_PERCENTILE = 75
    N = 200
    PER_KIND = 2

    def __init__(self, sk, root, workdir, seed):
        self.sk = sk
        rng = np.random.default_rng(seed)
        self.cases = []
        for rep in range(self.PER_KIND):
            for k, kind in enumerate(inputs.KINDS):
                data = inputs.instance_dict(rng, kind, self.N)
                v = np.array(data["fields"]["f"])
                d = inputs.distances(data["metric"])
                slopes = inputs.oracle_slopes(v, d, ~np.eye(len(v), dtype=bool))
                self.cases.append({
                    "data": data,
                    "x0": data["points"][int(np.argmax(v))],
                    "eps": float(np.median(slopes)),
                    "r": float(rng.uniform(0.2, 0.8)),
                    "mode": ("truncate", "scale", "compose")[(rep + k) % 3],
                    "pair_seed": int(rng.integers(0, 2 ** 62)),
                })

    def run(self, i):
        sk = self.sk
        case = self.cases[i % len(self.cases)]
        eps, x0 = case["eps"], case["x0"]
        t0 = time.perf_counter()
        inst = sk.instance_from_dict(case["data"])
        f = inst.field("f")
        profile = sk.slope_profile(f, inst.nbhd)
        argmin = sk.eps_argmin(f, eps)
        crit = sk.eps_crit(f, inst.nbhd, eps)
        Crit = sk.eps_Crit(f, eps)
        ph = sk.pasch_hausdorff(f, eps)
        x_lam = sk.ekeland_point(f, x0, eps)
        g = sk.scale_field(f, case["r"])
        trace = sk.descent_to_critical(f, g, inst.nbhd, x0)
        problems = sk.verify_trace(trace, f, g, inst.nbhd)
        g_dom, _ = sk.gen_dominated_pair(case["pair_seed"], f, case["mode"])
        reports = [sk.check_tz(f, g_dom), sk.check_lips(f, g_dom, eps),
                   sk.check_lsc(f, g_dom, 0.5, eps),
                   sk.check_compact(f, g, inst.nbhd)]
        violated = sk.check_tz(f, sk.scale_field(f, 2.0))
        elapsed = time.perf_counter() - t0

        tol = sk.DEFAULT_TOL
        points = inst.space.points
        dist = inst.space.dist
        v = np.array(case["data"]["fields"]["f"])
        G = inputs.oracle_slopes(v, dist, ~np.eye(len(v), dtype=bool))
        L = inputs.oracle_slopes(v, dist, inputs.adjacency_mask(points, inst.nbhd))
        _require(profile.global_ == dict(zip(points, G.tolist())),
                 "global slopes differ from the oracle")
        _require(profile.local == dict(zip(points, L.tolist())),
                 "local slopes differ from the oracle")
        _require(set(argmin) == {p for p, fv in zip(points, v)
                                 if fv <= v.min() + eps + tol}, "eps_argmin is wrong")
        _require(set(crit) == {p for p, s in zip(points, L) if s <= eps + tol},
                 "eps_crit is wrong")
        _require(set(Crit) == {p for p, s in zip(points, G) if s <= eps + tol},
                 "eps_Crit is wrong")
        coincide = {p for p, fv, rv in zip(points, v, ph.values)
                    if abs(fv - rv) <= tol}
        _require(coincide == set(Crit),
                 "Pasch-Hausdorff coincidence set differs from eps_Crit")
        a, b = points.index(x0), points.index(x_lam)
        _require(G[b] <= eps + tol, "Ekeland point is not eps-critical")
        _require(v[b] <= v[a] - eps * dist[a, b] + tol,
                 "Ekeland point breaks the descent inequality")
        _require(dist[a, b] <= (v[a] - v.min()) / eps + tol,
                 "Ekeland point breaks the distance bound")
        _require(problems == [], f"descent trace fails re-check: {problems}")
        _require(trace.terminal_flag == "reached-0crit",
                 f"descent ended {trace.terminal_flag}")
        for report in reports:
            _require(report.hypothesis_ok and report.conclusion_ok,
                     f"{report.name} is not verified on a dominated pair")
        _require(violated.exit_code() == 1, "g = 2f does not violate tz")
        return elapsed

    run_in_process = run

    def warm_up(self):
        self.run(0)

    def prepare(self):
        pass


class Cli:
    """A CLI process end to end: a fixed script of ``python -m slopekit.cli``
    subprocesses on a ~1 MB matrix instance and a graph instance.

    Op i is script entry i mod the script length, run in a fresh
    temporary directory with this checkout's ``src`` on PYTHONPATH.  Its
    exit code must be the scripted one and its JSON output must equal
    that of ``cli.main`` run in this process on the same arguments.
    """

    name = "cli"
    TAIL_PERCENTILE = 80
    MATRIX_N = 220
    GRAPH_N = 200

    def __init__(self, sk, root, workdir, seed):
        self.sk = sk
        self.workdir = workdir
        self.env = child_env(root)
        # Children inherit this: each CLI process runs on the CPU where the
        # reference work around it is timed, as in-process ops do.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = np.random.default_rng(seed)
        files = {}
        params = {}
        for key, kind, n in (("matrix", "matrix", self.MATRIX_N),
                             ("graph", "graph", self.GRAPH_N)):
            data = inputs.instance_dict(rng, kind, n)
            v = np.array(data["fields"]["f"])
            d = inputs.distances(data["metric"])
            slopes = inputs.oracle_slopes(v, d, ~np.eye(len(v), dtype=bool))
            r = float(rng.uniform(0.2, 0.8))
            data["fields"]["g"] = (r * v).tolist()
            data["fields"]["h"] = (2.0 * v).tolist()
            files[key] = self._write(f"{key}.json", data)
            params[key] = (repr(float(np.median(slopes))),
                           data["points"][int(np.argmax(v))])
        pl_f, pl_g = inputs.pl_pair(rng)
        files["pl_f"] = self._write("pl_f.json", pl_f)
        files["pl_g"] = self._write("pl_g.json", pl_g)
        files["suite"] = self._write(
            "suite.json", {"seed": int(rng.integers(0, 2 ** 31)), "instances": 12})
        M, G = files["matrix"], files["graph"]
        (eps_m, x_m), (eps_g, x_g) = params["matrix"], params["graph"]
        gen_seed = str(int(rng.integers(0, 2 ** 31)))
        # (argv, expected exit code)
        self.script = [
            (["gen", "--seed", gen_seed, "--n", "60", "--kind", "graph"], 0),
            (["validate", M], 0),
            (["validate", G], 0),
            (["slopes", M, "--eps", eps_m, "--eps", repr(2 * float(eps_m))], 0),
            (["slopes", G, "--eps", eps_g], 0),
            (["evp", M, "--from", x_m, "--lambda", eps_m], 0),
            (["descent", G, "--from", x_g], 0),
            (["check", M, "--which", "tz"], 0),
            (["check", M, "--which", "lips", "--eps", eps_m], 0),
            (["check", G, "--which", "lsc", "--eps", eps_g], 0),
            (["check", G, "--which", "compact"], 0),
            (["check", M, "--which", "tz", "--g", "h"], 1),
            (["mr", files["pl_f"], files["pl_g"]], 0),
            (["suite", "--config", files["suite"]], 0),
        ]
        self.expected = None

    def _write(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def subcommand(self, i):
        return self.script[i % len(self.script)][0][0]

    def prepare(self):
        """The in-process result of every script entry, the reference the
        subprocess outputs are checked against."""
        self.expected = []
        for argv, code in self.script:
            got_code, out, _ = self._main(argv)
            _require(got_code == code,
                     f"in-process {argv[0]} exited {got_code}, expected {code}")
            self.expected.append(json.loads(out))

    @contextlib.contextmanager
    def _call_dir(self):
        path = tempfile.mkdtemp(dir=self.workdir)
        try:
            yield path
        finally:
            shutil.rmtree(path)

    def _main(self, argv):
        cli = self.sk.cli
        out = io.StringIO()
        old = os.getcwd()
        with self._call_dir() as cwd:
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(list(argv))
                    elapsed = time.perf_counter() - t0
            finally:
                os.chdir(old)
        return code, out.getvalue(), elapsed

    def _spawn(self, argv, timeout=120):
        """Run ``python -m slopekit.cli argv``; returns (code, stdout, seconds)."""
        with self._call_dir() as cwd:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "slopekit.cli", *argv],
                                  cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
            elapsed = time.perf_counter() - t0
        return proc.returncode, proc.stdout, elapsed

    def warm_up(self):
        argv, code = self.script[1]   # validate the matrix instance
        got, _, _ = self._spawn(argv)
        _require(got == code, f"warm-up {argv[0]} exited {got}")

    def _check(self, i, code, out):
        argv, want = self.script[i % len(self.script)]
        _require(code == want, f"{argv[0]} exited {code}, expected {want}")
        try:
            result = json.loads(out)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{argv[0]} printed no JSON: {exc}")
        _require(result == self.expected[i % len(self.script)],
                 f"{argv[0]} output differs from the in-process result")

    def run(self, i):
        code, out, elapsed = self._spawn(self.script[i % len(self.script)][0])
        self._check(i, code, out)
        return elapsed

    def run_in_process(self, i):
        code, out, elapsed = self._main(self.script[i % len(self.script)][0])
        self._check(i, code, out)
        return elapsed


WORKLOADS = {w.name: w for w in (SuiteSmall, LargeInstance, Cli)}
