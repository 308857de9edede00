"""slopekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src``.  ``--trace 0`` measures the
end-to-end metrics; op times are judged in kref, relative to a fixed
reference unit of work timed around every op, because the machine's
speed drifts.  ``--trace 1`` is a separate run that reports the
per-layer metrics from spans around calls into slopekit's modules.  The
last line of standard output is the result as one JSON object; the lines
before it give every metric by name and unit, the tail percentile and its
sample count, and the environment record.  The same record, with per-op
times, is written to ``.perfbench/results/`` in the checkout.  Exit code
1 means an output check failed, 2 that the program could not be run.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, CheckFailed, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("ops_per_kref", "1/kref"),
    ("op_kref_p50", "kref"),
    ("op_kref_tail", "kref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed, and kept in the record, but not judged: on a shared machine
# their run-to-run spread is wider than any useful bound.
SECONDS = (("ops_per_s", "1/s"), ("op_s_p50", "s"), ("op_s_tail", "s"))
# A run reports its workload's TAIL_PERCENTILE; a run with too few ops to
# leave 10 samples beyond it falls back to the highest of these that does.
TAIL_PERCENTILES = (90, 80, 75, 50)
SETUP_REPEATS = 3
IMPORT_PROBES = 3
CLI_IMPORT_PROBES = 5
# Share of --seconds a traced run spends on untraced ops; the traced
# replay of the same ops takes that long times the tracing overhead.
TRACE_BASELINE_SHARE = 0.25
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment record ------------------------------------------------

def _cpu_times():
    with open("/proc/stat") as fh:
        fields = fh.readline().split()[1:]
    values = [int(v) for v in fields]
    return sum(values[:8]), values[7]   # total (no guest time), steal


def _loadavg():
    with open("/proc/loadavg") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Environment:
    """nproc, versions, git SHA, src/ line count, and load average and CPU
    steal at the start and end of the run."""

    def __init__(self):
        self.cpu0 = _cpu_times()
        self.record = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
            "src_lines": _src_lines(),
            "loadavg_start": _loadavg(),
        }

    def finish(self):
        total0, steal0 = self.cpu0
        total1, steal1 = _cpu_times()
        self.record.update({
            "loadavg_end": _loadavg(),
            "steal_share": ((steal1 - steal0) / (total1 - total0)
                            if total1 > total0 else 0.0),
        })
        return self.record


# -- measuring ---------------------------------------------------------

_REF_VALUES = np.random.default_rng(0).uniform(0.0, 3.0, size=60).tolist()
_REF_DIST = np.random.default_rng(1).uniform(0.5, 2.0, size=(60, 60))


def reference_s():
    """Seconds of one fixed unit of Python-loop and small-array numpy work,
    the fastest of three tries.

    The machine's speed drifts by up to 2x over seconds to minutes as
    other tenants load it, and this unit slows with it; an op's time
    divided by the reference measured around it is steady.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        top = 0.0
        for fi in _REF_VALUES:
            for fj in _REF_VALUES:
                if fi - fj > top:
                    top = fi - fj
        d = _REF_DIST.copy()
        for k in range(20):
            np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
        best = min(best, time.perf_counter() - t0)
    return best


def probe_import(module, env, count):
    """Median wall time of fresh interpreters that only import ``module``."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def closed_loop(run, seconds=None, count=None):
    """Issue ops 0, 1, ... back to back, at least one, until ``seconds``
    have passed or ``count`` ops have been issued.

    Returns (what ``run`` returned for each op that passed, ops attempted,
    failure messages)."""
    times, failures = [], []
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while True:
        try:
            times.append(run(i))
        except CheckFailed as exc:
            failures.append(f"op {i}: {exc}")
        except Exception:   # a crash in the program is a failed op
            failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        i += 1
        if (count is not None and i >= count) or \
                (deadline is not None and time.perf_counter() >= deadline):
            return times, i, failures


def tail(times, percentile):
    """(percentile, value) of the op times at ``percentile``, or at the
    highest lower percentile that has at least ten samples beyond it."""
    n = len(times)
    for p in (percentile,) + tuple(p for p in TAIL_PERCENTILES if p < percentile):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return 100, max(times)


def setup(workload_cls, sk, workdir, seed, env):
    """Build the workload ``SETUP_REPEATS`` times; set-up time is the
    median import time plus the median of input generation and warm-up."""
    import_s = probe_import("slopekit", env, IMPORT_PROBES)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(sk, ROOT, workdir, seed)
        workload.warm_up()
        builds.append(time.perf_counter() - t0)
    workload.prepare()
    return workload, import_s + statistics.median(builds)


def referenced(run):
    """Wrap ``run`` to return (op seconds, op kref): kref is the op's time
    over the mean of the reference times just before and after it, /1000."""
    last = [reference_s()]

    def measured(i):
        t = run(i)
        before, last[0] = last[0], reference_s()
        return t, 2 * t / (before + last[0]) / 1000

    return measured


def end_to_end(workload, seconds, setup_s):
    samples, attempted, failures = closed_loop(referenced(workload.run),
                                               seconds=seconds)
    times = [t for t, _ in samples]
    krefs = [k for _, k in samples]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics, notes = {}, {"ops": len(times)}
    if times:
        p, kref_tail = tail(krefs, workload.TAIL_PERCENTILE)
        metrics = {
            "ops_per_kref": len(krefs) / sum(krefs),
            "op_kref_p50": statistics.median(krefs),
            "op_kref_tail": kref_tail,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        notes.update(
            tail_percentile=p,
            reference_s=statistics.median(t / k / 1000 for t, k in samples),
            seconds={"ops_per_s": len(times) / sum(times),
                     "op_s_p50": statistics.median(times),
                     "op_s_tail": tail(times, workload.TAIL_PERCENTILE)[1]})
    return metrics, notes, times, attempted, failures


def traced(workload, seconds, sk, env, spans_path):
    """Per-layer figures: untraced in-process ops for a share of the run,
    then the same ops again under the tracer, whose spans are written to
    ``spans_path``."""
    base, attempted, failures = closed_loop(
        referenced(workload.run_in_process), seconds=seconds * TRACE_BASELINE_SHARE)
    tr = tracing.Tracer()

    def traced_op(i):
        tr.begin_op(i)
        return workload.run_in_process(i)

    with tr:
        traced, _, traced_failures = closed_loop(referenced(traced_op),
                                                 count=attempted)
    failures += [f"traced {msg}" for msg in traced_failures]
    tr.save(spans_path)
    metrics = tr.layer_metrics(sk.suite.CHECKS)
    metrics["cli.import_s"] = probe_import("slopekit.cli", env, CLI_IMPORT_PROBES)
    times = [t for t, _ in base]
    metrics["cli.main_s"] = (statistics.fmean(times)
                             if workload.name == "cli" and times else 0.0)
    # in kref, so that a drift in machine speed between the phases cancels
    metrics["trace.overhead_ratio"] = (
        sum(k for _, k in traced) / sum(k for _, k in base)
        if base and traced else 0.0)
    notes = {"ops": len(base), "spans": len(tr.name)}
    if workload.name == "cli":
        per_sub = {}
        for i, t in enumerate(times):
            per_sub.setdefault(workload.subcommand(i), []).append(t)
        notes["cli_main_s_by_subcommand"] = {
            k: statistics.median(v) for k, v in sorted(per_sub.items())}
    return metrics, notes, times, 2 * attempted, failures


def unit_of(name):
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("json_bytes"):
        return "bytes"
    return "count"


def run_all(args):
    """Run each workload in its own process; the last line merges their
    results, with metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 2
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "slopekit", "__init__.py")):
        print(f"perfbench: no slopekit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SLOPEKIT_TOL", None)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2

    environment = Environment()
    import slopekit as sk
    import slopekit.cli   # noqa: F401  (traced and called in process)

    out_dir = os.path.join(ROOT, ".perfbench")
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    env = child_env(ROOT)
    try:
        workload, setup_s = setup(WORKLOADS[args.workload], sk, workdir,
                                  args.seed, env)
        if args.trace:
            metrics, notes, times, attempted, failures = traced(
                workload, args.seconds, sk, env, stem + "-spans.npz")
        else:
            metrics, notes, times, attempted, failures = end_to_end(
                workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": len(failures),
        "notes": notes, "environment": environment.finish(),
        "metrics": metrics, "op_seconds": times,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit_of(name)}")
    for name, unit in SECONDS if "seconds" in notes else ():
        print(f"  {name:<44} {notes['seconds'][name]:.6g} {unit}")
    if "tail_percentile" in notes:
        print(f"  op_kref_tail and op_s_tail are p{notes['tail_percentile']} "
              f"of {notes['ops']} ops; 1 ref = {notes['reference_s']:.6g} s "
              f"(median reference time)")
    print(f"  ops_failed {len(failures)}/{attempted}")
    print("environment " + json.dumps(record["environment"]))
    correct = not failures and bool(times)
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
