"""Command-line front door.

Each ``cmd_*`` returns its JSON object and its exit code; ``main`` writes
the object, to stdout or to the file given with ``-o``, through the one
JSON writer that instance files use too.  Input files are read as UTF-8.

Exit codes: 0 verified / success, 1 hypothesis violated, 2 fatal finding
(a theorem conclusion falsified), 3 input error, a malformed command line
included.
"""

import argparse
import contextlib
import json
import os
import sys

from .convex1d import mr_check, pl_from_dict
from .errors import (FatalFinding, HypothesisViolation, MetricError,
                     ParameterError, SlopekitError)
from .instances import (_expect, _json_text, _read_json, _write_json,
                        gen_random_instance, load_instance)
from .metric_space import ValidationReport
from .slope_core import INF, eps_argmin, eps_crit, eps_Crit, slope_profile
from .suite import run_suite, summary_csv
from .variational import (check_compact, check_lips, check_lsc, check_tz,
                          descent_step, descent_to_critical, ekeland_point,
                          verify_trace)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_FATAL = 2
EXIT_INPUT = 3

# Largest `gen --n`.  An instance holds dense n x n arrays (n x n x dim for a
# grid) and its load runs O(n^3) closure and validation: at n = 1000 a matrix
# instance takes 5-7 s, 230 MB and a 27 MB file, against 1.1 s and 94 MB at
# n = 500 (`gen` on 2 vCPUs of a shared Intel Xeon host).
MAX_GEN_POINTS = 1000


def cmd_validate(args):
    report = ValidationReport([])
    try:
        load_instance(args.instance)   # its space is validated as it is built
    except MetricError as exc:
        report = exc.report
    return report.to_dict(), EXIT_OK if report.ok else EXIT_INPUT


def cmd_gen(args):
    if not 1 <= args.n <= MAX_GEN_POINTS:
        raise ParameterError(
            f"--n must be between 1 and {MAX_GEN_POINTS}, got {args.n}")
    inst = gen_random_instance(
        args.seed, args.n, metric_kind=args.kind,
        field_spec={"f": {"p_inf": args.p_inf}, "g": {"p_inf": args.p_inf}})
    return inst.to_dict(), EXIT_OK


def cmd_slopes(args):
    inst = load_instance(args.instance)
    f = inst.field(args.field)
    prof = slope_profile(f, inst.nbhd)
    report = {"field": args.field, "points": {
        x: {"value": "inf"} if v == INF else
        {"value": v, "local_slope": prof.local[x],
         "global_slope": prof.global_[x]}
        for x, v in zip(f.space.points, f.values)}}
    for eps in args.eps or []:
        report.setdefault("eps_sets", {})[str(eps)] = {
            "eps_argmin": list(eps_argmin(f, eps)),
            "eps_crit": list(eps_crit(f, inst.nbhd, eps)),
            "eps_Crit": list(eps_Crit(f, eps)),
        }
    return report, EXIT_OK


def cmd_evp(args):
    inst = load_instance(args.instance)
    f = inst.field(args.field)
    x = ekeland_point(f, getattr(args, "from"), args.lam)
    d = inst.space.distance(getattr(args, "from"), x)
    return ({"x_lambda": x, "f_value": f.value(x), "distance_from_start": d},
            EXIT_OK)


def cmd_descent(args):
    inst = load_instance(args.instance)
    f = inst.field(args.f)
    g = inst.field(args.g)
    if args.mode == "global":
        x = descent_step(f, g, inst.nbhd, getattr(args, "from"), args.eps0,
                         mode="global")
        return {"x": x, "f_value": f.value(x)}, EXIT_OK
    trace = descent_to_critical(f, g, inst.nbhd, getattr(args, "from"),
                                eps0=args.eps0)
    problems = verify_trace(trace, f, g, inst.nbhd)
    if problems:
        raise FatalFinding("; ".join(problems), witness=trace.to_dict())
    return trace.to_dict(), EXIT_OK


def cmd_check(args):
    inst = load_instance(args.instance)
    f = inst.field(args.f)
    g = inst.field(args.g)
    if args.which == "tz":
        report = check_tz(f, g)
    elif args.which == "lips":
        report = check_lips(f, g, args.eps)
    elif args.which == "lsc":
        report = check_lsc(f, g, args.r, args.eps)
    else:
        report = check_compact(f, g, inst.nbhd)
    return report.to_dict(), report.exit_code()


def cmd_mr(args):
    f, g = (pl_from_dict(_read_json(path)) for path in (args.f, args.g))
    return mr_check(f, g).to_dict(), EXIT_OK


def _summary_path(output):
    """Where the suite's CSV summary goes: beside the report ``output``."""
    return os.path.splitext(output)[0] + ".csv"


def cmd_suite(args):
    # the summary would replace the report: compared ignoring case, as some
    # file systems do; refused before any instance is built
    if args.output and (_summary_path(args.output).lower()
                        == args.output.lower()):
        raise ParameterError(
            f"suite -o {args.output} would be overwritten by the CSV summary, "
            f"which goes to {_summary_path(args.output)}; give the report "
            "another extension")
    report = run_suite(_expect(_read_json(args.config), dict, "suite config")
                       if args.config else {})
    return report, EXIT_OK if report["ok"] else EXIT_FATAL


class _Parser(argparse.ArgumentParser):
    """argparse's usage and error lines, with exit code 3, for a malformed
    command line; ``add_subparsers`` builds every subparser of this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slopekit",
        description="Slope analysis and variational checks on finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    instance, field, pair = (argparse.ArgumentParser(add_help=False)
                             for _ in range(3))
    instance.add_argument("instance")
    field.add_argument("--field", default="f")
    pair.add_argument("--f", default="f")
    pair.add_argument("--g", default="g")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.add_argument("-o", "--output")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate,
            "check the metric axioms of an instance", instance)

    p = command("gen", cmd_gen, "generate a random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--kind", choices=["graph", "matrix", "grid"], default="graph")
    p.add_argument("--p-inf", type=float, default=0.0)

    p = command("slopes", cmd_slopes,
                "per-point slopes and eps-set memberships", instance, field)
    p.add_argument("--eps", type=float, action="append")

    p = command("evp", cmd_evp, "constructive Ekeland point", instance, field)
    p.add_argument("--from", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = command("descent", cmd_descent,
                "descent step / descent-to-critical trace", instance, pair)
    p.add_argument("--from", required=True)
    p.add_argument("--eps0", type=float, default=1.0)
    p.add_argument("--mode", choices=["local", "global"], default="local")

    p = command("check", cmd_check, "determination theorem checkers",
                instance, pair)
    p.add_argument("--which", choices=["tz", "lips", "lsc", "compact"],
                   required=True)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.5)

    p = command("mr", cmd_mr, "Moreau-Rockafellar check for 1D PL convex pairs")
    p.add_argument("f")
    p.add_argument("g")

    p = command("suite", cmd_suite, "run the property-test suite")
    p.add_argument("--config")

    return parser


def _warn(*lines):
    """Each line on stderr, then a flush; a closed or failing stderr loses
    them, not the exit code, and never sends them to stdout."""
    if sys.stderr is not None:   # None: fd 2 closed at start-up
        with contextlib.suppress(OSError):
            for line in lines:
                print(line, file=sys.stderr)
            sys.stderr.flush()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)   # exits 3 on a malformed line
    try:
        obj, code = args.func(args)
        _write_json(obj, args.output or None)   # -o "" means stdout
        if args.command == "suite" and args.output:   # after the report
            with open(_summary_path(args.output), "w") as fh:
                fh.write(summary_csv(obj))
        return code
    except HypothesisViolation as exc:
        _warn(f"hypothesis violated: {exc}")
        return EXIT_HYPOTHESIS
    except FatalFinding as exc:
        witness = () if exc.witness is None else (_json_text(exc.witness),)
        _warn(f"FATAL FINDING: {exc}", *witness)
        return EXIT_FATAL
    except (SlopekitError, OSError, json.JSONDecodeError) as exc:
        _warn(f"input error: {exc}")
        return EXIT_INPUT


def run():
    """The process entry (``python -m slopekit.cli``, the ``slopekit``
    script): ``main``, a flush, then ``os._exit``, skipping the module
    teardown.  A failed stdout flush exits 3; what escapes main exits as usual."""
    code = main()
    try:
        if sys.stdout is not None:   # None: fd 1 closed at start-up
            sys.stdout.flush()
    except OSError as exc:
        _warn(f"input error: {exc}")
        code = EXIT_INPUT
    _warn()   # flushes stderr, as far as it can be written
    os._exit(code)


if __name__ == "__main__":
    run()
