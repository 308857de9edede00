"""Command-line front door.

Exit codes: 0 verified / success, 1 hypothesis violated, 2 fatal finding
(a theorem conclusion falsified), 3 input error.
"""

import argparse
import json
import os
import sys

from .convex1d import mr_check, pl_from_dict
from .errors import (FatalFinding, HypothesisViolation, MetricError,
                     ParameterError, SlopekitError)
from .instances import gen_random_instance, load_instance, save_instance
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


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args):
    report = ValidationReport([])
    try:
        load_instance(args.instance)   # its space is validated as it is built
    except MetricError as exc:
        report = exc.report
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_gen(args):
    if not 1 <= args.n <= MAX_GEN_POINTS:
        raise ParameterError(
            f"--n must be between 1 and {MAX_GEN_POINTS}, got {args.n}")
    inst = gen_random_instance(
        args.seed, args.n, metric_kind=args.kind,
        field_spec={"f": {"p_inf": args.p_inf}, "g": {"p_inf": args.p_inf}})
    if args.output:
        save_instance(inst, args.output)
    else:
        print(inst.to_json())
    return EXIT_OK


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
    _emit(report, args.output)
    return EXIT_OK


def cmd_evp(args):
    inst = load_instance(args.instance)
    f = inst.field(args.field)
    x = ekeland_point(f, getattr(args, "from"), args.lam)
    d = inst.space.distance(getattr(args, "from"), x)
    _emit({"x_lambda": x, "f_value": f.value(x), "distance_from_start": d},
          args.output)
    return EXIT_OK


def cmd_descent(args):
    inst = load_instance(args.instance)
    f = inst.field(args.f)
    g = inst.field(args.g)
    if args.mode == "local":
        trace = descent_to_critical(f, g, inst.nbhd, getattr(args, "from"),
                                    eps0=args.eps0)
        problems = verify_trace(trace, f, g, inst.nbhd)
        if problems:
            raise FatalFinding("; ".join(problems), witness=trace.to_dict())
        _emit(trace.to_dict(), args.output)
    else:
        x = descent_step(f, g, inst.nbhd, getattr(args, "from"), args.eps0,
                         mode="global")
        _emit({"x": x, "f_value": f.value(x)}, args.output)
    return EXIT_OK


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
    _emit(report.to_dict(), args.output)
    return report.exit_code()


def cmd_mr(args):
    with open(args.f) as fh:
        f = pl_from_dict(json.load(fh))
    with open(args.g) as fh:
        g = pl_from_dict(json.load(fh))
    result = mr_check(f, g)
    _emit(result.to_dict(), args.output)
    return EXIT_OK


def cmd_suite(args):
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    report = run_suite(config)
    _emit(report, args.output)
    if args.output:   # the CSV summary goes beside the report, if any
        with open(os.path.splitext(args.output)[0] + ".csv", "w") as fh:
            fh.write(summary_csv(report))
    return EXIT_OK if report["ok"] else EXIT_FATAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopekit",
        description="Slope analysis and variational checks on finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the metric axioms of an instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--kind", choices=["graph", "matrix", "grid"], default="graph")
    p.add_argument("--p-inf", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("slopes", help="per-point slopes and eps-set memberships")
    p.add_argument("instance")
    p.add_argument("--field", default="f")
    p.add_argument("--eps", type=float, action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_slopes)

    p = sub.add_parser("evp", help="constructive Ekeland point")
    p.add_argument("instance")
    p.add_argument("--field", default="f")
    p.add_argument("--from", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_evp)

    p = sub.add_parser("descent", help="descent step / descent-to-critical trace")
    p.add_argument("instance")
    p.add_argument("--f", default="f")
    p.add_argument("--g", default="g")
    p.add_argument("--from", required=True)
    p.add_argument("--eps0", type=float, default=1.0)
    p.add_argument("--mode", choices=["local", "global"], default="local")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("check", help="determination theorem checkers")
    p.add_argument("instance")
    p.add_argument("--which", choices=["tz", "lips", "lsc", "compact"],
                   required=True)
    p.add_argument("--f", default="f")
    p.add_argument("--g", default="g")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mr", help="Moreau-Rockafellar check for 1D PL convex pairs")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_mr)

    p = sub.add_parser("suite", help="run the property-test suite")
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except FatalFinding as exc:
        print(f"FATAL FINDING: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(json.dumps(exc.witness, indent=2, default=str),
                  file=sys.stderr)
        return EXIT_FATAL
    except (SlopekitError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
