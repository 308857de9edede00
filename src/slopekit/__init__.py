"""Slope calculus, Ekeland points, and function-determination checks on
finite metric spaces, plus exact 1D piecewise-linear convex subdifferentials.

A bare ``import slopekit`` loads no submodule and not numpy: each public
name, and each submodule, is imported on its first access (PEP 562) and
then kept in this module's namespace."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, which this package exports
_EXPORTS = {
    "config": ("DEFAULT_TOL", "get_tol"),
    "convex1d": ("MRResult", "PLConvex", "mr_check"),
    "errors": ("DomainError", "FatalFinding", "HypothesisViolation",
               "ImproperFieldError", "MetricError", "ParameterError",
               "ShapeError", "SlopekitError", "UndefinedArithmeticError"),
    "instances": ("Instance", "gen_dominated_pair", "gen_random_instance",
                  "gen_random_pl", "instance_from_dict", "load_instance",
                  "pl_from_dict", "save_instance"),
    "metric_space": ("MetricSpace", "NeighborhoodSystem",
                     "all_pairs_neighborhoods", "ball_neighborhoods",
                     "explicit_neighborhoods", "grid_space",
                     "shortest_path_space", "validate_metric"),
    "slope_core": ("ScalarField", "SlopeProfile", "add_fields",
                   "domination_witnesses", "eps_argmin", "eps_crit",
                   "eps_Crit", "global_slope", "local_slope",
                   "log_distance_field", "pasch_hausdorff", "restrict",
                   "scale_field", "slope_profile", "slopes",
                   "strict_comparison_witnesses", "sub_fields",
                   "sublevel_diff", "truncate"),
    "suite": ("run_suite", "summary_csv"),
    "variational": ("CheckReport", "DescentTrace", "check_compact",
                    "check_lips", "check_lsc", "check_tz", "descent_step",
                    "descent_to_critical", "ekeland_point", "verify_trace"),
}

# name -> the submodule that defines it; a submodule names itself
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = [name for name, module in _HOME.items() if name != module]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
