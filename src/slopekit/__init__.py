"""Slope calculus, Ekeland points, and function-determination checks on
finite metric spaces, plus exact 1D piecewise-linear convex subdifferentials."""

from .config import DEFAULT_TOL, get_tol
from .convex1d import MRResult, PLConvex, mr_check
from .errors import (DomainError, FatalFinding, HypothesisViolation,
                     ImproperFieldError, MetricError, ParameterError,
                     ShapeError, SlopekitError, UndefinedArithmeticError)
from .instances import (Instance, gen_dominated_pair, gen_random_instance,
                        gen_random_pl, instance_from_dict, load_instance,
                        pl_from_dict, save_instance)
from .metric_space import (MetricSpace, NeighborhoodSystem,
                           all_pairs_neighborhoods, ball_neighborhoods,
                           explicit_neighborhoods, grid_space,
                           shortest_path_space, validate_metric)
from .slope_core import (ScalarField, SlopeProfile, add_fields,
                         domination_witnesses, eps_argmin, eps_crit, eps_Crit,
                         global_slope, local_slope, log_distance_field,
                         pasch_hausdorff, restrict, scale_field,
                         slope_profile, slopes, strict_comparison_witnesses,
                         sub_fields, sublevel_diff, truncate)
from .suite import run_suite, summary_csv
from .variational import (CheckReport, DescentTrace, check_compact,
                          check_lips, check_lsc, check_tz, descent_step,
                          descent_to_critical, ekeland_point, verify_trace)

__version__ = "0.1.0"
