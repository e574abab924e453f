"""randskew: row-sampling sketches, inversion-bias correction, and
sketched second-order solvers."""

from .errors import (AllTrialsSingular, AllZeroRows, ConfigError,
                     IndexOutOfRange, LabelDomainError, NoConvergence,
                     NotPositiveDefinite, NotPowerOfTwo, ParseError,
                     RandskewError, SketchTooSmall,
                     ZeroProbabilityWithPositiveScore)
from .linalg import (RowScaled, cholesky, gram, inv_sqrt, solve_spd,
                     spectral_norm, sqrt_psd)
from .sampling import (ApproxFactors, PlanKind, ProjectionPlan, SamplingPlan,
                       SjltPlan, SketchDraw, apply_sketch,
                       approximation_factors, build_plan, draw,
                       effective_dimension, exact_leverage_scores,
                       sjlt_approx_leverage)
from .hadamard import (SrhtDraw, SrhtPlan, fwht_inplace, next_power_of_two,
                       rotated_leverage_scores, srht_apply, srht_draw)
from .debias import (DebiasMode, DebiasSpec, FixedPointD, apply_debias,
                     fine_grained_weights, scalar_factor,
                     solve_fixed_point_d)
from .biaslab import (BiasEstimate, BiasSweepRow, bias_sweep, estimate_bias,
                      make_debias_spec)
from .data import (DataSource, SyntheticKind, SyntheticSpec,
                   counterexample_matrix, load_data)
from .optim import (GdMethod, GlmProblem, NewtonExactMethod, ProblemKind,
                    ReferencePoint, RunTrace, SgdMethod, SsnMethod,
                    StepRule, objective_eval, objective_value,
                    reference_point, reference_solution, run_solver,
                    ssn_step, analytic_step_size)

__version__ = "0.1.0"
