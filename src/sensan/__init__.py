"""Sensitivity of statistical functionals under information and policy
metrics: influence functions, metric gradients, calibrated
counterfactuals, moment-model projections, curved-model charts, and the
Monte Carlo harness that checks the asymptotics.
"""

from .engine import (CounterfactualReport, FirstOrderCheck,
                     SensitivityReport, counterfactual_density,
                     counterfactual_report, sensitivity,
                     sensitivity_from_influences, verify_first_order)
from .errors import ConfigError, SensanError
from .estimation import (McResult, Multinomial, PluginConfig,
                         RatioInformation, RatioKde, RatioKnown,
                         mc_consistency, mc_joint_asymptotics,
                         mc_joint_multinomial, plugin_sensitivity,
                         sample_from)
from .families import build_family
from .functionals import (Functional, MollifierSchedule, composite,
                          estimated_influence, evaluate, influence,
                          influence_analytic, influence_numerical, moment,
                          parse_functional, quantile_functional, variance)
from .gmm import (GmmSolution, MomentSpec, gmm_efficient_influence,
                  gmm_influence, gmm_out_direction, gmm_project_tangent,
                  gmm_solve, moment_spec)
from .model_space import (CutTerm, Grid, GridDensity, LikelihoodRatio,
                          PiecewiseField, Sample, density_at, grid_quad,
                          integrate, kde_fit, likelihood_ratio, quantile)
from .surfaces import (Chart, CoordFunctional, build_chart, coord_functional,
                       coordinate_gradient, custom_chart, flat_normal_chart,
                       hyperbolic_normal_chart, information_matrix,
                       numerical_information_matrix, sphere_chart,
                       surface_sensitivity)
from .tangent import (InformationMetric, PolicyMetric, TangentVector,
                      grad_op_apply, grad_op_inverse, information_metric,
                      inner, inner_p, policy_metric)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SensanError", "ConfigError",
    "Grid", "GridDensity", "CutTerm", "PiecewiseField", "Sample",
    "LikelihoodRatio",
    "grid_quad", "integrate", "density_at", "quantile", "likelihood_ratio",
    "kde_fit", "build_family",
    "TangentVector", "InformationMetric", "PolicyMetric",
    "information_metric", "policy_metric",
    "inner", "inner_p", "grad_op_apply", "grad_op_inverse",
    "Functional", "moment", "variance", "quantile_functional", "composite",
    "evaluate", "influence", "influence_analytic", "influence_numerical",
    "MollifierSchedule", "parse_functional",
    "SensitivityReport", "CounterfactualReport", "FirstOrderCheck",
    "sensitivity", "sensitivity_from_influences", "counterfactual_density",
    "counterfactual_report", "verify_first_order",
    "MomentSpec", "GmmSolution", "moment_spec", "gmm_solve", "gmm_influence",
    "gmm_efficient_influence", "gmm_project_tangent", "gmm_out_direction",
    "Chart", "CoordFunctional", "sphere_chart", "flat_normal_chart",
    "hyperbolic_normal_chart", "custom_chart", "build_chart",
    "coord_functional", "coordinate_gradient", "information_matrix",
    "numerical_information_matrix", "surface_sensitivity",
    "PluginConfig", "RatioInformation", "RatioKnown", "RatioKde", "McResult",
    "Multinomial", "plugin_sensitivity", "estimated_influence",
    "sample_from", "mc_consistency", "mc_joint_asymptotics",
    "mc_joint_multinomial",
]
