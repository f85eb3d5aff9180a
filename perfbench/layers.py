"""The layers the traced run records, and the metric names they yield.

A span name is `<module>.<function>`. The numerical influence route and
sampling get one name per grid dimension, because their cost grows
differently in 1-d and 2-d.

Which end-to-end metric each layer should move, and where:

- setup.import_ms, setup.inputs_ms: setup_s on every workload.
- functionals.parse_functional, gmm.moment_spec, surfaces.coord_functional
  (the expression layer): jobs_per_s and job_p50_ms on analytic, and
  setup_s everywhere through the import.
- families.build_family, model_space.quantile, tangent.*,
  functionals.influence_analytic, functionals.evaluate,
  engine.sensitivity_from_influences: job_p50_ms on analytic.
- engine.counterfactual_report, engine.verify_first_order, gmm.gmm_*,
  surfaces.surface_sensitivity, education.replicate_education, cli.main:
  job_p90_ms on analytic (the 2-d counterfactuals and the misspecified
  GMM solve form the tail).
- functionals.influence_numerical_{1d,2d}, engine.sensitivity: jobs_per_s,
  job_p90_ms and ok_ratio on numerical-influence.
- estimation.sample_from_{1d,2d}, estimation.estimated_influence (with its
  quantile KDE), estimation.plugin_sensitivity (with the KDE ratio and the
  2-d per-point interpolation), model_space.kde_fit: jobs_per_s,
  job_p90_ms and peak_rss_mb on monte-carlo.
- estimation.mc_joint_asymptotics, estimation.mc_joint_multinomial:
  jobs_per_s on monte-carlo.

Layers a workload never calls read 0 in its traced run.
"""

from __future__ import annotations


# (module, function, split): split layers get one span name per grid
# dimension, `<module>.<function>_1d` and `_2d`
TARGETS = (
    ("families", "build_family", False),
    ("model_space", "quantile", False),
    ("model_space", "kde_fit", False),
    ("tangent", "policy_metric", False),
    ("tangent", "grad_op_apply", False),
    ("tangent", "grad_op_inverse", False),
    ("tangent", "inner_p", False),
    ("functionals", "parse_functional", False),
    ("functionals", "influence_analytic", False),
    ("functionals", "influence_numerical", True),
    ("functionals", "evaluate", False),
    ("engine", "sensitivity", False),
    ("engine", "sensitivity_from_influences", False),
    ("engine", "counterfactual_report", False),
    ("engine", "verify_first_order", False),
    ("gmm", "moment_spec", False),
    ("gmm", "gmm_solve", False),
    ("gmm", "gmm_influence", False),
    ("gmm", "gmm_efficient_influence", False),
    ("gmm", "gmm_project_tangent", False),
    ("surfaces", "coord_functional", False),
    ("surfaces", "surface_sensitivity", False),
    ("education", "replicate_education", False),
    ("cli", "main", False),
    ("estimation", "sample_from", True),
    ("estimation", "estimated_influence", False),
    ("estimation", "plugin_sensitivity", False),
    ("estimation", "mc_joint_asymptotics", False),
    ("estimation", "mc_joint_multinomial", False),
)


def span_name(module: str, function: str, split: bool):
    """The span name, or for split layers a function of the call's
    arguments returning it from the density's grid dimension."""
    base = f"{module}.{function}"
    if not split:
        return base

    def name(*args, **kwargs) -> str:
        P = next(a for a in args if hasattr(a, "grid"))
        return f"{base}_{P.grid.ndim}d"

    return name


SPAN_NAMES = tuple(
    name for module, function, split in TARGETS
    for name in ([f"{module}.{function}_1d", f"{module}.{function}_2d"]
                 if split else [f"{module}.{function}"]))

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

def per_layer() -> list[tuple[str, str, str]]:
    out = [("setup.import_ms", "ms", "lower"), ("setup.inputs_ms", "ms", "lower")]
    for n in SPAN_NAMES:
        out += [(f"{n}.calls", "count", "higher"), (f"{n}.ms", "ms", "lower"),
                (f"{n}.fail", "count", "lower")]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out
