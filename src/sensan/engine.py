"""Sensitivity measures, gradient-path counterfactuals, and the
first-order verification harness.

All quantities reduce to inner products of influence functions with the
gradient operator of the chosen metric:

    dpsi_dnu = <psi~, A* nu~>_P          derivative of psi along grad nu
    S        = dpsi_dnu / |grad nu|^2    sensitivity coefficient
    R        = dpsi_dnu^2 / (|grad psi|^2 |grad nu|^2)   local sufficiency

with |grad nu|^2 = <nu~, A* nu~>_P. Lambda and Delta are the same ratios
in the plain L2(P) geometry and are reported alongside under every
metric; under the information metric they coincide with S and R by
construction (the operator is the identity there).

Counterfactuals move the density along the gradient of the control
functional on the multiplicative path (1 + h grad nu) dP. The exponential
tilt exp(h grad nu) dP is available behind a flag for comparison. The
multiplicative step bound reads the direction's range from
`PiecewiseField.extremes`, at the nodes and on both sides of every jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SensanError
from .functionals import Functional, evaluate, influence
from .model_space import RATIO_CLAMP, CutTerm, GridDensity, PiecewiseField
from .tangent import (PolicyMetric, TangentVector, _same_base, grad_op_apply,
                      inner, inner_p)

__all__ = [
    "SensitivityReport",
    "CounterfactualReport",
    "FirstOrderCheck",
    "sensitivity",
    "sensitivity_from_influences",
    "counterfactual_density",
    "counterfactual_report",
    "verify_first_order",
]


_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows above it
_REFINE_STEPS = 20  # secant steps a counterfactual refinement may take


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _compared_fields(report) -> dict:
    """A report's JSON form: its compared fields, in declaration order."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.compare}


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity of psi to the control nu at a fixed distribution.

    grad_norm_psi and grad_norm_nu are metric norms (not squares).
    Lambda and Delta are the information-metric sensitivity and
    sufficiency, reported under every metric. Reports built by
    `sensitivity_from_influences` also carry the two influence functions
    and the metric gradient A* nu~ they were computed from; these stay out
    of comparisons and of the JSON form.
    """

    psi_label: str
    nu_label: str
    metric_kind: str
    psi_value: float
    nu_value: float
    dpsi_dnu: float
    S: float
    R: float
    grad_norm_psi: float
    grad_norm_nu: float
    Lambda: float
    Delta: float
    psi_influence: TangentVector | None = field(default=None, repr=False,
                                                compare=False)
    nu_influence: TangentVector | None = field(default=None, repr=False,
                                               compare=False)
    nu_gradient: TangentVector | None = field(default=None, repr=False,
                                              compare=False)

    def __post_init__(self):
        if not 0.0 <= self.R <= 1.0 + 1e-8:
            raise SensanError(f"sufficiency R = {self.R:.6g} outside [0, 1]")
        if not _close(self.R * self.grad_norm_psi ** 2 * self.grad_norm_nu ** 2,
                      self.dpsi_dnu ** 2, 1e-10):
            raise SensanError("report fields violate the R identity")
        if not _close(self.S * self.grad_norm_nu ** 2, self.dpsi_dnu, 1e-10):
            raise SensanError("report fields violate the S identity")

    def to_json_dict(self) -> dict:
        return _compared_fields(self)


def sensitivity_from_influences(psi_t: TangentVector, nu_t: TangentVector,
                                metric: PolicyMetric, *,
                                psi_label: str = "psi", nu_label: str = "nu",
                                psi_value: float = math.nan,
                                nu_value: float = math.nan) -> SensitivityReport:
    """Sensitivity report from precomputed influence functions."""
    Apsi = grad_op_apply(psi_t, metric)
    Anu = grad_op_apply(nu_t, metric)
    dpsi = inner_p(psi_t, Anu)
    gn2_nu = inner_p(nu_t, Anu)
    gn2_psi = inner_p(psi_t, Apsi)
    for name, value in (("gradient norm of nu", gn2_nu),
                        ("gradient norm of psi", gn2_psi), ("dpsi_dnu", dpsi)):
        if not math.isfinite(value):
            raise SensanError(f"{name} is not finite: {value}")
    if gn2_nu <= 0.0 or gn2_psi <= 0.0:
        raise SensanError("degenerate gradient: non-positive squared norm")
    # same quantity through the metric itself; disagreement means the
    # operator and the quadrature fell out of sync
    for name, primal, u in (("nu", gn2_nu, Anu), ("psi", gn2_psi, Apsi)):
        dual = inner(u, u, metric)
        if not _close(primal, dual, 1e-8):
            cause = ""
            if metric.ratio is not None and metric.ratio.clamped:
                m, M = RATIO_CLAMP
                cause = (f"; the likelihood ratio dP/dQ was clamped into "
                         f"[{m:g}, {M:g}]")
            if metric.kind == "policy" and psi_t.base.terms:
                cause += ("; P has jumps, and the likelihood ratio dP/dQ, "
                          "a quotient of node values, turns each into a "
                          "ramp across one cell")
            raise SensanError(
                f"gradient norm of {name} disagrees between code paths: "
                f"{primal:.12g} vs {dual:.12g}{cause}")
    ip_pn = inner_p(psi_t, nu_t)
    ip_nn = inner_p(nu_t, nu_t)
    ip_pp = inner_p(psi_t, psi_t)
    return SensitivityReport(
        psi_label=psi_label,
        nu_label=nu_label,
        metric_kind=metric.label,
        psi_value=psi_value,
        nu_value=nu_value,
        dpsi_dnu=dpsi,
        S=dpsi / gn2_nu,
        R=dpsi * dpsi / (gn2_psi * gn2_nu),
        grad_norm_psi=math.sqrt(gn2_psi),
        grad_norm_nu=math.sqrt(gn2_nu),
        Lambda=ip_pn / ip_nn,
        Delta=ip_pn * ip_pn / (ip_pp * ip_nn),
        psi_influence=psi_t,
        nu_influence=nu_t,
        nu_gradient=Anu,
    )


def sensitivity(psi: Functional, nu: Functional, P: GridDensity,
                metric: PolicyMetric) -> SensitivityReport:
    """Sensitivity of psi(P) to the control nu(P) under the metric."""
    psi_t = influence(psi, P)
    nu_t = influence(nu, P)
    return sensitivity_from_influences(
        psi_t, nu_t, metric,
        psi_label=psi.label, nu_label=nu.label,
        psi_value=evaluate(psi, P), nu_value=evaluate(nu, P))


# --- counterfactual densities -------------------------------------------------------

def _check_direction_base(P: GridDensity, direction: TangentVector) -> None:
    if not _same_base(direction.base, P):
        raise SensanError("direction is not tangent at the given density")


def counterfactual_density(P: GridDensity, direction: TangentVector, h: float,
                           *, path: str = "multiplicative") -> GridDensity:
    """Density moved along a tangent direction.

    Multiplicative path: (1 + h direction) dP, requiring the factor to
    stay above 1e-6 everywhere (probed at nodes and on both sides of
    every jump by `PiecewiseField.extremes`). Exponential path:
    renormalized exp(h direction) dP, one term per distinct jump box; a
    step whose tilted density would overflow a float is refused.
    """
    _check_direction_base(P, direction)
    if h == 0.0:
        return P
    if path == "multiplicative":
        dmin, dmax = direction.extremes()
        binding = dmin if h > 0.0 else dmax
        if 1.0 + h * binding < 1e-6:
            hmax = (1.0 - 1e-6) / abs(binding)
            raise SensanError(
                "step too large for multiplicative path: "
                f"|h| = {abs(h):.6g} exceeds max admissible h = {hmax:.6g}")
        # the factor 1 + h direction is a plain field, not a direction
        factor = PiecewiseField.scale(direction, h).shift(1.0)
        moved = P.times(factor)
        return GridDensity(P.grid, moved.smooth, _terms=moved.terms)
    if path == "exponential":
        return _exponential_tilt(P, direction, h)
    raise SensanError(f"unknown counterfactual path '{path}'")


def _exponential_tilt(P: GridDensity, direction: TangentVector,
                      h: float) -> GridDensity:
    # exp(h(s + sum t_j 1_j)) = exp(h s) * prod_j (1 + (exp(h t_j) - 1) 1_j)
    exps = [h * direction.smooth] + [h * t.samples for t in direction.terms]
    # refuse before exp: each exponent, and the tilt's whole range (h times
    # the direction's extremes), plus log max P, since the tilt multiplies P
    top = max([float(e.max()) for e in exps]
              + [h * v for v in direction.extremes()]) + math.log(P.extremes()[1])
    if top > _LOG_MAX:
        raise SensanError(
            f"step h = {h:.6g} overflows the exponential path: the tilted "
            f"density would reach exp({top:.6g})")
    factor = PiecewiseField(P.grid, np.exp(exps[0]))
    ones = np.ones(P.grid.shape)
    for t, e in zip(direction.terms, exps[1:]):
        gain = CutTerm(t.cuts, np.exp(e) - 1.0)
        factor = factor.times(PiecewiseField(P.grid, ones, (gain,)))
    tilted = P.times(factor)
    return GridDensity(P.grid, tilted.smooth, _terms=tilted.terms,
                       _normalize="force")


# --- counterfactual reports ---------------------------------------------------------

@dataclass(frozen=True)
class CounterfactualReport:
    """A gradient-path counterfactual and its first-order prediction.

    tolerance is the declared second-order bound C h^2 on the gap between
    the achieved and requested control increment; C is estimated by
    halving h once, with a safety factor of two. sensitivity is the report
    at the base density whose nu_gradient the step moves along; it stays
    out of comparisons and of the JSON form.
    """

    h: float
    target_increment: float
    nu_before: float
    nu_after: float
    psi_before: float
    psi_after: float
    predicted_psi_after: float
    tolerance: float
    counterfactual: GridDensity
    sensitivity: SensitivityReport | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        gap = abs(self.nu_after - self.nu_before - self.target_increment)
        if gap > self.tolerance:
            raise SensanError(
                f"achieved control increment misses the target by {gap:.3g}, "
                f"beyond the declared second-order tolerance {self.tolerance:.3g}")

    def to_json_dict(self) -> dict:
        grid = self.counterfactual.grid
        return {**_compared_fields(self), "counterfactual": {
            "axes": [[ax.lo, ax.hi, ax.n] for ax in grid.axes],
            "values": np.asarray(self.counterfactual.values).ravel().tolist(),
        }}


def counterfactual_report(psi: Functional, nu: Functional, P: GridDensity,
                          metric: PolicyMetric, target_increment: float, *,
                          refine: bool = False, path: str = "multiplicative"
                          ) -> CounterfactualReport:
    """Move nu(P) by the requested amount along its gradient and report
    what happened to psi.

    The step is the first-order rule h = target / |grad nu|^2; the report
    carries the achieved increment and a declared C h^2 tolerance on the
    gap. With refine=True, h is adjusted (at most _REFINE_STEPS secant
    steps, tolerance 1e-8) so the achieved increment hits the target.
    """
    rep = sensitivity(psi, nu, P, metric)
    direction = rep.nu_gradient
    gn2 = rep.grad_norm_nu ** 2
    nu0, psi0 = rep.nu_value, rep.psi_value
    h = target_increment / gn2

    def achieved(step: float) -> tuple[float, GridDensity]:
        Ph = counterfactual_density(P, direction, step, path=path)
        return evaluate(nu, Ph) - nu0, Ph

    inc, Ph = achieved(h)
    if refine and h != 0.0:
        slope = gn2
        steps = 0
        while abs(inc - target_increment) > 1e-8 and steps < _REFINE_STEPS:
            step = h - (inc - target_increment) / slope
            inc_new, Ph_new = achieved(step)
            if inc_new != inc:
                slope = (inc_new - inc) / (step - h)
            h, inc, Ph, steps = step, inc_new, Ph_new, steps + 1
        if abs(inc - target_increment) > 1e-8:
            raise SensanError(
                "counterfactual refinement did not reach the target increment: "
                f"|achieved - target| = {abs(inc - target_increment):.3g} "
                f"after {steps} secant steps")

    if h == 0.0:
        tol = 1e-9 * (1.0 + abs(nu0))
    else:
        inc_half, _ = achieved(h / 2.0)
        e_half = abs(inc_half - (h / 2.0) * gn2)
        C = e_half / (h / 2.0) ** 2
        tol = max(2.0 * C * h * h, 1e-9 * (1.0 + abs(nu0)))
    if refine:
        tol = max(tol, 2e-8)
    return CounterfactualReport(
        h=h,
        target_increment=target_increment,
        nu_before=nu0,
        nu_after=nu0 + inc,
        psi_before=psi0,
        psi_after=evaluate(psi, Ph),
        predicted_psi_after=psi0 + rep.S * target_increment,
        tolerance=tol,
        counterfactual=Ph,
        sensitivity=rep,
    )


# --- first-order verification -------------------------------------------------------

@dataclass(frozen=True)
class FirstOrderCheck:
    """Remainder table for the linearization along the gradient path.

    rows are (h, nu_error, psi_error) with
        nu_error  = |nu(P_h) - nu(P) - h |grad nu|^2|
        psi_error = |psi(P_h) - psi(P) - h dpsi_dnu|
    Fitted log-log slopes are nan when the errors sit at quadrature noise
    (an exactly linear functional has no remainder to fit).
    """

    rows: tuple[tuple[float, float, float], ...]
    slope_nu: float
    slope_psi: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"h": h, "nu_error": en, "psi_error": ep}
                     for h, en, ep in self.rows],
            "slope_nu": self.slope_nu,
            "slope_psi": self.slope_psi,
        }


def _fit_slope(hs: list[float], errs: list[float], floor: float) -> float:
    pts = [(math.log(h), math.log(e)) for h, e in zip(hs, errs) if e > floor]
    if len(pts) < 2:
        return math.nan
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def verify_first_order(psi: Functional, nu: Functional, P: GridDensity,
                       metric: PolicyMetric, h_list) -> FirstOrderCheck:
    """Check that the counterfactual remainders shrink quadratically.

    h_list must hold at least three decreasing positive step sizes, each
    admissible on the multiplicative path.
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 3 or any(h <= 0.0 for h in hs) or any(
            a <= b for a, b in zip(hs, hs[1:])):
        raise SensanError("need at least three decreasing positive step sizes")
    rep = sensitivity(psi, nu, P, metric)
    direction = rep.nu_gradient
    gn2 = rep.grad_norm_nu ** 2
    rows = []
    for h in hs:
        Ph = counterfactual_density(P, direction, h)
        e_nu = abs(evaluate(nu, Ph) - rep.nu_value - h * gn2)
        e_psi = abs(evaluate(psi, Ph) - rep.psi_value - h * rep.dpsi_dnu)
        rows.append((h, e_nu, e_psi))
    floor_nu = 1e-12 * (1.0 + abs(rep.nu_value))
    floor_psi = 1e-12 * (1.0 + abs(rep.psi_value))
    return FirstOrderCheck(
        rows=tuple(rows),
        slope_nu=_fit_slope(hs, [r[1] for r in rows], floor_nu),
        slope_psi=_fit_slope(hs, [r[2] for r in rows], floor_psi),
    )
