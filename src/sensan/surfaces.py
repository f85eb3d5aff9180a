"""Two-dimensional parametric models in local coordinates.

A chart carries the Fisher information matrix I = [[E, F], [F, G]] of a
two-parameter model as a closed form on an open coordinate domain. The
gradient of a coordinate functional f in the score basis solves

    I (a, b)^T = (f_u, f_v)^T,

and the sensitivity of one coordinate functional to another is the
quadratic form [psi_u psi_v] I^-1 [nu_u nu_v]^T. The multinomial sphere
chart also carries its embedding scores, so the analytic information
matrix can be cross-checked against finite differences of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SensanError, read
from .expressions import as_array_function, parse_whitelisted

__all__ = [
    "Chart",
    "CoordFunctional",
    "coord_functional",
    "sphere_chart",
    "flat_normal_chart",
    "hyperbolic_normal_chart",
    "custom_chart",
    "build_chart",
    "information_matrix",
    "numerical_information_matrix",
    "coordinate_gradient",
    "surface_sensitivity",
]


@dataclass(frozen=True)
class Chart:
    """A coordinate patch with its Fisher information.

    info maps (u, v) to the 2x2 matrix. scores and embedding are present
    only for charts with an explicit embedding (the multinomial sphere);
    inside is an extra domain predicate beyond the bounding box.
    """

    kind: str
    bounds: tuple[tuple[float, float], tuple[float, float]]
    info: object
    scores: object = None
    embedding: object = None
    inside: object = None


def sphere_chart() -> Chart:
    """Three-outcome multinomial as a sphere octant, x = (2√u, 2√v, 2√w)."""

    def info(u, v):
        w = 1.0 - u - v
        return np.array([[1.0 / u + 1.0 / w, 1.0 / w],
                         [1.0 / w, 1.0 / v + 1.0 / w]])

    def scores(u, v):
        w = 1.0 - u - v
        xu = np.array([1.0 / np.sqrt(u), 0.0, -1.0 / np.sqrt(w)])
        xv = np.array([0.0, 1.0 / np.sqrt(v), -1.0 / np.sqrt(w)])
        return xu, xv

    def embedding(u, v):
        w = 1.0 - u - v
        return np.array([2.0 * np.sqrt(u), 2.0 * np.sqrt(v), 2.0 * np.sqrt(w)])

    return Chart(kind="SphereMultinomial", bounds=((0.0, 1.0), (0.0, 1.0)),
                 info=info, scores=scores, embedding=embedding,
                 inside=lambda u, v: u + v < 1.0)


def flat_normal_chart() -> Chart:
    """Means of N((u, v), I2); the information matrix is the identity."""
    return Chart(kind="FlatNormal", bounds=((-1e6, 1e6), (-1e6, 1e6)),
                 info=lambda u, v: np.eye(2))


def hyperbolic_normal_chart() -> Chart:
    """N(u, v^2) in (mean, sd) coordinates; information diag(1/v^2, 2/v^2).

    Constant negative curvature, which is documentation only; nothing
    here computes curvature."""
    return Chart(kind="HyperbolicNormal", bounds=((-1e6, 1e6), (1e-8, 1e6)),
                 info=lambda u, v: np.array([[1.0 / v ** 2, 0.0],
                                             [0.0, 2.0 / v ** 2]]))


def custom_chart(info, bounds, inside=None) -> Chart:
    return Chart(kind="Custom", bounds=bounds, info=info, inside=inside)


_BUILTIN = {
    "sphere": sphere_chart,
    "flat": flat_normal_chart,
    "hyperbolic": hyperbolic_normal_chart,
}


def build_chart(name: str) -> Chart:
    return _BUILTIN[read({"chart": name}, "chart", str,
                         choices=tuple(_BUILTIN))]()


@dataclass(frozen=True)
class CoordFunctional:
    """Smooth functional of the coordinates with analytic partials."""

    text: str
    f: object
    fu: object
    fv: object


def coord_functional(text: str) -> CoordFunctional:
    expr = parse_whitelisted(text, ("u", "v"))
    return CoordFunctional(
        text=text,
        f=as_array_function(expr, ("u", "v")),
        fu=as_array_function(expr.diff("u"), ("u", "v")),
        fv=as_array_function(expr.diff("v"), ("u", "v")),
    )


def _check_point(chart: Chart, at) -> tuple[float, float]:
    u, v = float(at[0]), float(at[1])
    (ulo, uhi), (vlo, vhi) = chart.bounds
    if not (ulo < u < uhi and vlo < v < vhi) or (
            chart.inside is not None and not chart.inside(u, v)):
        raise SensanError(
            f"point ({u:.6g}, {v:.6g}) is outside the open domain of the "
            f"{chart.kind} chart")
    return u, v


def information_matrix(chart: Chart, at) -> np.ndarray:
    """Fisher information at an interior point, validated symmetric
    positive-definite and, when embedding scores exist, consistent with
    them to 1e-10."""
    u, v = _check_point(chart, at)
    I = np.asarray(chart.info(u, v), dtype=float)
    if I.shape != (2, 2) or not np.all(np.isfinite(I)):
        raise SensanError("information matrix must be a finite 2x2 matrix")
    if abs(I[0, 1] - I[1, 0]) > 1e-10 * (1.0 + abs(I[0, 1])):
        raise SensanError("information matrix must be symmetric")
    eigs = np.linalg.eigvalsh(I)
    if eigs[0] <= 0.0:
        raise SensanError(
            f"degenerate information matrix at ({u:.6g}, {v:.6g}): "
            f"min eigenvalue {eigs[0]:.3g}")
    if chart.scores is not None:
        xu, xv = chart.scores(u, v)
        ref = np.array([[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]])
        if np.max(np.abs(I - ref)) > 1e-10 * (1.0 + np.max(np.abs(I))):
            raise SensanError("information matrix disagrees with the "
                              "embedding scores")
    return I


def numerical_information_matrix(chart: Chart, at, step: float = 1e-5
                                 ) -> np.ndarray:
    """Information matrix from central differences of the embedding."""
    if chart.embedding is None:
        raise SensanError(f"{chart.kind} chart has no embedding to difference")
    u, v = _check_point(chart, at)
    xu = (chart.embedding(u + step, v) - chart.embedding(u - step, v)) / (2 * step)
    xv = (chart.embedding(u, v + step) - chart.embedding(u, v - step)) / (2 * step)
    return np.array([[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]])


def _partials(f: CoordFunctional, u: float, v: float) -> np.ndarray:
    p = np.array([float(f.fu(u, v)), float(f.fv(u, v))])
    if not np.all(np.isfinite(p)):
        raise SensanError("coordinate partials are not finite at the point")
    return p


def coordinate_gradient(chart: Chart, f: CoordFunctional, at
                        ) -> tuple[float, float]:
    """Coefficients (a, b) of the gradient in the score basis."""
    I = information_matrix(chart, at)
    u, v = float(at[0]), float(at[1])
    a, b = np.linalg.solve(I, _partials(f, u, v))
    return float(a), float(b)


def surface_sensitivity(chart: Chart, psi: CoordFunctional,
                        nu: CoordFunctional, at, *,
                        mode: str = "analytic") -> float:
    """Sensitivity [psi_u psi_v] I^-1 [nu_u nu_v]^T of psi to nu at a point.

    mode "numerical" replaces the analytic information matrix by the
    finite-difference one from the embedding scores."""
    if mode == "analytic":
        I = information_matrix(chart, at)
    elif mode == "numerical":
        I = numerical_information_matrix(chart, at)
    else:
        raise SensanError(f"unknown surface sensitivity mode '{mode}'")
    u, v = float(at[0]), float(at[1])
    return float(_partials(psi, u, v) @ np.linalg.solve(I, _partials(nu, u, v)))
