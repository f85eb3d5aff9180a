"""Statistical functionals and their influence functions.

A Functional evaluates on grid densities: moments of a smooth function of
the data, the marginal variance or a marginal quantile along an axis, or
an opaque composite map supplied by the caller. Analytic influence
functions are available for the first three kinds:

    moment     rho(x) - psi(P)
    variance   (x_a - mean_a)^2 - var_a
    quantile   (tau - 1[x_a <= q]) / f_a(q)

and the quantile one carries its jump explicitly so downstream quadrature
can split cells at q.

For functionals without a usable closed form there is a numerical route:
the Gateaux derivative along mixtures toward a near-point mass,

    d/dt psi((1 - t) P + t G_z)  at t = 0,

computed by central differences for a Gaussian bump G_z of shrinking
width sigma_j = sigma0 * 2^-j and extrapolated in the bump width. The
mixtures are signed measures for t < 0, so evaluation runs on raw
PiecewiseFields rather than through GridDensity validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SensanError, nested, read
from .expressions import as_array_function, parse_whitelisted
from .model_space import (CutTerm, Grid, GridDensity, PiecewiseField,
                          grid_quad, invert_cdf, quantile)
from .tangent import TangentVector

__all__ = [
    "Functional",
    "moment",
    "variance",
    "quantile_functional",
    "composite",
    "MollifierSchedule",
    "evaluate",
    "influence",
    "influence_analytic",
    "influence_numerical",
    "parse_functional",
]


@dataclass(frozen=True)
class Functional:
    """A real-valued functional of a distribution.

    kind: "moment" | "variance" | "quantile" | "composite"
    rho: callable on coordinate arrays (moment only)
    tau, axis: level and axis for quantile / variance
    evaluator: callable PiecewiseField -> float (composite only); it sees
        GridDensity inputs and, during numerical differentiation, signed
        mixtures
    label: short name used in reports
    """

    kind: str
    rho: object = None
    tau: float = 0.5
    axis: int = 0
    evaluator: object = None
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        if self.kind not in ("moment", "variance", "quantile", "composite"):
            raise SensanError(f"unknown functional kind '{self.kind}'")
        if self.kind == "moment" and not callable(self.rho):
            raise SensanError("moment functional needs a callable rho")
        if self.kind == "quantile" and not 0.0 < self.tau < 1.0:
            raise SensanError("quantile level must be strictly inside (0, 1)")
        if self.kind == "composite" and not callable(self.evaluator):
            raise SensanError("composite functional needs an evaluator")


def moment(rho, label: str = "moment") -> Functional:
    return Functional("moment", rho=rho, label=label)


def variance(axis: int = 0) -> Functional:
    return Functional("variance", axis=axis, label=f"variance[{axis}]")


def quantile_functional(tau: float, axis: int = 0) -> Functional:
    return Functional("quantile", tau=tau, axis=axis,
                      label=f"quantile[{tau:g}, axis {axis}]")


def composite(evaluator, label: str = "composite") -> Functional:
    return Functional("composite", evaluator=evaluator, label=label)


# --- evaluation on (possibly signed) fields ----------------------------------------

def _evaluate_field(F: Functional, f: PiecewiseField) -> float:
    grid = f.grid
    if F.kind == "moment":
        vals = np.broadcast_to(np.asarray(F.rho(*grid.mesh()), dtype=float),
                               grid.shape)
        if not np.all(np.isfinite(vals)):
            raise SensanError("non-finite integrand")
        return f.quad(vals)
    if F.kind == "variance":
        x = grid.mesh()[F.axis]
        z = f.quad(np.ones(grid.shape))
        m1 = f.quad(x) / z
        m2 = f.quad(x * x) / z
        return m2 - m1 * m1
    if F.kind == "quantile":
        return invert_cdf(f.marginal(F.axis), F.tau, strict=False)
    return float(F.evaluator(f))


def evaluate(F: Functional, P: GridDensity) -> float:
    """Value of the functional at P."""
    if F.kind == "quantile":
        return quantile(P, F.tau, F.axis)
    return _evaluate_field(F, P)


# --- analytic influence functions ---------------------------------------------------

def influence_analytic(F: Functional, P: GridDensity) -> TangentVector:
    """Closed-form influence function at P as a centered TangentVector."""
    grid = P.grid
    mesh = grid.mesh()
    if F.kind == "moment":
        vals = np.broadcast_to(np.asarray(F.rho(*mesh), dtype=float), grid.shape)
        return TangentVector(P, vals)
    if F.kind == "variance":
        x = mesh[F.axis]
        return TangentVector(P, (x - P.quad(x)) ** 2)
    if F.kind == "quantile":
        q = quantile(P, F.tau, F.axis)
        dens = float(P.marginal(F.axis).at(q)[0])
        if dens <= 1e-6:
            raise SensanError(
                "quantile influence unstable: marginal density at the "
                f"quantile is {dens:.3g}")
        step = CutTerm(((F.axis, q),), np.full(grid.shape, -1.0 / dens))
        smooth = np.full(grid.shape, F.tau / dens)
        return TangentVector(P, smooth, terms=(step,))
    raise SensanError(f"no analytic influence for kind '{F.kind}'")


def influence(F: Functional, P: GridDensity,
              schedule: "MollifierSchedule | None" = None) -> TangentVector:
    """Influence function at P, analytic when available, numerical otherwise."""
    if F.kind == "composite":
        return influence_numerical(F, P, schedule)
    return influence_analytic(F, P)


# --- numerical influence via shrinking mixtures -------------------------------------

@dataclass(frozen=True)
class MollifierSchedule:
    """Bump widths sigma_j = sigma0 * 2^-j for j < levels, and the finite
    difference step in the mixture weight."""

    sigma0: float
    levels: int = 3
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.sigma0 <= 0.0 or self.fd_step <= 0.0:
            raise SensanError("mollifier schedule needs positive sigma0 and fd_step")
        if self.levels < 3:
            raise SensanError("mollifier schedule needs at least 3 levels")

    def sigmas(self) -> list[float]:
        return [self.sigma0 * 2.0 ** (-j) for j in range(self.levels)]

    def validate_for(self, grid: Grid) -> None:
        finest = self.sigma0 * 2.0 ** (-(self.levels - 1))
        coarse = max(ax.spacing for ax in grid.axes)
        if finest < 4.0 * coarse:
            raise SensanError(
                f"finest mollifier width {finest:.3g} is below four grid "
                f"spacings ({4.0 * coarse:.3g}); widen sigma0 or refine the grid")


def default_schedule(grid: Grid) -> MollifierSchedule:
    span = min(ax.hi - ax.lo for ax in grid.axes)
    h = max(ax.spacing for ax in grid.axes)
    return MollifierSchedule(sigma0=max(0.05 * span, 16.0 * h))


def _bump(grid: Grid, z: tuple[float, ...], sigma: float) -> np.ndarray:
    """Truncated Gaussian bump at z, renormalized on the grid."""
    out = np.ones(grid.shape)
    for axis, ax in enumerate(grid.axes):
        d = (grid.mesh()[axis] - z[axis]) / sigma
        out = out * np.exp(-0.5 * d * d)
    total = grid_quad(grid, out)
    if total <= 0.0:
        raise SensanError("mollifier bump vanished on the grid")
    return out / total


def influence_numerical(F: Functional, P: GridDensity,
                        schedule: MollifierSchedule | None = None) -> TangentVector:
    """Influence function by differentiating mixtures toward point masses.

    For every grid node z and every level j the Gateaux derivative
    d/dt psi((1-t) P + t G_z^j) is computed by the central difference
    t = +-fd_step, where G_z^j is a renormalized Gaussian bump of width
    sigma_j. The two finest levels are Richardson-extrapolated (the
    smoothing error is quadratic in sigma) and the result is centered.

    Level-to-level sup changes are the convergence diagnostic: if the
    finest change exceeds the coarsest one the estimates are diverging as
    the bump shrinks and the computation aborts.
    """
    schedule = schedule or default_schedule(P.grid)
    schedule.validate_for(P.grid)
    grid = P.grid
    t = schedule.fd_step
    nodes = list(np.ndindex(grid.shape))
    mesh = grid.mesh()
    levels = []
    for sigma in schedule.sigmas():
        est = np.empty(grid.shape)
        for idx in nodes:
            z = tuple(float(mesh[a][idx]) for a in range(grid.ndim))
            bump = _bump(grid, z, sigma)
            up = _mixture_eval(F, P, bump, t)
            dn = _mixture_eval(F, P, bump, -t)
            est[idx] = (up - dn) / (2.0 * t)
        levels.append(est)
    changes = [float(np.max(np.abs(levels[j] - levels[j - 1])))
               for j in range(1, len(levels))]
    scale = 1.0 + max(float(np.max(np.abs(l))) for l in levels)
    if changes[-1] > 1e-10 * scale and changes[-1] > changes[0]:
        raise SensanError(
            "mollifier not converged: level changes "
            + ", ".join(f"{c:.3g}" for c in changes))
    extrap = (4.0 * levels[-1] - levels[-2]) / 3.0
    return TangentVector(P, extrap)


def _mixture_eval(F: Functional, P: GridDensity, bump: np.ndarray,
                  t: float) -> float:
    """F at the signed mixture (1 - t) P + t bump."""
    mix = P.scale(1.0 - t)
    return _evaluate_field(
        F, PiecewiseField(P.grid, mix.smooth + t * bump, mix.terms))


# --- config parsing -----------------------------------------------------------------

def parse_functional(spec: dict, ndim: int) -> Functional:
    """Build a functional from a config mapping.

    {"kind": "moment", "rho": "<whitelisted expression>"}
    {"kind": "variance", "axis": 0}
    {"kind": "quantile", "tau": 0.5, "axis": 0}
    """
    kind = read(spec, "kind", str, choices=("moment", "variance", "quantile"))
    if kind == "moment":
        variables = ("x",) if ndim == 1 else ("x", "y")
        text = read(spec, "rho", str)
        with nested("rho"):
            fn = as_array_function(parse_whitelisted(text, variables), variables)
        return moment(fn, label=f"moment[{text}]")
    axis = read(spec, "axis", int, 0, lo=0, hi=ndim - 1)
    if kind == "variance":
        return variance(axis=axis)
    tau = read(spec, "tau", float)
    with nested("tau"):
        return quantile_functional(tau, axis=axis)
