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

for a Gaussian bump G_z of shrinking width sigma_j = sigma0 * 2^-j, down
to two grid spacings, extrapolated in the bump width. The derivative is
linear in the bump, so every width and every z comes from one node
gradient of psi (central differences at every node) smoothed by a
convolution along each axis. Each kind takes the node gradient its own
way:

    moment, variance  central differences of the one or three integrals
                      psi combines, shifted by t w_k I_k at node k: O(G)
    quantile          perturbed fields, only at the nodes at or below one
                      past the quantile's node along its axis; the CDF
                      beyond the crossing node is never read, so every
                      other node's gradient is exactly 0
    composite         perturbed fields at every node

Perturbed fields are evaluated in row blocks, with the bits of one field
at a time: a quantile takes a whole stack per array operation, while a
composite's evaluator is opaque and gets one call per row, two per node.
They are signed, so evaluation runs on raw PiecewiseFields rather than
through GridDensity validation. Every field an evaluator gets is
read-only, and it must not write into one: the rows are views of one work
array, and a term-free row's `values` is that row itself, valid only
during the call.
They all share P's grid, whose coordinate mesh is built once: an
evaluator may call `Q.grid.mesh()` on every call at no cost, and must
not write into the read-only arrays it returns. The bump widths come
from the grid alone (default_schedule).

This module is the one place that reads a functional's kind, on a grid
density and on a sample alike: on a Sample, `evaluate` is the bundled
efficient estimator, on a stack of samples one estimate per sample, and
`estimated_influence` the analytic influence at the estimated
parameters. `estimation` builds the plug-in estimator and the Monte
Carlo harnesses on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SensanError, nested, read
from .expressions import as_array_function, parse_whitelisted
from .model_space import (CutTerm, Grid, GridDensity, PiecewiseField, Sample,
                          density_at, invert_cdf, kde_fit, order_statistic,
                          quantile)
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
    "estimated_influence",
    "parse_functional",
]

_NODE_BLOCK = 1 << 14   # node values in one stack of perturbed fields (128 KB)
_FD_STEP = 1e-4         # central-difference step of the node gradient


@dataclass(frozen=True)
class Functional:
    """A real-valued functional of a distribution.

    kind: "moment" | "variance" | "quantile" | "composite"
    rho: callable on coordinate arrays (moment only)
    tau, axis: level and axis for quantile / variance
    evaluator: callable PiecewiseField -> float (composite only); it sees
        GridDensity inputs and, during numerical differentiation, signed
        perturbations of them, one field per call; every field's arrays
        are read-only, and it must not write into them; it must not keep
        its argument, whose arrays are reused once the call returns (a
        term-free field's `values` is its smooth part, a view of a shared
        work array); it may read `Q.grid.mesh()` on every call, built once
        per grid, and must not write into those shared, read-only arrays
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

def _statistics(F: Functional, grid: Grid):
    """A moment's or a variance's integrands over `grid` and the map from
    their integrals to psi: the integral of rho, or those of 1, x_a and
    x_a^2. Both the evaluator and the node gradient combine through it."""
    if F.kind == "moment":
        vals = np.broadcast_to(np.asarray(F.rho(*grid.mesh()), dtype=float),
                               grid.shape)
        if not np.all(np.isfinite(vals)):
            raise SensanError("non-finite integrand")
        return (vals,), lambda s: s
    x = grid.mesh()[F.axis]

    def var(z, a, b):
        m1 = a / z
        m2 = b / z
        return m2 - m1 * m1
    return (np.ones(grid.shape), x, x * x), var


def _evaluator(F: Functional, grid: Grid):
    """psi as a map on fields over `grid`. The integrands (moment and
    variance) are built here, once, so each call pays only for the
    quadrature. The map also takes a stack of fields, rows along a leading
    axis of the smooth part, and gives one value per row; a composite's
    evaluator sees each row as a field of its own. Those row fields are
    read-only views of the stack, and a term-free row is its own `values`,
    so reading the node values costs no copy; a composite's single fields
    other than a GridDensity, whose arrays are read-only already, come as
    read-only views too."""
    if F.kind in ("moment", "variance"):
        integrands, combine = _statistics(F, grid)
        return lambda f: combine(*(f.quad(I) for I in integrands))
    if F.kind == "quantile":
        return lambda f: invert_cdf(f.marginal(F.axis), F.tau, strict=False)

    def opaque(f: PiecewiseField):
        if isinstance(f, GridDensity):
            return float(F.evaluator(f))
        smooth = _view(f.smooth)
        terms = tuple(CutTerm(t.cuts, _view(t.samples)) for t in f.terms)
        if smooth.ndim == grid.ndim:
            return float(F.evaluator(PiecewiseField(grid, smooth, terms)))
        # the rows are fields of their own, set up without the frozen
        # dataclass __init__; a term-free row is its own `values`, the bits
        # of the lazy copy, so reading them costs no copy and no lock
        state = {"grid": grid, "terms": terms}
        out = []
        for row in smooth:
            Q = object.__new__(PiecewiseField)
            Q.__dict__.update(state, smooth=row)
            if not terms:
                Q.__dict__["values"] = row
            out.append(float(F.evaluator(Q)))
        return np.array(out)
    return opaque


def _view(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`: a write through it raises, `a` is untouched."""
    v = a.view()
    v.flags.writeable = False
    return v


def _at_points(F: Functional, pts: np.ndarray) -> np.ndarray:
    """A moment's rho, or a variance's square about the mean, at points of
    shape (..., n, ndim): one value per point, each sample about its own
    mean."""
    if F.kind == "moment":
        coords = (pts[..., a] for a in range(pts.shape[-1]))
        return np.broadcast_to(np.asarray(F.rho(*coords), dtype=float),
                               pts.shape[:-1])
    x = pts[..., F.axis]
    return (x - np.mean(x, axis=-1, keepdims=True)) ** 2


def evaluate(F: Functional, P: GridDensity | Sample | np.ndarray):
    """Value of the functional at P. At a Sample's empirical measure, the
    bundled efficient estimator: the sample mean of rho, the biased sample
    variance, or the empirical quantile; a composite has none. Points of
    shape (..., n, ndim) are a stack of samples, one estimate per sample
    along the leading axes, each with the bits of that sample alone; a
    Sample is the one-sample case and gives a float."""
    if isinstance(P, Sample):
        return float(evaluate(F, P.points))
    if not isinstance(P, np.ndarray):
        if F.kind == "quantile":
            return quantile(P, F.tau, F.axis)
        return _evaluator(F, P.grid)(P)
    if F.kind == "composite":
        raise SensanError("no bundled efficient estimator for kind 'composite'")
    if F.kind == "quantile":
        if F.axis >= P.shape[-1]:
            raise SensanError("quantile axis out of range")
        return order_statistic(P[..., F.axis], F.tau)
    return np.mean(_at_points(F, P), axis=-1)


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
        dens = _quantile_density(float(P.marginal(F.axis).at(q)[0]), "marginal")
        step = CutTerm(((F.axis, q),), np.full(grid.shape, -1.0 / dens))
        smooth = np.full(grid.shape, F.tau / dens)
        return TangentVector(P, smooth, terms=(step,))
    raise SensanError(f"no analytic influence for kind '{F.kind}'")


def _quantile_density(f: float, source: str) -> float:
    """f, the density at a quantile, if the influence's 1 / f is stable."""
    if f <= 1e-6:
        raise SensanError(f"quantile influence unstable: {source} density "
                          f"at the quantile is {f:.3g}")
    return f


def estimated_influence(F: Functional, sample: Sample,
                        grid: Grid | None = None):
    """The analytic influence at the estimated parameters, as a callable on
    point arrays; a moment or a variance is centered at the mean over the
    points it is given. The density at the estimated quantile comes from a
    1-d kernel estimate on the quantile's axis: a 1-d grid, axis F.axis of
    a 2-d one, or without a grid the sample's own range."""
    if F.kind in ("moment", "variance"):
        def at(pts):
            v = _at_points(F, pts)
            return v - np.mean(v)
        return at
    if F.kind != "quantile":
        raise SensanError(f"no estimated influence for kind '{F.kind}'")
    tau, axis = F.tau, F.axis
    theta = quantile(sample, tau, axis)
    if grid is None:
        grid = Grid.line(float(sample.lo[axis]), float(sample.hi[axis]), 801)
    elif grid.ndim > 1:
        grid = Grid((grid.axes[axis],))
    dens_hat = kde_fit(Sample(sample.points[:, axis:axis + 1],
                              (sample.lo[axis],), (sample.hi[axis],)), grid)
    f = _quantile_density(density_at(dens_hat, (theta,)), "estimated")
    return lambda pts: (tau - (pts[:, axis] <= theta)) / f


def influence(F: Functional, P: GridDensity) -> TangentVector:
    """Influence function at P, analytic when available, numerical otherwise."""
    if F.kind == "composite":
        return influence_numerical(F, P)
    return influence_analytic(F, P)


# --- numerical influence via shrinking mixtures -------------------------------------

@dataclass(frozen=True)
class MollifierSchedule:
    """Bump widths sigma_j = sigma0 * 2^-j for j < levels, as
    default_schedule derives them from a grid."""

    sigma0: float
    levels: int

    def sigmas(self) -> list[float]:
        return [self.sigma0 * 2.0 ** (-j) for j in range(self.levels)]


def default_schedule(grid: Grid) -> MollifierSchedule:
    """sigma0 = max(5% of the shortest side, 16 grid spacings), halved
    down to the smallest width of at least two grid spacings. On coarse
    grids, where 16 spacings exceed 40% of the shortest side, sigma0 is
    capped at 40% of that side but kept at 8 spacings or more: the bias
    of a Richardson pair depends on the bump's absolute width, and the
    uncapped widths of 21- and 31-node unit axes, 0.8 and 0.533, do not
    converge even for a smooth covariance. sigma0 is at least 8 spacings,
    so the third level, and with it the finest, is two spacings or wider."""
    span = min(ax.hi - ax.lo for ax in grid.axes)
    h = max(ax.spacing for ax in grid.axes)
    sigma0 = max(0.05 * span, min(16.0 * h, max(0.4 * span, 8.0 * h)))
    levels = 3
    while sigma0 * 2.0 ** (-levels) >= 2.0 * h:
        levels += 1
    return MollifierSchedule(sigma0=sigma0, levels=levels)


def _node_gradient(F: Functional, P: GridDensity, t: float) -> np.ndarray:
    """(psi(P + t e_k) - psi(P - t e_k)) / 2t for every node k, e_k the
    unit node vector added to the smooth part; P's cut terms are shared.

    A moment or a variance reads a field through one or three integrals,
    and P + t e_k has P's integrals plus t w_k I_k, w the weight tensor
    and I the integrand: the central difference is taken on those G-vectors
    of integrals, with the same combine as the evaluator, in O(G). It
    differs from one perturbed field per node by the rounding of the
    difference alone, of order eps |psi| / t, which stays within
    1e-8 max|g| on the grids tested. A quantile reads its marginal's CDF
    only up to the crossing node, so a field perturbed further along the
    quantile's axis returns P's quantile and its g is exactly 0: only the
    nodes at or below one past the node of P's quantile are perturbed,
    the one past for a flat crossing, which returns the cell's left node.
    A composite perturbs every node."""
    grid = P.grid
    if F.kind in ("moment", "variance"):
        integrands, combine = _statistics(F, grid)
        w = grid.weight_tensor()
        stats = [P.quad(I) for I in integrands]
        steps = [t * w * I for I in integrands]
        up = combine(*(s + d for s, d in zip(stats, steps)))
        dn = combine(*(s - d for s, d in zip(stats, steps)))
        return (up - dn) / (2.0 * t)
    psi = _evaluator(F, grid)
    nodes = np.arange(P.smooth.size)
    if F.kind == "quantile":
        last = np.searchsorted(grid.axes[F.axis].nodes, psi(P), "left") + 1
        nodes = nodes[np.indices(grid.shape)[F.axis].reshape(-1) <= last]
    return _stacked_gradient(psi, P, nodes, t)


def _stacked_gradient(psi, P: GridDensity, nodes: np.ndarray,
                      t: float) -> np.ndarray:
    """The node gradient at the flat node indices `nodes`, 0 elsewhere,
    from perturbed fields. psi takes a stack of up to _NODE_BLOCK // G
    fields along a leading axis, row r perturbed at node nodes[k0 + r],
    and returns one value per row; each row keeps the bits of its field
    alone. The perturbed copies are edited in place and each call gets a
    fresh field, so no cached node values outlive their perturbation."""
    base = np.array(P.smooth, dtype=float).reshape(-1)
    size = base.size
    rows = max(1, _NODE_BLOCK // size)
    work = np.tile(base, (rows, 1))
    g = np.zeros(size)
    for k0 in range(0, nodes.size, rows):
        k = nodes[k0:k0 + rows]
        r = np.arange(k.size)
        v = base[k]
        fields = work[:k.size].reshape((k.size,) + P.grid.shape)
        work[r, k] = v + t
        up = psi(PiecewiseField(P.grid, fields, P.terms))
        work[r, k] = v - t
        dn = psi(PiecewiseField(P.grid, fields, P.terms))
        work[r, k] = v
        g[k] = (up - dn) / (2.0 * t)
    return g.reshape(P.grid.shape)


def _smooth(grid: Grid, a: np.ndarray, sigma: float) -> np.ndarray:
    """sum_k a_k exp(-|x - x_k|^2 / 2 sigma^2) at every node x: the
    Gaussian is a tensor product and Toeplitz on each uniform axis, so it
    is a "valid" convolution along every axis line with the kernel at
    offsets -(n-1) h .. (n-1) h."""
    for axis, ax in enumerate(grid.axes):
        d = np.arange(1 - ax.n, ax.n) * (ax.spacing / sigma)
        kernel = np.exp(-0.5 * d * d)
        lines = np.moveaxis(a, axis, -1)
        out = np.empty(lines.shape)
        for idx in np.ndindex(lines.shape[:-1]):
            out[idx] = np.convolve(lines[idx], kernel, "valid")
        a = np.moveaxis(out, -1, axis)
    return a


def influence_numerical(F: Functional, P: GridDensity) -> TangentVector:
    """Influence function by differentiating mixtures toward point masses.

    Level j estimates, at every node z, the Gateaux derivative
    d/ds psi((1-s) P + s G_z^j) at s = 0 toward the Gaussian bump G_z^j
    of width sigma_j (from default_schedule, so from the grid alone),
    renormalized by its Simpson integral n_j(z). That
    derivative is linear in the bump, so it is computed from one node
    gradient g_k = d psi / d P(x_k) and the derivative Dpsi along P
    itself, both by central differences with step _FD_STEP. A moment or a
    variance differentiates its integrals (_node_gradient), with no
    perturbed field. A quantile evaluates 2 perturbed fields per node up
    to one past its crossing node and a composite 2 per node, in row
    blocks of up to _NODE_BLOCK node values, with the bits of one field
    per row; a composite takes 2G + 2 evaluator calls, each on a
    read-only field: a write into it raises numpy's ValueError instead of
    shifting the rows that follow. Then

        level_j = (B_j g) / n_j - Dpsi,    n_j = B_j w,

    with B_j the bump matrix (applied as a convolution along each axis,
    never built) and w the Simpson weights. Dividing by the exact Simpson
    mass of the same bump makes the split exact, and it also lets the
    ladder run down to two grid spacings: the 4:2 ripple of the Simpson
    weights, which g inherits, has period 2h, and a bump of width 2h
    damps it by exp(-2 pi^2), about 3e-9. The two finest levels are
    Richardson-extrapolated (the smoothing error is quadratic in sigma)
    and the result is centered.

    Level-to-level sup changes are the convergence diagnostic, decided on
    the first three widths: if the second change exceeds the first, the
    estimates diverge as the bump shrinks and the computation aborts.
    """
    grid = P.grid
    t = _FD_STEP
    psi = _evaluator(F, grid)
    g = _node_gradient(F, P, t)
    dpsi = (psi(P.scale(1.0 + t)) - psi(P.scale(1.0 - t))) / (2.0 * t)
    w = grid.weight_tensor()
    levels = [_smooth(grid, g, s) / _smooth(grid, w, s) - dpsi
              for s in default_schedule(grid).sigmas()]
    changes = [float(np.max(np.abs(levels[j] - levels[j - 1])))
               for j in range(1, len(levels))]
    scale = 1.0 + max(float(np.max(np.abs(l))) for l in levels)
    if changes[1] > 1e-10 * scale and changes[1] > changes[0]:
        raise SensanError(
            "mollifier not converged: level changes "
            + ", ".join(f"{c:.3g}" for c in changes))
    extrap = (4.0 * levels[-1] - levels[-2]) / 3.0
    return TangentVector(P, extrap)


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
