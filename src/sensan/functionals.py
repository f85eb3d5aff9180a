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

Every kind also has a numerical route, the only one for a composite and
a second path for the others: the Gateaux derivative along mixtures
toward a point mass,

    d/dt psi((1 - t) P + t delta_z)  at t = 0,

read off one node gradient g_k = d psi / d P(x_k) of psi and the
derivative Dpsi along P itself. Each kind takes the node gradient its
own way:

    moment, variance  central differences of the one or three integrals
                      psi combines, shifted by t w_k I_k at node k: O(G)
    quantile          in closed form, the derivative of the linear
                      interpolation in the piece of P's CDF where
                      invert_cdf crosses, which node k at index a on the
                      quantile's axis moves by w_k T_a: O(G); exactly 0
                      past the crossing node
    composite         one perturbed field per call, two calls per node

A built-in kind integrates each node with weights it knows, so a unit
point mass at node k moves psi by g_k / w_k, and its influence is
g / w - Dpsi at every node, edges included (_node_weights):

    moment, variance  w the Simpson weight tensor
    quantile          w the trapezoid weights along its axis, which its
                      CDF accumulates, times Simpson along the others

A composite may mix rules (mean over median integrates with Simpson
weights and inverts a cumulative trapezoid), so no one w fits it. It
takes the mollifier ladder instead: Gaussian bumps G_z of shrinking width
sigma_j = sigma0 * 2^-j, down to two grid spacings, extrapolated in the
bump width. The derivative is linear in the bump, so every width and
every z comes from g smoothed by a convolution along each axis. The
convolutions go by real FFT: along each axis one transform of the node
gradient, a product with each width's kernel transform and one inverse,
of which the "valid" entries are kept. The kernel transforms, and the
bump masses they make of the Simpson weights, are built on every call
(_mollified), a fraction of a millisecond against the composite's 2G + 2
evaluator calls.

A composite's evaluator is opaque, so each of its perturbed fields is a
field of its own. They are signed, so evaluation runs on raw
PiecewiseFields rather than through GridDensity validation. Every field
an evaluator gets is read-only, and it must not write into one: its
smooth part is a view of one work array, edited in place between calls,
and a term-free field's `values` is that view itself, valid only during
the call.
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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SensanError, nested, read
from .expressions import as_array_function, parse_whitelisted
from .model_space import (CutTerm, Grid, GridDensity, PiecewiseField, Sample,
                          cdf_table, check_tau_axis, cross_cell, density_at,
                          invert_cdf, kde_fit, quantile, silverman_bandwidth,
                          values_at)
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
        check_tau_axis(self.kind, self.tau, self.axis)
        if self.kind == "moment" and not callable(self.rho):
            raise SensanError("moment functional needs a callable rho")
        if self.kind == "composite" and not callable(self.evaluator):
            raise SensanError("composite functional needs an evaluator")


def moment(rho, label: str = "moment") -> Functional:
    return Functional("moment", rho=rho, label=label)


def variance(axis: int = 0) -> Functional:
    return Functional("variance", axis=axis, label=f"variance[{axis}]")


def quantile_functional(tau: float, axis: int = 0) -> Functional:
    F = Functional("quantile", tau=tau, axis=axis)
    return replace(F, label=f"quantile[{float(tau):g}, axis {axis}]")


def composite(evaluator, label: str = "composite") -> Functional:
    return Functional("composite", evaluator=evaluator, label=label)


def _axis(F: Functional, ndim: int) -> int:
    """The axis a variance or a quantile reads, if `ndim` dimensions have it."""
    if F.axis >= ndim:
        raise SensanError(f"{F.kind} axis out of range")
    return F.axis


# --- evaluation on (possibly signed) fields ----------------------------------------

def _statistics(F: Functional, grid: Grid):
    """A moment's or a variance's integrands over `grid` and the map from
    their integrals to psi: the integral of rho, or those of 1, x_a and
    x_a^2. Both the evaluator and the node gradient combine through it."""
    if F.kind == "moment":
        vals = values_at(F.rho, grid.mesh(), grid.shape)
        if not np.all(np.isfinite(vals)):
            raise SensanError("non-finite integrand")
        return (vals,), lambda s: s
    x = grid.mesh()[_axis(F, grid.ndim)]

    def var(z, a, b):
        m1 = a / z
        m2 = b / z
        return m2 - m1 * m1
    return (np.ones(grid.shape), x, x * x), var


def _evaluator(F: Functional, grid: Grid):
    """psi as a map on one field over `grid`. The integrands (moment and
    variance) are built here, once, so each call pays only for the
    quadrature. A composite's evaluator gets a field other than a
    GridDensity, whose arrays are read-only already, as read-only views."""
    if F.kind in ("moment", "variance"):
        integrands, combine = _statistics(F, grid)
        return lambda f: combine(*(f.quad(I) for I in integrands))
    if F.kind == "quantile":
        axis = _axis(F, grid.ndim)
        return lambda f: invert_cdf(f.marginal(axis), F.tau, strict=False)

    def opaque(f: PiecewiseField):
        if not isinstance(f, GridDensity):
            f = PiecewiseField(grid, _view(f.smooth), tuple(
                CutTerm(t.cuts, _view(t.samples)) for t in f.terms))
        return float(F.evaluator(f))
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
        return values_at(F.rho, np.moveaxis(pts, -1, 0), pts.shape[:-1])
    x = pts[..., _axis(F, pts.shape[-1])]
    return (x - np.mean(x, axis=-1, keepdims=True)) ** 2


def evaluate(F: Functional, P: GridDensity | Sample | np.ndarray):
    """Value of the functional at P. At a Sample's empirical measure, the
    bundled efficient estimator: the sample mean of rho, the biased sample
    variance, or the ceil(n tau)-th order statistic; a composite has none.
    Points of shape (..., n, ndim) are a stack of samples, one estimate per
    sample along the leading axes, each with the bits of that sample
    alone; a Sample is the one-sample case and gives a float."""
    if isinstance(P, Sample):
        return float(evaluate(F, P.points))
    if not isinstance(P, np.ndarray):
        if F.kind == "quantile":
            return quantile(P, F.tau, F.axis)
        return _evaluator(F, P.grid)(P)
    if F.kind == "composite":
        raise SensanError("no bundled efficient estimator for kind 'composite'")
    if F.kind == "quantile":
        x = P[..., _axis(F, P.shape[-1])]
        k = max(math.ceil(x.shape[-1] * F.tau), 1)
        return np.partition(x, k - 1, axis=-1)[..., k - 1]
    return np.mean(_at_points(F, P), axis=-1)


# --- analytic influence functions ---------------------------------------------------

def influence_analytic(F: Functional, P: GridDensity) -> TangentVector:
    """Closed-form influence function at P as a centered TangentVector."""
    grid = P.grid
    mesh = grid.mesh()
    if F.kind == "moment":
        return TangentVector(P, values_at(F.rho, mesh, grid.shape))
    if F.kind == "variance":
        x = mesh[_axis(F, grid.ndim)]
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
    a 2-d one, or without a grid the sample's own range, once the axis is
    known to have a bandwidth."""
    if F.kind in ("moment", "variance"):
        def at(pts):
            v = _at_points(F, pts)
            return v - np.mean(v)
        return at
    if F.kind != "quantile":
        raise SensanError(f"no estimated influence for kind '{F.kind}'")
    tau, axis = F.tau, F.axis
    theta = evaluate(F, sample)
    bandwidth = silverman_bandwidth(sample.coord(axis))
    if grid is None:
        grid = Grid.line(float(sample.lo[axis]), float(sample.hi[axis]), 801)
    elif grid.ndim > 1:
        grid = Grid((grid.axes[axis],))
    dens_hat = kde_fit(Sample(sample.points[:, axis:axis + 1],
                              (sample.lo[axis],), (sample.hi[axis],)), grid,
                       bandwidth)
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
    """The widths of the mollifier ladder, which composites take, and of
    the zones their checks exclude near the edges and the kinks.

    sigma0 = max(5% of the shortest side, 16 grid spacings), halved
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
    """d psi / d P(x_k) for every node k: (psi(P + t e_k) - psi(P - t e_k))
    / 2t, e_k the unit node vector added to the smooth part, P's cut terms
    shared, or for a quantile the derivative itself.

    A moment or a variance reads a field through one or three integrals,
    and P + t e_k has P's integrals plus t w_k I_k, w the weight tensor
    and I the integrand: the central difference is taken on those G-vectors
    of integrals, with the same combine as the evaluator, in O(G). It
    differs from one perturbed field per node by the rounding of the
    difference alone, of order eps |psi| / t, which stays within
    1e-8 max|g| on the grids tested. A quantile's g is the derivative
    itself, in closed form in its crossing piece (_quantile_gradient), in
    O(G): the central difference of one perturbed field per node is
    within its rounding and O(t^2) error of it, except at a level where
    the fields moved by t up and down cross in different cells; it is
    exactly 0 at every node past the crossing node along its axis. A
    composite perturbs every node (_composite_gradient)."""
    grid = P.grid
    if F.kind in ("moment", "variance"):
        integrands, combine = _statistics(F, grid)
        w = grid.weight_tensor()
        stats = [P.quad(I) for I in integrands]
        steps = [t * w * I for I in integrands]
        up = combine(*(s + d for s, d in zip(stats, steps)))
        dn = combine(*(s - d for s, d in zip(stats, steps)))
        return (up - dn) / (2.0 * t)
    if F.kind == "quantile":
        return _quantile_gradient(F, P, t)
    return _composite_gradient(F, P, t)


def _quantile_gradient(F: Functional, P: GridDensity, t: float) -> np.ndarray:
    """A quantile's node gradient in closed form. Moving node k of the
    smooth part by c moves the marginal at k's index a along the axis by
    c w_k, w_k the Simpson weight of the other axes at k (1 in 1-d), and
    so its CDF at s by c w_k T_a(s), T_a(s) the integral of node a's hat
    up to s. The quantile interpolates the CDF linearly in its crossing
    piece p0 < p1, from A < tau to B >= tau (cross_cell), so

        g_k = -w_k (p1 - p0) / (B - A)^2 [(B - tau) T_a(p0) + (tau - A) T_a(p1)],

    exactly 0 past the crossing node. At a level equal to a node's CDF
    value it is the slope in invert_cdf's cell, one side of the kink
    there. A piece whose mean density fails _quantile_density is refused;
    the level is beyond the support if the lightest total that a central
    difference at step t reaches is."""
    grid = P.grid
    axis = _axis(F, grid.ndim)
    x = grid.axes[axis].nodes
    tau = F.tau
    table, cdf, cuts = cdf_table(P.marginal(axis))
    mass = _trapezoid(x)                                    # T_a at x[-1]
    if table[-1] - t * np.max(_spread(grid, axis, mass)) < tau:
        raise SensanError("quantile level beyond the grid support")
    _, (p0, p1, A, B) = cross_cell(x, table, cdf, cuts, tau, strict=False)
    _quantile_density((B - A) / (p1 - p0), "marginal")
    i = int(np.searchsorted(x, p0, "right"))    # the cell [x[i - 1], x[i]]
    h = x[i] - x[i - 1]

    def hats(p):
        """T_a(p) for every node a, p in the cell [x[i - 1], x[i]]."""
        d = p - x[i - 1]
        r = 0.5 * d * d / h                     # T_i(p)
        T = np.zeros(x.size)
        T[:i] = mass[:i]
        T[i - 1] += d - 0.5 * h - r
        T[i] = r
        return T

    slope = (-(p1 - p0) / (B - A) ** 2
             * ((B - tau) * hats(p0) + (tau - A) * hats(p1)))
    return _spread(grid, axis, slope)


def _trapezoid(x: np.ndarray) -> np.ndarray:
    """The trapezoid weights on the nodes x, the integral of each node's
    hat: the rule a quantile's cumulative-trapezoid CDF applies."""
    half = 0.5 * np.diff(x)
    return np.append(half, 0.0) + np.append(0.0, half)


def _spread(grid: Grid, axis: int, v: np.ndarray) -> np.ndarray:
    """v along `axis` times the other axes' Simpson weights."""
    out = np.ones(())
    for b, ax in enumerate(grid.axes):
        out = np.multiply.outer(out, v if b == axis else ax.weights)
    return out


def _node_weights(F: Functional, grid: Grid) -> np.ndarray:
    """The weights a built-in kind integrates a node with, by which its
    node gradient moves per unit point mass at that node: the Simpson
    weight tensor for a moment or a variance; for a quantile the
    trapezoid along its axis, as its CDF accumulates, times Simpson along
    the others, as its marginal integrates them out."""
    if F.kind == "quantile":
        axis = _axis(F, grid.ndim)
        return _spread(grid, axis, _trapezoid(grid.axes[axis].nodes))
    return grid.weight_tensor()


def _composite_gradient(F: Functional, P: GridDensity,
                        t: float) -> np.ndarray:
    """A composite's node gradient, one perturbed field per evaluator
    call. A work copy of P's smooth part is edited in place, node by node,
    and each call gets a fresh field, so no cached node values outlive
    their perturbation: its smooth part is a read-only view of the work
    copy, its terms are P's own, and a term-free field's `values` is that
    same view, the bits of the lazy copy at no copy. The fields are set up
    without the frozen dataclass __init__, whose cost weighs on 2G calls."""
    work = np.array(P.smooth, dtype=float)
    flat = work.reshape(-1)
    state = {"grid": P.grid, "smooth": _view(work), "terms": P.terms}
    if not P.terms:
        state["values"] = state["smooth"]

    def psi():
        Q = object.__new__(PiecewiseField)
        Q.__dict__.update(state)
        return float(F.evaluator(Q))

    g = np.empty(flat.size)
    for k in range(flat.size):
        v = flat[k]
        flat[k] = v + t
        up = psi()
        flat[k] = v - t
        dn = psi()
        flat[k] = v
        g[k] = (up - dn) / (2.0 * t)
    return g.reshape(P.grid.shape)


def _kernels(grid: Grid, sigmas) -> tuple[np.ndarray, ...]:
    """Per axis, the real FFT of every width's Gaussian at offsets
    -(n-1) h .. (n-1) h, at L, the smallest power of two of at least
    2n - 1: shape (len(sigmas),) + (L/2 + 1 on that axis, 1 on the
    others), so that it broadcasts against a field with a leading width
    axis."""
    sigmas = np.asarray(sigmas, dtype=float)
    out = []
    for axis, ax in enumerate(grid.axes):
        size = 1 << (2 * ax.n - 2).bit_length()
        d = np.arange(1 - ax.n, ax.n) * (ax.spacing / sigmas)[:, None]
        k = np.fft.rfft(np.exp(-0.5 * d * d), size)
        out.append(k.reshape(k.shape[:1] + (1,) * axis + k.shape[1:]
                             + (1,) * (grid.ndim - 1 - axis)))
    return tuple(out)


def _smooth(a: np.ndarray, kernels) -> np.ndarray:
    """sum_k a_k exp(-|x - x_k|^2 / 2 sigma^2) at every node x of the
    field `a`, for every width whose kernel transforms `kernels` holds
    (_kernels): one field per width, along a new leading axis. The
    Gaussian is a tensor product and Toeplitz on each uniform axis, so
    along every axis line it is the "valid" part of a convolution with the
    kernel, entries n-1 .. 2n-2 of the full one. Each axis takes one real
    FFT of the field at L, multiplies it by each width's kernel transform
    and inverts: the full convolution's entries from L on fold onto
    0 .. n-2 alone, so the kept ones are the direct sums up to rounding."""
    a = a[None]
    for at, kernel in enumerate(kernels, 1):
        n, size = a.shape[at], 2 * kernel.shape[at] - 2
        full = np.fft.irfft(np.fft.rfft(a, size, axis=at) * kernel, size,
                            axis=at)
        a = full[(slice(None),) * at + (slice(n - 1, 2 * n - 1),)]
    return a


def influence_numerical(F: Functional, P: GridDensity) -> TangentVector:
    """Influence function by differentiating mixtures toward point masses.

    Both routes start from one node gradient g_k = d psi / d P(x_k) and
    the derivative Dpsi along P itself, by central differences with step
    _FD_STEP. A moment or a variance differentiates its integrals, and a
    quantile's g is in closed form in its crossing piece (_node_gradient),
    with no perturbed field; a crossing piece whose mean density the
    analytic route would refuse is refused with its message. A composite
    evaluates 2 perturbed fields per node, one per call: 2G + 2 evaluator
    calls, each on a read-only field; a write into it raises numpy's
    ValueError instead of shifting the fields that follow.

    A built-in kind gives a unit point mass at node k the weight w_k it
    integrates node k with (_node_weights), so its Gateaux derivative
    toward that point mass is g_k / w_k - Dpsi, at every node, edges
    included, with no bump width and no zone to exclude.

    A composite may mix quadrature rules, so it takes the mollifier
    ladder (_mollified). Level j estimates, at every node z, the Gateaux
    derivative d/ds psi((1-s) P + s G_z^j) at s = 0 toward the Gaussian
    bump G_z^j of width sigma_j (from default_schedule, so from the grid
    alone), renormalized by its Simpson integral n_j(z). That derivative
    is linear in the bump, so

        level_j = (B_j g) / n_j - Dpsi,    n_j = B_j w,

    with B_j the bump matrix (applied as a convolution along each axis,
    never built) and w the Simpson weights. The convolutions run by real
    FFT (_smooth): per axis one transform of g, one product with every
    width's kernel transform and one inverse, O(n log n) per axis line,
    the direct sums to rounding; the masses n_j come from the same
    transforms of w, on every call. Dividing by the exact Simpson mass of
    the same bump makes the split exact, and it also lets the ladder run
    down to two grid spacings: the 4:2 ripple of the Simpson weights,
    which g inherits, has period 2h, and a bump of width 2h damps it by
    exp(-2 pi^2), about 3e-9. The two finest levels are
    Richardson-extrapolated (the smoothing error is quadratic in sigma)
    and the result is centered. The bumps lose mass at the domain's
    edges, so the ladder is biased there, linearly in sigma.

    Level-to-level sup changes are the convergence diagnostic, decided on
    the first three widths: if the second change exceeds the first, the
    estimates diverge as the bump shrinks and the computation aborts.
    """
    grid = P.grid
    t = _FD_STEP
    psi = _evaluator(F, grid)
    g = _node_gradient(F, P, t)
    dpsi = (psi(P.scale(1.0 + t)) - psi(P.scale(1.0 - t))) / (2.0 * t)
    if F.kind != "composite":
        return TangentVector(P, g / _node_weights(F, grid) - dpsi)
    return TangentVector(P, _mollified(g, dpsi, grid))


def _mollified(g: np.ndarray, dpsi: float, grid: Grid) -> np.ndarray:
    """The mollifier ladder on the node gradient g and the derivative dpsi
    along P: the Richardson extrapolation of level_j = (B_j g) / n_j - dpsi
    over the two finest widths, or the "mollifier not converged" refusal."""
    kernels = _kernels(grid, default_schedule(grid).sigmas())
    masses = _smooth(grid.weight_tensor(), kernels)
    levels = _smooth(g, kernels) / masses - dpsi
    changes = [float(np.max(np.abs(levels[j] - levels[j - 1])))
               for j in range(1, len(levels))]
    scale = 1.0 + float(np.max(np.abs(levels)))
    if changes[1] > 1e-10 * scale and changes[1] > changes[0]:
        raise SensanError(
            "mollifier not converged: level changes "
            + ", ".join(f"{c:.3g}" for c in changes))
    return (4.0 * levels[-1] - levels[-2]) / 3.0


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
