"""Plug-in sensitivity estimators and the Monte Carlo harness.

The population sensitivity <psi~, A* nu~>_P has a sample analog: replace
influence functions by estimated ones (built from the sample, with
estimated centering parameters), the measure by the empirical measure,
and the ratio dP/dQ by either a known ratio or a kernel density estimate
divided by the policy density. All three metric paths run the same
formula

    Pn{ psi~ (nu~ - Pn(nu~ r)/Pn(r)) r },

with r identically one on the information path, where it collapses to
Pn(psi~ nu~); the information and unit-known-ratio runs agree bit for
bit because they execute the same code on the same arrays.

Replication seeds derive from (master_seed, n, rep), so results are
reproducible no matter how replications are scheduled; reductions use
numpy pairwise summation over rep-ordered arrays.

Samples come from inverting grid CDFs. Uniform draws are inverted in
increasing order and put back in draw order, since np.interp starts each
search at the previous draw's cell; in two dimensions the row CDFs of
Y | X are built for blocks of _DRAW_BLOCK draws, so memory does not grow
with n. Each draw meets the same cell and formula as np.interp on the
draws in their own order, so the sample is bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_table
from .errors import ConfigError, SensanError
from .functionals import Functional, evaluate
from .model_space import (RATIO_CLAMP, Grid, GridDensity, LikelihoodRatio,
                          Sample, _cumtrapz, _simpson_reduce, density_at,
                          interpolate, kde_fit, locate, quantile)

__all__ = [
    "RatioInformation",
    "RatioKnown",
    "RatioKde",
    "PluginConfig",
    "McResult",
    "Multinomial",
    "estimated_influence",
    "efficient_estimate",
    "plugin_sensitivity",
    "sample_from",
    "mc_consistency",
    "mc_joint_asymptotics",
    "mc_joint_multinomial",
]

_DRAW_BLOCK = 512   # conditional draws whose row CDFs sample_from holds at once


# --- ratio estimators ---------------------------------------------------------------

@dataclass(frozen=True)
class RatioInformation:
    """Information metric: the ratio is identically one."""


@dataclass(frozen=True)
class RatioKnown:
    """Known likelihood ratio dP/dQ, interpolated from its grid values."""

    ratio: LikelihoodRatio


@dataclass(frozen=True)
class RatioKde:
    """Estimated ratio: kernel density estimate of P over the known policy
    density, clamped into RATIO_CLAMP like a known ratio."""

    Q: GridDensity
    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0.0:
            raise ConfigError("bandwidth", "bandwidth must be positive")


def _ratio_at_points(estimator, sample: Sample) -> np.ndarray:
    if isinstance(estimator, RatioInformation):
        return np.ones(sample.n)
    if isinstance(estimator, RatioKnown):
        lr = estimator.ratio
        return interpolate(lr.grid, lr.ratio_values, sample.points)
    if isinstance(estimator, RatioKde):
        grid = estimator.Q.grid
        phat = kde_fit(sample, grid, estimator.bandwidth)
        num = interpolate(grid, phat.values, sample.points)
        den = interpolate(grid, estimator.Q.values, sample.points)
        return np.clip(num / np.maximum(den, 1e-300), *RATIO_CLAMP)
    raise SensanError(f"unknown ratio estimator {type(estimator).__name__}")


# --- estimated influence functions and efficient estimators -------------------------

def efficient_estimate(F: Functional, sample: Sample) -> float:
    """The bundled efficient estimator of the functional: sample mean of
    rho, biased sample variance, or the empirical quantile."""
    x = sample.coord(F.axis if F.kind != "moment" else 0)
    if F.kind == "moment":
        cols = tuple(sample.points[:, a] for a in range(sample.ndim))
        return float(np.mean(np.broadcast_to(
            np.asarray(F.rho(*cols), dtype=float), (sample.n,))))
    if F.kind == "variance":
        return float(np.mean((x - np.mean(x)) ** 2))
    if F.kind == "quantile":
        return quantile(sample, F.tau, F.axis)
    raise SensanError(f"no bundled efficient estimator for kind '{F.kind}'")


def estimated_influence(F: Functional, sample: Sample,
                        grid: Grid | None = None):
    """Influence function with estimated centering parameters, as a
    callable on sample point arrays.

    The quantile influence needs the density at the estimated quantile;
    that comes from a 1-d kernel density estimate on the quantile's axis:
    a 1-d grid, axis F.axis of a 2-d one, or without a grid the sample's
    own range.
    """
    if F.kind == "moment":
        def at(pts):
            cols = tuple(pts[:, a] for a in range(pts.shape[1]))
            v = np.broadcast_to(np.asarray(F.rho(*cols), dtype=float),
                                (len(pts),))
            return v - np.mean(v)
        return at
    if F.kind == "variance":
        def at(pts, axis=F.axis):
            x = pts[:, axis]
            m = np.mean(x)
            return (x - m) ** 2 - np.mean((x - m) ** 2)
        return at
    if F.kind == "quantile":
        theta = efficient_estimate(F, sample)
        if grid is None:
            lo, hi = sample.lo[F.axis], sample.hi[F.axis]
            grid = Grid.line(float(lo), float(hi), 801)
        elif grid.ndim > 1:
            grid = Grid((grid.axes[F.axis],))
        dens_hat = kde_fit(
            Sample(sample.points[:, F.axis:F.axis + 1],
                   (sample.lo[F.axis],), (sample.hi[F.axis],)), grid)
        f = density_at(dens_hat, (theta,))
        if f <= 1e-6:
            raise SensanError(
                "quantile influence unstable: estimated density at the "
                f"quantile is {f:.3g}")
        def at(pts, axis=F.axis, theta=theta, f=f, tau=F.tau):
            return (tau - (pts[:, axis] <= theta)) / f
        return at
    raise SensanError(f"no estimated influence for kind '{F.kind}'")


# --- the plug-in estimator ----------------------------------------------------------

@dataclass(frozen=True)
class PluginConfig:
    """Everything the plug-in sensitivity estimator consumes."""

    psi_influence: object
    nu_influence: object
    ratio_estimator: object
    sample: Sample

    def __post_init__(self):
        if self.sample.n == 0:
            raise SensanError("plugin estimation needs a nonempty sample")


def plugin_sensitivity(config: PluginConfig) -> float:
    """Empirical analog of the policy sensitivity."""
    pts = config.sample.points
    psi_v = np.asarray(config.psi_influence(pts), dtype=float)
    nu_v = np.asarray(config.nu_influence(pts), dtype=float)
    for name, v in (("psi", psi_v), ("nu", nu_v)):
        if not np.all(np.isfinite(v)):
            i = int(np.argmin(np.isfinite(v)))
            raise SensanError(
                f"non-finite {name} influence value at sample point "
                f"{pts[i].tolist()} (index {i})")
    r = _ratio_at_points(config.ratio_estimator, config.sample)
    # Pn{psi (nu - Pn(nu r)/Pn r) r}, expanded so the centering correction
    # enters as a product of means. Estimated influences are already
    # empirically centered, so on the information path the correction is
    # O(eps^2) and the result equals Pn(psi nu) to the last bit.
    cross = np.mean(psi_v * nu_v * r)
    return float(cross - np.mean(psi_v * r) * np.mean(nu_v * r) / np.mean(r))


# --- sampling from grid densities ---------------------------------------------------

def _invert_sorted(u: np.ndarray, F: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """np.interp(u, F, nodes), evaluated in increasing u. np.interp starts
    each search at the previous draw's cell, so sorted draws cost a step
    or two each instead of a bisection; every draw still gets the same
    cell and formula, so the values are bit for bit those of the call in
    draw order."""
    order = np.argsort(u)
    x = np.empty_like(u)
    x[order] = np.interp(u[order], F, nodes)
    return x


def _conditional_draws(P: GridDensity, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Y | X = x by inverting the row CDF of each draw at its u."""
    grid = P.grid
    ynodes = grid.axes[1].nodes
    # conditional rows by linear interpolation of the joint in x
    i, w = locate(grid.axes[0], x)
    w = w[:, None]
    rows = (1.0 - w) * P.values[i, :] + w * P.values[i + 1, :]
    dy = grid.axes[1].spacing
    Fy = np.concatenate(
        [np.zeros((len(x), 1)),
         np.cumsum(0.5 * dy * (rows[:, 1:] + rows[:, :-1]), axis=1)], axis=1)
    Fy = Fy / Fy[:, -1:]
    # inverse row CDFs at once, with np.interp's search and formula: the
    # last node at or below u, then slope * (u - f0) + y0
    j = np.count_nonzero(Fy <= u[:, None], axis=1) - 1
    draw = np.arange(len(x))
    f0, f1 = Fy[draw, j], Fy[draw, j + 1]
    slope = (ynodes[j + 1] - ynodes[j]) / (f1 - f0)
    return slope * (u - f0) + ynodes[j]


def sample_from(P: GridDensity, n: int, rng: np.random.Generator) -> Sample:
    """Draw n points: inverse-CDF on the grid in one dimension, X then
    Y | X in two."""
    grid = P.grid
    if grid.ndim == 1:
        nodes = grid.axes[0].nodes
        F = _cumtrapz(nodes, P.values)
        F = F / F[-1]
        x = _invert_sorted(rng.random(n), F, nodes)
        return Sample(x.reshape(-1, 1), (grid.axes[0].lo,), (grid.axes[0].hi,))
    if grid.ndim != 2:
        raise SensanError("sampling supports one- and two-dimensional grids")
    xnodes = grid.axes[0].nodes
    marg = _simpson_reduce(grid, P.values, 1)
    Fx = _cumtrapz(xnodes, marg)
    Fx = Fx / Fx[-1]
    x = _invert_sorted(rng.random(n), Fx, xnodes)
    u = rng.random(n)
    # the row CDF table is built _DRAW_BLOCK draws at a time; each row's
    # arithmetic is independent of the others, so blocking changes no bit
    y = np.empty(n)
    for start in range(0, n, _DRAW_BLOCK):
        block = slice(start, start + _DRAW_BLOCK)
        y[block] = _conditional_draws(P, x[block], u[block])
    lo = tuple(ax.lo for ax in grid.axes)
    hi = tuple(ax.hi for ax in grid.axes)
    return Sample(np.column_stack([x, y]), lo, hi)


# --- Monte Carlo results ------------------------------------------------------------

@dataclass(frozen=True)
class McResult:
    """Replication table plus the summaries the theory predicts."""

    kind: str                      # "consistency" | "joint"
    n_grid: tuple[int, ...]
    reps: int
    seed: int
    population: float | None
    estimates: dict
    rmse: dict
    empirical_cov: dict
    lambda_hat: float | None = None
    delta_hat: float | None = None

    def to_csv(self, path: str) -> None:
        est = np.concatenate([self.estimates[n] for n in self.n_grid])
        head = (["n", "rep", "estimate"] if self.kind == "consistency"
                else ["n", "rep", "psi_hat", "nu_hat"])
        write_table(path, head,
                    [np.repeat(self.n_grid, self.reps),
                     np.tile(np.arange(self.reps), len(self.n_grid)),
                     *est.reshape(len(est), -1).T], eol="\r\n")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "seed": self.seed,
            "population": self.population,
            "rmse": {str(n): v for n, v in self.rmse.items()},
            "covariance": {str(n): np.asarray(c).tolist()
                           for n, c in self.empirical_cov.items()},
            "lambda_hat": self.lambda_hat,
            "delta_hat": self.delta_hat,
        }


def _rep_rng(master_seed: int, n: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, n, rep)))


def mc_consistency(P: GridDensity, psi: Functional, nu: Functional,
                   ratio_estimator, n_grid, reps: int, master_seed: int,
                   population: float) -> McResult:
    """RMSE of the plug-in sensitivity across sample sizes.

    The population value is computed once by the caller (the engine
    oracle) and passed in, so the harness never re-derives it per run.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if (len(n_grid) < 3 or n_grid[0] < 1
            or any(b <= a for a, b in zip(n_grid, n_grid[1:]))):
        raise ConfigError("n_grid", "n_grid must be at least three increasing sizes above 0")
    estimates: dict = {}
    rmse: dict = {}
    for n in n_grid:
        vals = np.empty(reps)
        for rep in range(reps):
            rng = _rep_rng(master_seed, n, rep)
            sample = sample_from(P, n, rng)
            cfg = PluginConfig(
                psi_influence=estimated_influence(psi, sample, P.grid),
                nu_influence=estimated_influence(nu, sample, P.grid),
                ratio_estimator=ratio_estimator,
                sample=sample)
            vals[rep] = plugin_sensitivity(cfg)
        estimates[n] = vals
        rmse[n] = float(np.sqrt(np.mean((vals - population) ** 2)))
    return McResult(kind="consistency", n_grid=n_grid, reps=reps,
                    seed=master_seed, population=population,
                    estimates=estimates, rmse=rmse, empirical_cov={})


def _joint_summaries(pairs: np.ndarray, n: int, psi0: float, nu0: float):
    errors = math.sqrt(n) * (pairs - np.array([psi0, nu0]))
    cov = np.cov(errors.T, bias=True)
    for name, var in (("psi", cov[0, 0]), ("nu", cov[1, 1])):
        if not var > 0.0:
            raise SensanError(
                f"the {name} estimates have zero variance across the "
                "replications, so Lambda and Delta are undefined")
    lam = float(cov[0, 1] / cov[1, 1])
    delta = float(cov[0, 1] ** 2 / (cov[0, 0] * cov[1, 1]))
    return cov, lam, delta


def mc_joint_asymptotics(P: GridDensity, psi: Functional, nu: Functional,
                         n: int, reps: int, master_seed: int) -> McResult:
    """Joint distribution of the efficient estimators: replicate, scale
    errors by sqrt(n), and report the empirical covariance with the
    sensitivity ratios it implies."""
    psi0 = evaluate(psi, P)
    nu0 = evaluate(nu, P)
    pairs = np.empty((reps, 2))
    for rep in range(reps):
        rng = _rep_rng(master_seed, n, rep)
        sample = sample_from(P, n, rng)
        pairs[rep, 0] = efficient_estimate(psi, sample)
        pairs[rep, 1] = efficient_estimate(nu, sample)
    cov, lam, delta = _joint_summaries(pairs, n, psi0, nu0)
    return McResult(kind="joint", n_grid=(n,), reps=reps, seed=master_seed,
                    population=None, estimates={n: pairs}, rmse={},
                    empirical_cov={n: cov}, lambda_hat=lam, delta_hat=delta)


# --- discrete three-cell model ------------------------------------------------------

@dataclass(frozen=True)
class Multinomial:
    """Finitely supported model; every integral is a finite sum, which
    makes it the exact cross-check for the sphere chart."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if np.any(p <= 0.0) or abs(float(np.sum(p)) - 1.0) > 1e-12:
            raise ConfigError("probs", "cell probabilities must be positive and sum to one")

    def cell_influence(self, i: int) -> np.ndarray:
        e = np.full(len(self.probs), -float(self.probs[i]))
        e[i] += 1.0
        return e

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(np.asarray(self.probs) * u * v))

    def cell_sensitivity(self, i: int, j: int) -> float:
        """Information sensitivity of cell probability i to cell
        probability j."""
        return self.inner(self.cell_influence(i), self.cell_influence(j))


def mc_joint_multinomial(model: Multinomial, i: int, j: int, n: int,
                         reps: int, master_seed: int) -> McResult:
    """Joint asymptotics of two cell frequencies."""
    p = np.asarray(model.probs, dtype=float)
    pairs = np.empty((reps, 2))
    for rep in range(reps):
        rng = _rep_rng(master_seed, n, rep)
        counts = rng.multinomial(n, p)
        pairs[rep] = counts[i] / n, counts[j] / n
    cov, lam, delta = _joint_summaries(pairs, n, float(p[i]), float(p[j]))
    return McResult(kind="joint", n_grid=(n,), reps=reps, seed=master_seed,
                    population=None, estimates={n: pairs}, rmse={},
                    empirical_cov={n: cov}, lambda_hat=lam, delta_hat=delta)
