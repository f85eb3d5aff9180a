"""Plug-in sensitivity estimators and the Monte Carlo harness.

The population sensitivity <psi~, A* nu~>_P has a sample analog: replace
influence functions by estimated ones (`functionals.estimated_influence`),
the measure by the empirical measure, and the ratio dP/dQ by either a
known ratio or a kernel density estimate divided by the policy density.
Each kind's sample side lives in `functionals` beside its grid side; the
joint harness replicates `functionals.evaluate` on samples. All three
metric paths run the same formula

    Pn{ psi~ (nu~ - Pn(nu~ r)/Pn(r)) r },

with r identically one on the information path, where it collapses to
Pn(psi~ nu~); the information and unit-known-ratio runs agree bit for
bit because they execute the same code on the same arrays.

Replication seeds derive from (master_seed, n, rep), so results are
reproducible no matter how replications are scheduled; reductions use
numpy pairwise summation over rep-ordered arrays.

Samples come from inverting grid CDFs. A harness builds the CDF table
once per call (in two dimensions, the X marginal's), and the joint
harness draws its replications in blocks of _SAMPLE_BLOCK uniforms, each
row from its own (master_seed, n, rep) stream, and estimates a whole
block with one call per estimator. Uniform draws are inverted in
increasing order and put back in draw order, since np.interp starts each
search at the previous draw's cell; in two dimensions the row CDFs of
Y | X are built for blocks of _DRAW_BLOCK draws, so memory does not grow
with n. Each draw meets the same cell and formula as np.interp on the
draws in their own order, so a sample is bit for bit the same whether it
is drawn alone by sample_from or as a row of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_table
from .errors import ConfigError, SensanError, read
from .functionals import Functional, estimated_influence, evaluate
from .model_space import (GridDensity, LikelihoodRatio, Sample, _cumtrapz,
                          _clamped_ratio, _simpson_reduce, check_points,
                          interpolate, kde_fit, locate)

__all__ = [
    "RatioInformation",
    "RatioKnown",
    "RatioKde",
    "PluginConfig",
    "McResult",
    "Multinomial",
    "estimated_influence",
    "plugin_sensitivity",
    "sample_from",
    "mc_consistency",
    "mc_joint_asymptotics",
    "mc_joint_multinomial",
]

_DRAW_BLOCK = 512        # conditional draws whose row CDFs a sampler holds at once
_SAMPLE_BLOCK = 1 << 15  # uniforms the joint harness draws and inverts at once (256 KB)


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
        b = read({"bandwidth": self.bandwidth}, "bandwidth", float, None)
        if b is not None and b <= 0.0:
            raise ConfigError("bandwidth", f"expected a positive number, got {b!r}")


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
        return _clamped_ratio(num, den)[1]
    raise SensanError(f"unknown ratio estimator {type(estimator).__name__}")


# --- the plug-in estimator ----------------------------------------------------------

@dataclass(frozen=True)
class PluginConfig:
    """Everything the plug-in sensitivity estimator consumes."""

    psi_influence: object
    nu_influence: object
    ratio_estimator: object
    sample: Sample


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
    """np.interp(u, F, nodes), evaluated with the draws ordered by their
    16-bit bucket floor(u * 65536), in draw order inside a bucket; numpy
    sorts a uint16 key by radix, in linear time. np.interp starts each
    search at the previous draw's cell, so draws that come bucket by
    bucket cost a step or two each instead of a bisection; every draw
    still gets the same cell and formula, so the values are bit for bit
    those of the call in draw order."""
    order = np.argsort((u * 65536.0).astype(np.uint16), kind="stable")
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


def _inverse_cdf(P: GridDensity):
    """The inverse-CDF sampler of P, its X table built once: a map from
    uniforms of shape (..., ndim, n) to points of shape (..., n, ndim),
    the uniforms of X in row 0 and those of Y | X in row 1. In 2-d the
    X table is the Simpson marginal's and Y | X is inverted through row
    CDFs built _DRAW_BLOCK draws at a time; each draw's arithmetic is
    independent of the others, so neither the blocking nor the leading
    axes change a bit."""
    grid = P.grid
    if grid.ndim not in (1, 2):
        raise SensanError("sampling supports one- and two-dimensional grids")
    xnodes = grid.axes[0].nodes
    marg = P.values if grid.ndim == 1 else _simpson_reduce(grid, P.values, 1)
    Fx = _cumtrapz(xnodes, marg)
    Fx = Fx / Fx[-1]

    def points(u: np.ndarray) -> np.ndarray:
        shape = u.shape[:-2] + u.shape[-1:]
        rows = u.reshape((-1,) + u.shape[-2:])
        # one sample at a time: a bucket order over a whole block costs
        # more per draw than over each of its rows
        x = np.empty((len(rows), u.shape[-1]))
        for r, row in enumerate(rows):
            x[r] = _invert_sorted(row[0], Fx, xnodes)
        x = x.reshape(-1)
        if grid.ndim == 1:
            return x.reshape(shape + (1,))
        v = rows[:, 1].reshape(-1)
        y = np.empty_like(x)
        for start in range(0, x.size, _DRAW_BLOCK):
            block = slice(start, start + _DRAW_BLOCK)
            y[block] = _conditional_draws(P, x[block], v[block])
        return np.stack([x, y], axis=-1).reshape(shape + (2,))
    return points


def _bounds(grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (tuple(ax.lo for ax in grid.axes), tuple(ax.hi for ax in grid.axes))


def _draw(points, grid, n: int, rng) -> Sample:
    """A Sample of n points from the sampler `points`, the uniforms drawn
    as rng.random(n) for X and then, in 2-d, rng.random(n) for Y."""
    u = np.stack([rng.random(n) for _ in grid.axes])
    return Sample(points(u), *_bounds(grid))


def sample_from(P: GridDensity, n: int, rng: np.random.Generator) -> Sample:
    """Draw n points: inverse-CDF on the grid in one dimension, X then
    Y | X in two, from rng.random(n) for X and then rng.random(n) for Y."""
    return _draw(_inverse_cdf(P), P.grid, n, rng)


# --- Monte Carlo results ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    points = _inverse_cdf(P)
    estimates: dict = {}
    rmse: dict = {}
    for n in n_grid:
        vals = np.empty(reps)
        for rep in range(reps):
            sample = _draw(points, P.grid, n, _rep_rng(master_seed, n, rep))
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


def _joint_result(pairs: np.ndarray, n: int, master_seed: int, psi0: float,
                  nu0: float) -> McResult:
    """The joint McResult of (psi-hat, nu-hat) replications at sample size
    n: the covariance of the sqrt(n)-scaled errors and the sensitivity
    ratios it implies."""
    errors = math.sqrt(n) * (pairs - np.array([psi0, nu0]))
    cov = np.cov(errors.T, bias=True)
    for name, var in (("psi", cov[0, 0]), ("nu", cov[1, 1])):
        if not var > 0.0:
            raise SensanError(
                f"the {name} estimates have zero variance across the "
                "replications, so Lambda and Delta are undefined")
    return McResult(kind="joint", n_grid=(n,), reps=len(pairs),
                    seed=master_seed, population=None, estimates={n: pairs},
                    rmse={}, empirical_cov={n: cov},
                    lambda_hat=float(cov[0, 1] / cov[1, 1]),
                    delta_hat=float(cov[0, 1] ** 2 / (cov[0, 0] * cov[1, 1])))


def mc_joint_asymptotics(P: GridDensity, psi: Functional, nu: Functional,
                         n: int, reps: int, master_seed: int) -> McResult:
    """Joint distribution of the efficient estimators: replicate, scale
    errors by sqrt(n), and report the empirical covariance with the
    sensitivity ratios it implies.

    Replications are drawn in blocks of up to _SAMPLE_BLOCK uniforms:
    each row of a block is filled from its own (master_seed, n, rep)
    stream, as sample_from would draw it, the block is inverted and
    checked at once, and each estimator makes one call per block, so
    every estimate has the bits of its replication drawn alone."""
    psi0 = evaluate(psi, P)
    nu0 = evaluate(nu, P)
    if n < 1:
        raise SensanError("sample must be a nonempty array of points")
    points = _inverse_cdf(P)
    lo, hi = _bounds(P.grid)
    rows = max(1, _SAMPLE_BLOCK // (P.grid.ndim * n))
    u = np.empty((min(rows, reps), P.grid.ndim, n))
    pairs = np.empty((reps, 2))
    for r0 in range(0, reps, rows):
        block = u[:min(rows, reps - r0)]
        for r, row in enumerate(block):
            _rep_rng(master_seed, n, r0 + r).random(out=row)
        pts = points(block)
        check_points(pts, lo, hi)
        pairs[r0:r0 + len(block), 0] = evaluate(psi, pts)
        pairs[r0:r0 + len(block), 1] = evaluate(nu, pts)
    return _joint_result(pairs, n, master_seed, psi0, nu0)


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
    return _joint_result(pairs, n, master_seed, float(p[i]), float(p[j]))
