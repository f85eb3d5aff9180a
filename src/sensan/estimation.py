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

Replication rep draws from the stream of
default_rng(SeedSequence((master_seed, n, rep))), so results are
reproducible no matter how replications are scheduled; reductions use
numpy pairwise summation over rep-ordered arrays. _rep_streams builds
these streams for a harness call at once: SeedSequence's hashing runs as
uint32 array operations over 1024 reps at a time, PCG64's seeding in
Python ints, and each rep's state is set on one reused Generator. Both
uniform harnesses and the multinomial harness draw from it.

Samples come from inverting grid CDFs. Both harnesses draw through
_sample_blocks: one CDF table per sample size (in two dimensions, the X
marginal's), blocks of _SAMPLE_BLOCK uniforms, each row from its own
(master_seed, n, rep) stream. The joint harness estimates a block with
one call per estimator; the consistency harness builds one Sample per
replication from its row for the plug-in. Uniform draws are inverted in
increasing order and put back in draw order, since np.interp starts each
search at the previous draw's cell; in two dimensions the row CDFs of
Y | X are built for blocks of _DRAW_BLOCK draws, so memory does not grow
with n. Each draw meets the same cell and formula as np.interp on the
draws in their own order, so a sample is bit for bit the same whether it
is drawn alone by sample_from or as a row of a block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .artifacts import write_table
from .errors import ConfigError, SensanError, read
from .functionals import Functional, estimated_influence, evaluate
from .model_space import (Grid, GridDensity, LikelihoodRatio, Sample,
                          _cumtrapz, _clamped_ratio, _simpson_reduce,
                          check_points, interpolate, kde_fit, locate)

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
_SAMPLE_BLOCK = 1 << 15  # uniforms a harness draws and inverts at once (256 KB)


# --- ratio estimators ---------------------------------------------------------------

@dataclass(frozen=True)
class RatioInformation:
    """Information metric: the ratio is identically one."""

    grid = None    # read on no grid

    def at(self, sample: Sample) -> np.ndarray:
        return np.ones(sample.n)


@dataclass(frozen=True)
class RatioKnown:
    """Known likelihood ratio dP/dQ, interpolated from its grid values."""

    ratio: LikelihoodRatio

    @property
    def grid(self) -> Grid:
        return self.ratio.grid

    def at(self, sample: Sample) -> np.ndarray:
        return interpolate(self.grid, self.ratio.ratio_values, sample.points)


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

    @property
    def grid(self) -> Grid:
        return self.Q.grid

    def at(self, sample: Sample) -> np.ndarray:
        phat = kde_fit(sample, self.grid, self.bandwidth)
        num = interpolate(self.grid, phat.values, sample.points)
        den = interpolate(self.grid, self.Q.values, sample.points)
        return _clamped_ratio(num, den)[1]


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
    r = config.ratio_estimator.at(config.sample)
    # Pn{psi (nu - Pn(nu r)/Pn r) r}, expanded so the centering correction
    # enters as a product of means. Estimated influences are already
    # empirically centered, so on the information path the correction is
    # O(eps^2) and the result equals Pn(psi nu) to the last bit.
    cross = np.mean(psi_v * nu_v * r)
    value = float(cross - np.mean(psi_v * r) * np.mean(nu_v * r) / np.mean(r))
    if not math.isfinite(value):
        raise SensanError(f"plug-in sensitivity overflows: {value}")
    return value


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


def sample_from(P: GridDensity, n: int, rng: np.random.Generator) -> Sample:
    """Draw n points: inverse-CDF on the grid in one dimension, X then
    Y | X in two, from rng.random(n) for X and then rng.random(n) for Y."""
    _check_size(n)
    u = np.stack([rng.random(n) for _ in P.grid.axes])
    return Sample(_inverse_cdf(P)(u), *_bounds(P.grid))


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


# --- replication streams ------------------------------------------------------------
#
# SeedSequence (NumPy NEP 19) hashes its entropy words into a pool of four
# uint32 words and generates PCG64's seed from it; PCG64 then seeds itself
# by srandom (O'Neill 2014). Building that for each rep costs about 13 us,
# but the steps are the same for every rep of a call, so the hashing runs
# on arrays of reps and the seeding in Python ints.

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875          # SeedSequence mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED          # SeedSequence output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645     # PCG64's 128-bit LCG
# reps whose streams are hashed at once; a power of two, so that no chunk
# holds reps on both sides of a multiple of 2**32
_STREAM_CHUNK = 1 << 10


def _words(v: int) -> list[int]:
    """SeedSequence's uint32 words of the non-negative int v, low first."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array, and the next hash
    constant; the constants stay masked Python ints, so the arithmetic
    is on arrays and wraps without a warning."""
    value = value ^ const
    const = (const * mult) & _MASK32
    value = value * const
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _pcg64_states(master_seed: int, n: int, first: int,
                  count: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence((master_seed, n, rep))) for rep
    = first, ..., first + count - 1, reps that share every uint32 word but
    the lowest."""
    entropy = [np.full(count, w, dtype=np.uint32)
               for w in _words(master_seed) + _words(n)]
    low = first & _MASK32
    entropy.append(np.arange(low, low + count, dtype=np.uint32))
    if first >> 32:
        entropy += [np.full(count, w, dtype=np.uint32)
                    for w in _words(first >> 32)]
    # the pool: hash the first four words in, mix every word into every
    # other, then mix each further word into all four
    const = _INIT_A
    pool = []
    for i in range(4):
        word = entropy[i] if i < len(entropy) else np.zeros(count, np.uint32)
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[4:]:
        for dst in range(4):
            h, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): eight words off the pool, paired
    # little-endian into the seed's and the sequence's 64-bit halves
    const = _INIT_B
    out = []
    for k in range(8):
        word, const = _hashmix(pool[k % 4], const, _MULT_B)
        out.append(word.astype(np.uint64))
    halves = [(out[k] | (out[k + 1] << 32)).tolist() for k in range(0, 8, 2)]
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        # srandom: state 0, one step, add the seed, one more step
        inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
        seed = (seed_hi << 64) | seed_lo
        states.append((((inc + seed) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _rep_streams(master_seed: int, n: int, reps: int):
    """Yield reps replication streams: the k-th is one reused Generator
    set to default_rng(SeedSequence((master_seed, n, k))), valid until the
    next is taken. A master_seed or n that is not a non-negative integer
    is refused by name when the streams are asked for, before the first."""
    _check_count("master_seed", master_seed)
    _check_count("n", n)

    def streams():
        rng = np.random.Generator(np.random.PCG64())  # state set per rep
        for first in range(0, reps, _STREAM_CHUNK):
            for state, inc in _pcg64_states(int(master_seed), int(n), first,
                                            min(_STREAM_CHUNK, reps - first)):
                rng.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
                yield rng
    return streams()


def _check_count(key: str, v) -> None:
    """Refuse v by name unless it is a non-negative integer."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
        raise ConfigError(key, f"expected a non-negative integer, got {v!r}")


def _check_size(n) -> None:
    """Refuse a sample size n by name, or n = 0 as a sample of no points."""
    _check_count("n", n)
    if n == 0:
        raise SensanError("sample must be a nonempty array of points")


def _check_reps(reps: int, least: int) -> int:
    """reps as an int of at least `least`, refused in the CLI's words."""
    return read({"reps": reps}, "reps", int, lo=least)


def _sample_blocks(P: GridDensity, n: int, reps: int, master_seed: int):
    """Yield (r0, points), points of shape (rows, n, ndim) from P for
    replications r0, r0 + 1, ...: row r from the (master_seed, n, r0 + r)
    stream, X's uniforms and then Y's as sample_from draws them, the block
    inverted through one CDF table and checked at once."""
    _check_size(n)
    streams = _rep_streams(master_seed, n, reps)
    points = _inverse_cdf(P)
    lo, hi = _bounds(P.grid)
    rows = max(1, _SAMPLE_BLOCK // (P.grid.ndim * n))
    u = np.empty((min(rows, reps), P.grid.ndim, n))
    for r0 in range(0, reps, rows):
        block = u[:min(rows, reps - r0)]
        for row, rng in zip(block, streams):
            rng.random(out=row)
        pts = points(block)
        check_points(pts, lo, hi)
        yield r0, pts


def mc_consistency(P: GridDensity, psi: Functional, nu: Functional,
                   ratio_estimator, n_grid, reps: int, master_seed: int,
                   population: float) -> McResult:
    """RMSE of the plug-in sensitivity across sample sizes.

    The population value is computed once by the caller (the engine
    oracle) and passed in, so the harness never re-derives it per run.
    It needs at least one replication.
    """
    reps = _check_reps(reps, 1)
    n_grid = tuple(int(n) for n in n_grid)
    if (len(n_grid) < 3 or n_grid[0] < 1
            or any(b <= a for a, b in zip(n_grid, n_grid[1:]))):
        raise ConfigError("n_grid", "n_grid must be at least three increasing sizes above 0")
    bounds = _bounds(P.grid)
    estimates: dict = {}
    rmse: dict = {}
    for n in n_grid:
        vals = np.empty(reps)
        for r0, block in _sample_blocks(P, n, reps, master_seed):
            for r, pts in enumerate(block):
                sample = Sample(pts, *bounds)
                vals[r0 + r] = plugin_sensitivity(PluginConfig(
                    psi_influence=estimated_influence(psi, sample, P.grid),
                    nu_influence=estimated_influence(nu, sample, P.grid),
                    ratio_estimator=ratio_estimator,
                    sample=sample))
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
    if not np.all(np.isfinite(cov)):
        raise SensanError("the covariance of the scaled errors overflows: "
                          f"{cov.tolist()}")
    for name, var in (("psi", cov[0, 0]), ("nu", cov[1, 1])):
        if not var > 0.0:
            raise SensanError(
                f"the {name} estimates have zero variance across the "
                "replications, so Lambda and Delta are undefined")
    lambda_hat = float(cov[0, 1] / cov[1, 1])
    delta_hat = float(cov[0, 1] ** 2 / (cov[0, 0] * cov[1, 1]))
    for name, value in (("lambda_hat", lambda_hat), ("delta_hat", delta_hat)):
        if not math.isfinite(value):
            raise SensanError(f"{name} overflows: {value}")
    return McResult(kind="joint", n_grid=(n,), reps=len(pairs),
                    seed=master_seed, population=None, estimates={n: pairs},
                    rmse={}, empirical_cov={n: cov},
                    lambda_hat=lambda_hat, delta_hat=delta_hat)


def mc_joint_asymptotics(P: GridDensity, psi: Functional, nu: Functional,
                         n: int, reps: int, master_seed: int) -> McResult:
    """Joint distribution of the efficient estimators: replicate, scale
    errors by sqrt(n), and report the empirical covariance with the
    sensitivity ratios it implies.

    Replications come in _sample_blocks blocks, and each estimator makes
    one call per block, so every estimate has the bits of its replication
    drawn alone. It needs at least two replications for a covariance."""
    reps = _check_reps(reps, 2)
    psi0 = evaluate(psi, P)
    nu0 = evaluate(nu, P)
    pairs = np.empty((reps, 2))
    for r0, pts in _sample_blocks(P, n, reps, master_seed):
        pairs[r0:r0 + len(pts), 0] = evaluate(psi, pts)
        pairs[r0:r0 + len(pts), 1] = evaluate(nu, pts)
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

    def _cell(self, i) -> int:
        """i as a cell index, refused by name (cells) outside 0..k-1."""
        return read({"cells": i}, "cells", int, lo=0, hi=len(self.probs) - 1)

    def cell_influence(self, i: int) -> np.ndarray:
        i = self._cell(i)
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
    """Joint asymptotics of two cell frequencies; n draws per replication,
    at least one, and at least two replications."""
    reps = _check_reps(reps, 2)
    i, j = model._cell(i), model._cell(j)
    # n = 0 would divide by zero; _rep_streams refuses every other n that
    # is not a positive integer
    if n == 0:
        raise ConfigError("n", f"expected a positive integer, got {n!r}")
    p = np.asarray(model.probs, dtype=float)
    counts = np.empty((reps, len(p)), dtype=np.int64)
    for row, rng in zip(counts, _rep_streams(master_seed, n, reps)):
        row[:] = rng.multinomial(n, p)
    # C order, as np.cov's bits depend on it
    pairs = np.stack([counts[:, i], counts[:, j]], axis=1) / n
    return _joint_result(pairs, n, master_seed, float(p[i]), float(p[j]))
