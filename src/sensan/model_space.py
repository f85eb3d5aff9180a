"""Finite-dimensional stand-ins for a dominated statistical model.

Distributions are represented by density values on a regular rectangular
grid (1-d or 2-d) together with quadrature weights, so that every integral
in the package reduces to a weighted sum. Composite Simpson weights are
used when the node count along an axis is odd, trapezoid otherwise.

Densities produced by counterfactual perturbations along a quantile
gradient are piecewise smooth with a known jump location. Such densities
carry an explicit decomposition (a smooth part plus "cut terms" supported
on half-open boxes {x_axis <= location}) and every quadrature routine here
splits cells at the cut locations instead of integrating through the jump.
That keeps indicator integrands at Simpson-level accuracy, which several
downstream tolerances rely on.

`PiecewiseField` is that decomposition and owns its algebra: quadrature,
scaling, products, marginals, point values and the range probe. Densities,
tangent vectors and the signed mixtures of numerical differentiation are
all fields. A field keeps one term per distinct box: sums, products and
marginals add up the parts that land on the same box, so a product of k
one-cut factors on a line has k + 1 parts, not 2^k.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import write_table
from .errors import SensanError

__all__ = [
    "Grid",
    "GridAxis",
    "CutTerm",
    "PiecewiseField",
    "GridDensity",
    "Sample",
    "LikelihoodRatio",
    "integrate",
    "quantile",
    "density_at",
    "likelihood_ratio",
    "kde_fit",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
RATIO_CLAMP = (1e-3, 1e3)   # bounds [m, M] on a likelihood ratio dP/dQ


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def _simpson_weights(lo: float, hi: float, n: int) -> np.ndarray:
    """Composite Simpson weights on n uniform nodes, trapezoid fallback
    when the interval count n-1 is odd (even n)."""
    h = (hi - lo) / (n - 1)
    if n % 2 == 1 and n >= 3:
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True, eq=False)
class GridAxis:
    lo: float
    hi: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular rectangular grid with per-axis quadrature weights.

    Grids compare and hash by identity, which matches the mesh cached on
    each instance; `same_as` is the geometric comparison."""

    axes: tuple[GridAxis, ...]

    @staticmethod
    def _axis(lo: float, hi: float, n: int) -> GridAxis:
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise SensanError(f"invalid grid axis bounds [{lo}, {hi}]")
        if n < 3:
            raise SensanError("grid axis needs at least 3 nodes")
        nodes = np.linspace(lo, hi, n)
        dn = np.diff(nodes)
        if not np.allclose(dn, dn[0], rtol=1e-12, atol=0.0):
            raise SensanError("grid nodes not uniformly spaced")
        w = _simpson_weights(lo, hi, n)
        if np.any(w < 0.0) or abs(w.sum() - (hi - lo)) > 1e-12 * (hi - lo):
            raise SensanError("quadrature weights failed validation")
        return GridAxis(float(lo), float(hi), int(n), _readonly(nodes), _readonly(w))

    @classmethod
    def line(cls, lo: float, hi: float, n: int = 801) -> "Grid":
        return cls(axes=(cls._axis(lo, hi, n),))

    @classmethod
    def box(cls, xlim: tuple[float, float], ylim: tuple[float, float],
            n: tuple[int, int] = (201, 201)) -> "Grid":
        return cls(axes=(cls._axis(*xlim, n[0]), cls._axis(*ylim, n[1])))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays at the full grid shape (ij indexing).

        They are built on the first call and shared by every later one,
        so they are read-only: a caller that needs to change them copies."""
        return self._mesh

    @cached_property
    def _mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(_readonly(m) for m in
                     np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij"))

    def box_mask(self, cuts: Cuts) -> np.ndarray:
        """The node mask of the half-open box {x_axis <= q} for every
        (axis, q) in `cuts`. It is built on the first call for those cuts
        and shared by every later one, so it is read-only."""
        masks = self._box_masks
        if cuts not in masks:
            m = np.ones(self.shape, dtype=bool)
            for axis, q in cuts:
                m &= self._mesh[axis] <= q
            m.setflags(write=False)
            masks[cuts] = m
        return masks[cuts]

    @cached_property
    def _box_masks(self) -> dict:
        return {}

    def prefix_weights(self, axis: int, m: int) -> np.ndarray:
        """Simpson weights on the first m + 1 nodes of `axis`, m even, the
        rule a cut integral applies below its cell. They are built on the
        first call for that axis and m and shared by every later one, so
        they are read-only."""
        weights = self._prefix_weights
        if (axis, m) not in weights:
            x = self.axes[axis].nodes
            weights[axis, m] = _readonly(_simpson_weights(x[0], x[m], m + 1))
        return weights[axis, m]

    @cached_property
    def _prefix_weights(self) -> dict:
        return {}

    def weight_tensor(self) -> np.ndarray:
        w = self.axes[0].weights
        for ax in self.axes[1:]:
            w = np.multiply.outer(w, ax.weights)
        return w

    def same_as(self, other: "Grid") -> bool:
        return self.shape == other.shape and all(
            a.lo == b.lo and a.hi == b.hi for a, b in zip(self.axes, other.axes)
        )


# --- raw quadrature on node samples -------------------------------------------------

Cuts = tuple[tuple[int, float], ...]


def merge_cuts(*cut_sets: Cuts) -> Cuts:
    """Intersection of half-open boxes: the tightest bound on each axis."""
    bound: dict[int, float] = {}
    for cuts in cut_sets:
        for axis, q in cuts:
            bound[axis] = min(q, bound.get(axis, math.inf))
    return tuple(sorted(bound.items()))


def _simpson_reduce(grid: Grid, samples: np.ndarray, axis: int,
                    pos: int | None = None) -> np.ndarray:
    """Integrate samples along grid axis `axis`, found at position `pos`
    counted from the end (by default the field's own position)."""
    w = grid.axes[axis].weights
    pos = axis - grid.ndim if pos is None else pos
    if samples.ndim > 2:
        # rows of 2-d fields: matmul makes one gemv per row, the call a
        # C-ordered field gets below, so each row keeps its bits
        samples = np.ascontiguousarray(samples)
        return samples @ w if pos == -1 else w @ samples
    # the 2-d layout and np.dot call of np.tensordot (same result, bit for
    # bit) without its Python overhead, which dominates 1-d quadrature
    F = np.swapaxes(samples, pos, -1)
    return np.dot(F.reshape(-1, w.size), w[:, None]).reshape(F.shape[:-1])


def _below_reduce(grid: Grid, samples: np.ndarray, axis: int, pos: int,
                  q: float) -> np.ndarray:
    """Integrate samples along `axis` (at `pos` from the end) over
    [lo, min(q, hi)], splitting the cell that contains q. Simpson on the
    even-length prefix, a trapezoid cell when the prefix length is odd,
    linear interpolation inside the partial cell. Exact consistency:
    q >= hi falls back to the full rule."""
    ax = grid.axes[axis]
    x = ax.nodes
    if q >= ax.hi:
        return _simpson_reduce(grid, samples, axis, pos)
    F = np.moveaxis(samples, pos, -1)
    out = np.zeros(F.shape[:-1])
    if q < ax.lo:
        return out
    h = ax.spacing
    k = int(np.searchsorted(x, q, side="right")) - 1
    k = min(max(k, 0), ax.n - 2)
    m = k if k % 2 == 0 else k - 1
    if m >= 2:
        out = F[..., : m + 1] @ grid.prefix_weights(axis, m)
    if k > m:
        out = out + 0.5 * h * (F[..., k - 1] + F[..., k])
    delta = q - x[k]
    if delta > 0.0:
        Fq = F[..., k] + (F[..., k + 1] - F[..., k]) * (delta / h)
        out = out + 0.5 * delta * (F[..., k] + Fq)
    return out


def _reduce(grid: Grid, samples: np.ndarray, cuts: Cuts,
            keep: int | None = None) -> np.ndarray:
    """Integrate samples over every axis except `keep`, each restricted to
    {x_axis <= location} where `cuts` bounds that axis. The grid axes are
    the trailing axes of `samples`; leading axes are rows of fields."""
    if not cuts and keep is None and samples.ndim > grid.ndim:
        # rows: matmul makes per row the gemv and the closing ddot that
        # np.dot makes for one field in grid_quad, so each row keeps its bits
        for ax in reversed(grid.axes[1:]):
            samples = samples @ ax.weights
        return (samples[..., None, :] @ grid.axes[0].weights)[..., 0]
    bound = dict(merge_cuts(cuts)) if cuts else {}
    out = samples
    for axis in reversed(range(grid.ndim)):
        if axis == keep:
            continue
        pos = -2 if keep is not None and keep > axis else -1
        if axis in bound:
            out = _below_reduce(grid, out, axis, pos, bound[axis])
        else:
            out = _simpson_reduce(grid, out, axis, pos)
    return out


def grid_quad(grid: Grid, samples: np.ndarray, cuts: Cuts = ()):
    """Integrate node samples over the grid, restricted to the half-open
    box {x_axis <= location} for every (axis, location) in `cuts`. Leading
    axes beyond the grid's are rows: the result is then one integral per
    row instead of a float."""
    samples = np.asarray(samples, dtype=float)
    if not cuts and samples.ndim == grid.ndim:
        # one field, one dot per axis, last axis first: the BLAS calls of
        # _reduce's general path, so the bits agree, without its dispatch,
        # which weighs on each of a composite's thousands of calls
        for ax in reversed(grid.axes):
            samples = np.dot(samples, ax.weights)
        return float(samples)
    out = _reduce(grid, samples, cuts)
    return float(out) if out.ndim == 0 else out


def locate(ax: GridAxis, coords) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i and in-cell weight w of coordinates along one axis,
    clamped into [lo, hi], so that c = nodes[i] + w * spacing."""
    c = np.minimum(np.maximum(coords, ax.lo), ax.hi)
    h = ax.spacing
    i = np.minimum(((c - ax.lo) / h).astype(int), ax.n - 2)
    return i, (c - ax.nodes[i]) / h


def interpolate(grid: Grid, samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node samples at points of shape
    (m, ndim), coordinates clamped into the grid."""
    cells = [locate(ax, points[:, a]) for a, ax in enumerate(grid.axes)]
    corners = [()]
    for i, _ in cells:
        corners = [c + (j,) for c in corners for j in (i, i + 1)]
    vals = [samples[c] for c in corners]
    for _, w in reversed(cells):
        vals = [lo + w * (hi - lo) for lo, hi in zip(vals[::2], vals[1::2])]
    return vals[0]


# --- piecewise smooth fields --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CutTerm:
    """Piecewise contribution samples(x) * prod_k 1[x_axis_k <= location_k].

    `samples` holds the smooth factor on the full grid, without the mask."""

    cuts: Cuts
    samples: np.ndarray


def _coalesce(grid: Grid, parts) -> "PiecewiseField":
    """The field summing (cuts, samples) parts, one term per distinct box.
    A part's box is the intersection of its cuts; parts on the same box
    add up in order, and those on the whole grid, (), make the smooth
    part, which the first part must be on."""
    boxes: dict = {}
    for cuts, s in parts:
        box = merge_cuts(cuts)
        boxes[box] = boxes[box] + s if box in boxes else s
    smooth = boxes.pop(())
    return PiecewiseField(grid, smooth,
                          tuple(CutTerm(c, s) for c, s in boxes.items()))


@dataclass(frozen=True, eq=False)
class PiecewiseField:
    """smooth(x) + sum_k terms[k].samples(x) on the box of terms[k].

    Construction neither validates nor copies, and the masked node values
    are built on first use only: numerical differentiation builds
    thousands of these and reads most of them through `quad` alone. It
    also stacks fields that share their terms as leading axes of
    `smooth`; `quad` and `marginal` then give one result per row."""

    grid: Grid
    smooth: np.ndarray
    terms: tuple[CutTerm, ...] = ()

    @cached_property
    def values(self) -> np.ndarray:
        v = np.array(self.smooth, dtype=float)
        for t in self.terms:
            np.add(v, t.samples, out=v, where=self.grid.box_mask(t.cuts))
        v.setflags(write=False)
        return v

    def quad(self, factor: np.ndarray | float | None = None) -> float:
        """Integral of the field, times `factor` (a scalar or node array)
        when one is given, cells split at every cut."""
        parts = [(self.smooth, ())] + [(t.samples, t.cuts) for t in self.terms]
        if factor is not None:
            parts = [(s * factor, c) for s, c in parts]
        return sum(grid_quad(self.grid, s, c) for s, c in parts)

    def scale(self, a: np.ndarray | float) -> "PiecewiseField":
        """Pointwise product with a scalar or a smooth node array."""
        return PiecewiseField(self.grid, self.smooth * a, tuple(
            CutTerm(t.cuts, t.samples * a) for t in self.terms))

    def shift(self, c: float) -> "PiecewiseField":
        return PiecewiseField(self.grid, self.smooth + c, self.terms)

    def add(self, other: "PiecewiseField") -> "PiecewiseField":
        return _coalesce(self.grid, [((), self.smooth), ((), other.smooth)] + [
            (t.cuts, t.samples) for t in self.terms + other.terms])

    def times(self, other: "PiecewiseField") -> "PiecewiseField":
        """Pointwise product, a plain field whatever the operand types:
        each pair of parts lives on the intersection of their boxes, and
        the pairs on one box add up."""
        if not other.terms:
            return PiecewiseField.scale(self, other.smooth)
        if not self.terms:
            return PiecewiseField.scale(other, self.smooth)
        mine = [((), self.smooth)] + [(t.cuts, t.samples) for t in self.terms]
        theirs = [((), other.smooth)] + [(t.cuts, t.samples) for t in other.terms]
        return _coalesce(self.grid, [(ca + cb, sa * sb)
                                     for ca, sa in mine for cb, sb in theirs])

    def marginal(self, axis: int) -> "PiecewiseField":
        """The 1-d field along `axis`, every other axis integrated out
        below the cuts that bound it."""
        parts = [((), _reduce(self.grid, self.smooth, (), keep=axis))]
        parts += [(tuple((0, q) for a, q in t.cuts if a == axis),
                   _reduce(self.grid, t.samples, t.cuts, keep=axis))
                  for t in self.terms]
        return _coalesce(Grid((self.grid.axes[axis],)), parts)

    def at(self, points) -> np.ndarray:
        """Values at points of shape (m, ndim) by multilinear interpolation,
        coordinates clamped into the grid; a term counts at the points
        inside its box."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.grid.ndim)
        out = interpolate(self.grid, self.smooth, pts)
        for t in self.terms:
            inside = np.all([pts[:, a] <= q for a, q in t.cuts], axis=0)
            out = out + np.where(inside, interpolate(self.grid, t.samples, pts), 0.0)
        return out

    def extremes(self) -> tuple[float, float]:
        """Min and max over the nodes and over both sides of every cut:
        `at` reads the side below a cut at its location q and the side
        above at the next float after q."""
        vals = [self.values]
        for axis, q in {c for t in self.terms for c in t.cuts}:
            line = [ax.nodes for ax in self.grid.axes]
            for side in (q, np.nextafter(q, np.inf)):
                line[axis] = np.array([side])
                vals.append(self.at(np.stack(np.meshgrid(*line, indexing="ij"),
                                             axis=-1)))
        return (float(min(v.min() for v in vals)),
                float(max(v.max() for v in vals)))

    def to_csv(self, path: str, label: str = "value") -> None:
        """Node table "x,<label>" or "x,y,<label>", x-major."""
        coords = [c.ravel() for c in self.grid.mesh()]
        write_table(path, ["x", "y"][:self.grid.ndim] + [label],
                    coords + [self.values.ravel()], eol="\r\n")


class GridDensity(PiecewiseField):
    """Probability density sampled on a grid: a validated, normalized field.

    Construction renormalizes silently when the raw quadrature integral is
    inside [0.99, 1.01] and rejects the input otherwise, so discretization
    leakage passes but genuinely unnormalized input does not. Family
    builders that produce unnormalized shapes go through `from_callable`,
    which normalizes explicitly before the gate.
    """

    def __init__(self, grid: Grid, values: np.ndarray, *,
                 _terms: tuple[CutTerm, ...] = (), _normalize: str = "strict"):
        raw = PiecewiseField(grid, np.asarray(values, dtype=float), tuple(_terms))
        if raw.smooth.shape != grid.shape:
            raise SensanError("density values do not match the grid shape")
        if not np.all(np.isfinite(raw.smooth)) or not all(
                np.all(np.isfinite(t.samples)) for t in raw.terms):
            raise SensanError("density values must be finite")
        if np.any(raw.values < 0.0):
            raise SensanError("density values must be nonnegative")
        total = raw.quad()
        if _normalize == "strict":
            if not (0.99 <= total <= 1.01):
                raise SensanError(
                    f"density integral {total:.6g} outside [0.99, 1.01], "
                    "refusing to renormalize")
        elif _normalize == "force":
            if not (np.isfinite(total) and total > 0.0):
                raise SensanError(f"density integral {total:.6g} is not a "
                                  "positive finite number")
        else:
            raise SensanError(f"unknown normalization mode '{_normalize}'")
        # divide rather than scale by 1 / total: the quotient is correctly
        # rounded, a product with the rounded reciprocal is not
        super().__init__(grid, _readonly(raw.smooth / total), tuple(
            CutTerm(t.cuts, _readonly(t.samples / total)) for t in raw.terms))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridDensity":
        raw = np.asarray(fn(*grid.mesh()), dtype=float)
        raw = np.broadcast_to(raw, grid.shape)
        total = grid_quad(grid, raw)
        if not np.isfinite(total) or total <= 0.0:
            raise SensanError("density shape does not integrate to a positive value")
        return cls(grid, raw / total)

    def to_csv(self, path: str) -> None:
        super().to_csv(path, "density")

    @classmethod
    def from_csv(cls, path: str) -> "GridDensity":
        """Read "x,density" or "x,y,density" rows. The node columns must
        be complete, regular and x-major, as `to_csv` writes them."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        if header not in (["x", "density"], ["x", "y", "density"]):
            raise SensanError(f"unrecognized density csv header {header!r}")
        ndim = len(header) - 1
        body = rows[1:]
        if not body or any(len(r) != ndim + 1 for r in body):
            raise SensanError(f"density csv rows must hold {ndim + 1} values")
        try:
            data = np.array([[float(c) for c in r] for r in body])
        except ValueError as exc:
            raise SensanError(f"density csv value is not a number: {exc}")
        nodes = data[:, :ndim]
        axes = [Grid._axis(c.min(), c.max(), len(np.unique(c))) for c in nodes.T]
        grid = Grid(tuple(axes))
        want = np.column_stack([m.ravel() for m in grid.mesh()])
        tol = [1e-9 * (ax.hi - ax.lo) for ax in axes]
        if want.shape != nodes.shape or not np.all(np.abs(nodes - want) <= tol):
            raise SensanError("density csv nodes are not a complete regular "
                              "grid in x-major order")
        return cls(grid, data[:, ndim].reshape(grid.shape))


def check_points(points: np.ndarray, lo, hi) -> None:
    """Raise unless every point of `points`, shape (..., ndim), is finite
    and inside the rectangle [lo, hi]."""
    if not np.all(np.isfinite(points)):
        raise SensanError("sample points must be finite")
    if np.any(points < np.asarray(lo)) or np.any(points > np.asarray(hi)):
        raise SensanError("sample points outside the declared rectangle")


def order_statistic(x: np.ndarray, tau: float) -> np.ndarray:
    """The left-continuous empirical tau-quantile along the last axis of
    x: its ceil(n tau)-th smallest entry, at least the first."""
    k = max(int(math.ceil(x.shape[-1] * tau)), 1)
    return np.partition(x, k - 1, axis=-1)[..., k - 1]


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed points inside a declared rectangle of the sample space."""

    points: np.ndarray
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise SensanError("sample must be a nonempty array of points")
        if pts.shape[1] != len(self.lo) or len(self.lo) != len(self.hi):
            raise SensanError("sample dimension does not match declared bounds")
        check_points(pts, self.lo, self.hi)
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    def coord(self, axis: int = 0) -> np.ndarray:
        return self.points[:, axis]

    def to_csv(self, path: str) -> None:
        write_table(path, ["x", "y"][:self.ndim], self.points.T, eol="\r\n")

    @classmethod
    def from_csv(cls, path: str) -> "Sample":
        """Points from a CSV with the header "x" or "x,y", as to_csv writes
        it; the declared rectangle is their bounding box."""
        with open(path) as fh:
            header, *lines = fh.readlines() or [""]
        names = header.strip()
        if names not in ("x", "x,y"):
            raise SensanError(f"unrecognized sample csv header {names!r}")
        # the data lines as loadtxt sees them: no comment or blank
        rows = [r for r in lines if r.split("#", 1)[0].strip()]
        if not rows:
            raise SensanError(f"sample csv {path} holds no rows")
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SensanError(f"sample csv {path}: {exc}") from None
        if data.shape[1] != len(names.split(",")):
            raise SensanError(f"sample csv rows must match the header {names!r}")
        return cls(data, tuple(float(v) for v in data.min(axis=0)),
                   tuple(float(v) for v in data.max(axis=0)))


@dataclass(frozen=True, eq=False)
class LikelihoodRatio:
    """Pointwise dP/dQ on a grid, clamped into RATIO_CLAMP = [m, M].

    The stored orientation is dP/dQ, the one entering the gradient operator.
    `clamped` records whether the clamp actually bit, since a biting clamp
    means the bounded-ratio assumption failed and downstream adjoint
    identities hold only approximately.
    """

    grid: Grid
    ratio_values: np.ndarray
    clamped: bool

    def __post_init__(self):
        m, M = RATIO_CLAMP
        vals = np.asarray(self.ratio_values, dtype=float)
        if vals.shape != self.grid.shape:
            raise SensanError("ratio values do not match the grid shape")
        if np.any(vals < m) or np.any(vals > M):
            raise SensanError("ratio values escape the clamp bounds")
        object.__setattr__(self, "ratio_values", _readonly(vals))


# --- operations ---------------------------------------------------------------------

def integrate(f, P: GridDensity) -> float:
    """Quadrature integral of f against P. `f` is either a callable on the
    grid coordinates or an array of node values."""
    if callable(f):
        vals = np.asarray(f(*P.grid.mesh()), dtype=float)
        vals = np.broadcast_to(vals, P.grid.shape)
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != P.grid.shape:
            raise SensanError("integrand values do not match the grid shape")
    if not np.all(np.isfinite(vals)):
        raise SensanError("non-finite integrand")
    return P.quad(vals)


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(y.shape)
    (0.5 * (y[..., 1:] + y[..., :-1]) * (x[1:] - x[:-1])).cumsum(axis=-1, out=out[..., 1:])
    return out


def _cum_at(x: np.ndarray, s: np.ndarray, cum: np.ndarray, t: float):
    """Trapezoid integral of node samples s over [x[0], t], consistent with
    their node-level cumulative table `cum`, per row of s."""
    if t <= x[0]:
        return 0.0
    t = min(t, x[-1])
    k = min(int(np.searchsorted(x, t, side="right")) - 1, len(x) - 2)
    d = t - x[k]
    st = s[..., k] + (s[..., k + 1] - s[..., k]) * (d / (x[k + 1] - x[k]))
    return cum[..., k] + 0.5 * d * (s[..., k] + st)


def invert_cdf(m: PiecewiseField, tau: float, *, strict: bool = True):
    """Invert the cumulative-trapezoid CDF of a 1-d field (a marginal),
    splitting cells at its cuts.

    Leading axes of `m.smooth` are rows, each a field sharing m's cut
    terms; the result is one quantile per row, or a float for one field.
    Strict mode rejects a flat crossing (zero density on an interval at
    the level). Non-strict mode takes the first crossing, which tolerates
    the tiny negative dips a signed mixture density can produce."""
    x = m.grid.axes[0].nodes
    parts = [(math.inf, m.smooth)] + [(t.cuts[0][1], t.samples) for t in m.terms]
    parts = [(q, s, _cumtrapz(x, s)) for q, s in parts]

    def cdf(t: float):
        return sum(_cum_at(x, s, cum, min(t, q)) for q, s, cum in parts)

    F = sum(cum if q >= x[-1] else np.where(x <= q, cum, _cum_at(x, s, cum, q))
            for q, s, cum in parts)
    rows = F.shape[:-1]
    if (F[..., -1] < tau).any():
        raise SensanError("quantile level beyond the grid support")
    i = np.maximum((F >= tau).argmax(axis=-1), 1)
    x0, x1 = x[i - 1], x[i]
    # node i of each row as an index into the flattened F; a number for one field
    k = i + len(x) * np.arange(i.size).reshape(rows)
    F = F.reshape(-1)

    def cross(hi_x, rows_in, hi_f):
        """Rows of `rows_in` whose CDF reaches tau on [lo_x, hi_x], and
        the crossing point of every row."""
        hit = rows_in & (hi_f >= tau)
        dF = hi_f - lo_f
        flat = dF <= 1e-13
        if strict and (hit & flat).any():
            raise SensanError("non-unique quantile: flat CDF at the level")
        at = lo_x + (tau - lo_f) / np.where(flat, 1.0, dF) * (hi_x - lo_x)
        return hit, np.where(flat, lo_x, at)

    # walk each row's cell [x0, x1] piece by piece, split at the cuts inside
    lo_x, lo_f, out = x0, F[k - 1], x1
    ahead = True                            # rows that have not crossed yet
    for q in sorted(q for q, _, _ in parts[1:]):
        inside = ahead & (x0 < q) & (q < x1)
        if inside.any():
            hi_f = cdf(q)
            hit, at = cross(q, inside, hi_f)
            out, ahead = np.where(hit, at, out), ahead & ~hit
            lo_x, lo_f = np.where(inside, q, lo_x), np.where(inside, hi_f, lo_f)
    hit, at = cross(x1, ahead, F[k])
    out = np.where(hit, at, out)
    return out if rows else float(out)


def quantile(P, tau: float, axis: int = 0) -> float:
    """Left-continuous quantile. GridDensity: linear interpolation of the
    cumulative-trapezoid CDF, with cells split at known density jumps.
    Sample: empirical inverse CDF (the ceil(n*tau) order statistic)."""
    if not (0.0 < tau < 1.0):
        raise SensanError("quantile level must be strictly inside (0, 1)")
    if isinstance(P, Sample):
        if axis >= P.ndim:
            raise SensanError("quantile axis out of range")
        return float(order_statistic(P.coord(axis), tau))
    if not isinstance(P, GridDensity):
        raise SensanError("quantile expects a GridDensity or a Sample")
    if axis >= P.grid.ndim:
        raise SensanError("quantile axis out of range")
    return invert_cdf(P.marginal(axis), tau, strict=True)


def density_at(P: GridDensity, x) -> float:
    """Multilinear interpolation of the density at an interior point."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (P.grid.ndim,):
        raise SensanError("point dimension does not match the grid")
    for ax, c in zip(P.grid.axes, pt):
        if not (ax.lo <= c <= ax.hi):
            raise SensanError("point outside the grid domain")
    return float(P.at(pt)[0])


def _clamped_ratio(num: np.ndarray, den: np.ndarray):
    """(num / den, the same clamped into RATIO_CLAMP). A point with
    neither mass, 0/0, reads 1; mass over none reads +inf, which the
    clamp takes to its upper bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 1.0))
    return raw, np.clip(raw, *RATIO_CLAMP)


def likelihood_ratio(P: GridDensity, Q: GridDensity) -> LikelihoodRatio:
    """Pointwise dP/dQ on the shared grid, clamped into RATIO_CLAMP."""
    if not P.grid.same_as(Q.grid):
        raise SensanError("mismatched grids for likelihood ratio")
    raw, clipped = _clamped_ratio(P.values, Q.values)
    return LikelihoodRatio(P.grid, clipped, bool(np.any(raw != clipped)))


def _reflection_operator(ax: GridAxis, b: float, first: int, size: int) -> np.ndarray:
    """G x size matrix whose (j, c) entry sums the kernel at node j of the
    lattice point m = first + c (at lo + m h) and of its mirror images at
    the two edges, the lattice points -m and 2(G-1) - m. The direct part
    depends on m - j only and the mirrored part on m + j only, so both are
    windows onto vectors of kernel values at integer offsets."""
    s = ax.n - 1

    def kernel(k: np.ndarray) -> np.ndarray:
        u = k * (ax.spacing / b)
        return np.exp(-0.5 * u * u) / (b * _SQRT2PI)

    direct = kernel(np.arange(first - s, first + size))
    m_plus_j = np.arange(first, first + s + size)
    mirrored = kernel(m_plus_j) + kernel(2 * s - m_plus_j)
    return (sliding_window_view(direct, size)[::-1]
            + sliding_window_view(mirrored, size))


def kde_fit(sample: Sample, grid: Grid, bandwidth: float | None = None) -> GridDensity:
    """Gaussian product-kernel density estimate on the grid, computed from
    linearly binned counts (Silverman 1982; Wand 1994).

    The sample must lie inside the grid. The bandwidth is one positive
    number for every axis, or None for the Silverman rule 1.06 * sd *
    n^(-1/5) per axis; boundary bias is corrected by reflecting each point
    at both domain edges. Each coordinate is split between its two
    neighbours on the lattice lo + m h of its axis, which keeps the count
    and the mean of the sample exact. One G x L operator per axis then
    sums, at every node, the kernels of a lattice point and of its two
    mirror images, so dens = M c in 1-d and M0 C M1^T in 2-d. Every node
    value is a sum of non-negative terms, and binning moves it by at most
    (h/b)^2 / 8 of the peak kernel height per axis. The result is
    renormalized on the grid.
    """
    if sample.ndim != grid.ndim:
        raise SensanError("sample dimension does not match the grid")
    axes = grid.axes
    lo, hi = sample.points.min(axis=0), sample.points.max(axis=0)
    for a, ax in enumerate(axes):
        if lo[a] < ax.lo or hi[a] > ax.hi:
            raise SensanError(f"sample spans [{lo[a]:g}, {hi[a]:g}] on axis {a}, "
                              f"outside the grid's [{ax.lo:g}, {ax.hi:g}]")
    n = sample.n
    if bandwidth is None:
        bands = []
        for a in range(grid.ndim):
            sd = float(np.std(sample.coord(a), ddof=1)) if n > 1 else 0.0
            if sd <= 0.0:
                raise SensanError("degenerate sample: zero variance, cannot pick a bandwidth")
            bands.append(1.06 * sd * n ** (-0.2))
    elif isinstance(bandwidth, numbers.Real) and 0.0 < bandwidth < math.inf:
        bands = [float(bandwidth)] * grid.ndim
    else:
        raise SensanError(f"bandwidth must be one positive number, not {bandwidth!r}")

    t = (sample.points - [ax.lo for ax in axes]) / [ax.spacing for ax in axes]
    cell = np.floor(t).astype(int)
    w = t - cell
    first = cell.min(axis=0)
    size = cell.max(axis=0) + 2 - first
    cell -= first
    counts = np.zeros(int(np.prod(size)))
    for corner in np.ndindex(*(2,) * grid.ndim):
        weight = np.prod(np.where(corner, w, 1.0 - w), axis=1)
        index = np.ravel_multi_index((cell + corner).T, size)
        counts += np.bincount(index, weight, minlength=counts.size)
    counts = counts.reshape(size)
    M = [_reflection_operator(ax, bands[a], int(first[a]), int(size[a]))
         for a, ax in enumerate(axes)]
    dens = M[0] @ counts if grid.ndim == 1 else M[0] @ counts @ M[1].T
    dens = dens / n
    return GridDensity(grid, dens / grid_quad(grid, dens), _normalize="force")
