"""Named density families used by the CLI and the bundled experiments.

Each builder returns a normalized GridDensity on an explicit grid. Shapes
are evaluated pointwise and renormalized by quadrature, so families with
awkward normalizing constants (truncated normal) need no special casing.
Unbounded supports must be truncated by the caller; the truncation error
is the mass outside the window (about 2e-9 for six standard deviations of
a normal), which is far below every tolerance used here.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SensanError, read
from .model_space import Grid, GridDensity

__all__ = ["uniform", "beta", "truncated_normal", "linear", "quadratic",
           "build_family"]


def uniform(grid: Grid) -> GridDensity:
    return GridDensity.from_callable(grid, lambda *c: np.ones_like(c[0]))


def beta(grid: Grid, alpha: float, beta_: float) -> GridDensity:
    """Beta(alpha, beta) rescaled onto the (1-d) grid interval.

    Shape parameters below one put an integrable singularity at an
    endpoint, which a finite grid cannot represent, so we require >= 1.
    """
    if alpha < 1.0 or beta_ < 1.0:
        raise ConfigError("alpha" if alpha < 1.0 else "beta",
                          "beta family needs alpha, beta >= 1 on a grid")
    ax = grid.axes[0]
    span = ax.hi - ax.lo

    def shape(x, *rest):
        u = np.clip((x - ax.lo) / span, 0.0, 1.0)
        return u ** (alpha - 1.0) * (1.0 - u) ** (beta_ - 1.0)

    return GridDensity.from_callable(grid, shape)


def truncated_normal(grid: Grid, mean: float, sd: float) -> GridDensity:
    if sd <= 0.0:
        raise ConfigError("sd", "truncated normal needs sd > 0")

    def shape(x, *rest):
        z = (x - mean) / sd
        return np.exp(-0.5 * z * z)

    return GridDensity.from_callable(grid, shape)


def linear(grid: Grid, intercept: float, slope: float) -> GridDensity:
    """Density proportional to intercept + slope * x, for example the
    tilt 0.5 + x on [0, 1]."""

    def shape(x, *rest):
        v = intercept + slope * x
        if np.any(v <= 0.0):
            raise SensanError("linear family not positive on the grid")
        return v

    return GridDensity.from_callable(grid, shape)


def quadratic(grid: Grid, offset: float, curvature: float, center: float) -> GridDensity:
    """Density proportional to offset + curvature * (x - center)^2."""

    def shape(x, *rest):
        v = offset + curvature * (x - center) ** 2
        if np.any(v <= 0.0):
            raise SensanError("quadratic family not positive on the grid")
        return v

    return GridDensity.from_callable(grid, shape)


_FAMILIES = {   # name: (builder, its parameter keys in call order)
    "uniform": (uniform, ()),
    "beta": (beta, ("alpha", "beta")),
    "truncated_normal": (truncated_normal, ("mean", "sd")),
    "linear": (linear, ("intercept", "slope")),
    "quadratic": (quadratic, ("offset", "curvature", "center")),
}


def build_family(spec: dict, grid: Grid) -> GridDensity:
    """Build a family density from a config mapping with a 'family' key
    and that family's parameter keys."""
    name = read(spec, "family", str, choices=tuple(_FAMILIES))
    build, keys = _FAMILIES[name]
    return build(grid, *(read(spec, key, float) for key in keys))
