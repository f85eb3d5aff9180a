"""Bundled densities, functional pairs, and model instances.

These are the named cases the test battery runs on.
Collecting them here keeps the choices in one place: grids wide enough
that truncation error stays far below the tolerances in play, and
functional pairs picked so the quantity each check probes is actually
exercised (a curved functional where remainder slopes matter, a known
closed form where values matter).
"""

from __future__ import annotations

from sensan.families import build_family
from sensan.functionals import (Functional, composite, moment,
                                quantile_functional, variance)
from sensan.gmm import MomentSpec, moment_spec
from sensan.model_space import Grid, GridDensity, invert_cdf
from sensan.tangent import PolicyMetric, information_metric, policy_metric

__all__ = [
    "unit_grid",
    "normal_grid",
    "uniform01",
    "beta25",
    "trunc_std_normal",
    "influence_densities",
    "mean_over_median",
    "sensitivity_cases",
    "first_order_cases",
    "two_moment_spec",
    "two_moment_population",
    "two_moment_misspecified",
]


def unit_grid(n: int = 801) -> Grid:
    return Grid.line(0.0, 1.0, n)


def normal_grid(n: int = 801) -> Grid:
    return Grid.line(-6.0, 6.0, n)


def uniform01(n: int = 801) -> GridDensity:
    return build_family({"family": "uniform"}, unit_grid(n))


def beta25(n: int = 801) -> GridDensity:
    return build_family({"family": "beta", "alpha": 2.0, "beta": 5.0},
                        unit_grid(n))


def trunc_std_normal(n: int = 801) -> GridDensity:
    return build_family({"family": "truncated_normal", "mean": 0.0, "sd": 1.0},
                        normal_grid(n))


def influence_densities() -> list[tuple[str, GridDensity]]:
    """The densities the analytic-vs-numerical influence comparison runs on."""
    return [("uniform01", uniform01()),
            ("beta25", beta25()),
            ("trunc_normal", trunc_std_normal())]


def mean_over_median() -> Functional:
    """Mean over median as an opaque composite, so only the numerical
    influence route applies to it."""
    def value(Q):
        x = Q.grid.axes[0].nodes
        return Q.quad(x) / Q.quad() / invert_cdf(Q.marginal(0), 0.5, strict=False)
    return composite(value, "mean/median")


def _mean():
    return moment(lambda x: x, label="mean")


def sensitivity_cases() -> list[tuple[str, object, object, GridDensity]]:
    """(label, psi, nu, P) cases for checks quantified over bundled pairs,
    the policy-equals-information coincidence in particular."""
    U = uniform01()
    B = beta25()
    T = trunc_std_normal()
    return [
        ("mean|median uniform", _mean(), quantile_functional(0.5), U),
        ("variance|median uniform", variance(), quantile_functional(0.5), U),
        ("mean|variance beta25", _mean(), variance(), B),
        ("median|q25 beta25", quantile_functional(0.5),
         quantile_functional(0.25), B),
        ("mean|median trunc normal", _mean(), quantile_functional(0.5), T),
        ("variance|median trunc normal", variance(), quantile_functional(0.5),
         T),
    ]


def first_order_cases() -> list[tuple[str, object, object, PolicyMetric,
                                      GridDensity]]:
    """Four (psi, nu, metric, P) combinations with genuinely quadratic
    counterfactual remainders.

    The mean is exactly linear along multiplicative paths (its remainder
    is quadrature noise, no slope to fit), so psi is the variance
    throughout and curvature comes from the quantile side or the ratio
    weight.
    """
    U = uniform01()
    T = trunc_std_normal()
    lin_up = build_family({"family": "linear", "intercept": 0.5, "slope": 1.0},
                          unit_grid())
    lin_down = build_family({"family": "linear", "intercept": 1.6,
                             "slope": -1.2}, unit_grid())
    return [
        ("variance|median, information, uniform",
         variance(), quantile_functional(0.5), information_metric(), U),
        ("variance|median, information, trunc normal",
         variance(), quantile_functional(0.5), information_metric(), T),
        ("variance|q25, policy 1.6-1.2x, uniform",
         variance(), quantile_functional(0.25), policy_metric(U, lin_down), U),
        ("variance|median, policy 0.5+x, uniform",
         variance(), quantile_functional(0.5), policy_metric(U, lin_up), U),
    ]


# --- the two-moment normal location model -------------------------------------------

def _wide_normal_grid(n: int = 801) -> Grid:
    # eight sd around the location 1: truncation deficit in E[x^2] is
    # ~8e-14, keeping |Pg| at the root far below the specification gate
    return Grid.line(-7.0, 9.0, n)


def two_moment_spec() -> MomentSpec:
    """Location model carrying an overidentifying second moment:
    g = (x - th, x^2 - th^2 - 1)."""
    return moment_spec(("x - th0", "x*x - th0*th0 - 1"), theta_dim=1,
                       bounds=((-3.0, 3.0),))


def two_moment_population(n: int = 801) -> GridDensity:
    """N(1, 1) truncated well outside every tolerance: both moments vanish
    at th = 1."""
    return build_family({"family": "truncated_normal", "mean": 1.0, "sd": 1.0},
                        _wide_normal_grid(n))


def two_moment_misspecified(n: int = 801) -> GridDensity:
    """N(1, 1.2): the two moment conditions disagree about th, so no
    parameter sets both to zero."""
    return build_family({"family": "truncated_normal", "mean": 1.0, "sd": 1.2},
                        _wide_normal_grid(n))
