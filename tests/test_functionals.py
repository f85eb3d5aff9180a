from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundles import mean_over_median
from sensan import (Grid, GridDensity, TangentVector, composite,
                    counterfactual_density, evaluate, functionals, influence,
                    influence_analytic, influence_numerical, inner_p, moment,
                    parse_functional, quantile_functional, variance)
from sensan.errors import ConfigError, SensanError
from sensan.families import beta, linear, quadratic, truncated_normal, uniform
from sensan.functionals import (_FD_STEP, _evaluator, _node_gradient,
                                default_schedule)
from sensan.model_space import PiecewiseField, grid_quad, invert_cdf

G = Grid.line(0.0, 1.0, 801)
U = uniform(G)
B25 = beta(G, 2.0, 5.0)


def test_moment_values():
    # E X^2 under Beta(2, 5) is 3/28
    F = moment(lambda x: x**2)
    assert abs(evaluate(F, B25) - 3.0 / 28.0) < 1e-10
    assert abs(evaluate(F, U) - 1.0 / 3.0) < 1e-12


def test_variance_value():
    F = variance()
    assert abs(evaluate(F, U) - 1.0 / 12.0) < 1e-12


def test_quantile_value():
    F = quantile_functional(0.5)
    assert abs(evaluate(F, U) - 0.5) < 1e-12


def test_composite_evaluator():
    F = composite(lambda P: float(np.max(P.values)), label="sup")
    assert abs(evaluate(F, U) - 1.0) < 1e-12


def test_functional_construction_errors():
    with pytest.raises(SensanError, match="callable rho"):
        moment(None)
    with pytest.raises(SensanError, match="strictly inside"):
        quantile_functional(1.0)
    with pytest.raises(SensanError, match="needs an evaluator"):
        composite(None)


def test_moment_influence_is_centered_rho():
    v = influence_analytic(moment(lambda x: x), U)
    np.testing.assert_allclose(v.values, G.axes[0].nodes - 0.5, atol=1e-12)
    assert abs(inner_p(v, v) - 1.0 / 12.0) < 1e-12


def test_variance_influence():
    v = influence_analytic(variance(), U)
    x = G.axes[0].nodes
    np.testing.assert_allclose(v.values, (x - 0.5) ** 2 - 1.0 / 12.0, atol=1e-10)


def test_quantile_influence_structure():
    """Median influence on Uniform[0, 1]: (tau - 1[x <= q]) / f(q), so the
    values are -0.5 left of the median and 0.5 right of it, with squared
    L2(P) norm tau (1 - tau) / f^2 = 0.25."""
    v = influence_analytic(quantile_functional(0.5), U)
    assert abs(v.values[100] + 0.5) < 1e-9
    assert abs(v.values[700] - 0.5) < 1e-9
    assert abs(v.mean_under_base()) < 1e-12
    assert abs(inner_p(v, v) - 0.25) < 1e-9
    assert len(v.terms) == 1


def test_quantile_influence_unstable_at_vanishing_density():
    P = GridDensity.from_callable(G, lambda x: np.abs(x - 0.5))
    with pytest.raises(SensanError, match="quantile influence unstable"):
        influence_analytic(quantile_functional(0.5), P)


def test_no_analytic_influence_for_composite():
    F = composite(lambda P: float(np.max(P.values)))
    with pytest.raises(SensanError, match="no analytic influence for kind 'composite'"):
        influence_analytic(F, U)


def test_influence_dispatch_prefers_analytic():
    a = influence(moment(lambda x: x), U)
    b = influence_analytic(moment(lambda x: x), U)
    np.testing.assert_array_equal(a.values, b.values)


def test_numerical_influence_of_the_mean():
    """Mixtures are exactly linear in t for a moment functional, so the
    numerical route reproduces the centered rho at interior nodes to
    rounding."""
    g = Grid.line(0.0, 1.0, 201)
    P = uniform(g)
    v = influence_numerical(moment(lambda x: x), P)
    x = g.axes[0].nodes
    i = np.searchsorted(x, 0.7)
    assert abs(v.values[i] - 0.2) < 1e-10


def test_numerical_influence_of_the_variance_matches_analytic():
    g = Grid.line(0.0, 1.0, 201)
    P = uniform(g)
    num = influence_numerical(variance(), P)
    ana = influence_analytic(variance(), P)
    x = g.axes[0].nodes
    interior = (x > 0.15) & (x < 0.85)
    err = np.max(np.abs(num.values[interior] - ana.values[interior]))
    assert err < 1e-2


def test_influence_falls_back_to_numerical_for_composite():
    # a composite mean should recover the centered coordinate numerically
    g = Grid.line(0.0, 1.0, 201)
    P = uniform(g)
    F = composite(lambda Q: float(grid_quad(Q.grid, Q.smooth * Q.grid.axes[0].nodes)))
    v = influence(F, P)
    x = g.axes[0].nodes
    interior = (x > 0.25) & (x < 0.75)
    assert np.max(np.abs(v.values[interior] - (x[interior] - 0.5))) < 1e-8


def test_default_schedule_scales_with_the_grid():
    sched = default_schedule(Grid.line(0.0, 1.0, 201))
    assert sched.sigma0 == pytest.approx(0.08)
    sched = default_schedule(Grid.line(0.0, 1.0, 801))
    assert sched.sigma0 == pytest.approx(0.05)


_AXES = st.tuples(st.integers(3, 2001), st.floats(1e-3, 1e3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_AXES, min_size=1, max_size=2))
def test_default_schedule_ends_at_two_spacings_or_wider(axes):
    """No caller sets the widths, so this is what keeps the finest bump
    wide enough to damp the period-2h Simpson ripple: at least three
    levels, the finest at two of the coarsest spacings or wider, and one
    more level would fall below that."""
    (n, span), *more = axes
    grid = (Grid.box((0.0, span), (0.0, more[0][1]), (n, more[0][0])) if more
            else Grid.line(0.0, span, n))
    h = max(ax.spacing for ax in grid.axes)
    sched = default_schedule(grid)
    assert np.isfinite(sched.sigma0) and sched.sigma0 > 0.0
    assert sched.levels >= 3
    assert sched.sigmas()[-1] >= 2.0 * h
    assert sched.sigma0 * 2.0 ** -sched.levels < 2.0 * h


def _covariance(Q):
    X, Y = Q.grid.mesh()
    z = Q.quad()
    return Q.quad(X * Y) / z - Q.quad(X) * Q.quad(Y) / (z * z)


@pytest.mark.parametrize("n", [21, 31])
def test_coarse_grid_covariance_influence_converges(n):
    """16 grid spacings are 0.8 of the side at 21 nodes and 0.533 at 31,
    widths whose Richardson pair diverges; the capped sigma0 of 0.4
    converges, and one sigma0 inside the box the covariance influence
    matches its chain rule (x - mx)(y - my), centered."""
    g = Grid.box((0.0, 1.0), (0.0, 1.0), (n, n))
    r = 0.3

    def shape(x, y):
        a, b = (x - 0.5) / 0.3, (y - 0.5) / 0.3
        return np.exp(-0.5 * (a * a - 2.0 * r * a * b + b * b) / (1.0 - r * r))

    P = GridDensity.from_callable(g, shape)
    num = influence_numerical(composite(_covariance, "covariance"), P).values
    s0 = default_schedule(g).sigma0
    assert s0 == pytest.approx(0.4)
    X, Y = g.mesh()
    mx, my = P.quad(X), P.quad(Y)
    ref = TangentVector(P, (X - mx) * (Y - my)).values
    zone = (X >= s0) & (X <= 1.0 - s0) & (Y >= s0) & (Y <= 1.0 - s0)
    assert np.count_nonzero(zone) >= 16
    assert np.max(np.abs(num - ref)[zone]) < 1e-2


def test_mollifier_divergence_is_reported():
    """The sup functional has no L2 influence function; its finite
    difference estimates blow up as the bump narrows and the level
    diagnostic must refuse to extrapolate."""
    g = Grid.line(0.0, 1.0, 201)
    P = uniform(g)
    F = composite(lambda Q: float(np.max(Q.values)))
    with pytest.raises(SensanError, match="mollifier not converged"):
        influence_numerical(F, P)


def test_mollifier_divergence_is_reported_off_the_uniform():
    # with a unique maximizer the node gradient is a spike there, and the
    # level estimates are bumps whose height grows like 1/sigma
    F = composite(lambda Q: float(np.max(Q.values)))
    with pytest.raises(SensanError, match="mollifier not converged"):
        influence_numerical(F, beta(Grid.line(0.0, 1.0, 201), 2.0, 5.0))


def _mixture_route(F, P, schedule):
    """Reference for the numerical influence of a composite F: at every
    node z and width sigma the central difference of F along the signed
    mixture (1 - t) P + t G_z, G_z the Gaussian bump at z divided by its
    Simpson integral, then Richardson on the two finest widths."""
    grid, t = P.grid, _FD_STEP
    mesh = grid.mesh()

    def at_mixture(bump, s):
        mix = P.scale(1.0 - s)
        return F.evaluator(PiecewiseField(grid, mix.smooth + s * bump, mix.terms))

    levels = []
    for sigma in schedule.sigmas():
        est = np.empty(grid.shape)
        for idx in np.ndindex(grid.shape):
            bump = np.ones(grid.shape)
            for a in range(grid.ndim):
                d = (mesh[a] - mesh[a][idx]) / sigma
                bump = bump * np.exp(-0.5 * d * d)
            bump = bump / grid_quad(grid, bump)
            est[idx] = (at_mixture(bump, t) - at_mixture(bump, -t)) / (2.0 * t)
        levels.append(est)
    return TangentVector(P, (4.0 * levels[-1] - levels[-2]) / 3.0).values


def test_node_gradient_matches_the_mixture_route_in_1d():
    """Mean over median is not linear in the field, so the two routes
    differ by their central-difference errors only."""
    g = Grid.line(0.0, 1.0, 101)
    P = linear(g, 0.5, 1.0)
    F = mean_over_median()
    ref = _mixture_route(F, P, default_schedule(g))
    num = influence_numerical(F, P).values
    assert np.max(np.abs(num - ref)) < 1e-5


def test_node_gradient_matches_the_mixture_route_in_2d():
    g = Grid.box((0.0, 1.0), (0.0, 1.0), (21, 21))
    P = GridDensity.from_callable(
        g, lambda x, y: np.exp(-((x - 0.5) ** 2 + (x - 0.5) * (y - 0.5)
                                 + (y - 0.5) ** 2) / 0.15))
    sched = default_schedule(g)
    assert (sched.sigma0, sched.levels) == (8 * g.axes[0].spacing, 3)
    F = composite(_covariance, "covariance")
    ref = _mixture_route(F, P, sched)
    num = influence_numerical(F, P).values
    assert np.max(np.abs(num - ref)) < 1e-8


def test_parse_functional():
    F = parse_functional({"kind": "moment", "rho": "x**2"}, 1)
    assert abs(evaluate(F, B25) - 3.0 / 28.0) < 1e-10
    F = parse_functional({"kind": "quantile", "tau": 0.25}, 1)
    assert F.tau == 0.25
    F = parse_functional({"kind": "variance", "axis": 1}, 2)
    assert F.axis == 1


def test_parse_functional_config_errors():
    with pytest.raises(ConfigError, match="config key 'rho'"):
        parse_functional({"kind": "moment"}, 1)
    with pytest.raises(ConfigError, match="config key 'tau'"):
        parse_functional({"kind": "quantile"}, 1)
    with pytest.raises(ConfigError, match="config key 'kind'"):
        parse_functional({"kind": "entropy"}, 1)


# --- the node gradient in row blocks -------------------------------------------------

def _loop_gradient(F, P, t=_FD_STEP):
    """Reference for the node gradient: the per-node loop, one perturbed
    field per call, two calls per node."""
    psi = _evaluator(F, P.grid)
    work = np.array(P.smooth, dtype=float)
    flat = work.reshape(-1)
    g = np.empty(flat.size)
    for k in range(flat.size):
        v = flat[k]
        flat[k] = v + t
        up = psi(PiecewiseField(P.grid, work, P.terms))
        flat[k] = v - t
        dn = psi(PiecewiseField(P.grid, work, P.terms))
        flat[k] = v
        g[k] = (up - dn) / (2.0 * t)
    return g.reshape(P.grid.shape)


def _block_gradient(F, P, rows=None, t=_FD_STEP):
    """The node gradient in blocks of `rows` rows, or of the default size."""
    block = rows * P.smooth.size if rows else functionals._NODE_BLOCK
    with mock.patch.object(functionals, "_NODE_BLOCK", block):
        return _node_gradient(_evaluator(F, P.grid), P, t)


def _gaussian_2d(shape):
    g = Grid.box((0.0, 1.0), (0.0, 1.0), shape)
    return GridDensity.from_callable(
        g, lambda x, y: np.exp(-((x - 0.45) ** 2 + (x - 0.5) * (y - 0.5)
                                 + (y - 0.55) ** 2) / 0.1))


def _with_a_jump(P, tau=0.4, axis=0):
    """P moved along the gradient of a quantile: a density whose cut term
    every perturbed field shares."""
    nu = quantile_functional(tau, axis)
    return counterfactual_density(P, influence_analytic(nu, P), 0.02)


_KINDS_1D = [moment(lambda x: x * x), variance(), quantile_functional(0.3),
             quantile_functional(0.5), mean_over_median()]
_KINDS_2D = [moment(lambda x, y: x * y), variance(0), variance(1),
             quantile_functional(0.3, 0), quantile_functional(0.5, 0),
             quantile_functional(0.3, 1), quantile_functional(0.5, 1),
             composite(_covariance, "covariance")]


@pytest.mark.parametrize("n", [201, 401, 801])
@pytest.mark.parametrize("jump", [False, True])
def test_block_node_gradient_gives_the_loop_bits_in_1d(n, jump):
    """The block sizes (81, 40 and 20 rows) do not divide the node counts,
    so every case ends on a short block. Each row of a block keeps the
    bits of its field alone, so the gradient equals the loop's exactly;
    the quadrature kinds need only match within 1e-8 max|g|, which exact
    equality implies. The composite sees each row as a field of its own."""
    P = beta(Grid.line(0.0, 1.0, n), 2.0, 3.0)
    P = _with_a_jump(P) if jump else P
    assert bool(P.terms) == jump
    for F in _KINDS_1D:
        np.testing.assert_array_equal(_block_gradient(F, P), _loop_gradient(F, P),
                                      err_msg=F.label)


@pytest.mark.parametrize("shape,jump", [((21, 31), False), ((21, 31), True),
                                        ((41, 41), False)])
def test_block_node_gradient_gives_the_loop_bits_in_2d(shape, jump):
    """Blocks of 25 and 9 rows, which divide neither 651 nor 1681 nodes."""
    P = _gaussian_2d(shape)
    P = _with_a_jump(P, 0.5, axis=1) if jump else P
    for F in _KINDS_2D:
        np.testing.assert_array_equal(_block_gradient(F, P), _loop_gradient(F, P),
                                      err_msg=F.label)


@st.composite
def family_densities(draw):
    """A family density on a grid of random size (odd and even node
    counts), or the same density moved along the gradient of one of its
    quantiles, which adds a cut term."""
    g = Grid.line(0.0, 1.0, draw(st.integers(5, 121)))
    family = draw(st.sampled_from(("uniform", "beta", "linear", "quadratic",
                                   "truncated_normal")))
    P = {"uniform": lambda: uniform(g),
         "beta": lambda: beta(g, draw(st.floats(1.0, 5.0)), draw(st.floats(1.0, 5.0))),
         "linear": lambda: linear(g, draw(st.floats(0.2, 2.0)),
                                  draw(st.floats(-0.15, 2.0))),
         "quadratic": lambda: quadratic(g, draw(st.floats(0.1, 2.0)),
                                        draw(st.floats(0.0, 3.0)),
                                        draw(st.floats(0.0, 1.0))),
         "truncated_normal": lambda: truncated_normal(
             g, draw(st.floats(0.2, 0.8)), draw(st.floats(0.1, 1.0)))}[family]()
    if draw(st.booleans()):
        P = _with_a_jump(P, draw(st.floats(0.2, 0.8)))
    return P


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family_densities(),
       st.sampled_from([moment(lambda x: x ** 3 - x), variance(),
                        quantile_functional(0.25), quantile_functional(0.5),
                        quantile_functional(0.8), mean_over_median()]),
       st.integers(1, 50))
def test_block_node_gradient_gives_the_loop_bits_on_generated_densities(P, F, rows):
    np.testing.assert_array_equal(_block_gradient(F, P, rows), _loop_gradient(F, P))


def _reciprocal(x):
    with np.errstate(divide="ignore"):
        return 1.0 / x


@pytest.mark.parametrize("F,message", [
    (moment(_reciprocal), "non-finite integrand"),
    (quantile_functional(0.999999), "quantile level beyond the grid support"),
    (composite(lambda Q: invert_cdf(Q.marginal(0), 0.999999, strict=False)),
     "quantile level beyond the grid support"),
])
def test_block_node_gradient_raises_the_loop_errors(F, message):
    """1/x is infinite at x = 0; at tau = 0.999999 on 201 nodes the rows
    perturbed by -t hold less mass than tau, for the built-in quantile and
    for a composite one alike. Both routes fail with the same text."""
    P = beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0)
    with pytest.raises(SensanError) as loop:
        _loop_gradient(F, P)
    with pytest.raises(SensanError) as block:
        influence_numerical(F, P)
    assert str(loop.value) == str(block.value) == message
