from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundles import influence_densities, mean_over_median
from sensan import (Grid, GridDensity, Sample, TangentVector, composite,
                    counterfactual_density, estimated_influence, evaluate,
                    functionals, influence, influence_analytic,
                    influence_numerical, inner_p, moment, parse_functional,
                    quantile_functional, variance)
from sensan.errors import ConfigError, SensanError
from sensan.families import beta, linear, quadratic, truncated_normal, uniform
from sensan.functionals import (_FD_STEP, _evaluator, _node_gradient,
                                default_schedule)
from sensan.model_space import (CutTerm, PiecewiseField, _cumtrapz, cdf_table,
                                grid_quad, invert_cdf, quantile)

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
    with pytest.raises(SensanError, match="unknown functional kind 'entropy'"):
        functionals.Functional("entropy")
    assert functionals.Functional("moment", rho=np.cos).label == "moment"


@pytest.mark.parametrize("build,axis", [
    (lambda: quantile_functional(0.5, axis=-1), "-1"),
    (lambda: variance(axis=-1), "-1"),
    (lambda: variance(axis=0.0), "0.0"),
    (lambda: variance(True), "True"),
])
def test_functional_axis_must_be_a_non_negative_integer(build, axis):
    """An axis below 0, a float or a bool is refused when the functional
    is built, naming the axis, before any grid or sample route reads it;
    a numpy integer is taken."""
    with pytest.raises(SensanError, match=f"axis must be a non-negative "
                                          f"integer, got {axis}$"):
        build()
    assert quantile_functional(0.5, axis=np.int64(1)).axis == 1


@pytest.mark.parametrize("build,tau", [
    (lambda: quantile_functional("0.5"), "'0.5'"),
    (lambda: quantile_functional(None), "None"),
    (lambda: quantile_functional(True), "True"),
    (lambda: functionals.Functional("quantile", tau="0.5"), "'0.5'"),
])
def test_functional_tau_must_be_a_real_number(build, tau):
    """A string, None or a bool for tau is refused when the functional is
    built, naming tau and the value, before the label or the level check
    reads it; a numpy float is taken."""
    with pytest.raises(SensanError, match=f"^quantile tau must be a real "
                                          f"number, got {tau}$"):
        build()
    F = quantile_functional(np.float64(0.5))
    assert F.tau == 0.5 and F.label == "quantile[0.5, axis 0]"


_U41 = uniform(Grid.line(0.0, 1.0, 41))
_S1 = Sample(np.linspace(0.05, 0.95, 19), (0.0,), (1.0,))


@pytest.mark.parametrize("call", [
    lambda F: evaluate(F, _U41),
    lambda F: influence_analytic(F, _U41),
    lambda F: influence_numerical(F, _U41),
    lambda F: evaluate(F, _S1),
    lambda F: estimated_influence(F, _S1)(_S1.points),
], ids=["evaluate-grid", "analytic", "numerical", "evaluate-sample",
        "estimated"])
@pytest.mark.parametrize("F", [variance(1), quantile_functional(0.5, 1)],
                         ids=["variance", "quantile"])
def test_an_axis_past_the_dimension_is_refused_by_name(F, call):
    """Every grid and sample path that reads a variance's or a quantile's
    axis refuses one the 1-d density or sample does not have."""
    with pytest.raises(SensanError, match=f"^{F.kind} axis out of range$"):
        call(F)


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


def test_composite_cannot_write_into_the_shared_mesh():
    """Every field of the mollifier route shares one grid and so one mesh;
    an evaluator that writes into it fails instead of corrupting the
    coordinates that later calls read."""
    g = Grid.box((0.0, 1.0), (0.0, 1.0), (21, 21))
    P = GridDensity.from_callable(g, lambda x, y: 1.0 + x * y)

    def writes(Q):
        X, Y = Q.grid.mesh()
        X += 0.0
        return Q.quad(X * Y)

    with pytest.raises(ValueError, match="read-only"):
        influence_numerical(composite(writes, "writes"), P)
    want = np.meshgrid(*(ax.nodes for ax in g.axes), indexing="ij")
    for got, ref in zip(g.mesh(), want):
        np.testing.assert_array_equal(got, ref)


def _mean_case(dim: int, cut: bool):
    """P and a mean functional, 1-d Beta(2, 3) at 201 nodes or 2-d at 21²,
    optionally with mass moved below x = 0.4 as a cut term."""
    if dim == 1:
        P = beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0)
    else:
        P = GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 1.0), (21, 21)),
                                      lambda x, y: 1.0 + x * y)
    if cut:
        P = GridDensity(P.grid, 0.9 * P.smooth, _normalize="force",
                        _terms=(CutTerm(((0, 0.4),), 0.2 * P.smooth),))
    x = P.grid.mesh()[0]
    return P, lambda Q: Q.quad(x) / Q.quad()


@pytest.mark.parametrize("target", ["smooth", "values"])
@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_composite_cannot_write_into_its_field(dim, cut, target):
    """The perturbed fields of the node gradient are views of one work
    array: an evaluator that writes into its field's smooth part or node
    values fails with numpy's read-only error instead of shifting the
    influence, and neither P nor a later influence changes."""
    P, mean = _mean_case(dim, cut)
    before = influence_numerical(composite(mean, "mean"), P)
    smooth, values = P.smooth.copy(), P.values.copy()

    def writes(Q):
        a = getattr(Q, target)
        a *= 1.0 + 1e-7
        return mean(Q)

    with pytest.raises(ValueError, match="read-only"):
        influence_numerical(composite(writes, "writes"), P)
    np.testing.assert_array_equal(P.smooth, smooth)
    np.testing.assert_array_equal(P.values, values)
    after = influence_numerical(composite(mean, "mean"), P)
    assert after.smooth.tobytes() == before.smooth.tobytes()


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_every_field_an_evaluator_sees_is_read_only(dim, cut):
    """2G + 2 calls, the 2G perturbed fields and the two scaled copies of
    P alike, each on a field whose arrays are all read-only; a term-free
    field's node values are its smooth part, with the bits of the lazy
    copy."""
    P, mean = _mean_case(dim, cut)
    seen = []

    def records(Q):
        arrays = [Q.smooth, Q.values] + [t.samples for t in Q.terms]
        seen.append(any(a.flags.writeable for a in arrays))
        if not Q.terms:
            assert Q.values.tobytes() == np.array(Q.smooth).tobytes()
        return mean(Q)

    influence_numerical(composite(records, "records"), P)
    assert len(seen) == 2 * P.smooth.size + 2
    assert not any(seen)


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


def _direct_smooth(grid, a, sigma):
    """The mollifier's smoothing as direct sums: sum_k a_k exp(-|x - x_k|^2
    / 2 sigma^2) at every node x, a "valid" convolution along every axis
    line with the kernel at offsets -(n-1) h .. (n-1) h."""
    for axis, ax in enumerate(grid.axes):
        d = np.arange(1 - ax.n, ax.n) * (ax.spacing / sigma)
        kernel = np.exp(-0.5 * d * d)
        lines = np.moveaxis(a, axis, -1)
        out = np.empty(lines.shape)
        for idx in np.ndindex(lines.shape[:-1]):
            out[idx] = np.convolve(lines[idx], kernel, "valid")
        a = np.moveaxis(out, -1, axis)
    return a


def _sup_relative(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# 1-d node counts from 3 up, with the two sides of transform lengths 8,
# 16 and 1024: 2n - 1 = 7 and 9, 15 and 17, 1023 and 1025
_SMOOTH_GRIDS = [(n,) for n in (3, 4, 5, 8, 9, 21, 101, 512, 513, 801)]
_SMOOTH_GRIDS += [(3, 3), (4, 9), (21, 21), (21, 31), (31, 21), (41, 41)]


@pytest.mark.parametrize("shape", _SMOOTH_GRIDS)
def test_fft_smoothing_gives_the_direct_sums(shape):
    """The transform route smooths a node field and the Simpson weights at
    every width, from two of the coarsest spacings to ten times the longest
    side, the schedule's widths included, to within 1e-13 of the direct
    sums, sup-relative per field."""
    grid = (Grid.line(0.0, 1.0, shape[0]) if len(shape) == 1
            else Grid.box((0.0, 1.0), (-1.0, 2.0), shape))
    h = max(ax.spacing for ax in grid.axes)
    span = max(ax.hi - ax.lo for ax in grid.axes)
    schedule = default_schedule(grid).sigmas()
    sigmas = [2.0 * h, 5.3 * h, span / 3.0, span, 10.0 * span] + schedule
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    w = grid.weight_tensor()
    kernels = functionals._kernels(grid, sigmas)
    for a in (rng.standard_normal(grid.shape), w):
        got = functionals._smooth(a, kernels)
        assert got.shape == (len(sigmas),) + grid.shape
        for j, sigma in enumerate(sigmas):
            assert _sup_relative(got[j], _direct_smooth(grid, a, sigma)) <= 1e-13


def _correlated(x, y):
    a, b = (x - 0.45) / 0.18, (y - 0.55) / 0.2
    return np.exp(-0.5 * (a * a - 1.2 * a * b + b * b) / 0.64)


def _direct_kernels(grid, sigmas):
    # what _direct_ladder needs in place of the kernel transforms
    return grid, sigmas


def _direct_ladder(a, kernels):
    grid, sigmas = kernels
    return np.array([_direct_smooth(grid, a, s) for s in sigmas])


@pytest.mark.parametrize("dim", [1, 2])
def test_numerical_influence_is_the_direct_sum_ladder(dim):
    """A composite, the only kind the ladder serves, with the ladder
    smoothed by direct sums instead, its bump masses included: the
    influences agree to within 1e-13 of their sup."""
    if dim == 1:
        P = beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0)
        cases = [mean_over_median()]
    else:
        P = GridDensity.from_callable(
            Grid.box((0.0, 1.0), (0.0, 1.0), (21, 31)), _correlated)
        cases = [composite(_covariance)]
    for F in cases:
        got = influence_numerical(F, P).values
        with mock.patch.multiple(functionals, _kernels=_direct_kernels,
                                 _smooth=_direct_ladder):
            ref = influence_numerical(F, P).values
        assert _sup_relative(got, ref) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_a_grid_built_anew_gives_the_same_composite_bits(dim):
    """A grid built anew with the bounds and node counts of an earlier one
    gives composites the bits of the earlier grid: a nonlinear one and a
    moment taken as a composite."""
    if dim == 1:
        def build():
            return beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0)
        cases = [mean_over_median(),
                 composite(lambda Q: Q.quad(Q.grid.mesh()[0] ** 2))]
    else:
        def build():
            return GridDensity.from_callable(
                Grid.box((0.0, 1.0), (0.0, 1.0), (21, 31)), _correlated)
        cases = [composite(_covariance),
                 composite(lambda Q: Q.quad(Q.grid.mesh()[0] * Q.grid.mesh()[1]))]
    P, Q = build(), build()
    assert P.grid is not Q.grid
    for F in cases:
        first = influence_numerical(F, P)
        again = influence_numerical(F, Q)
        assert np.array_equal(first.values, again.values)


def test_a_variance_as_composite_matches_on_other_bounds():
    """On a 201-node [-1, 1] as on a 201-node [0, 1], the influence of the
    variance, taken as a composite, matches the analytic one inside the
    zones."""
    for lo in (0.0, -1.0):
        g = Grid.line(lo, 1.0, 201)
        P = GridDensity.from_callable(g, lambda x: np.exp(-8.0 * (x - 0.3) ** 2))
        num = influence_numerical(composite(_evaluator(variance(), g)), P).values
        ana = influence_analytic(variance(), P).values
        x, s0 = g.axes[0].nodes, default_schedule(g).sigma0
        inside = (x >= lo + 2 * s0) & (x <= 1.0 - 2 * s0)
        assert np.max(np.abs(num - ana)[inside]) < 1e-4 * np.max(np.abs(ana))


def _iso(x, y):
    return np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.18)


@pytest.mark.parametrize("shape,fn,message", [
    ((21,), None, "0.0436, 0.0497"),
    ((21, 21), None, "0.0436, 0.0497"),
    ((31, 31), None, "0.0436, 0.0498"),
    ((41, 41), None, "0.0436, 0.0498, 0.0324"),
    ((21, 21), _iso, "0.0436, 0.0497"),
    ((31, 31), _iso, "0.0436, 0.0498"),
    ((41, 41), _iso, "0.0436, 0.0498, 0.0324"),
])
def test_coarse_grid_variance_is_refused_with_its_level_changes(shape, fn,
                                                                message):
    """On coarse unit grids the ladder of a composite that is the variance
    diverges, on the uniform and on an isotropic Gaussian alike, and the
    refusal names the level changes of the direct-sum ladder."""
    P, F = _coarse_case(shape, fn)
    with pytest.raises(SensanError) as exc:
        influence_numerical(composite(_evaluator(F, P.grid)), P)
    assert str(exc.value) == f"mollifier not converged: level changes {message}"


def _coarse_case(shape, fn):
    """The uniform on 21 nodes of [0, 1] and its variance, or a density on
    a coarse unit box and its variance along axis 1."""
    if len(shape) == 1:
        return uniform(Grid.line(0.0, 1.0, shape[0])), variance()
    g = Grid.box((0.0, 1.0), (0.0, 1.0), shape)
    return (GridDensity.from_callable(g, fn or (lambda x, y: 1.0 + 0.0 * x)),
            variance(1))


@pytest.mark.parametrize("shape,fn", [
    ((21,), None), ((21, 21), None), ((31, 31), None), ((41, 41), None),
    ((21, 21), _iso), ((31, 31), _iso), ((41, 41), _iso)])
def test_coarse_grid_variance_runs_toward_point_masses(shape, fn):
    """The built-in variance on the grids where a composite's ladder
    diverges takes no ladder: its influence matches the analytic one to
    1e-8 at every node."""
    P, F = _coarse_case(shape, fn)
    num = influence_numerical(F, P).values
    assert np.max(np.abs(num - influence_analytic(F, P).values)) <= 1e-8


# --- the built-in kinds' route toward point masses -----------------------------------

@pytest.mark.parametrize("name,P", influence_densities())
def test_point_mass_influence_matches_analytic_on_criterion_07s_densities(
        name, P):
    """At 801 nodes, edges included: the mean and the variance within 1e-8
    of their analytic influence at every node, and the median within 1e-4
    at every node more than two cells from its quantile, where the
    analytic step and the crossing piece's mean density set the value."""
    x = P.grid.axes[0].nodes
    for F in (moment(lambda x: x), variance()):
        err = influence_numerical(F, P).values - influence_analytic(F, P).values
        assert np.max(np.abs(err)) <= 1e-8, (name, F.label)
    med = quantile_functional(0.5)
    err = np.abs(influence_numerical(med, P).values
                 - influence_analytic(med, P).values)
    far = np.abs(x - quantile(P, 0.5)) > 2.0 * P.grid.axes[0].spacing
    assert np.max(err[far]) <= 1e-4, name


def test_point_mass_influence_of_2d_moments_matches_analytic():
    """On the 41² correlated Gaussian, where the ladder's one-sigma0 zones
    leave a fifth of each side: x*y and the variance along each axis match
    the analytic influence at every node to within 1e-7 of its sup."""
    P = GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 1.0), (41, 41)),
                                  _correlated)
    for F in (moment(lambda x, y: x * y), variance(0), variance(1)):
        ana = influence_analytic(F, P).values
        err = np.abs(influence_numerical(F, P).values - ana)
        assert np.max(err) <= 1e-7 * np.max(np.abs(ana)), F.label


@pytest.mark.parametrize("n", [81, 101])
@pytest.mark.parametrize("tau,axis", [(0.3, 0), (0.5, 0), (0.3, 1), (0.5, 1)])
def test_point_mass_quantile_influence_in_2d_against_the_ladder(n, tau, axis):
    """A 2-d quantile divided by its trapezoid-times-Simpson weights,
    against the same node gradient taken through the ladder. Inside the
    ladder's zones, one sigma0 from the edges and from q, both routes read
    the analytic step up to their centering, and the sup errors agree to
    2%. Over every node more than two cells from q, edges included, the
    point-mass route errs by a tenth of the ladder's or less."""
    P = GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 1.0), (n, n)),
                                  _correlated)
    F = quantile_functional(tau, axis)
    ana = influence_analytic(F, P).values
    err = np.abs(influence_numerical(F, P).values - ana)
    g = _node_gradient(F, P, _FD_STEP)
    ladder = TangentVector(P, functionals._mollified(g, 0.0, P.grid)).values
    ladder_err = np.abs(ladder - ana)
    s0 = default_schedule(P.grid).sigma0
    mesh = P.grid.mesh()
    q = quantile(P, tau, axis)
    zone = np.abs(mesh[axis] - q) > s0
    for C in mesh:
        zone &= (C >= s0) & (C <= 1.0 - s0)
    assert np.count_nonzero(zone) >= 800
    assert np.max(err[zone]) <= 1.02 * np.max(ladder_err[zone])
    far = np.abs(mesh[axis] - q) > 2.0 * P.grid.axes[axis].spacing
    assert np.max(err[far]) <= 0.1 * np.max(ladder_err[far])


@st.composite
def positive_densities(draw):
    """exp of a cubic on a line of random size (odd and even node counts),
    with mass moved below a random cut as a cut term or without one."""
    g = Grid.line(0.0, 1.0, draw(st.integers(5, 161)))
    coefs = [draw(st.floats(-2.0, 2.0)) for _ in range(4)]
    P = GridDensity.from_callable(g, lambda x: np.exp(np.polyval(coefs, x)))
    if draw(st.booleans()):
        P = GridDensity(g, 0.9 * P.smooth, _normalize="force",
                        _terms=(CutTerm(((0, draw(st.floats(0.05, 0.95))),),
                                        0.2 * P.smooth),))
    return P


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(positive_densities(),
       st.sampled_from([moment(lambda x: x ** 3 - x), variance()]))
def test_point_mass_influence_matches_analytic_on_generated_densities(P, F):
    """A moment and the variance, at every node, edges included, within
    1e-8 of the analytic influence's sup (at least 1)."""
    ana = influence_analytic(F, P).values
    err = np.abs(influence_numerical(F, P).values - ana)
    assert np.max(err) <= 1e-8 * max(1.0, np.max(np.abs(ana)))


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


# --- the node gradient against the per-node loop -----------------------------------

def _loop_gradient(F, P, t=_FD_STEP, sides=(1, -1)):
    """Reference for the node gradient: the per-node loop, one perturbed
    field per call, two calls per node. With sides (a, b) it takes
    (psi(P + a t e_k) - psi(P + b t e_k)) / ((a - b) t): the central
    difference by default, (1, 0) and (0, -1) one-sided."""
    a, b = sides
    psi = _evaluator(F, P.grid)
    work = np.array(P.smooth, dtype=float)
    flat = work.reshape(-1)
    g = np.empty(flat.size)
    for k in range(flat.size):
        v = flat[k]
        flat[k] = v + a * t
        up = psi(PiecewiseField(P.grid, work, P.terms))
        flat[k] = v + b * t
        dn = psi(PiecewiseField(P.grid, work, P.terms))
        flat[k] = v
        g[k] = (up - dn) / ((a - b) * t)
    return g.reshape(P.grid.shape)


def _tie_side(F, P, t=_FD_STEP):
    """The side whose one-sided differences keep q in invert_cdf's
    crossing cell [x[i - 1], x[i]]. Moving node k by t moves the CDF at a
    node by at most t w_k T_k, no more than t times the other axes'
    largest weight times two cells. A level within that of the CDF at
    x[i] is a tie at the top of the cell: the fields moved down may cross
    in the next cell, so the side is +1, up. A level within it of the CDF
    at x[i - 1] is a tie at the bottom, -1. Elsewhere 0: the fields moved
    either way cross in the cell."""
    x = P.grid.axes[F.axis].nodes
    table = cdf_table(P.marginal(F.axis))[0]
    i = max(int(np.argmax(table >= F.tau)), 1)
    others = [np.max(ax.weights) for b, ax in enumerate(P.grid.axes)
              if b != F.axis]
    reach = t * np.prod(others) * (x[min(i + 1, x.size - 1)] - x[i - 1])
    if table[i] - F.tau <= reach:
        return 1
    return -1 if F.tau - table[i - 1] <= reach else 0


def _richardson_gradient(F, P, t=_FD_STEP):
    """A quantile's node gradient by Richardson extrapolation of the loop.
    Within a cell q is a ratio of CDF values linear in each node's move,
    smooth in it, so the central difference D errs by O(t^2) and
    (4 D(t/2) - D(t)) / 3 by O(t^4). At a tie (_tie_side) the fields of
    one side cross in another cell, so the reference is the one-sided
    difference D on the other side, which errs by O(t), three levels
    deep: (8 D(s/4) - 6 D(s/2) + D(s)) / 3, O(s^3). It starts at s = 10 t:
    the extrapolation scales the rounding of q, eps |q| / s, about
    15-fold, which from s = t comes within 3% of the 1e-8 max|g| bound
    on the 21x31 Gaussian, and from 10 t stays near 1e-9, as does the
    O(s^3) error."""
    side = _tie_side(F, P, t)
    if not side:
        return (4.0 * _loop_gradient(F, P, t / 2) - _loop_gradient(F, P, t)) / 3.0
    sides = (1, 0) if side > 0 else (0, -1)
    d = [_loop_gradient(F, P, 10.0 * t / 2 ** j, sides) for j in range(3)]
    return (8.0 * d[2] - 6.0 * d[1] + d[0]) / 3.0


def _check_against_the_loop(F, P, ref=None):
    """The node gradient influence_numerical takes against the loop's (or
    against `ref`), and a quantile's zeros: it reads its CDF up to the
    crossing node, the first whose CDF table entry reaches the level,
    only, so g is exactly 0, on both routes, at every node past it along
    the quantile's axis. (q itself may round to the node below.)"""
    got = _node_gradient(F, P, _FD_STEP)
    ref = _loop_gradient(F, P) if ref is None else ref
    _assert_matches_the_loop(F, got, ref)
    if F.kind == "quantile":
        table = cdf_table(P.marginal(F.axis))[0]
        crossing = np.argmax(table >= F.tau)
        past = np.indices(P.grid.shape)[F.axis] > crossing
        assert np.all(ref[past] == 0.0) and np.all(got[past] == 0.0), F.label


def _assert_matches_the_loop(F, got, ref):
    """A moment's or a variance's gradient, from the perturbed integrals,
    and a quantile's, in closed form, match the loop within 1e-8 max|g|,
    the rounding and O(t^2) error of the central difference; a composite's
    fields hold the bits of the loop's, so its gradient equals the loop's
    exactly."""
    if F.kind == "composite":
        np.testing.assert_array_equal(got, ref, err_msg=F.label)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref)), F.label


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
    """Odd node counts, with and without a cut term shared by every
    perturbed field."""
    P = beta(Grid.line(0.0, 1.0, n), 2.0, 3.0)
    P = _with_a_jump(P) if jump else P
    assert bool(P.terms) == jump
    for F in _KINDS_1D:
        _check_against_the_loop(F, P)


@pytest.mark.parametrize("shape,jump", [((21, 31), False), ((21, 31), True),
                                        ((41, 41), False)])
def test_block_node_gradient_gives_the_loop_bits_in_2d(shape, jump):
    """On axis 1 a quantile's nodes are not contiguous in the field."""
    P = _gaussian_2d(shape)
    P = _with_a_jump(P, 0.5, axis=1) if jump else P
    for F in _KINDS_2D:
        _check_against_the_loop(F, P)


def _cut_in_the_crossing_cell(P, axis):
    """P with mass moved below a cut a third of the way into a cell on
    `axis`, and a quantile on that axis whose crossing lies in the same
    cell: its level is found by bisection on the quantile."""
    x = P.grid.axes[axis].nodes
    k = len(x) // 3
    cut = x[k] + (x[k + 1] - x[k]) / 3.0
    Q = GridDensity(P.grid, 0.9 * P.smooth, _normalize="force",
                    _terms=(CutTerm(((axis, cut),), 0.2 * P.smooth),))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        tau = 0.5 * (lo + hi)
        q = evaluate(quantile_functional(tau, axis), Q)
        if x[k] < q < x[k + 1]:
            return Q, quantile_functional(tau, axis)
        lo, hi = (tau, hi) if q <= x[k] else (lo, tau)
    raise AssertionError("no level crosses in the cut's cell")


@pytest.mark.parametrize("dim,axis", [(1, 0), (2, 0), (2, 1)])
def test_block_node_gradient_with_a_cut_in_the_crossing_cell(dim, axis):
    """invert_cdf splits the crossing cell at the cut, reading the field
    inside that cell only; the fields perturbed past it still give P's
    quantile."""
    P = (beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0) if dim == 1
         else _gaussian_2d((21, 31)))
    Q, F = _cut_in_the_crossing_cell(P, axis)
    x = Q.grid.axes[axis].nodes
    ((_, cut),) = Q.terms[0].cuts
    i = np.searchsorted(x, evaluate(F, Q))
    assert x[i - 1] < cut < x[i]
    _check_against_the_loop(F, Q)


def test_block_node_gradient_refuses_a_flat_crossing():
    """Where the CDF rises by no more than 1e-13 across the crossing cell,
    the quantile is the cell's left node, and the crossing piece's mean
    density fails the analytic route's own check: the numerical route
    refuses it with the analytic route's message, naming that density.
    The loop's fields moved by t at the nodes up to the crossing node
    jump the flat stretch, so its differences read -750 to -1750 there."""
    g = Grid.line(0.0, 1.0, 21)
    x = g.axes[0].nodes
    P = GridDensity(g, np.where(np.abs(x - 0.5) < 0.2, 1e-12, 1.0),
                    _normalize="force")
    i = 11
    table = _cumtrapz(x, P.values)
    F = quantile_functional(float(table[i]))
    assert invert_cdf(P, F.tau, strict=False) == x[i - 1]
    density = (table[i] - table[i - 1]) / (x[i] - x[i - 1])
    message = (f"quantile influence unstable: marginal density at the "
               f"quantile is {density:.3g}")
    for call in (lambda: _node_gradient(F, P, _FD_STEP),
                 lambda: influence_numerical(F, P)):
        with pytest.raises(SensanError) as err:
            call()
        assert str(err.value) == message
    assert np.all(_loop_gradient(F, P)[:i + 1] < -500.0)


def _node_level(P, axis, i, ulps):
    """The quantile at the level of node i in P's CDF table on `axis`,
    moved by `ulps` ulps (-1, 0 or 1)."""
    tau = cdf_table(P.marginal(axis))[0][i]
    if ulps:
        tau = np.nextafter(tau, ulps * np.inf)
    return quantile_functional(float(tau), axis)


@pytest.mark.parametrize("case", ["beta", "gauss", "gauss+cut"])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_quantile_gradient_at_a_node_level(case, ulps):
    """At a level equal to a node's CDF value, or one ulp to either side,
    the field perturbed by +t at that node crosses at or below the node
    and the one perturbed by -t above it, in the next cell, so the loop
    averages two cells' slopes. The gradient is the slope in invert_cdf's
    cell, the node's own (one ulp above, the next): it matches the
    one-sided difference whose moves keep q there, up (down). Beta(2, 3)
    at 201 nodes, and the 21x31 Gaussian on axis 1 without and with a cut
    at its median."""
    if case == "beta":
        P, axis = beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0), 0
    else:
        P, axis = _gaussian_2d((21, 31)), 1
        P = _with_a_jump(P, 0.5, axis) if case == "gauss+cut" else P
    assert bool(P.terms) == (case == "gauss+cut")
    i = int(np.argmax(cdf_table(P.marginal(axis))[0] >= 0.5))
    F = _node_level(P, axis, i, ulps)
    x = P.grid.axes[axis].nodes
    psi = _evaluator(F, P.grid)
    node = [n // 2 for n in P.grid.shape]
    node[axis] = i

    def moved(c):
        smooth = np.array(P.smooth)
        smooth[tuple(node)] += c
        return psi(PiecewiseField(P.grid, smooth, P.terms))
    up, dn = moved(_FD_STEP), moved(-_FD_STEP)
    assert up <= x[i] < dn <= x[i + 1]
    assert _tie_side(F, P) == (1 if ulps <= 0 else -1)
    _check_against_the_loop(F, P, _richardson_gradient(F, P))


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
                        quantile_functional(0.05), quantile_functional(0.25),
                        quantile_functional(0.5), quantile_functional(0.8),
                        quantile_functional(0.95), mean_over_median()]),
       st.floats(0.0, 1.0, exclude_max=True),
       st.sampled_from((None, -1, 0, 1)))
def test_block_node_gradient_gives_the_loop_bits_on_generated_densities(
        P, F, at, ulps):
    """With ulps drawn, a quantile's level becomes a node's CDF value,
    moved by that many ulps, at a node `at` of the way along those with
    levels in (0.05, 0.95). A quantile's gradient is held to the
    Richardson-extrapolated loop (_richardson_gradient), one-sided at a
    tie: at the tail levels 0.05 and 0.95 the plain loop's O(t^2) error
    alone comes near the bound."""
    if F.kind == "quantile" and ulps is not None:
        table = cdf_table(P)[0]
        inner = np.flatnonzero((table > 0.05) & (table < 0.95))
        assume(inner.size)
        F = _node_level(P, 0, int(inner[int(at * inner.size)]), ulps)
    ref = _richardson_gradient(F, P) if F.kind == "quantile" else None
    _check_against_the_loop(F, P, ref)


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
