import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensan.estimation
import sensan.functionals

from sensan import (Grid, GridDensity, Multinomial, PluginConfig,
                    RatioInformation, RatioKde, RatioKnown, Sample,
                    composite, estimated_influence, evaluate,
                    information_metric, mc_consistency, mc_joint_asymptotics,
                    mc_joint_multinomial, moment, parse_functional,
                    plugin_sensitivity, quantile_functional, sample_from,
                    sensitivity, variance)
from sensan.artifacts import write_json
from sensan.errors import ConfigError, SensanError
from sensan.estimation import (_SAMPLE_BLOCK, _STREAM_CHUNK, _joint_result,
                               _pcg64_states, _rep_streams)
from sensan.families import beta, linear, uniform
from sensan.model_space import (_cumtrapz, _simpson_reduce, likelihood_ratio,
                                 locate)

G = Grid.line(0.0, 1.0, 801)
U = uniform(G)
MEAN = moment(lambda x: x, label="mean")
MEDIAN = quantile_functional(0.5)


def _uniform_sample(n, seed):
    rng = np.random.default_rng(seed)
    return Sample(rng.random(n), (0.0,), (1.0,))


def test_efficient_estimates():
    s = Sample(np.array([0.1, 0.2, 0.3, 0.8]), (0.0,), (1.0,))
    assert evaluate(MEAN, s) == pytest.approx(0.35)
    assert evaluate(variance(), s) == pytest.approx(
        np.mean((s.coord(0) - 0.35) ** 2))
    assert evaluate(MEDIAN, s) == 0.2


def test_evaluate_on_a_sample_is_the_empirical_estimator():
    """At a Sample's empirical measure, evaluate is the np.mean of rho at
    the columns, the biased variance on each axis and the ceil(n tau)-th
    order statistic on each axis, bit for bit."""
    rng = np.random.default_rng(21)
    s1 = Sample(rng.random(301), (0.0,), (1.0,))
    s2 = Sample(rng.random((257, 2)) * [1.0, 2.0], (0.0, 0.0), (1.0, 2.0))
    x, y = s2.coord(0), s2.coord(1)
    assert evaluate(moment(lambda x: x * x), s1) == np.mean(s1.coord(0) ** 2)
    assert evaluate(moment(lambda x: 0.25 + 0.0 * x), s1) == 0.25
    assert evaluate(moment(lambda x, y: x * y + y), s2) == np.mean(x * y + y)
    for s in (s1, s2):
        for axis in range(s.ndim):
            c = s.coord(axis)
            assert evaluate(variance(axis), s) == np.mean((c - np.mean(c)) ** 2)
            for tau in (0.1, 0.5, 0.9):
                k = int(np.ceil(s.n * tau))
                assert evaluate(quantile_functional(tau, axis), s) == np.sort(c)[k - 1]


def test_a_composite_has_no_sample_estimator_or_estimated_influence():
    s = _uniform_sample(50, 22)
    F = composite(lambda f: 0.0)
    with pytest.raises(SensanError,
                       match="no bundled efficient estimator for kind 'composite'"):
        evaluate(F, s)
    with pytest.raises(SensanError,
                       match="no estimated influence for kind 'composite'"):
        estimated_influence(F, s, G)


def test_estimated_influence_is_the_functionals_one():
    assert (sensan.estimation.estimated_influence
            is sensan.functionals.estimated_influence)


def test_estimated_moment_influence_is_centered():
    s = _uniform_sample(500, 2)
    at = estimated_influence(MEAN, s)
    v = at(s.points)
    assert abs(np.mean(v)) < 1e-15
    np.testing.assert_allclose(v, s.coord(0) - np.mean(s.coord(0)), atol=1e-12)


def test_estimated_variance_influence_is_the_centered_square():
    """The variance influence with the estimated mean x-bar is
    (x - x-bar)^2 - mean((x - x-bar)^2), on the functional's own axis."""
    s = _uniform_sample(500, 4)
    x = s.coord(0)
    d2 = (x - np.mean(x)) ** 2
    np.testing.assert_array_equal(
        estimated_influence(variance(), s)(s.points), d2 - np.mean(d2))
    pts = np.column_stack([np.ones_like(x), x])
    np.testing.assert_array_equal(
        estimated_influence(variance(axis=1), s)(pts), d2 - np.mean(d2))


def test_estimated_quantile_influence_levels():
    s = _uniform_sample(4000, 3)
    at = estimated_influence(MEDIAN, s, G)
    v = at(s.points)
    levels = np.unique(v)
    assert len(levels) == 2
    # (tau - indicator) / f_hat with f_hat near 1 on Uniform[0, 1]
    assert abs(levels[0] + 0.5) < 0.1
    assert abs(levels[1] - 0.5) < 0.1


def test_quantile_influence_fits_on_its_own_axis_of_a_2d_grid():
    """On a 2-d grid the quantile's kernel estimate lives on the grid's
    axis for that coordinate: the same values as that axis given alone."""
    g2 = Grid.box((0.0, 1.0), (0.0, 2.0), (41, 61))
    P = GridDensity.from_callable(g2, lambda x, y: 1.0 + x * y)
    s = sample_from(P, 500, np.random.default_rng(12))
    for axis in (0, 1):
        F = quantile_functional(0.5, axis=axis)
        want = estimated_influence(F, s, Grid((g2.axes[axis],)))(s.points)
        got = estimated_influence(F, s, g2)(s.points)
        np.testing.assert_array_equal(got, want)


def test_estimated_quantile_influence_density_gate(monkeypatch):
    """The density estimate at the quantile is bounded below by the point's
    own kernel. The binned fit splits that point between its two lattice
    neighbours, each within one spacing h of it, so the bound is roughly
    phi(h/b) / (n b) and honest inputs cannot reach the guard; substitute
    a degenerate density estimate to see it fire."""
    valley = GridDensity.from_callable(
        G, lambda x: np.where(np.abs(x - 0.5) < 0.05, 1e-9, 1.0))
    monkeypatch.setattr("sensan.functionals.kde_fit", lambda *a, **k: valley)
    s = Sample(np.array([0.2, 0.5, 0.8]), (0.0,), (1.0,))
    with pytest.raises(SensanError, match="estimated density at the quantile"):
        estimated_influence(MEDIAN, s, G)


def test_plugin_information_path_is_a_plain_mean():
    """With unit ratio weights the plug-in collapses to Pn(psi nu); the
    centering correction is a square of an O(eps) mean and vanishes below
    rounding. Pairing the mean influence with itself therefore returns
    the biased sample variance exactly."""
    s = _uniform_sample(2000, 5)
    at = estimated_influence(MEAN, s)
    got = plugin_sensitivity(PluginConfig(at, at, RatioInformation(), s))
    x = s.coord(0)
    assert got == np.mean((x - np.mean(x)) ** 2)


def test_plugin_known_unit_ratio_is_bit_identical_to_information():
    s = _uniform_sample(2000, 6)
    at = estimated_influence(MEAN, s)
    nu = estimated_influence(MEDIAN, s, G)
    unit = RatioKnown(likelihood_ratio(U, U))
    a = plugin_sensitivity(PluginConfig(at, nu, RatioInformation(), s))
    b = plugin_sensitivity(PluginConfig(at, nu, unit, s))
    assert a == b


def test_plugin_estimates_the_population_sensitivity():
    rep = sensitivity(MEAN, MEDIAN, U, information_metric())
    s = _uniform_sample(100_000, 7)
    cfg = PluginConfig(estimated_influence(MEAN, s),
                       estimated_influence(MEDIAN, s, G),
                       RatioInformation(), s)
    assert abs(plugin_sensitivity(cfg) - rep.dpsi_dnu) < 0.01


def test_plugin_kde_ratio_runs_close_to_known():
    Q = linear(G, 0.5, 1.0)
    s = _uniform_sample(20_000, 8)
    psi_at = estimated_influence(MEAN, s)
    nu_at = estimated_influence(MEDIAN, s, G)
    known = plugin_sensitivity(
        PluginConfig(psi_at, nu_at, RatioKnown(likelihood_ratio(U, Q)), s))
    kde = plugin_sensitivity(PluginConfig(psi_at, nu_at, RatioKde(Q), s))
    assert abs(known - kde) < 0.02


@pytest.mark.parametrize("bandwidth", [[0.1], float("inf"), float("nan"), 0.0,
                                       -0.1, True, "0.1"])
def test_kde_ratio_bandwidth_is_none_or_one_positive_finite_number(bandwidth):
    """A list, an infinite, non-positive or non-numeric bandwidth is a
    config error naming the key, never a TypeError or a later kde_fit
    failure; None and positive finite reals are taken."""
    with pytest.raises(ConfigError, match=r"config key 'bandwidth': .*got"):
        RatioKde(U, bandwidth)
    for ok in (None, 0.1, 1, np.float64(0.2)):
        assert RatioKde(U, ok).bandwidth == ok


def test_plugin_rejects_nonfinite_influences():
    s = _uniform_sample(50, 9)

    def bad(pts):
        v = np.zeros(len(pts))
        v[3] = np.nan
        return v

    cfg = PluginConfig(bad, estimated_influence(MEAN, s), RatioInformation(), s)
    with pytest.raises(SensanError, match=r"non-finite psi influence value.*index 3"):
        plugin_sensitivity(cfg)


def test_sample_from_1d_matches_the_cdf():
    rng = np.random.default_rng(10)
    s = sample_from(linear(G, 0.5, 1.0), 40_000, rng)
    x = s.coord(0)
    # P(X <= 1/2) = 1/2 (1/2 + 1/4) = 3/8 under density 1/2 + x
    assert abs(np.mean(x <= 0.5) - 0.375) < 0.01
    assert s.lo == (0.0,) and s.hi == (1.0,)


def test_sample_from_2d_conditionals():
    g2 = Grid.box((0.0, 1.0), (0.0, 1.0), (101, 101))
    P = GridDensity.from_callable(g2, lambda x, y: 0.5 + x * y + 0.5 * y)
    rng = np.random.default_rng(11)
    s = sample_from(P, 30_000, rng)
    assert s.ndim == 2
    # E[Y] = int y (0.5 + x y + 0.5 y) = 7/12, the weight already integrating
    # to one
    assert abs(np.mean(s.coord(1)) - 7.0 / 12.0) < 0.01


def _sample_2d_by_loop(P, n, rng):
    """2-d inverse-CDF sampling with one np.interp call per draw."""
    grid = P.grid
    xnodes, ynodes = grid.axes[0].nodes, grid.axes[1].nodes
    Fx = _cumtrapz(xnodes, _simpson_reduce(grid, P.values, 1))
    x = np.interp(rng.random(n), Fx / Fx[-1], xnodes)
    i, w = locate(grid.axes[0], x)
    rows = (1.0 - w[:, None]) * P.values[i, :] + w[:, None] * P.values[i + 1, :]
    Fy = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(0.5 * grid.axes[1].spacing
                                     * (rows[:, 1:] + rows[:, :-1]), axis=1)],
        axis=1)
    Fy = Fy / Fy[:, -1:]
    u = rng.random(n)
    y = np.array([np.interp(u[k], Fy[k], ynodes) for k in range(n)])
    return np.column_stack([x, y])


class _DrawsWithZeros:
    """Seeded uniform draws with exact zeros planted, so that some draws
    sit on a flat stretch of the CDF at its start."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, n):
        u = self.rng.random(n)
        u[::97] = 0.0
        return u


class _DrawsWithTies(_DrawsWithZeros):
    """_DrawsWithZeros plus repeated values and exact values of the CDF F,
    so sorted draws meet ties and some land on a node of F, its flat
    stretches included."""

    def __init__(self, seed, F):
        super().__init__(seed)
        self.F = F

    def random(self, n):
        u = super().random(n)
        u[5::11] = u[3 % n]
        knots = u[7::13]
        u[7::13] = self.F[np.arange(len(knots)) * 37 % len(self.F)]
        return u


class _DrawsInBuckets(_DrawsWithZeros):
    """_DrawsWithZeros plus draws exactly on the edges k / 65536 of the
    16-bit sort buckets, and many draws, in decreasing order, inside the
    bucket that holds a node of the CDF F: the bucketed order leaves them
    in draw order, so np.interp's searches go back and forth across it."""

    def __init__(self, seed, F):
        super().__init__(seed)
        self.F = F

    def random(self, n):
        u = super().random(n)
        u[1::4] = self.rng.integers(0, 65536, len(u[1::4])) / 65536.0
        bucket = np.floor(self.F[len(self.F) // 3] * 65536.0)
        inside = np.sort(self.rng.random(len(u[2::4])))[::-1]
        u[2::4] = (bucket + inside) / 65536.0
        return u


def test_sample_from_1d_is_bit_identical_to_np_interp():
    """Bucket-order inversion gives np.interp's values in draw order, also
    with flat CDF stretches at the start, inside and at the end, with draws
    on bucket edges and with many draws inside one bucket."""
    x = G.axes[0].nodes
    holes = GridDensity.from_callable(G, lambda x: np.where(
        (x < 0.05) | (np.abs(x - 0.3) < 0.1) | (x > 0.9), 0.0, 1.0 + x))
    for P, seed in ((holes, 5), (linear(G, 0.5, 1.0), 6)):
        F = _cumtrapz(x, P.values)
        F = F / F[-1]
        draws = (np.random.default_rng, _DrawsWithZeros,
                 lambda s: _DrawsWithTies(s, F), lambda s: _DrawsInBuckets(s, F))
        for n in (1, 500, 5000):
            for make in draws:
                got = sample_from(P, n, make(seed)).coord(0)
                want = np.interp(make(seed).random(n), F, x)
                assert got.tobytes() == want.tobytes()


def test_sample_from_2d_is_bit_identical_to_the_per_draw_loop():
    """The vectorised row search reproduces np.interp draw for draw, also
    where zero rows and columns of the density leave flat CDF segments."""
    g2 = Grid.box((0.0, 1.0), (0.0, 1.0), (101, 101))
    holes = GridDensity.from_callable(g2, lambda x, y: np.where(
        (np.abs(x - 0.3) < 0.1) | (np.abs(y - 0.5) < 0.1) | (y < 0.1)
        | (y > 0.9), 0.0, 1.0 + x * y))
    bump = GridDensity.from_callable(
        g2, lambda x, y: np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2) / 0.01))
    assert np.any(np.all(holes.values == 0.0, axis=1))
    assert np.any(np.all(holes.values == 0.0, axis=0))
    # 511 to 513 straddle the block of conditional draws
    for P, seed in ((holes, 3), (bump, 4)):
        for draws in (np.random.default_rng, _DrawsWithZeros):
            for n in (5000, 1, 511, 512, 513):
                got = sample_from(P, n, draws(seed)).points
                want = _sample_2d_by_loop(P, n, draws(seed))
                assert np.array_equal(got, want)


def _kinds(ndim):
    """Every sample-side kind on a `ndim`-dimensional density: moments
    through the expression wrapper and a lambda, the constant 0.1 among
    them (a stride-0 row whose partial sums round), variances and
    quantiles on each axis, and a composite, which has no estimator."""
    rhos = ["x", "x**3 - 2*x", "0.1"] if ndim == 1 else ["x*y", "y**2 + x", "0.1"]
    kinds = [parse_functional({"kind": "moment", "rho": r}, ndim) for r in rhos]
    kinds += [moment(lambda *c: c[-1] * c[0], label="product")]
    for axis in range(ndim):
        kinds.append(variance(axis))
        kinds += [quantile_functional(tau, axis) for tau in (0.1, 0.5, 0.93)]
    kinds.append(composite(lambda f: 0.0))
    return kinds


_JOINT_DENSITIES = {
    1: [beta(Grid.line(0.0, 1.0, 201), 2.0, 3.0),
        GridDensity.from_callable(G, lambda x: np.where(
            np.abs(x - 0.3) < 0.1, 0.0, 1.0 + x))],
    2: [GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 1.0), (41, 41)),
                                  lambda x, y: 1.0 + x * y),
        GridDensity.from_callable(
            Grid.box((0.0, 1.0), (-1.0, 2.0), (21, 31)),
            lambda x, y: np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2) / 0.1))],
}


def _joint_by_replication(P, psi, nu, n, reps, seed):
    """The joint harness one replication at a time, from the public
    sample_from and evaluate: a result, or the SensanError it raises."""
    try:
        psi0, nu0 = evaluate(psi, P), evaluate(nu, P)
        pairs = np.empty((reps, 2))
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep)))
            s = sample_from(P, n, rng)
            pairs[rep] = evaluate(psi, s), evaluate(nu, s)
        return _joint_result(pairs, n, seed, psi0, nu0)
    except SensanError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ndim=st.sampled_from([1, 2]), which=st.integers(0, 1),
       kinds=st.tuples(st.integers(0, 99), st.integers(0, 99)),
       n=st.sampled_from([777, 2049, 5000]),
       fill=st.sampled_from(["below", "at", "above"]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_joint_harness_equals_the_per_replication_oracle(ndim, which, kinds, n,
                                                         fill, seed):
    """Drawing and estimating in blocks gives each replication's estimates
    bit for bit, for every kind, with reps below, at and just above one
    block and n that does not divide it; a composite or a constant
    estimator raises what the one-at-a-time loop raises."""
    P = _JOINT_DENSITIES[ndim][which]
    options = _kinds(ndim)
    psi, nu = (options[k % len(options)] for k in kinds)
    rows = _SAMPLE_BLOCK // (ndim * n)
    assert rows * ndim * n != _SAMPLE_BLOCK
    reps = {"below": max(rows - 1, 2), "at": rows, "above": rows + 1}[fill]
    want = _joint_by_replication(P, psi, nu, n, reps, seed)
    if isinstance(want, str):
        with pytest.raises(SensanError) as err:
            mc_joint_asymptotics(P, psi, nu, n, reps, seed)
        assert str(err.value) == want
        return
    got = mc_joint_asymptotics(P, psi, nu, n, reps, seed)
    assert got.estimates[n].tobytes() == want.estimates[n].tobytes()
    assert got.empirical_cov[n].tobytes() == want.empirical_cov[n].tobytes()
    assert (got.lambda_hat, got.delta_hat) == (want.lambda_hat, want.delta_hat)


def test_joint_harness_refusals_match_the_oracle():
    """The composite refusal and the zero-variance refusal of a constant
    estimator, word for word as the one-at-a-time loop gives them."""
    P = _JOINT_DENSITIES[1][0]
    const = parse_functional({"kind": "moment", "rho": "0.1"}, 1)
    for psi, nu, match in ((composite(lambda f: 0.0), MEAN, "composite"),
                           (MEAN, composite(lambda f: 0.0), "composite"),
                           (const, MEDIAN, "psi estimates have zero variance"),
                           (MEAN, const, "nu estimates have zero variance")):
        want = _joint_by_replication(P, psi, nu, 300, 7, 1)
        assert match in want
        with pytest.raises(SensanError) as err:
            mc_joint_asymptotics(P, psi, nu, 300, 7, 1)
        assert str(err.value) == want


def _consistency_by_replication(P, psi, nu, ratio, n_grid, reps, seed):
    """The consistency harness one replication at a time, from the public
    sample_from, estimated_influence and plugin_sensitivity: the
    estimates at each size, or the SensanError they raise."""
    try:
        estimates = {}
        for n in n_grid:
            vals = np.empty(reps)
            for rep in range(reps):
                rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep)))
                s = sample_from(P, n, rng)
                vals[rep] = plugin_sensitivity(PluginConfig(
                    estimated_influence(psi, s, P.grid),
                    estimated_influence(nu, s, P.grid), ratio, s))
            estimates[n] = vals
        return estimates
    except SensanError as exc:
        return str(exc)


@pytest.mark.parametrize("ratio", ["information", "known", "kde"])
@pytest.mark.parametrize("ndim", [1, 2])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 1),
       kinds=st.tuples(st.integers(0, 99), st.integers(0, 99)),
       n=st.sampled_from([2049, 5000]),
       fill=st.sampled_from(["below", "at", "above"]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_consistency_harness_equals_the_per_replication_oracle(
        ndim, which, kinds, ratio, n, fill, seed):
    """Drawing in blocks and building each replication's Sample from its
    block row gives every plug-in estimate bit for bit, under each ratio,
    with reps below, at and just above one block at n, which does not
    divide it, and so over more than one block at 2n + 1; a refusal is
    the one the one-at-a-time loop raises. The constant moment is left
    out: its plug-in estimate is 0 at every replication, so it cannot
    tell one replication's stream from another."""
    P = _JOINT_DENSITIES[ndim][which]
    options = [F for F in _kinds(ndim) if F.label != "moment[0.1]"]
    psi, nu = (options[k % len(options)] for k in kinds)
    Q = GridDensity.from_callable(P.grid, lambda x, *rest: 0.5 + x)
    estimator = {"information": RatioInformation(),
                 "known": RatioKnown(likelihood_ratio(P, Q)),
                 "kde": RatioKde(Q)}[ratio]
    rows = _SAMPLE_BLOCK // (ndim * n)
    assert 1 < rows and rows * ndim * n != _SAMPLE_BLOCK
    reps = {"below": rows - 1, "at": rows, "above": rows + 1}[fill]
    n_grid = (777, n, 2 * n + 1)
    want = _consistency_by_replication(P, psi, nu, estimator, n_grid, reps,
                                       seed)
    if isinstance(want, str):
        with pytest.raises(SensanError) as err:
            mc_consistency(P, psi, nu, estimator, n_grid, reps, seed, 0.0)
        assert str(err.value) == want
        return
    got = mc_consistency(P, psi, nu, estimator, n_grid, reps, seed, 0.0)
    for m in n_grid:
        assert got.estimates[m].tobytes() == want[m].tobytes()
        assert got.rmse[m] == float(np.sqrt(np.mean(want[m] ** 2)))


def test_stacked_evaluate_rows_equal_single_samples():
    """evaluate on points of shape (..., n, ndim) gives one estimate per
    sample, each the float evaluate gives that sample alone; the
    composite and an axis beyond the points are refused."""
    rng = np.random.default_rng(33)
    for ndim in (1, 2):
        for shape in ((5, 301), (2, 3, 128), (1, 1)):
            pts = rng.random(shape + (ndim,))
            for F in _kinds(ndim)[:-1]:
                got = evaluate(F, pts)
                assert got.shape == shape[:-1]
                for idx in np.ndindex(shape[:-1]):
                    one = evaluate(F, Sample(pts[idx], (0.0,) * ndim,
                                             (1.0,) * ndim))
                    assert isinstance(one, float)
                    assert got[idx].tobytes() == np.float64(one).tobytes()
        with pytest.raises(SensanError, match="kind 'composite'"):
            evaluate(composite(lambda f: 0.0), rng.random((3, 10, ndim)))
        with pytest.raises(SensanError, match="quantile axis out of range"):
            evaluate(quantile_functional(0.5, ndim), rng.random((3, 10, ndim)))


def test_replication_is_deterministic():
    res1 = mc_joint_asymptotics(U, MEAN, variance(), 400, 50, 123)
    res2 = mc_joint_asymptotics(U, MEAN, variance(), 400, 50, 123)
    np.testing.assert_array_equal(res1.estimates[400], res2.estimates[400])
    res3 = mc_joint_asymptotics(U, MEAN, variance(), 400, 50, 124)
    assert not np.array_equal(res1.estimates[400], res3.estimates[400])


def test_mc_consistency_shrinks_rmse():
    rep = sensitivity(MEAN, MEDIAN, U, information_metric())
    res = mc_consistency(U, MEAN, MEDIAN, RatioInformation(),
                         (200, 800, 3200), 40, 31, rep.dpsi_dnu)
    assert res.rmse[3200] < res.rmse[200]
    assert set(res.estimates) == {200, 800, 3200}
    assert len(res.estimates[200]) == 40


def test_mc_consistency_validates_n_grid():
    for bad in ((500,), (500, 400, 600), (500, 500, 600)):
        with pytest.raises(SensanError, match="three increasing sizes"):
            mc_consistency(U, MEAN, MEDIAN, RatioInformation(), bad, 5, 0, 0.1)


def test_mc_result_serialization(tmp_path):
    res = mc_joint_asymptotics(U, MEAN, variance(), 300, 20, 77)
    d = res.to_json_dict()
    assert d["kind"] == "joint"
    assert d["seed"] == 77
    assert np.asarray(d["covariance"]["300"]).shape == (2, 2)
    path = tmp_path / "mc.json"
    write_json(str(path), res.to_json_dict())
    assert json.loads(path.read_text())["reps"] == 20
    csv_path = tmp_path / "mc.csv"
    res.to_csv(str(csv_path))
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,rep,psi_hat,nu_hat"


@pytest.mark.parametrize("kind", ["consistency", "joint"])
def test_mc_csv_writes_the_csv_writer_bytes(tmp_path, kind):
    """McResult.to_csv reads as the csv.writer loop: CRLF rows, n and rep
    as integers, estimates as repr(float)."""
    if kind == "consistency":
        res = mc_consistency(U, MEAN, MEDIAN, RatioInformation(),
                             (20, 40, 80), 3, 5, 0.125)
    else:
        res = mc_joint_asymptotics(U, MEAN, MEDIAN, 60, 7, 5)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "rep", "estimate"] if kind == "consistency"
                   else ["n", "rep", "psi_hat", "nu_hat"])
        for n in res.n_grid:
            for rep, est in enumerate(res.estimates[n]):
                w.writerow([n, rep] + [repr(float(v))
                                       for v in np.atleast_1d(est)])
    got = tmp_path / "got.csv"
    res.to_csv(str(got))
    assert got.read_bytes() == want.read_bytes()


def test_multinomial_closed_forms():
    m = Multinomial((0.5, 0.3, 0.2))
    assert m.cell_sensitivity(0, 1) == pytest.approx(-0.15, abs=1e-15)
    assert m.cell_sensitivity(0, 0) == pytest.approx(0.25, abs=1e-15)
    assert m.cell_sensitivity(1, 1) == pytest.approx(0.21, abs=1e-15)
    np.testing.assert_allclose(m.cell_influence(0), [0.5, -0.5, -0.5])


def test_multinomial_validation():
    with pytest.raises(SensanError, match="positive and sum"):
        Multinomial((0.5, 0.5, 0.0))
    with pytest.raises(SensanError, match="positive and sum"):
        Multinomial((0.5, 0.4, 0.2))


def test_multinomial_joint_mc_recovers_the_covariance():
    m = Multinomial((0.5, 0.3, 0.2))
    res = mc_joint_multinomial(m, 0, 1, 1000, 400, 19)
    cov = res.empirical_cov[1000]
    assert abs(cov[0, 1] + 0.15) < 0.03
    assert abs(cov[0, 0] - 0.25) < 0.03
    assert res.lambda_hat == pytest.approx(cov[0, 1] / cov[1, 1])


def _multinomial_by_replication(probs, n, reps, seed):
    """The multinomial harness's count table, one default_rng per
    replication."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence((seed, n, rep)))
        .multinomial(n, probs) for rep in range(reps)])


@pytest.mark.parametrize("seed", [0, 2 ** 31 - 1, 2 ** 64 + 5, 2 ** 100 + 7])
@pytest.mark.parametrize("reps", [2, 7, 1025])
def test_multinomial_harness_equals_the_per_replication_oracle(seed, reps):
    """Each replication's cell frequencies, the covariance bytes, Lambda
    and Delta equal those of a loop that builds every replication's
    generator from its SeedSequence, for 2-, 3- and 5-cell models, a pair
    of cells in either order and a cell against itself, with reps past a
    1024-rep chunk and multiword seeds; a refusal has the loop's
    message."""
    n = 1000
    models = [(0.4, 0.6), (0.5, 0.3, 0.2), (0.1, 0.15, 0.2, 0.25, 0.3)]
    for probs in models:
        counts = _multinomial_by_replication(probs, n, reps, seed)
        for i, j in ((0, 1), (2, 0), (1, 1)):
            if max(i, j) >= len(probs):
                continue
            pairs = np.empty((reps, 2))
            for rep in range(reps):
                pairs[rep] = counts[rep, i] / n, counts[rep, j] / n
            try:
                want = _joint_result(pairs, n, seed, probs[i], probs[j])
            except SensanError as exc:
                with pytest.raises(SensanError) as err:
                    mc_joint_multinomial(Multinomial(probs), i, j, n, reps, seed)
                assert str(err.value) == str(exc)
                continue
            got = mc_joint_multinomial(Multinomial(probs), i, j, n, reps, seed)
            assert got.estimates[n].tobytes() == want.estimates[n].tobytes()
            assert (got.empirical_cov[n].tobytes()
                    == want.empirical_cov[n].tobytes())
            assert ((got.lambda_hat, got.delta_hat)
                    == (want.lambda_hat, want.delta_hat))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 2 ** 130 - 1), n=st.integers(0, 2 ** 130 - 1),
       tail=st.integers(1, 3))
@example(m=0, n=0, tail=1)
@example(m=2 ** 100 + 7, n=2 ** 40, tail=2)
@example(m=2 ** 130 - 1, n=2 ** 130 - 1, tail=3)
def test_rep_streams_are_numpys_seedsequence_streams(m, n, tail):
    """The k-th replication stream is PCG64(SeedSequence((m, n, k))): the
    same state, the same first random(8) and the same multinomial after
    it, for seeds and sizes of one to five uint32 words (past four, the
    extra-entropy loop runs) and reps across a hashing chunk."""
    reps = _STREAM_CHUNK + tail
    check = {0, 1, _STREAM_CHUNK - 1, _STREAM_CHUNK, reps - 1}
    seen = 0
    for rep, rng in enumerate(_rep_streams(m, n, reps)):
        seen += 1
        if rep not in check:
            continue
        bits = np.random.PCG64(np.random.SeedSequence((m, n, rep)))
        assert rng.bit_generator.state == bits.state
        want = np.random.Generator(bits)
        assert rng.random(8).tobytes() == want.random(8).tobytes()
        assert np.array_equal(rng.multinomial(700, [0.2, 0.5, 0.3]),
                              want.multinomial(700, [0.2, 0.5, 0.3]))
    assert seen == reps


def test_stream_states_of_reps_of_two_words():
    """Reps at and past 2**32 take a second uint32 word, as SeedSequence
    splits them."""
    for first in (2 ** 32 - 4, 2 ** 32, 2 ** 32 + 1024, 2 ** 70 + 3):
        for k, (state, inc) in enumerate(_pcg64_states(9, 13, first, 4)):
            want = np.random.PCG64(
                np.random.SeedSequence((9, 13, first + k))).state["state"]
            assert (state, inc) == (want["state"], want["inc"])


def test_harnesses_refuse_a_bad_master_seed_by_name():
    """Each Monte Carlo harness refuses a master seed that is not a
    non-negative integer, naming it, and the multinomial harness a
    negative n; a numpy integer seed is the int."""
    m = Multinomial((0.5, 0.3, 0.2))
    calls = [lambda s: mc_consistency(U, MEAN, MEDIAN, RatioInformation(),
                                      (20, 40, 80), 3, s, 0.1),
             lambda s: mc_joint_asymptotics(U, MEAN, MEDIAN, 60, 3, s),
             lambda s: mc_joint_multinomial(m, 0, 1, 60, 3, s)]
    for seed in (-1, 1.5, True, "3", None):
        for call in calls:
            with pytest.raises(SensanError, match="config key 'master_seed': "
                               "expected a non-negative integer"):
                call(seed)
    with pytest.raises(SensanError, match="config key 'n': expected a "
                       "non-negative integer"):
        mc_joint_multinomial(m, 0, 1, -5, 3, 0)
    a = mc_joint_multinomial(m, 0, 1, 60, 3, np.int64(7))
    assert a.estimates[60].tobytes() == (
        mc_joint_multinomial(m, 0, 1, 60, 3, 7).estimates[60].tobytes())


@pytest.mark.parametrize("n", [0, False, 0.0])
def test_multinomial_harness_refuses_zero_draws_by_name(n):
    """n = 0 would divide the count table by zero: it is refused by name,
    before any draw and with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            mc_joint_multinomial(Multinomial((0.5, 0.3, 0.2)), 0, 1, n, 3, 0)
    assert str(exc.value) == (f"config key 'n': expected a positive integer, "
                              f"got {n!r}")


@pytest.mark.parametrize("reps,integral", [(0, True), (1, True), (1.5, False),
                                           (True, False)])
def test_harnesses_refuse_too_few_replications_by_name(reps, integral):
    """The joint harnesses need two replications for a covariance and the
    consistency harness one for an RMSE: fewer, or reps that is not an
    integer, is refused by name in the CLI's words, before any draw and
    with no warning. One replication is enough for consistency."""
    m = Multinomial((0.5, 0.3, 0.2))
    calls = [(2, lambda: mc_joint_asymptotics(U, MEAN, MEDIAN, 60, reps, 0)),
             (2, lambda: mc_joint_multinomial(m, 0, 1, 60, reps, 0)),
             (1, lambda: mc_consistency(U, MEAN, MEDIAN, RatioInformation(),
                                        (20, 40, 80), reps, 0, 0.1))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for least, call in calls:
            if integral and reps >= least:
                assert call().estimates[80].shape == (1,)
                continue
            with pytest.raises(ConfigError) as exc:
                call()
            assert str(exc.value) == (
                f"config key 'reps': expected at least {least}, got {reps!r}"
                if integral else
                f"config key 'reps': expected an integer, got {reps!r}")


def test_rep_streams_refuse_a_bad_master_seed_when_called():
    """The seed and n are checked when the streams are asked for, not on
    the first draw, so a bad seed is refused even with no replications."""
    for key, args in (("master_seed", (-1, 60, 0)), ("n", (0, -2, 0))):
        with pytest.raises(ConfigError, match=f"config key '{key}': expected "
                           "a non-negative integer"):
            _rep_streams(*args)


def test_mc_results_compare_by_identity():
    """Two runs of one Monte Carlo are distinct results, a result equals
    itself, and hashing works."""
    m = Multinomial((0.5, 0.3, 0.2))
    a, b = (mc_joint_multinomial(m, 0, 1, 100, 20, 19) for _ in range(2))
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) and hash(a) != hash(b)
