import csv
import json

import numpy as np
import pytest

from sensan import (Grid, GridDensity, Multinomial, PluginConfig,
                    RatioInformation, RatioKde, RatioKnown, Sample,
                    efficient_estimate, estimated_influence,
                    information_metric, mc_consistency, mc_joint_asymptotics,
                    mc_joint_multinomial, moment, plugin_sensitivity,
                    quantile_functional, sample_from, sensitivity, variance)
from sensan.artifacts import write_json
from sensan.errors import SensanError
from sensan.families import linear, uniform
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
    assert efficient_estimate(MEAN, s) == pytest.approx(0.35)
    assert efficient_estimate(variance(), s) == pytest.approx(
        np.mean((s.coord(0) - 0.35) ** 2))
    assert efficient_estimate(MEDIAN, s) == 0.2


def test_estimated_moment_influence_is_centered():
    s = _uniform_sample(500, 2)
    at = estimated_influence(MEAN, s)
    v = at(s.points)
    assert abs(np.mean(v)) < 1e-15
    np.testing.assert_allclose(v, s.coord(0) - np.mean(s.coord(0)), atol=1e-12)


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
    monkeypatch.setattr("sensan.estimation.kde_fit", lambda *a, **k: valley)
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


def test_sample_from_1d_is_bit_identical_to_np_interp():
    """Sorted-order inversion gives np.interp's values in draw order, also
    with flat CDF stretches at the start, inside and at the end."""
    x = G.axes[0].nodes
    holes = GridDensity.from_callable(G, lambda x: np.where(
        (x < 0.05) | (np.abs(x - 0.3) < 0.1) | (x > 0.9), 0.0, 1.0 + x))
    for P, seed in ((holes, 5), (linear(G, 0.5, 1.0), 6)):
        F = _cumtrapz(x, P.values)
        F = F / F[-1]
        draws = (np.random.default_rng, _DrawsWithZeros,
                 lambda s: _DrawsWithTies(s, F))
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
