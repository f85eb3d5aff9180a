import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sensan import Grid, GridDensity, Sample, integrate, quantile, density_at
from sensan.errors import SensanError
import sensan.model_space as model_space
from sensan import artifacts
from sensan import (counterfactual_density, grad_op_apply, influence,
                    information_metric, quantile_functional)
from sensan.families import beta, linear, quadratic, truncated_normal, uniform
from sensan.model_space import CutTerm, grid_quad, kde_fit, likelihood_ratio


def test_grid_line_nodes():
    g = Grid.line(0.0, 1.0, 5)
    assert g.ndim == 1
    assert g.shape == (5,)
    np.testing.assert_allclose(g.axes[0].nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.axes[0].spacing == 0.25


def test_grid_box_shape_and_mesh():
    g = Grid.box((0.0, 1.0), (-1.0, 2.0), (3, 5))
    assert g.ndim == 2
    assert g.shape == (3, 5)
    X, Y = g.mesh()
    assert X.shape == (3, 5)
    assert Y[0, 0] == -1.0 and Y[0, -1] == 2.0
    assert X[0, 0] == 0.0 and X[-1, 0] == 1.0


def test_grid_same_as():
    a = Grid.line(0.0, 1.0, 801)
    b = Grid.line(0.0, 1.0, 801)
    c = Grid.line(0.0, 1.0, 401)
    assert a.same_as(b)
    assert not a.same_as(c)


def test_simpson_exact_for_cubic_on_odd_node_counts():
    # composite Simpson integrates cubics exactly when the cell count is even
    for n in (5, 801):
        g = Grid.line(0.0, 1.0, n)
        x = g.axes[0].nodes
        total = grid_quad(g, x**3)
        assert abs(total - 0.25) < 1e-14


def test_simpson_even_node_count_loses_exactness():
    """An odd cell count forces a lower-order patch cell, so exactness on
    cubics is gone. Coarse grids show it clearly; realistic sizes do not
    suffer in practice, but odd node counts remain the right default."""
    g6 = Grid.line(0.0, 1.0, 6)
    err6 = abs(grid_quad(g6, g6.axes[0].nodes ** 3) - 0.25)
    assert err6 > 1e-4
    g800 = Grid.line(0.0, 1.0, 800)
    err800 = abs(grid_quad(g800, g800.axes[0].nodes ** 3) - 0.25)
    assert err800 < 1e-5


def test_grid_quad_cut_restriction_1d():
    g = Grid.line(0.0, 1.0, 801)
    ones = np.ones(g.shape)
    for q in (0.26445, 0.5, 0.777):
        assert abs(grid_quad(g, ones, cuts=((0, q),)) - q) < 1e-13


def test_grid_quad_cut_restriction_2d():
    g = Grid.box((0.0, 1.0), (0.0, 1.0), (201, 201))
    ones = np.ones(g.shape)
    got = grid_quad(g, ones, cuts=((0, 0.3), (1, 0.77)))
    assert abs(got - 0.3 * 0.77) < 1e-13
    # a repeated axis keeps the tighter bound
    got = grid_quad(g, ones, cuts=((0, 0.9), (0, 0.3)))
    assert abs(got - 0.3) < 1e-13


def test_cut_term_mask():
    g = Grid.line(0.0, 1.0, 5)
    m = CutTerm(((0, 0.5),), np.ones(5)).mask(g)
    np.testing.assert_array_equal(m, [True, True, True, False, False])


def test_density_strict_gate_rejects_unnormalized_input():
    g = Grid.line(0.0, 1.0, 801)
    with pytest.raises(SensanError, match="refusing to renormalize"):
        GridDensity(g, 2.0 * np.ones(g.shape))


def test_density_silently_absorbs_discretization_leak():
    g = Grid.line(0.0, 1.0, 801)
    P = GridDensity(g, 1.005 * np.ones(g.shape))
    assert abs(integrate(np.ones(g.shape), P) - 1.0) < 1e-12


def test_density_input_validation():
    g = Grid.line(0.0, 1.0, 801)
    with pytest.raises(SensanError, match="match the grid shape"):
        GridDensity(g, np.ones(7))
    bad = np.ones(g.shape)
    bad[3] = -0.5
    with pytest.raises(SensanError, match="nonnegative"):
        GridDensity(g, bad)
    bad = np.ones(g.shape)
    bad[3] = np.nan
    with pytest.raises(SensanError, match="finite"):
        GridDensity(g, bad)


def test_from_callable_normalizes_arbitrary_shape():
    g = Grid.line(0.0, 1.0, 801)
    P = GridDensity.from_callable(g, lambda x: np.exp(3.0 * x))
    assert abs(integrate(np.ones(g.shape), P) - 1.0) < 1e-12


def test_density_csv_roundtrip_1d(tmp_path):
    g = Grid.line(0.0, 1.0, 401)
    P = GridDensity.from_callable(g, lambda x: 0.5 + x)
    path = str(tmp_path / "dens.csv")
    P.to_csv(path)
    Q = GridDensity.from_csv(path)
    assert Q.grid.same_as(P.grid)
    np.testing.assert_array_equal(Q.values, P.values)


def test_node_table_writes_the_row_by_row_bytes(tmp_path):
    """Rows formatted in blocks read as the per-row repr loop, across
    block boundaries, with an integer column written as integers."""
    rng = np.random.default_rng(3)
    n = 2 * artifacts._ROW_BLOCK + 5
    wide = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    wide[:4] = [-0.0, np.inf, np.nan, 1e-320]
    cols = [np.arange(n), wide, np.linspace(-1.0, 1.0, n)]
    path = tmp_path / "table.csv"
    artifacts.write_table(str(path), ["i", "w", "u"], cols, eol="\r\n")
    want = "i,w,u\r\n" + "".join(
        ",".join([repr(int(i))] + [repr(float(v)) for v in rest]) + "\r\n"
        for i, *rest in zip(*cols))
    assert path.read_bytes() == want.encode()


def test_density_csv_roundtrip_2d(tmp_path):
    g = Grid.box((0.0, 1.0), (0.0, 2.0), (41, 61))
    P = GridDensity.from_callable(g, lambda x, y: 1.0 + x * y)
    path = str(tmp_path / "dens2.csv")
    P.to_csv(path)
    Q = GridDensity.from_csv(path)
    assert Q.grid.same_as(P.grid)
    # reload renormalizes against its own quadrature, so equality holds to rounding
    np.testing.assert_allclose(Q.values, P.values, rtol=0, atol=1e-14)


def _density_rows(P):
    X, Y = P.grid.mesh()
    return [",".join(repr(float(c)) for c in row) for row in
            zip(X.ravel(), Y.ravel(), P.values.ravel())]


def test_density_csv_2d_rejects_y_major_rows(tmp_path):
    g = Grid.box((0.0, 1.0), (0.0, 2.0), (5, 7))
    P = GridDensity.from_callable(g, lambda x, y: 1.0 + x * y)
    rows = np.array(_density_rows(P)).reshape(5, 7).T.ravel()
    path = tmp_path / "ymajor.csv"
    path.write_text("\n".join(["x,y,density", *rows]) + "\n")
    with pytest.raises(SensanError, match="x-major"):
        GridDensity.from_csv(str(path))


def test_density_csv_2d_rejects_a_missing_row(tmp_path):
    g = Grid.box((0.0, 1.0), (0.0, 2.0), (5, 7))
    P = GridDensity.from_callable(g, lambda x, y: 1.0 + x * y)
    rows = _density_rows(P)
    del rows[11]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(["x,y,density", *rows]) + "\n")
    with pytest.raises(SensanError, match="complete regular grid"):
        GridDensity.from_csv(str(path))


def test_density_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    for body, match in (("0.0,1.0\n0.5\n1.0,1.0\n", "hold 2 values"),
                        ("0.0,1.0\n0.5,abc\n1.0,1.0\n", "not a number"),
                        ("", "must hold")):
        path.write_text("x,density\n" + body)
        with pytest.raises(SensanError, match=match):
            GridDensity.from_csv(str(path))


def test_sample_validation():
    with pytest.raises(SensanError, match="outside the declared rectangle"):
        Sample(np.array([0.2, 1.4]), (0.0,), (1.0,))
    with pytest.raises(SensanError, match="dimension does not match"):
        Sample(np.array([[0.2, 0.3]]), (0.0,), (1.0,))
    s = Sample(np.array([0.1, 0.9, 0.4]), (0.0,), (1.0,))
    assert s.n == 3 and s.ndim == 1
    np.testing.assert_array_equal(s.coord(0), [0.1, 0.9, 0.4])


def test_sample_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SensanError, match="sample points must be finite"):
            Sample(np.array([0.2, bad, 0.4]), (0.0,), (1.0,))
    with pytest.raises(SensanError, match="sample points must be finite"):
        Sample(np.array([[0.2, 0.3], [np.nan, 0.5]]), (0.0, 0.0), (1.0, 1.0))


def test_sample_csv_rejects_rows_that_are_not_numbers(tmp_path):
    bodies = {"abc": "x\n0.1\nabc\n0.5\n", "ragged": "x,y\n0.1,0.2\n0.3\n",
              "empty": "x\n", "nan": "x\n0.1\nnan\n0.5\n"}
    for name, body in bodies.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(body)
        with pytest.raises(SensanError, match="sample"):
            Sample.from_csv(str(path))


def test_sample_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(50, 2))
    s = Sample(pts, (0.0, 0.0), (1.0, 1.0))
    path = str(tmp_path / "sample.csv")
    s.to_csv(path)
    back = Sample.from_csv(path, lo=(0.0, 0.0), hi=(1.0, 1.0))
    np.testing.assert_array_equal(back.points, s.points)
    bounds_from_data = Sample.from_csv(path)
    assert bounds_from_data.lo == tuple(pts.min(axis=0))


def test_sample_csv_writes_the_csv_writer_bytes(tmp_path):
    """Sample.to_csv reads as the csv.writer loop of repr(float) rows, for
    1-d and 2-d samples with a signed zero, a subnormal and a huge value."""
    def reference(sample, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x"] if sample.ndim == 1 else ["x", "y"])
            for row in sample.points:
                w.writerow([repr(float(c)) for c in row])

    rng = np.random.default_rng(5)
    one = np.concatenate([[-0.0, 5e-324, 1e300], rng.uniform(-1.0, 1.0, 40)])
    two = np.column_stack([one, rng.normal(size=one.size) * 1e-7])
    for pts in (one, two):
        s = Sample(pts, (-1.0,) * pts.ndim, (1e300,) * pts.ndim)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        s.to_csv(str(got))
        reference(s, str(want))
        assert got.read_bytes() == want.read_bytes()


def test_quantile_uniform_is_identity():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    for tau in (0.1, 0.5, 0.9):
        assert abs(quantile(U, tau) - tau) < 1e-12


def test_quantile_beta_against_closed_form_cdf():
    g = Grid.line(0.0, 1.0, 801)
    P = GridDensity.from_callable(g, lambda x: x * (1.0 - x) ** 4)
    want = stats.beta.ppf(0.5, 2, 5)
    assert abs(quantile(P, 0.5) - want) < 1e-5


def test_quantile_on_sample_is_order_statistic():
    s = Sample(np.array([0.9, 0.1, 0.5, 0.3, 0.7]), (0.0,), (1.0,))
    assert quantile(s, 0.5) == 0.5
    assert quantile(s, 0.2) == 0.1
    assert quantile(s, 0.21) == 0.3


def test_quantile_level_bounds():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    for tau in (0.0, 1.0, -0.2):
        with pytest.raises(SensanError, match="strictly inside"):
            quantile(U, tau)


def test_quantile_flat_cdf_is_rejected():
    """A density with a near-vacuum band around the median makes the CDF
    flat at the level. The kinks sit on even node indices so the Simpson
    normalization and the trapezoid CDF agree to rounding, which pins the
    flat stretch symmetrically around the target level."""
    g = Grid.line(0.0, 1.0, 801)
    x = g.axes[0].nodes
    v = np.interp(x, [0.0, 0.3475, 0.35, 0.65, 0.6525, 1.0],
                  [1.43369, 1.43369, 1e-11, 1e-11, 1.43369, 1.43369])
    P = GridDensity(g, v)
    with pytest.raises(SensanError, match="non-unique quantile"):
        quantile(P, 0.5)
    # off the flat stretch the quantile is still well defined
    assert abs(quantile(P, 0.25) - 0.174375) < 1e-6


def test_density_at_interpolates():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    assert abs(density_at(U, 0.37) - 1.0) < 1e-12
    B = GridDensity.from_callable(g, lambda x: x * (1.0 - x) ** 4)
    # Beta(2, 5) density at 0.2: 30 * 0.2 * 0.8^4 = 2.4576
    assert abs(density_at(B, 0.2) - 2.4576) < 1e-6


def test_likelihood_ratio_values():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    Q = GridDensity.from_callable(g, lambda x: 0.5 + x)
    r = likelihood_ratio(U, Q)
    assert not r.clamped
    assert abs(r.ratio_values[0] - 2.0) < 1e-9
    assert abs(r.ratio_values[-1] - 1.0 / 1.5) < 1e-9
    np.testing.assert_allclose(r.reciprocal_values(), 1.0 / r.ratio_values)


def test_likelihood_ratio_clamps_extreme_tails():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    sharp = GridDensity.from_callable(g, lambda x: 1e-4 + x**4)
    r = likelihood_ratio(U, sharp)
    assert r.clamped
    assert r.ratio_values.max() == 1e3


def test_kde_fit_recovers_a_bump():
    rng = np.random.default_rng(11)
    pts = np.clip(rng.normal(0.3, 0.05, size=4000), 0.0, 1.0)
    s = Sample(pts, (0.0,), (1.0,))
    g = Grid.line(0.0, 1.0, 801)
    est = kde_fit(s, g)
    assert abs(integrate(np.ones(g.shape), est) - 1.0) < 1e-10
    mass = grid_quad(g, est.values, cuts=((0, 0.45),)) - grid_quad(
        g, est.values, cuts=((0, 0.15),))
    assert mass > 0.9
    narrow = kde_fit(s, g, bandwidth=0.01)
    assert narrow.values.max() > est.values.max()


def test_kde_fit_degenerate_sample():
    s = Sample(np.full(20, 0.5), (0.0,), (1.0,))
    g = Grid.line(0.0, 1.0, 801)
    with pytest.raises(SensanError, match="zero variance"):
        kde_fit(s, g)


def _direct_kde(sample, grid, bands):
    """The n x G reflection kernel sum, computed without binning. Returns
    the renormalized node values and the raw mass they were divided by."""
    def axis_kernel(a):
        ax, x, b = grid.axes[a], sample.coord(a), bands[a]
        out = np.zeros((sample.n, ax.n))
        for images in (x, 2.0 * ax.lo - x, 2.0 * ax.hi - x):
            z = (ax.nodes[None, :] - images[:, None]) / b
            out += np.exp(-0.5 * z * z)
        return out / (b * np.sqrt(2.0 * np.pi))

    if grid.ndim == 1:
        raw = axis_kernel(0).sum(axis=0) / sample.n
    else:
        raw = axis_kernel(0).T @ axis_kernel(1) / sample.n
    mass = grid_quad(grid, raw)
    return raw / mass, mass


def _silverman(sample):
    return [1.06 * np.std(sample.coord(a), ddof=1) * sample.n ** -0.2
            for a in range(sample.ndim)]


def _kde_cases():
    rng = np.random.default_rng(5)
    edges = [0.0, 1.0]
    uniform_pts = np.concatenate([rng.random(3000), edges])
    bump = np.concatenate([np.clip(rng.normal(0.3, 0.02, 3000), 0.0, 1.0), edges])
    cases = []
    for n_nodes in (401, 801):
        g = Grid.line(0.0, 1.0, n_nodes)
        for name, pts in (("uniform", uniform_pts), ("bump", bump)):
            cases.append(pytest.param(Sample(pts, (0.0,), (1.0,)), g, None,
                                      id=f"{name}-{n_nodes}"))
    cases.append(pytest.param(Sample(bump, (0.0,), (1.0,)), Grid.line(0.0, 1.0, 401),
                              0.01, id="bandwidth"))
    box = Grid.box((0.0, 1.0), (0.0, 1.0), (101, 101))
    pts2 = np.column_stack([rng.beta(2.0, 3.0, 2000), rng.beta(3.0, 2.0, 2000)])
    pts2 = np.vstack([pts2, [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    cases.append(pytest.param(Sample(pts2, (0.0, 0.0), (1.0, 1.0)), box, None, id="2d"))
    # a sample rectangle wider than the grid: points beyond the grid, beyond
    # its mirror images (within reach of a wide kernel), and far outliers
    wide = np.concatenate([rng.uniform(-0.5, 1.5, 500), [-1.2, 2.3, -3.0, 4.0, 1e6]])
    for bw in (None, 0.05, 0.5):
        cases.append(pytest.param(Sample(wide, (-1e6,), (1e6,)),
                                  Grid.line(0.0, 1.0, 401), bw, id=f"wide-{bw}"))
    wide2 = np.vstack([rng.uniform(-0.5, 1.5, (500, 2)),
                       [[-1.2, 0.5], [0.5, 2.3], [-3.0, 0.5], [4.0, 4.0], [0.5, 1e6]]])
    cases.append(pytest.param(Sample(wide2, (-1e6, -1e6), (1e6, 1e6)), box, 0.5,
                              id="wide-2d"))
    return cases


@pytest.mark.parametrize("sample,grid,bandwidth", _kde_cases())
def test_kde_fit_matches_the_direct_kernel_sum(sample, grid, bandwidth, monkeypatch):
    """Linear binning moves a raw node value by at most (h/b)^2 / 8 of the
    peak kernel height per axis (Wand 1994), so after both fits are divided
    by their raw mass m the difference stays below that bound over m, plus
    a rounding allowance. The lattice stays within the grid and its two
    mirror images whatever the sample's range."""
    sizes = []
    build = model_space._reflection_operator

    def recording(ax, b, first, size):
        sizes.append((ax.n, size))
        return build(ax, b, first, size)

    monkeypatch.setattr(model_space, "_reflection_operator", recording)
    est = kde_fit(sample, grid, bandwidth)
    bands = _silverman(sample) if bandwidth is None else [bandwidth] * grid.ndim
    ref, mass = _direct_kde(sample, grid, bands)
    peak = np.prod([1.0 / (b * np.sqrt(2.0 * np.pi)) for b in bands])
    binning = sum((ax.spacing / b) ** 2 / 8.0 for ax, b in zip(grid.axes, bands))
    err = np.max(np.abs(est.values - ref))
    assert err <= binning * peak / mass + 1e-12 * np.max(ref)
    assert np.all(est.values >= 0.0)
    assert abs(integrate(np.ones(grid.shape), est) - 1.0) < 1e-10
    assert len(sizes) == grid.ndim
    assert all(size <= 3 * n_nodes for n_nodes, size in sizes), sizes


def test_integrate_rejects_bad_integrands():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    with np.errstate(divide="ignore"):
        with pytest.raises(SensanError, match="non-finite integrand"):
            integrate(lambda x: 1.0 / x, U)
    with pytest.raises(SensanError, match="do not match the grid shape"):
        integrate(np.ones(5), U)


def test_integrate_moments_of_uniform():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    assert abs(integrate(lambda x: x, U) - 0.5) < 1e-12
    assert abs(integrate(lambda x: x**2, U) - 1.0 / 3.0) < 1e-12


# --- property: the quantile is nondecreasing in its level ---------------------------

@st.composite
def quantile_sources(draw):
    """A family density on a grid of random size (odd and even node
    counts), the same density moved along the gradient of one of its
    quantiles (a density with a jump at that quantile), or a sample."""
    kind = draw(st.sampled_from(("family", "cut", "sample")))
    if kind == "sample":
        pts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
        return Sample(np.array(pts), (0.0,), (1.0,))
    g = Grid.line(0.0, 1.0, draw(st.integers(5, 401)))
    family = draw(st.sampled_from(("uniform", "beta", "linear", "quadratic",
                                   "truncated_normal")))
    P = {"uniform": lambda: uniform(g),
         "beta": lambda: beta(g, draw(st.floats(1.0, 5.0)),
                              draw(st.floats(1.0, 5.0))),
         "linear": lambda: linear(g, draw(st.floats(0.2, 2.0)),
                                  draw(st.floats(-0.15, 2.0))),
         "quadratic": lambda: quadratic(g, draw(st.floats(0.1, 2.0)),
                                        draw(st.floats(0.0, 3.0)),
                                        draw(st.floats(0.0, 1.0))),
         "truncated_normal": lambda: truncated_normal(
             g, draw(st.floats(0.2, 0.8)), draw(st.floats(0.1, 1.0)))}[family]()
    if kind == "family":
        return P
    nu = quantile_functional(draw(st.floats(0.2, 0.8)))
    direction = grad_op_apply(influence(nu, P), information_metric())
    return counterfactual_density(P, direction, draw(st.floats(-0.01, 0.01)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(quantile_sources(), st.lists(st.floats(0.001, 0.999), min_size=2,
                                    max_size=12))
def test_quantile_is_nondecreasing_in_tau(P, taus):
    values = [quantile(P, tau) for tau in sorted(taus)]
    assert all(b >= a for a, b in zip(values, values[1:])), values
