import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sensan import Grid, GridDensity, Sample, integrate, quantile, density_at
from sensan.errors import SensanError
import sensan.model_space as model_space
from sensan import artifacts, functionals
from sensan import (counterfactual_density, counterfactual_report, evaluate,
                    grad_op_apply, influence, information_metric, moment,
                    quantile_functional, sensitivity)
from sensan.families import beta, linear, quadratic, truncated_normal, uniform
from sensan.model_space import (CutTerm, PiecewiseField, grid_quad, kde_fit,
                                likelihood_ratio)


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


def test_grids_compare_and_hash_by_identity():
    """The dataclass comparison would compare node arrays and raise; a
    grid is its own instance, and `same_as` is the geometric test."""
    a = Grid.line(0.0, 1.0, 5)
    b = Grid.line(0.0, 1.0, 5)
    assert a == a
    assert not a == b and a != b
    assert a.same_as(b)
    assert {a, b, a} == {a, b}
    box = Grid.box((0.0, 1.0), (0.0, 2.0), (3, 5))
    assert box in {box} and Grid.box((0.0, 1.0), (0.0, 2.0), (3, 5)) not in {box}


_MESH_AXES = st.tuples(st.integers(3, 201), st.floats(1e-3, 1e3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_MESH_AXES, min_size=1, max_size=2))
def test_mesh_is_built_once_read_only_and_equal_to_meshgrid(axes):
    grid = Grid(tuple(Grid._axis(0.0, span, n) for n, span in axes))
    mesh = grid.mesh()
    assert grid.mesh() is mesh
    want = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
    assert len(mesh) == len(want) == grid.ndim
    for got, ref in zip(mesh, want):
        np.testing.assert_array_equal(got, ref)
        assert got.shape == grid.shape and got.flags.c_contiguous
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got += 0.0
        with pytest.raises(ValueError, match="read-only"):
            got[(0,) * grid.ndim] = 1.0
    for got, ref in zip(grid.mesh(), want):
        np.testing.assert_array_equal(got, ref)


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


@pytest.mark.parametrize("grid", [Grid.line(0.0, 1.0, 21),
                                  Grid.box((0.0, 1.0), (-1.0, 2.0), (21, 30))],
                         ids=["1d", "2d"])
def test_cut_terms_at_and_beyond_the_grid_edges(grid):
    """A cut at the lower edge or below it bounds a box of no area, and
    one at the upper edge or above it the whole grid, on every axis: the
    integral of the term, and of its marginal on each axis, is zero or
    the full rule's, and so is the marginal that integrates the cut axis
    out."""
    s = np.random.default_rng(grid.ndim).uniform(0.5, 1.5, grid.shape)
    full = PiecewiseField(grid, s)
    for axis, ax in enumerate(grid.axes):
        for q in (ax.lo, ax.lo - 0.1, ax.hi, ax.hi + 0.1):
            whole = q >= ax.hi
            f = PiecewiseField(grid, np.zeros(grid.shape),
                               (CutTerm(((axis, q),), s),))
            assert f.quad() == (full.quad() if whole else 0.0), (axis, q)
            for keep in range(grid.ndim):
                m, want = f.marginal(keep), full.marginal(keep)
                assert m.quad() == (want.quad() if whole else 0.0), (axis, q)
                if keep != axis:
                    np.testing.assert_array_equal(
                        m.values, want.values if whole else 0.0)


def _axis_by_axis(grid, samples, keep=None):
    """Reference for cut-free quadrature: one axis at a time, last first,
    that axis swapped last and the rest flattened into rows, one np.dot
    with the weight column (the reduction before grid_quad had a cut-free
    path)."""
    out = samples
    for axis in reversed(range(grid.ndim)):
        if axis == keep:
            continue
        w = grid.axes[axis].weights
        F = np.swapaxes(out, axis, -1)
        out = np.dot(F.reshape(-1, w.size), w[:, None]).reshape(F.shape[:-1])
    return out


def _layouts(A):
    """A in the memory layouts quadrature meets: C order, reversed and
    transposed views, and the stride-0 broadcasts that from_callable and
    the moment evaluator pass for integrands constant along an axis."""
    out = [A, A[::-1], np.broadcast_to(A.flat[0], A.shape)]
    if A.ndim == 2:
        out += [np.asfortranarray(A), A.T.copy().T, A[:, ::-1],
                np.broadcast_to(A[:, :1], A.shape), np.broadcast_to(A[:1], A.shape)]
    return out


@pytest.mark.parametrize("shape", [(5,), (6,), (201,), (800,), (801,),
                                   (21, 31), (40, 41), (41, 41), (4, 7)])
def test_cut_free_grid_quad_gives_the_axis_by_axis_bits(shape):
    """Odd and even node counts (Simpson and trapezoid weights) in every
    layout: the cut-free path's chained dots give the bits of the
    axis-by-axis reduction."""
    g = (Grid.line(0.0, 1.0, *shape) if len(shape) == 1
         else Grid.box((0.0, 1.0), (-1.0, 2.0), shape))
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4)
        for L in _layouts(A):
            assert grid_quad(g, L) == float(_axis_by_axis(g, L))
    # inputs the direct path converts first: integers, a Python list, and
    # a read-only view, as a composite's evaluator gets its field
    ints = rng.integers(-1000, 1000, shape)
    assert grid_quad(g, ints) == float(_axis_by_axis(g, ints.astype(float)))
    assert grid_quad(g, ints.tolist()) == float(_axis_by_axis(g, ints.astype(float)))
    stack = rng.standard_normal((3,) + shape)
    stack.flags.writeable = False
    assert grid_quad(g, stack[1]) == float(_axis_by_axis(g, stack[1]))


@pytest.mark.parametrize("shape", [(21, 31), (40, 41), (41, 41), (5, 200)])
def test_marginals_give_the_axis_by_axis_bits(shape):
    """Both marginals of a 2-d field, in every layout, give the bits of
    the axis-by-axis reduction that keeps that axis."""
    g = Grid.box((0.0, 1.0), (-1.0, 2.0), shape)
    A = np.random.default_rng(sum(shape)).standard_normal(shape)
    for L in _layouts(A):
        for axis in (0, 1):
            np.testing.assert_array_equal(
                model_space.PiecewiseField(g, L).marginal(axis).smooth,
                _axis_by_axis(g, L, keep=axis))


@pytest.mark.parametrize("grid", [Grid.line(0.0, 1.0, 201),
                                  Grid.box((0.0, 1.0), (-1.0, 2.0), (21, 31))],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("cuts", [(), ((0, 0.37),)], ids=["whole", "cut"])
def test_quadrature_refuses_a_stack_of_fields(grid, cuts):
    """Quadrature takes one field: a stack of fields, as an integrand or
    as a factor, is refused by the shape message, with and without cuts.
    One field gives a float."""
    f = np.random.default_rng(grid.ndim).uniform(0.5, 1.5, grid.shape)
    stack = np.stack([f, 2.0 * f, -f])
    field = PiecewiseField(grid, f, (CutTerm(cuts, f),) if cuts else ())
    assert type(grid_quad(grid, f, cuts)) is float
    assert type(field.quad(f)) is float
    for call in (lambda: grid_quad(grid, stack, cuts),
                 lambda: field.quad(stack)):
        with pytest.raises(SensanError) as exc:
            call()
        assert str(exc.value) == "integrand values do not match the grid shape"


@pytest.mark.parametrize("grid,wrong", [
    (Grid.line(0.0, 1.0, 5), (6,)), (Grid.line(0.0, 1.0, 5), (4,)),
    (Grid.line(0.0, 1.0, 5), (1,)), (Grid.line(0.0, 1.0, 5), (5, 1)),
    (Grid.box((0.0, 1.0), (-1.0, 2.0), (4, 5)), (5, 4)),
    (Grid.box((0.0, 1.0), (-1.0, 2.0), (4, 5)), (4, 1)),
    (Grid.box((0.0, 1.0), (-1.0, 2.0), (4, 5)), (5,))],
    ids=["6-on-5", "4-on-5", "1-on-5", "5x1-on-5", "5x4-on-4x5", "4x1-on-4x5",
         "5-on-4x5"])
@pytest.mark.parametrize("cuts", [(), ((0, 0.37),)], ids=["whole", "cut"])
def test_quadrature_refuses_a_wrong_shaped_integrand(grid, wrong, cuts):
    """An integrand or a factor of any shape but the grid's, broadcastable
    or not, is refused by the shape message, with and without cuts; a
    scalar factor is taken."""
    f = np.ones(grid.shape)
    field = PiecewiseField(grid, f, (CutTerm(cuts, f),) if cuts else ())
    for call in (lambda: grid_quad(grid, np.ones(wrong), cuts),
                 lambda: field.quad(np.ones(wrong))):
        with pytest.raises(SensanError) as exc:
            call()
        assert str(exc.value) == "integrand values do not match the grid shape"
    assert field.quad(2.0) == 2.0 * field.quad()


def test_cut_term_mask():
    """A term's box mask is built once per grid and cuts, read-only."""
    g = Grid.line(0.0, 1.0, 5)
    m = g.box_mask(((0, 0.5),))
    np.testing.assert_array_equal(m, [True, True, True, False, False])
    assert g.box_mask(((0, 0.5),)) is m and not m.flags.writeable
    B = Grid.box((0.0, 1.0), (0.0, 1.0), (3, 3))
    np.testing.assert_array_equal(B.box_mask(((0, 0.5), (1, 0.0))),
                                  [[True, False, False], [True, False, False],
                                   [False, False, False]])


def test_prefix_weights_are_built_once_per_grid_axis_and_length():
    """A cut integral's Simpson prefix weights are _simpson_weights on the
    prefix, built once per grid, axis and length, read-only."""
    B = Grid.box((0.0, 1.0), (-1.0, 2.0), (21, 31))
    for axis in (0, 1):
        x = B.axes[axis].nodes
        for m in (2, 8, 18):
            w = B.prefix_weights(axis, m)
            want = model_space._simpson_weights(x[0], x[m], m + 1)
            assert w.tobytes() == want.tobytes()
            assert B.prefix_weights(axis, m) is w and not w.flags.writeable
    assert B.prefix_weights(0, 8) is not B.prefix_weights(1, 8)


def test_check_points_refuses_non_finite_and_outside_points():
    """The one sample check: every point finite and inside [lo, hi], on
    points of shape (..., ndim), a Sample's and a stack of them alike."""
    pts = np.full((3, 4, 2), 0.5)
    model_space.check_points(pts, (0.0, 0.0), (1.0, 1.0))
    for bad, match in ((np.nan, "must be finite"), (np.inf, "must be finite"),
                       (1.5, "outside the declared rectangle"),
                       (-0.1, "outside the declared rectangle")):
        p = pts.copy()
        p[2, 1, 1] = bad
        with pytest.raises(SensanError, match=match):
            model_space.check_points(p, (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(SensanError, match=match):
            Sample(p[2], (0.0, 0.0), (1.0, 1.0))


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


def test_density_refuses_non_finite_terms_and_totals():
    """Every part of a density is finite, and "force" normalization
    refuses a total that is not a positive finite number."""
    g = Grid.line(0.0, 1.0, 201)
    P = linear(g, 0.5, 1.0)
    nan_term = (CutTerm(((0, 0.5),), np.full(g.shape, np.nan)),)
    for mode in ("strict", "force"):
        with pytest.raises(SensanError, match="density values must be finite"):
            GridDensity(g, P.smooth, _terms=nan_term, _normalize=mode)
    wide = Grid.line(0.0, 10.0, 101)
    with np.errstate(over="ignore"), pytest.raises(
            SensanError, match="density integral inf is not a positive finite"):
        GridDensity(wide, np.full(wide.shape, 1e308), _normalize="force")
    with pytest.raises(SensanError, match="density integral 0 is not"):
        GridDensity(g, np.zeros(g.shape), _normalize="force")


@pytest.mark.parametrize("make", [
    lambda: CutTerm(((0, 0.5),), np.ones(5)),
    lambda: Sample(np.array([0.2, 0.4]), (0.0,), (1.0,)),
    lambda: likelihood_ratio(uniform(Grid.line(0.0, 1.0, 5)),
                             uniform(Grid.line(0.0, 1.0, 5))),
], ids=["CutTerm", "Sample", "LikelihoodRatio"])
def test_node_array_holders_compare_by_identity(make):
    """Two equal-valued objects holding node arrays are distinct, an
    object equals itself, and hashing works."""
    a, b = make(), make()
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) and hash(a) != hash(b)


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


def test_2d_node_table_writes_the_row_by_row_bytes(tmp_path):
    """A 61x83 node table, 5063 rows across four block edges, reads as
    the per-row repr loop: coordinates that repeat row after row, the
    y column cycling through its nodes, and values from a density."""
    g = Grid.box((-1.0, 1.0), (0.0, 3.0), (61, 83))
    P = GridDensity.from_callable(g, lambda x, y: 1.0 + x * x * y)
    assert g.shape[0] * g.shape[1] > 4 * artifacts._ROW_BLOCK
    path = tmp_path / "nodes.csv"
    P.to_csv(str(path))
    want = "".join(row + "\r\n" for row in ["x,y,density", *_density_rows(P)])
    assert path.read_bytes() == want.encode()


def test_few_distinct_floats_keep_their_own_text(tmp_path):
    """A float column drawn from a few values writes each row's repr:
    -0.0 and 0.0 stay apart, and nan, inf and a subnormal keep theirs."""
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 5e-324])
    col = rng.choice(pool, 3 * artifacts._ROW_BLOCK + 7)
    path = tmp_path / "few.csv"
    artifacts.write_table(str(path), ["v"], [col])
    want = "v\n" + "".join(repr(float(v)) + "\n" for v in col)
    assert {"0.0", "-0.0", "nan", "inf"} <= set(want.split())
    assert path.read_bytes() == want.encode()


def test_repeated_integers_and_text_write_the_row_loop_bytes(tmp_path):
    """Repeated integer columns, alone with floats as in the Monte Carlo
    table and beside a repeated text column, read as the per-row loop:
    integers as integers, text as text, floats as repr."""
    rng = np.random.default_rng(12)
    reps = artifacts._ROW_BLOCK // 2 + 3
    n_col, rep_col = np.repeat([50, 200, 800], reps), np.tile(np.arange(reps), 3)
    est = rng.normal(size=3 * reps)
    path = tmp_path / "mc.csv"
    artifacts.write_table(str(path), ["n", "rep", "est"], [n_col, rep_col, est],
                          eol="\r\n")
    want = "n,rep,est\r\n" + "".join(f"{int(n)!r},{int(r)!r},{float(e)!r}\r\n"
                                     for n, r, e in zip(n_col, rep_col, est))
    assert path.read_bytes() == want.encode()

    size = 2 * artifacts._ROW_BLOCK + 3
    ints = rng.integers(-5, 5, size)
    text = rng.choice(np.array(["a", "b c", "-0.0"]), size)
    floats = rng.choice(np.array([0.25, -0.0, 0.0, 1e300]), size)
    path = tmp_path / "mixed.csv"
    artifacts.write_table(str(path), ["i", "s", "f"], [ints, text, floats])
    want = "i,s,f\n" + "".join(f"{int(i)},{s},{float(f)!r}\n"
                               for i, s, f in zip(ints, text, floats))
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
    for text in ("x,dens\n0.0,1.0\n", ""):
        path.write_text(text)
        with pytest.raises(SensanError, match="unrecognized density csv header"):
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
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SensanError, match="sample") as info:
                Sample.from_csv(str(path))
        assert not seen, [str(w.message) for w in seen]
        if name == "empty":
            assert "holds no rows" in str(info.value)


def test_sample_csv_rows_must_match_a_sample_header(tmp_path):
    """Only "x" and "x,y" head a sample CSV, and each row holds one value
    per header column."""
    bodies = {"density": ("x,density\n0.0,0.5\n1.0,1.5\n", "header"),
              "three": ("q,w,e\n0.1,0.2,0.3\n", "header"),
              "empty-file": ("", "header"),
              "wide": ("x\n0.1,0.2\n0.3,0.4\n", "match the header 'x'"),
              "wider": ("x,y\n0.1,0.2,0.3\n", "match the header 'x,y'")}
    for name, (body, match) in bodies.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(body)
        with pytest.raises(SensanError, match=match):
            Sample.from_csv(str(path))


def test_sample_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(50, 2))
    s = Sample(pts, (0.0, 0.0), (1.0, 1.0))
    path = str(tmp_path / "sample.csv")
    s.to_csv(path)
    back = Sample.from_csv(path)
    np.testing.assert_array_equal(back.points, s.points)
    assert back.lo == tuple(pts.min(axis=0))
    assert back.hi == tuple(pts.max(axis=0))


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
    """A sample's quantile is the functional's estimate, the ceil(n tau)-th
    order statistic; `quantile` itself takes grid densities only."""
    s = Sample(np.array([0.9, 0.1, 0.5, 0.3, 0.7]), (0.0,), (1.0,))
    assert evaluate(quantile_functional(0.5), s) == 0.5
    assert evaluate(quantile_functional(0.2), s) == 0.1
    assert evaluate(quantile_functional(0.21), s) == 0.3
    with pytest.raises(SensanError, match="expects a GridDensity"):
        quantile(s, 0.5)


def test_quantile_level_bounds():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    for tau in (0.0, 1.0, -0.2):
        with pytest.raises(SensanError, match="strictly inside"):
            quantile(U, tau)


_LINE = uniform(Grid.line(0.0, 1.0, 21))
_BOX = GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 1.0), (21, 21)),
                                 lambda x, y: 1.0 + x * y)


@pytest.mark.parametrize("P,tau,axis,message", [
    (_LINE, 0.5, -1, "quantile axis must be a non-negative integer, got -1"),
    (_LINE, 0.5, 0.0, "quantile axis must be a non-negative integer, got 0.0"),
    (_BOX, 0.5, True, "quantile axis must be a non-negative integer, got True"),
    (_LINE, "0.5", 0, "quantile tau must be a real number, got '0.5'"),
    (_LINE, None, 0, "quantile tau must be a real number, got None"),
    (_LINE, 1.0, 0, "quantile level must be strictly inside (0, 1)"),
])
def test_quantile_refuses_a_bad_tau_or_axis_by_name(P, tau, axis, message):
    """`quantile` and a quantile Functional run one check: an axis that
    is negative, a float or a bool, a tau that is not a real number and a
    level outside (0, 1) are each refused by the same whole message, on
    the 2-d box too, where True would read axis 1."""
    for call in (lambda: quantile(P, tau, axis),
                 lambda: functionals.Functional("quantile", tau=tau, axis=axis)):
        with pytest.raises(SensanError) as err:
            call()
        assert str(err.value) == message
    assert quantile(_BOX, 0.5, np.int64(1)) == quantile(_BOX, 0.5, 1)


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


def _field_cdf(m):
    """Nodes, the cumulative-trapezoid CDF at the nodes, and the CDF at any
    point, of a 1-d field whose parts are split at their cuts."""
    x = m.grid.axes[0].nodes
    parts = [(np.inf, m.smooth)] + [(t.cuts[0][1], t.samples) for t in m.terms]
    parts = [(q, s, model_space._cumtrapz(x, s)) for q, s in parts]

    def cdf(t):
        return sum(model_space._cum_at(x, s, cum, min(t, q)) for q, s, cum in parts)

    F = sum(cum if q >= x[-1] else np.where(x <= q, cum, model_space._cum_at(x, s, cum, q))
            for q, s, cum in parts)
    return x, F, cdf


def _one_field_inversion(m, tau, *, strict):
    """Reference for invert_cdf on one field: the cumulative trapezoid of
    each part, the first node at the level, then that cell walked piece by
    piece between the cuts inside it, written out apart from invert_cdf's
    shared cell walk."""
    x, F, cdf = _field_cdf(m)
    cuts = [t.cuts[0][1] for t in m.terms]
    if F[-1] < tau:
        raise SensanError("quantile level beyond the grid support")
    i = min(max(int(np.argmax(F >= tau)), 1), len(F) - 1)
    pts = [x[i - 1]] + sorted(q for q in cuts if x[i - 1] < q < x[i]) + [x[i]]
    Fv = [F[i - 1]] + [cdf(b) for b in pts[1:-1]] + [F[i]]
    for j in range(len(pts) - 1):
        if Fv[j + 1] >= tau:
            dF = Fv[j + 1] - Fv[j]
            if dF <= 1e-13:
                if strict:
                    raise SensanError("non-unique quantile: flat CDF at the level")
                return float(pts[j])
            return float(pts[j] + (tau - Fv[j]) / dF * (pts[j + 1] - pts[j]))
    return float(x[i])


def _outcome(fn, m, tau, strict):
    try:
        return fn(m, tau, strict=strict)
    except SensanError as exc:
        return str(exc)


def test_cdf_table_reads_zero_at_and_below_the_first_node():
    """The CDF of a field, with and without a cut term, is 0 at its first
    node and below it, and the table's last entry at its last node."""
    g = Grid.line(0.0, 1.0, 21)
    m = PiecewiseField(g, np.ones(g.shape))
    for f in (m, PiecewiseField(g, m.smooth, (CutTerm(((0, 0.3),), m.smooth),))):
        F, cdf, _ = model_space.cdf_table(f)
        assert cdf(0.0) == cdf(-0.5) == F[0] == 0.0
        assert cdf(1.0) == cdf(1.5) == F[-1]


@pytest.mark.parametrize("n", [5, 21, 200, 201])
def test_row_inversion_gives_each_fields_bits(n):
    """Signed fields with up to three cuts (one repeated) and a near-flat
    stretch, at levels that put a cut inside the crossing cell or the
    crossing inside the stretch: each field inverts to the one-field
    reference, its value or its error, in both modes."""
    g = Grid.line(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    stretch = slice(n // 3, max(n // 2, n // 3 + 2))
    for trial in range(40):
        cuts = sorted(rng.uniform(0.0, 1.0, rng.integers(0, 4)))
        if trial % 7 == 1 and cuts:
            cuts = [cuts[0]] + cuts
        bump = 0.3 * rng.standard_normal((len(cuts), n))
        bump[:, stretch] = 0.0
        terms = tuple(CutTerm(((0, q),), b) for q, b in zip(cuts, bump))
        stack = np.abs(rng.standard_normal((6, n))) + (0.5 if trial % 2 else 0.0)
        stack[1] -= 0.4                     # signed, dips below zero
        stack[2, stretch] = 1e-12           # a CDF rising by about 1e-14 a cell
        fields = [model_space.PiecewiseField(g, s, terms) for s in stack]
        _, F2, _ = _field_cdf(fields[2])
        _, _, cdf0 = _field_cdf(fields[0])
        levels = list(rng.uniform(0.0, 1.2, 3) * F2[-1]) + [cdf0(q) for q in cuts]
        levels.append(F2[stretch][-1])
        for tau in levels:
            for strict in (True, False):
                for f in fields:
                    assert (_outcome(model_space.invert_cdf, f, tau, strict)
                            == _outcome(_one_field_inversion, f, tau, strict))


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


def test_likelihood_ratio_clamps_extreme_tails():
    g = Grid.line(0.0, 1.0, 801)
    U = GridDensity.from_callable(g, lambda x: np.ones_like(x))
    sharp = GridDensity.from_callable(g, lambda x: 1e-4 + x**4)
    r = likelihood_ratio(U, sharp)
    assert r.clamped
    assert r.ratio_values.max() == 1e3


def test_likelihood_ratio_reads_zero_over_zero_as_one():
    """Beta(2, 5) and Beta(2, 2) both vanish at the two end nodes. A node
    with neither mass reads 1, so P/P is exactly 1 and unclamped, and P/Q
    is 1 at node 0 beside 4.98 at node 1."""
    g = Grid.line(0.0, 1.0, 801)
    P, Q = beta(g, 2.0, 5.0), beta(g, 2.0, 2.0)
    assert P.values[0] == Q.values[0] == P.values[-1] == Q.values[-1] == 0.0
    same = likelihood_ratio(P, P)
    assert np.all(same.ratio_values == 1.0) and not same.clamped
    r = likelihood_ratio(P, Q)
    assert r.ratio_values[0] == r.ratio_values[-1] == 1.0
    assert r.ratio_values[1] == pytest.approx(4.98, abs=0.005)


def test_clamped_ratio_reads_its_edge_cases():
    """0/0 reads 1, mass over none the upper bound, and a quotient outside
    the clamp its nearer bound; the raw quotient is returned beside it."""
    num = np.array([0.0, 2.0, 5e3, 1e-5, 3.0])
    den = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    raw, vals = model_space._clamped_ratio(num, den)
    assert raw.tolist() == [1.0, np.inf, 5e3, 1e-5, 1.5]
    assert vals.tolist() == [1.0, 1e3, 1e3, 1e-3, 1.5]


def test_kde_fit_takes_one_positive_bandwidth():
    """None (Silverman per axis) and one number fit in 1-d and 2-d; a list,
    zero and nan are refused."""
    rng = np.random.default_rng(23)
    line = Grid.line(0.0, 1.0, 201)
    s = Sample(rng.random(300), (0.0,), (1.0,))
    box = Grid.box((0.0, 1.0), (0.0, 1.0), (21, 21))
    s2 = Sample(rng.random((300, 2)), (0.0, 0.0), (1.0, 1.0))
    for sample, grid in ((s, line), (s2, box)):
        for bandwidth in (None, 0.1):
            est = kde_fit(sample, grid, bandwidth)
            assert abs(integrate(np.ones(grid.shape), est) - 1.0) < 1e-10
        for bad in ([0.1], 0.0, float("nan")):
            with pytest.raises(SensanError, match="one positive number"):
                kde_fit(sample, grid, bad)


def test_kde_fit_refuses_a_sample_outside_the_grid():
    """A point beyond the grid raises, naming the sample's span and the
    grid's, in 1-d and on either axis in 2-d."""
    line = Grid.line(0.0, 1.0, 101)
    wide = Sample(np.array([0.2, 0.5, 1.3]), (0.0,), (2.0,))
    with pytest.raises(SensanError, match=r"\[0.2, 1.3\] on axis 0, outside "
                                          r"the grid's \[0, 1\]"):
        kde_fit(wide, line)
    box = Grid.box((0.0, 1.0), (0.0, 2.0), (21, 41))
    wide2 = Sample(np.array([[0.2, 0.5], [0.4, -0.5], [0.9, 1.5]]),
                   (-1.0, -1.0), (2.0, 2.0))
    with pytest.raises(SensanError, match=r"\[-0.5, 1.5\] on axis 1, outside "
                                          r"the grid's \[0, 2\]"):
        kde_fit(wide2, box, 0.1)


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
    return cases


@pytest.mark.parametrize("sample,grid,bandwidth", _kde_cases())
def test_kde_fit_matches_the_direct_kernel_sum(sample, grid, bandwidth, monkeypatch):
    """Linear binning moves a raw node value by at most (h/b)^2 / 8 of the
    peak kernel height per axis (Wand 1994), so after both fits are divided
    by their raw mass m the difference stays below that bound over m, plus
    a rounding allowance. The lattice spans at most one node more than
    the grid."""
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
    assert all(size <= n_nodes + 1 for n_nodes, size in sizes), sizes


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
    values = [evaluate(quantile_functional(tau), P) for tau in sorted(taus)]
    assert all(b >= a for a, b in zip(values, values[1:])), values


# --- property: one term per distinct box --------------------------------------------

_CUT_POOL = (0.15, 0.3, 0.5, 0.62, 0.9)   # few locations, so boxes repeat


@st.composite
def cut_sets(draw):
    """A 1-d or 2-d grid with odd or even node counts, and 0-3 cut
    locations per axis."""
    shape = draw(st.sampled_from(((5,), (6,), (21,), (40,), (5, 6), (11, 11),
                                  (6, 21))))
    g = (Grid.line(0.0, 1.0, *shape) if len(shape) == 1
         else Grid.box((0.0, 1.0), (0.0, 1.0), shape))
    cuts = [sorted(draw(st.sets(st.sampled_from(_CUT_POOL), max_size=3)))
            for _ in shape]
    return g, cuts


def _random_field(draw, g, cuts):
    """Smooth part and 0-4 terms on distinct boxes, as the algebra leaves
    them, each box bounded by one or none of the cuts of each axis and by
    one at least. The two fields of a pair share their cuts, so their
    boxes meet and their products land on common boxes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    boxes = {}
    if any(cuts):
        for _ in range(draw(st.integers(0, 4))):
            box = tuple((a, qs[k]) for a, qs in enumerate(cuts)
                        for k in [draw(st.integers(0, len(qs)))] if k < len(qs))
            if box:
                boxes[box] = CutTerm(box, rng.standard_normal(g.shape))
    return model_space.PiecewiseField(g, rng.standard_normal(g.shape),
                                      tuple(boxes.values()))


@st.composite
def field_pairs(draw):
    g, cuts = draw(cut_sets())
    return _random_field(draw, g, cuts), _random_field(draw, g, cuts)


def _uncoalesced_times(f, g):
    """Products as they were before coalescing: one term per pair of parts."""
    mine = [((), f.smooth)] + [(t.cuts, t.samples) for t in f.terms]
    theirs = [((), g.smooth)] + [(t.cuts, t.samples) for t in g.terms]
    parts = [CutTerm(model_space.merge_cuts(ca, cb), sa * sb)
             for ca, sa in mine for cb, sb in theirs]
    return model_space.PiecewiseField(f.grid, parts[0].samples, tuple(parts[1:]))


def _uncoalesced_add(f, g):
    return model_space.PiecewiseField(f.grid, f.smooth + g.smooth, f.terms + g.terms)


def _uncoalesced_marginal(f, axis):
    """One term per term of f that keeps a cut on `axis`."""
    smooth = model_space._reduce(f.grid, f.smooth, (), keep=axis)
    terms = []
    for t in f.terms:
        reduced = model_space._reduce(f.grid, t.samples, t.cuts, keep=axis)
        kept = [q for a, q in t.cuts if a == axis]
        if kept:
            terms.append(CutTerm(((0, min(kept)),), reduced))
        else:
            smooth = smooth + reduced
    return model_space.PiecewiseField(Grid((f.grid.axes[axis],)), smooth,
                                      tuple(terms))


def _assert_same_field(out, ref):
    """One term per distinct box, each box in its merged form and none the
    whole grid; values and integral those of the uncoalesced reference
    within 1e-13 of the size of its parts."""
    boxes = [t.cuts for t in out.terms]
    assert len(set(boxes)) == len(boxes) and () not in boxes, boxes
    assert all(model_space.merge_cuts(b) == b for b in boxes), boxes
    assert len(boxes) <= len(ref.terms)
    scale = np.max(np.abs(ref.smooth)) + sum(np.max(np.abs(t.samples))
                                             for t in ref.terms)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-13 * scale
    size = grid_quad(ref.grid, np.abs(ref.smooth)) + sum(
        grid_quad(ref.grid, np.abs(t.samples), t.cuts) for t in ref.terms)
    assert abs(out.quad() - ref.quad()) <= 1e-13 * size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field_pairs())
def test_field_algebra_keeps_one_term_per_box(pair):
    f, g = pair
    _assert_same_field(f.times(g), _uncoalesced_times(f, g))
    _assert_same_field(f.add(g), _uncoalesced_add(f, g))
    for axis in range(f.grid.ndim):
        _assert_same_field(f.marginal(axis), _uncoalesced_marginal(f, axis))


def _extremes_by_slices(f):
    """The range probe by axis slices, as the engine once computed it: on
    each side of each cut, the linear slice of the smooth part plus that
    of every term whose box holds that side."""
    grid = f.grid

    def slice_at(samples, axis, loc):
        i, w = model_space.locate(grid.axes[axis], loc)
        lo = np.take(samples, i, axis=axis)
        return lo + w * (np.take(samples, i + 1, axis=axis) - lo)

    vals = [np.min(f.values), np.max(f.values)]
    for axis, loc in {c for t in f.terms for c in t.cuts}:
        for below in (True, False):
            probe = slice_at(f.smooth, axis, loc)
            for t in f.terms:
                if not all(loc <= q if below else loc < q
                           for a, q in t.cuts if a == axis):
                    continue
                incl = np.ones(np.shape(probe), dtype=bool)
                for a, q in t.cuts:
                    if a != axis:
                        incl &= slice_at(grid.mesh()[a], axis, loc) <= q
                probe = probe + np.where(incl, slice_at(t.samples, axis, loc), 0.0)
            vals += [np.min(probe), np.max(probe)]
    return min(vals), max(vals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field_pairs())
def test_extremes_match_the_slice_probe(pair):
    for f in (pair[0], pair[0].times(pair[1])):
        lo, hi = f.extremes()
        ref_lo, ref_hi = _extremes_by_slices(f)
        assert lo == pytest.approx(ref_lo, rel=1e-13, abs=1e-13)
        assert hi == pytest.approx(ref_hi, rel=1e-13, abs=1e-13)


def test_extremes_are_computed_once_per_field():
    """The range probe reads the field at both sides of each cut on the
    first call only; a field is immutable, so later calls give the same
    pair without probing again."""
    g = Grid.line(0.0, 1.0, 101)
    f = PiecewiseField(g, np.sin(6.0 * g.mesh()[0]),
                       (CutTerm(((0, 0.437),), np.full(g.shape, -2.0)),))
    first = f.extremes()
    with mock.patch.object(PiecewiseField, "at",
                           side_effect=AssertionError("probed again")):
        assert f.extremes() is first


def test_median_steps_add_one_term_each():
    """Five counterfactual steps of 0.02 in the median on 0.5 + x, each
    along the gradient at the moved density: one new jump, so one new
    term, per step, and S of the mean to the median as before
    coalescing (values frozen from the term-per-pair algebra)."""
    frozen_S = (0.5254125891629666, 0.5535314381699167, 0.583156867783218,
                0.6144019999149475, 0.6473926101321605, 0.6822685384791334)
    P = linear(Grid.line(0.0, 1.0, 801), 0.5, 1.0)
    mean, median = moment(lambda x: x), quantile_functional(0.5)
    for k, S in enumerate(frozen_S):
        assert len(P.terms) == k
        rep = sensitivity(mean, median, P, information_metric())
        assert rep.S == pytest.approx(S, rel=1e-12, abs=0.0)
        P = counterfactual_report(mean, median, P, information_metric(),
                                  0.02).counterfactual


def test_each_model_space_refusal_names_its_cause():
    """The refusals that no other test reaches, each by its message."""
    line = Grid.line(0.0, 1.0, 5)
    U = uniform(line)
    cases = [
        (lambda: Grid.line(1.0, 1.0 + 1e-15, 7), "grid nodes not uniformly spaced"),
        (lambda: GridDensity(line, np.ones(5), _normalize="soft"),
         "unknown normalization mode 'soft'"),
        (lambda: Sample(np.empty((0, 1)), (0.0,), (1.0,)),
         "sample must be a nonempty array of points"),
        (lambda: Sample(np.full((2, 2, 1), 0.5), (0.0,), (1.0,)),
         "sample must be a nonempty array of points"),
        (lambda: model_space.LikelihoodRatio(line, np.ones(4), False),
         "ratio values do not match the grid shape"),
        (lambda: model_space.LikelihoodRatio(line, np.full(5, 1e4), False),
         "ratio values escape the clamp bounds"),
        (lambda: density_at(U, (0.5, 0.5)), "point dimension does not match the grid"),
        (lambda: density_at(U, 1.5), "point outside the grid domain"),
        (lambda: likelihood_ratio(U, uniform(Grid.line(0.0, 1.0, 7))),
         "mismatched grids for likelihood ratio"),
        (lambda: kde_fit(Sample(np.full((3, 2), 0.5), (0.0, 0.0), (1.0, 1.0)), line),
         "sample dimension does not match the grid"),
    ]
    for build, message in cases:
        with pytest.raises(SensanError) as info:
            build()
        assert str(info.value) == message
    with mock.patch.object(model_space, "_simpson_weights",
                           lambda lo, hi, n: -np.ones(n)):
        with pytest.raises(SensanError, match="^quadrature weights failed validation$"):
            Grid.line(0.0, 1.0, 5)
