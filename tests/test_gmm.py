import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundles import (two_moment_misspecified, two_moment_population,
                     two_moment_spec)
from sensan import (Grid, GridDensity, TangentVector, counterfactual_density,
                    gmm_efficient_influence, gmm_influence, gmm_out_direction,
                    gmm_project_tangent, gmm_solve, grad_op_apply, influence,
                    information_metric, inner_p, moment_spec,
                    quantile_functional)
from sensan.errors import SensanError
from sensan.expressions import as_array_function
from sensan.families import build_family, truncated_normal
import sensan.gmm
from sensan.gmm import (_FOC_TOL, _efficient_map, _node_arrays, _solution,
                        _theta_polys)
from sensan.model_space import integrate

P0 = two_moment_population()
SPEC = two_moment_spec()
I2 = np.eye(2)


def _criterion(P, spec, W, theta) -> float:
    """The GMM criterion with Pg by grid quadrature of the pointwise
    moments, the solver's reference."""
    args = P.grid.mesh()
    Pg = np.array([integrate(as_array_function(q, q.variables)(*args, *theta), P)
                   for q in spec.polys])
    return float(Pg @ W @ Pg)


def test_identity_weight_solve():
    sol = gmm_solve(P0, SPEC, I2)
    assert abs(sol.theta[0] - 1.0) < 1e-10
    assert sol.correctly_specified
    assert sol.criterion < 1e-20
    np.testing.assert_allclose(sol.G, [[-1.0], [-2.0]], atol=1e-8)
    np.testing.assert_allclose(sol.Omega, [[1.0, 2.0], [2.0, 6.0]], atol=1e-8)


def test_solutions_compare_by_identity():
    """Two solves of one model are distinct solutions, a solution equals
    itself, and hashing works."""
    a, b = gmm_solve(P0, SPEC, I2), gmm_solve(P0, SPEC, I2)
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) and hash(a) != hash(b)


def test_identity_weight_influence_variance():
    """With W = I2 the asymptotic variance of the location estimate from
    (mean, second moment) conditions on N(1, 1) is 33/25."""
    sol = gmm_solve(P0, SPEC, I2)
    psi = gmm_influence(P0, SPEC, sol)[0]
    assert abs(inner_p(psi, psi) - 1.32) < 1e-9


def test_efficient_influence_is_the_score():
    sol = gmm_solve(P0, SPEC, I2)
    eff = gmm_efficient_influence(P0, SPEC, sol)[0]
    assert abs(inner_p(eff, eff) - 1.0) < 1e-9
    x = P0.grid.axes[0].nodes
    assert np.max(np.abs(eff.values - (x - 1.0))) < 1e-9


def test_two_step_optimal_weight_reaches_the_bound():
    sol = gmm_solve(P0, SPEC, "optimal")
    assert abs(sol.theta[0] - 1.0) < 1e-8
    psi = gmm_influence(P0, SPEC, sol)[0]
    assert abs(inner_p(psi, psi) - 1.0) < 1e-6


def test_sufficiency_of_the_identity_weight_estimator():
    # Delta between the W = I2 functional and the efficient one is 1/1.32
    sol = gmm_solve(P0, SPEC, I2)
    a = gmm_influence(P0, SPEC, sol)[0]
    b = gmm_efficient_influence(P0, SPEC, sol)[0]
    delta = inner_p(a, b) ** 2 / (inner_p(a, a) * inner_p(b, b))
    assert abs(delta - 1.0 / 1.32) < 1e-9


def test_projection_onto_the_model_tangent():
    """Projecting the identity-weight influence onto the tangent set of
    the correctly specified model yields the efficient influence."""
    sol = gmm_solve(P0, SPEC, I2)
    a = gmm_influence(P0, SPEC, sol)[0]
    b = gmm_efficient_influence(P0, SPEC, sol)[0]
    proj = gmm_project_tangent(P0, SPEC, sol, a)
    diff = proj.add(b.scale(-1.0))
    assert inner_p(diff, diff) < 1e-12


def test_out_directions_are_invisible_to_the_efficient_functional():
    sol = gmm_solve(P0, SPEC, I2)
    eff = gmm_efficient_influence(P0, SPEC, sol)[0]
    raw = gmm_influence(P0, SPEC, sol)[0]
    rng = np.random.default_rng(21)
    saw_inefficiency = False
    for _ in range(5):
        alpha = rng.normal(size=2)
        zeta = gmm_out_direction(P0, SPEC, sol, alpha)
        assert abs(inner_p(eff, zeta)) < 1e-10
        if abs(inner_p(raw, zeta)) > 1e-2:
            saw_inefficiency = True
    assert saw_inefficiency


def test_misspecified_solve():
    Pm = two_moment_misspecified()
    sol = gmm_solve(Pm, SPEC, I2)
    assert not sol.correctly_specified
    assert abs(sol.theta[0] - 1.1694271) < 1e-6
    # dense-grid cross-check on criterion values, coarse pass then zoom
    coarse = np.linspace(-3.0, 3.0, 601)
    vals = [_criterion(Pm, SPEC, I2, np.array([t])) for t in coarse]
    t0 = coarse[int(np.argmin(vals))]
    fine = np.linspace(t0 - 0.01, t0 + 0.01, 2001)
    best = min(_criterion(Pm, SPEC, I2, np.array([t])) for t in fine)
    assert abs(best - sol.criterion) < 1e-6


def test_tangent_restriction_requires_correct_specification():
    Pm = two_moment_misspecified()
    sol = gmm_solve(Pm, SPEC, I2)
    a = gmm_influence(Pm, SPEC, sol)[0]
    with pytest.raises(SensanError, match="off P0"):
        gmm_project_tangent(Pm, SPEC, sol, a)
    with pytest.raises(SensanError, match="off P0"):
        gmm_out_direction(Pm, SPEC, sol, (1.0, 0.0))


def test_just_identified_model_has_no_out_directions():
    spec1 = moment_spec(("x - th0",), 1, ((-3.0, 3.0),))
    sol = gmm_solve(P0, spec1, np.eye(1))
    assert abs(sol.theta[0] - 1.0) < 1e-10
    with pytest.raises(SensanError, match="not over-identified"):
        gmm_out_direction(P0, spec1, sol, (1.0,))


def test_alpha_shape_is_checked():
    sol = gmm_solve(P0, SPEC, I2)
    with pytest.raises(SensanError, match="one entry per moment"):
        gmm_out_direction(P0, SPEC, sol, (1.0, 0.0, 0.0))


def test_solve_fails_when_bounds_exclude_the_root():
    spec = moment_spec(("x - th0",), 1, ((2.5, 3.0),))
    with pytest.raises(SensanError, match="gmm solve failed: .*; th0 stops "
                       "at its lower bound 2.5$"):
        gmm_solve(P0, spec, np.eye(1))


def test_a_minimizer_on_the_bounds_box_is_named():
    """On 1 + xy + y^2 the 2-d criterion falls toward th0 > 1, so every
    start stops on the face th0 = 1 of the box."""
    P = _two_d_density(lambda x, y: 1.0 + x * y + y * y)
    with pytest.raises(SensanError, match="gmm solve failed: no start "
                       "satisfied the first-order condition; th0 stops at "
                       "its upper bound 1$"):
        gmm_solve(P, _two_d_spec(), np.eye(3))


def test_non_unique_minimizer_is_refused():
    # E x^2 = 2 on N(1, 1), so th0^2 = 1 has two admissible roots
    spec = moment_spec(("x*x - th0*th0 - 1",), 1, ((-3.0, 3.0),))
    with pytest.raises(SensanError, match="non-unique minimizer"):
        gmm_solve(P0, spec, np.eye(1))


def test_local_identification_failure():
    """At the root of E[x] = th0^3 on a centered normal the moment
    Jacobian vanishes, so the criterion curvature is singular. The
    stationary point satisfies the first-order condition exactly but the
    influence computation must refuse it."""
    g = Grid.line(-8.0, 8.0, 801)
    P = truncated_normal(g, 0.0, 1.0)
    spec = moment_spec(("x - th0*th0*th0",), 1, ((-3.0, 3.0),))
    sol = _solution(P, spec, np.eye(1), np.array([0.0]), _theta_polys(P, spec))
    assert sol.G[0, 0] == 0.0
    with pytest.raises(SensanError, match="local identification failure"):
        gmm_influence(P, spec, sol)


def test_weight_matrix_validation():
    with pytest.raises(SensanError, match="must be 2x2"):
        gmm_solve(P0, SPEC, np.eye(3))
    with pytest.raises(SensanError, match="must be symmetric"):
        gmm_solve(P0, SPEC, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(SensanError, match="positive-definite"):
        gmm_solve(P0, SPEC, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(SensanError, match="unknown weight matrix spec"):
        gmm_solve(P0, SPEC, "fast")


def test_solution_validation():
    sol = gmm_solve(P0, SPEC, I2)
    with pytest.raises(SensanError, match="fails the first-order condition"):
        dataclasses.replace(sol, Pg=np.array([0.1, 0.0]), criterion=0.01)
    with pytest.raises(SensanError, match="not symmetric"):
        dataclasses.replace(sol, Omega=np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(SensanError, match="not positive-definite"):
        dataclasses.replace(sol, Omega=np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_moment_spec_validation():
    with pytest.raises(SensanError, match="at least as many moments"):
        moment_spec(("x - th0",), 2, ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(SensanError, match="one interval per parameter"):
        moment_spec(("x - th0",), 1, ())
    with pytest.raises(SensanError, match="nonempty"):
        moment_spec(("x - th0",), 1, ((1.0, 1.0),))


def test_data_vars_must_match_the_grid():
    spec = moment_spec(("x + y - th0",), 1, ((-3.0, 3.0),),
                       data_vars=("x", "y"))
    with pytest.raises(SensanError, match="data variables do not match"):
        gmm_solve(P0, spec, np.eye(1))


# --- the near-flat misspecified population ------------------------------------------

def _window_normal(n: int, mean: float, sd: float):
    return build_family({"family": "truncated_normal", "mean": mean, "sd": sd},
                        Grid.line(-7.0, 9.0, n))


def _foc_norm(sol) -> float:
    return float(np.linalg.norm(2.0 * sol.G.T @ sol.W @ sol.Pg))


@pytest.mark.parametrize("n", [201, 401, 801])
@pytest.mark.parametrize("weight", ["identity", "optimal"])
def test_near_flat_misspecified_population_solves(n, weight):
    """N(1.1609, 1.2549^2) on [-7, 9]: the criterion is about 0.045 near
    its minimizer, where a linearly converging solver stalls from every
    start with its gradient just above the acceptance threshold."""
    P = _window_normal(n, 1.1609, 1.2549)
    sol = gmm_solve(P, SPEC, I2 if weight == "identity" else "optimal")
    assert _foc_norm(sol) < _FOC_TOL
    assert not sol.correctly_specified
    if weight == "identity":
        # argmin of (mu - t)^2 + (m2 - t^2)^2 with m2 = mu^2 + sd^2 - 1
        mu, m2 = 1.1609, 1.1609**2 + 1.2549**2 - 1.0
        roots = np.roots([4.0, 0.0, 2.0 - 4.0 * m2, -2.0 * mu])
        real = [r.real for r in roots if abs(r.imag) < 1e-9]
        best = min(real, key=lambda t: (mu - t) ** 2 + (m2 - t * t) ** 2)
        assert abs(sol.theta[0] - best) < 1e-6


# --- theta-polynomials against quadrature of the pointwise moments -------------------

def _quadrature_means(P, spec, theta):
    """Pg, G and P[Hess g_i] by grid quadrature of the pointwise moment
    derivatives, each with the integral of its absolute value."""
    args = P.grid.mesh()

    def mean(i, *js):
        q = spec.derivative(i, *js)
        vals = as_array_function(q, q.variables)(*args, *theta)
        return P.quad(vals), P.quad(np.abs(vals))

    r, p = spec.moment_dim, spec.theta_dim
    Pg = [mean(i) for i in range(r)]
    G = [[mean(i, j) for j in range(p)] for i in range(r)]
    H = [[[mean(i, j, k) for k in range(p)] for j in range(p)] for i in range(r)]
    return [np.array(m) for m in (Pg, G, H)]


def _cut_density():
    P = build_family({"family": "beta", "alpha": 2.0, "beta": 3.0},
                     Grid.line(0.0, 1.0, 401))
    direction = grad_op_apply(influence(quantile_functional(0.4), P),
                              information_metric())
    return counterfactual_density(P, direction, 0.02)


def _polynomial_case(case: str):
    """(P, spec) on a 1-d normal window, a 2-d polynomial density and a
    1-d density with a cut term."""
    if case == "1-d":
        return _window_normal(801, 1.0, 1.2), moment_spec(
            ("x - th0", "x*x - th0*th0 - th1",
             "x**4 - 3*th1*th1 - th0**4 + x*th0*th1"), 2,
            ((-3.0, 3.0), (0.0, 3.0)))
    if case == "2-d":
        return _two_d_density(lambda x, y: 1.0 + x * y + y * y), _two_d_spec()
    P = _cut_density()
    assert P.terms
    return P, moment_spec(("x - th0", "x**3 - th0**3 + 0.1*x*th0*th0"), 1,
                          ((0.0, 1.0),))


@pytest.mark.parametrize("case", ["1-d", "2-d", "cut"])
def test_theta_polynomials_match_pointwise_quadrature(case):
    P, spec = _polynomial_case(case)
    at = _theta_polys(P, spec)
    rng = np.random.default_rng(7)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    for _ in range(5):
        theta = lo + rng.random(spec.theta_dim) * (hi - lo)
        for got, (want, scale) in zip(at(theta), (
                np.moveaxis(m, -1, 0) for m in _quadrature_means(P, spec, theta))):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale)), (
                case, theta, got, want)


# --- a solution keeps what its solve computed ------------------------------------

def _counting(monkeypatch, name: str) -> list:
    """Replace sensan.gmm.<name> by a wrapper that records each call."""
    calls, inner = [], getattr(sensan.gmm, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sensan.gmm, name, wrapper)
    return calls


def _two_d_spec():
    return moment_spec(("x*y - th0", "x**2 + y - th0*th1",
                        "y**3*th1 - x*th0**2"), 2,
                       ((-1.0, 1.0), (-1.0, 2.0)), data_vars=("x", "y"))


def _two_d_density(f):
    return GridDensity.from_callable(Grid.box((0.0, 1.0), (-1.0, 2.0), (41, 40)), f)


@pytest.mark.parametrize("weight", ["identity", "optimal"])
def test_solve_compiles_once_and_the_influences_reuse_it(monkeypatch, weight):
    polys = _counting(monkeypatch, "_theta_polys")
    compiles = _counting(monkeypatch, "as_array_function")
    sol = gmm_solve(P0, SPEC, I2 if weight == "identity" else "optimal")
    assert len(polys) == 1
    assert compiles
    polys.clear()
    compiles.clear()
    a = gmm_influence(P0, SPEC, sol)[0]
    gmm_efficient_influence(P0, SPEC, sol)
    gmm_project_tangent(P0, SPEC, sol, a)
    gmm_out_direction(P0, SPEC, sol, (1.0, -0.5))
    assert polys == [] and compiles == []


@pytest.mark.parametrize("case", ["1-d", "2-d"])
def test_solution_keeps_the_node_arrays_and_curvature_bit_for_bit(case):
    if case == "1-d":
        P, spec = P0, SPEC
    else:
        # a bump whose criterion has an interior, misspecified minimizer
        P, spec = _two_d_density(lambda x, y: np.exp(
            -((x - 0.6) ** 2 + (y - 0.3) ** 2) / 0.3)), _two_d_spec()
    sol = gmm_solve(P, spec, np.eye(spec.moment_dim))
    assert case == "1-d" or not sol.correctly_specified
    theta = sol.theta
    for got, want in zip(sol.g, _node_arrays(P, spec, theta), strict=True):
        np.testing.assert_array_equal(got, want, strict=True)
    assert len(sol.jac) == spec.theta_dim
    for j, row in enumerate(sol.jac):
        for got, want in zip(row, _node_arrays(P, spec, theta, j), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
    H = _theta_polys(P, spec)(theta)[2]
    np.testing.assert_array_equal(sol.H, H, strict=True)
    assert sol.H.shape == (spec.moment_dim, spec.theta_dim, spec.theta_dim)


@pytest.mark.parametrize("case", ["1-d", "2-d", "cut"])
@pytest.mark.parametrize("weight", ["identity", "optimal"])
def test_solution_moments_are_the_per_entry_integrals_bit_for_bit(case, weight):
    """Pg, G and Omega, integrated entry by entry from the stacked node
    arrays, equal one `integrate` call per entry. The 2-d minimizer lies
    past th0 = 1, so that case widens th0's bound to 2."""
    P, spec = _polynomial_case(case)
    if case == "2-d":
        spec = moment_spec(spec.texts, 2, ((-1.0, 2.0), (-1.0, 2.0)),
                           data_vars=spec.data_vars)
    sol = gmm_solve(P, spec, np.eye(spec.moment_dim) if weight == "identity"
                    else "optimal")
    args = P.grid.mesh()

    def nodes(i, *js):
        q = spec.derivative(i, *js)
        return as_array_function(q, q.variables)(*args, *sol.theta)

    r, p = spec.moment_dim, spec.theta_dim
    g = [nodes(i) for i in range(r)]
    Pg = np.array([integrate(a, P) for a in g])
    G = np.array([[integrate(nodes(i, j), P) for j in range(p)]
                  for i in range(r)])
    Omega = np.array([[integrate(a * b, P) for b in g] for a in g])
    for got, want in ((sol.Pg, Pg), (sol.G, G), (sol.Omega, Omega)):
        np.testing.assert_array_equal(got, want, strict=True)
    assert sol.g.shape == (r, *P.grid.shape)
    assert sol.jac.shape == (p, r, *P.grid.shape)


def _cut_score_case(case):
    """A specified model, its weight, and a cut score on it: the analytic
    influence of a quantile."""
    if case == "1-d":
        return P0, SPEC, I2, influence(quantile_functional(0.3), P0)
    P = GridDensity.from_callable(
        Grid.box((-8.0, 8.0), (-8.0, 8.0), (101, 101)),
        lambda x, y: np.exp(-0.5 * (x * x + y * y)))
    spec = moment_spec(("x - th0", "y - th1", "x*x - 1", "y*y - 1"), 2,
                       ((-3.0, 3.0), (-3.0, 3.0)), data_vars=("x", "y"))
    return P, spec, "optimal", influence(quantile_functional(0.4, 1), P)


@pytest.mark.parametrize("case", ["1-d", "2-d"])
def test_projection_of_a_cut_score_takes_the_per_entry_integrals(case):
    """P[xi g'] of a score with a cut term is one integral of xi P g_i
    per moment, bit for bit, and the projection subtracts the moments it
    weights, centered: the 1-d N(1, 1) two-moment model with identity
    weight at tau 0.3, and the 101^2 standard Gaussian with four moments
    and "optimal" weights at tau 0.4 on axis 1."""
    P, spec, W, xi = _cut_score_case(case)
    assert xi.terms
    sol = gmm_solve(P, spec, W)
    assert sol.correctly_specified
    cov = np.array([xi.times(P).quad(a) for a in sol.g])
    perp = np.eye(spec.moment_dim) - sol.G @ _efficient_map(sol)
    coef = cov @ np.linalg.solve(sol.Omega, perp)
    want = TangentVector(P, xi.smooth - np.tensordot(coef, sol.g, 1),
                         terms=xi.terms)
    got = gmm_project_tangent(P, spec, sol, xi)
    np.testing.assert_array_equal(got.smooth, want.smooth, strict=True)
    assert got.terms == xi.terms


def test_solution_refuses_a_non_finite_integrand():
    """g is finite at theta, but g^2, the integrand of Omega, overflows
    (numpy's overflow warning is silenced: the refusal is under test)."""
    spec = moment_spec(("x - th0", "1e200*x*x - 1e200*th0*th0 - 1e200"), 1,
                       ((-3.0, 3.0),))
    with np.errstate(over="ignore"), pytest.raises(
            SensanError, match="non-finite integrand"):
        _solution(P0, spec, I2, np.array([1.0]), _theta_polys(P0, spec))


# --- property: the tangent-set identities on correctly specified normals ----------

NORMAL_MOMENTS = moment_spec(
    ("x - th0", "x*x - th0*th0 - th1*th1", "x**3 - th0**3 - 3*th0*th1*th1"),
    2, ((-3.0, 3.0), (0.3, 3.0)))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.floats(-1.0, 1.0), st.floats(0.6, 1.5), st.floats(0.2, 0.8),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_tangent_set_identities_on_normal_populations(mean, sd, tau, c):
    """On N(mean, sd^2) cut to ten sd either side, the over-identified
    normal-moment model is correctly specified, and:
    - the projection onto its tangent set is idempotent
    - it leaves every efficient influence function fixed
    - every out-of-model direction is L2(P)-orthogonal to every projected
      score and to every efficient influence function"""
    P = truncated_normal(Grid.line(mean - 10.0 * sd, mean + 10.0 * sd, 401),
                         mean, sd)
    sol = gmm_solve(P, NORMAL_MOMENTS, np.eye(3))
    assert sol.correctly_specified
    x = P.grid.axes[0].nodes
    scores = [TangentVector(P, c[0] * x + c[1] * x ** 2 + c[2] * x ** 4),
              influence(quantile_functional(tau), P),
              *gmm_influence(P, NORMAL_MOMENTS, sol)]
    eff = gmm_efficient_influence(P, NORMAL_MOMENTS, sol)
    outs = [gmm_out_direction(P, NORMAL_MOMENTS, sol, alpha)
            for alpha in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]

    def project(v):
        return gmm_project_tangent(P, NORMAL_MOMENTS, sol, v)

    def norm(v):
        return inner_p(v, v) ** 0.5

    # one alpha's direction can vanish (at mean 0 the first does), so
    # orthogonality is measured against the largest out-direction
    out_scale = max(norm(zeta) for zeta in outs)
    for xi in scores:
        once = project(xi)
        twice = project(once)
        assert norm(twice.add(once.scale(-1.0))) <= 1e-12 * norm(xi)
        for zeta in outs:
            assert abs(inner_p(once, zeta)) <= 1e-12 * norm(once) * out_scale
    for e in eff:
        assert norm(project(e).add(e.scale(-1.0))) <= 1e-12 * norm(e)
        for zeta in outs:
            assert abs(inner_p(e, zeta)) <= 1e-12 * norm(e) * out_scale


# --- property: random populations solve to the scanned minimizer ---------------------

def _scan_minimizer(P, spec, W):
    """argmin of the quadrature criterion over the bounds to 1e-6: a grid
    of step 0.1, then four zooms by 20 around the best point."""
    lo, hi = spec.bounds[0]
    ts = np.linspace(lo, hi, 61)
    for _ in range(5):
        vals = [_criterion(P, spec, W, np.array([t])) for t in ts]
        best = ts[int(np.argmin(vals))]
        step = ts[1] - ts[0]
        ts = np.linspace(max(lo, best - step), min(hi, best + step), 41)
    return best, min(vals)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.5, 1.5), st.floats(0.8, 1.5), st.integers(50, 400),
       st.integers(0, 1), st.booleans())
def test_random_populations_solve_to_the_scanned_minimizer(mean, sd, k, odd,
                                                            optimal):
    P = _window_normal(2 * k + odd, mean, sd)
    sol = gmm_solve(P, SPEC, "optimal" if optimal else I2)
    assert _foc_norm(sol) < _FOC_TOL
    best, crit = _scan_minimizer(P, SPEC, sol.W)
    assert abs(sol.theta[0] - best) < 1e-6, (sol.theta, best)
    assert sol.criterion <= crit + 1e-12
