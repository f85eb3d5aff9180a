import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensan import (Grid, GridDensity, InformationMetric, PolicyMetric,
                    TangentVector, grad_op_apply, grad_op_inverse,
                    information_metric, inner, inner_p, likelihood_ratio,
                    policy_metric, sensitivity_from_influences)
from sensan.errors import SensanError
from sensan.families import linear, quadratic, uniform
from sensan.model_space import CutTerm

G = Grid.line(0.0, 1.0, 801)
U = uniform(G)
X = G.axes[0].nodes


def test_center_subtracts_the_base_mean():
    v = TangentVector(U, X)
    assert abs(v.mean_under_base()) < 1e-15
    np.testing.assert_allclose(v.values, X - 0.5, atol=1e-12)


def test_centered_coordinate_has_variance_norm():
    v = TangentVector(U, X)
    # Var x on Uniform[0, 1] is 1/12
    assert abs(inner_p(v, v) - 1.0 / 12.0) < 1e-12


def test_information_metric_operator_is_the_identity_object():
    v = TangentVector(U, X)
    m = information_metric()
    assert grad_op_apply(v, m) is v
    assert grad_op_inverse(v, m) is v
    assert abs(inner(v, v, m) - inner_p(v, v)) < 1e-15


def test_policy_apply_against_closed_form():
    """Under dQ proportional to 0.5 + x on Uniform[0, 1], the operator on
    the centered coordinate evaluates at 0.5 to (ln 3 - 1) / ln 3."""
    Q = linear(G, 0.5, 1.0)
    m = policy_metric(U, Q)
    v = TangentVector(U, X)
    out = grad_op_apply(v, m)
    want = (np.log(3.0) - 1.0) / np.log(3.0)
    mid = out.values[400]
    assert abs(mid - want) < 1e-9
    assert abs(out.mean_under_base()) < 1e-12


def test_policy_apply_inverse_roundtrip():
    Q = linear(G, 0.5, 1.0)
    m = policy_metric(U, Q)
    rng = np.random.default_rng(3)
    for _ in range(10):
        coef = rng.normal(size=4)
        v = TangentVector(U, np.polyval(coef, X))
        back = grad_op_inverse(grad_op_apply(v, m), m)
        err = inner_p(back.add(v.scale(-1.0)), back.add(v.scale(-1.0)))
        assert err < 1e-16


def test_apply_is_the_metric_adjoint():
    # <A* v, u>_g = <v, u>_P for all u, the defining property
    Q = linear(G, 0.5, 1.0)
    m = policy_metric(U, Q)
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = TangentVector(U, np.polyval(rng.normal(size=4), X))
        u = TangentVector(U, np.polyval(rng.normal(size=4), X))
        lhs = inner(grad_op_apply(v, m), u, m)
        rhs = inner_p(v, u)
        assert abs(lhs - rhs) < 1e-10


def test_cut_terms_enter_inner_products_exactly():
    """A pure step 1[x <= q] centered under P has L2(P) norm q(1 - q),
    the Bernoulli variance. Quadrature must split the cell at q."""
    q = 0.26445
    step = CutTerm(((0, q),), np.ones(G.shape))
    v = TangentVector(U, np.zeros(G.shape), terms=(step,))
    assert abs(v.mean_under_base()) < 1e-14
    assert abs(inner_p(v, v) - q * (1.0 - q)) < 1e-12


def test_mismatched_bases_are_rejected():
    other = linear(G, 0.5, 1.0)
    v = TangentVector(U, X)
    w = TangentVector(other, X)
    with pytest.raises(SensanError, match="mismatched bases"):
        inner_p(v, w)


def test_malformed_policy_metrics_are_rejected():
    """A policy metric without its measure or its ratio is refused; each
    metric class states its own kind and label."""
    Q = linear(G, 0.5, 1.0)
    r = likelihood_ratio(U, Q)
    for args in ((None, r), (Q, None)):
        with pytest.raises(SensanError, match="policy metric needs a policy "
                           "measure and a likelihood ratio"):
            PolicyMetric(*args)
    assert PolicyMetric(Q, r).label == "L2(Q)"
    assert PolicyMetric(Q, r).kind == "policy"
    assert policy_metric(U, Q, label="Q1").label == "Q1"
    assert policy_metric(U, Q).kind == "policy"
    info = information_metric()
    assert isinstance(info, InformationMetric)
    assert info.kind == info.label == "information"
    assert info.causes(U) == ""


def test_tangent_values_must_be_finite():
    bad = np.zeros(G.shape)
    bad[0] = np.inf
    with pytest.raises(SensanError, match="finite"):
        TangentVector(U, bad)


def test_scale_shift_add():
    v = TangentVector(U, X)
    w = v.scale(2.0).add(v.scale(-2.0))
    assert abs(inner_p(w, w)) < 1e-18
    shifted = v.shift(1.0)
    assert abs(shifted.mean_under_base() - 1.0) < 1e-12


def test_tangent_csv(tmp_path):
    v = TangentVector(U, X)
    path = str(tmp_path / "vec.csv")
    v.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], v.values, atol=1e-15)


# --- properties over generated inputs: step terms and random policies -------------

G_PROP = Grid.line(0.0, 1.0, 201)
U_PROP = uniform(G_PROP)
X_PROP = G_PROP.axes[0].nodes
coef = st.floats(-2.0, 2.0)
positive = st.floats(0.1, 2.0)
nonzero = st.one_of(positive, positive.map(lambda a: -a))


@st.composite
def stepped_vectors(draw):
    """Centered cubic plus one or two steps 1[x <= q] (a + b x), a != 0,
    so the vector never vanishes."""
    smooth = np.polyval([draw(coef) for _ in range(4)], X_PROP)
    terms = tuple(
        CutTerm(((0, draw(st.floats(0.05, 0.95))),),
                draw(nonzero) + draw(coef) * X_PROP)
        for _ in range(draw(st.integers(1, 2))))
    return TangentVector(U_PROP, smooth, terms=terms)


@st.composite
def policy_metrics(draw):
    """The information metric, or L2(Q) for Q proportional to a positive
    line or a convex parabola."""
    shape = draw(st.sampled_from(("information", "line", "parabola")))
    if shape == "information":
        return information_metric()
    if shape == "line":
        left, right = draw(positive), draw(positive)
        Q = linear(G_PROP, left, right - left)
    else:
        Q = quadratic(G_PROP, draw(positive), draw(st.floats(0.0, 3.0)),
                      draw(st.floats(0.0, 1.0)))
    return policy_metric(U_PROP, Q)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(stepped_vectors(), stepped_vectors(), policy_metrics())
def test_apply_is_the_metric_adjoint_with_steps(v, u, m):
    lhs = inner(grad_op_apply(v, m), u, m)
    rhs = inner_p(v, u)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


@PROPERTY
@given(stepped_vectors(), policy_metrics())
def test_policy_apply_inverse_roundtrip_with_steps(v, m):
    back = grad_op_inverse(grad_op_apply(v, m), m)
    err = np.max(np.abs(back.values - v.values))
    assert err < 1e-10 * (1.0 + np.max(np.abs(v.values)))


@PROPERTY
@given(stepped_vectors(), stepped_vectors(), policy_metrics())
def test_sufficiency_lies_in_the_unit_interval(psi, nu, m):
    rep = sensitivity_from_influences(psi, nu, m)
    assert 0.0 <= rep.R <= 1.0 + 1e-12
