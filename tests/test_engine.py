import math

import numpy as np
import pytest

from bundles import mean_over_median
from sensan import (CounterfactualReport, Grid, GridDensity, SensitivityReport,
                    TangentVector, counterfactual_density, counterfactual_report,
                    evaluate, grad_op_apply, influence, information_metric,
                    inner_p, moment, policy_metric, quantile_functional,
                    sensitivity, sensitivity_from_influences, variance,
                    verify_first_order)
from sensan.errors import SensanError
from sensan.families import beta, linear, quadratic, truncated_normal, uniform
from sensan.model_space import CutTerm, integrate, quantile

G = Grid.line(0.0, 1.0, 801)
U = uniform(G)
MEAN = moment(lambda x: x, label="mean")
MEDIAN = quantile_functional(0.5)


def test_mean_median_uniform_report():
    """On Uniform[0, 1] with the information metric: dpsi = 1/8 (covariance
    of x with the median influence), |grad median|^2 = 1/4, so S = 1/2,
    R = 3/4, Lambda = 1/2."""
    rep = sensitivity(MEAN, MEDIAN, U, information_metric())
    assert abs(rep.dpsi_dnu - 0.125) < 1e-9
    assert abs(rep.S - 0.5) < 1e-9
    assert abs(rep.R - 0.75) < 1e-9
    assert abs(rep.Lambda - 0.5) < 1e-9
    assert abs(rep.Delta - 0.75) < 1e-9
    assert abs(rep.grad_norm_nu - 0.5) < 1e-9
    assert abs(rep.grad_norm_psi - math.sqrt(1.0 / 12.0)) < 1e-9
    assert rep.psi_value == pytest.approx(0.5, abs=1e-12)
    assert rep.metric_kind == "information"


def test_mean_median_truncated_normal():
    # S = 2 f(0) E|Z| = 2/pi for the standard normal; +-6 sigma truncation
    # perturbs that by under 1e-8
    g = Grid.line(-6.0, 6.0, 801)
    P = truncated_normal(g, 0.0, 1.0)
    rep = sensitivity(moment(lambda x: x), quantile_functional(0.5), P,
                      information_metric())
    assert abs(rep.S - 2.0 / math.pi) < 1e-6


def test_self_sensitivity_is_one():
    rep = sensitivity(MEAN, MEAN, U, information_metric())
    assert abs(rep.S - 1.0) < 1e-10
    assert abs(rep.R - 1.0) < 1e-10


def test_policy_metric_with_base_measure_matches_information():
    info = sensitivity(MEAN, MEDIAN, U, information_metric())
    pol = sensitivity(MEAN, MEDIAN, U, policy_metric(U, U, label="L2(P)"))
    assert abs(pol.S - info.S) < 1e-8
    assert abs(pol.R - info.R) < 1e-8
    # Lambda and Delta are metric independent by construction
    assert pol.Lambda == pytest.approx(info.Lambda, abs=1e-14)


def test_policy_metric_changes_the_answer():
    Q = linear(G, 0.5, 1.0)
    pol = sensitivity(MEAN, MEDIAN, U, policy_metric(U, Q))
    info = sensitivity(MEAN, MEDIAN, U, information_metric())
    assert abs(pol.S - info.S) > 1e-3
    assert pol.Lambda == pytest.approx(info.Lambda, abs=1e-12)


def test_dual_path_gate_rejects_marginal_quadrature():
    """Nonsmooth ratio products can push the two gradient-norm routes
    apart past 1e-8; the engine must refuse rather than report."""
    B = beta(G, 2.0, 5.0)
    Q = linear(G, 0.5, 1.0)
    with pytest.raises(SensanError, match="disagrees between code paths"):
        sensitivity(MEDIAN, variance(), B, policy_metric(B, Q))


def test_dual_path_gate_names_the_jump_of_p_under_a_policy_metric():
    """P with one jump, the first counterfactual step of the median on
    0.5 + x: the likelihood ratio divides node values, so the jump becomes
    a one-cell ramp and the two gradient-norm routes part; the message
    says so. A jump-free P that fails the gate gets no such cause."""
    P = linear(G, 0.5, 1.0)
    P1 = counterfactual_report(MEAN, MEDIAN, P, information_metric(),
                               0.02).counterfactual
    assert len(P1.terms) == 1
    with pytest.raises(SensanError, match=(
            r"gradient norm of nu disagrees between code paths: "
            r"0\.183529\d* vs 0\.183532\d*; P has jumps, .*"
            r"ramp across one cell")):
        sensitivity(MEAN, MEDIAN, P1, policy_metric(P1, U))
    B = beta(G, 2.0, 5.0)
    with pytest.raises(SensanError) as exc:
        sensitivity(MEDIAN, variance(), B, policy_metric(B, P))
    assert "disagrees between code paths" in str(exc.value)
    assert "jumps" not in str(exc.value)


def test_degenerate_control_is_rejected():
    zero = TangentVector(U, np.zeros(G.shape), _centered=True)
    with pytest.raises(SensanError, match="degenerate gradient"):
        sensitivity_from_influences(influence(MEAN, U), zero,
                                    information_metric())


def _numerical_vs_chain_rule(P, nu, metric):
    """S of mean/median through the numerical influence route, and S from
    the chain rule d(m/q) = dm/q - m dq/q^2 of the analytic influences."""
    S = sensitivity(mean_over_median(), nu, P, metric).S
    m, q = evaluate(MEAN, P), evaluate(MEDIAN, P)
    chain = influence(MEAN, P).scale(1.0 / q).add(
        influence(MEDIAN, P).scale(-m / q ** 2))
    ref = sensitivity_from_influences(chain, influence(nu, P), metric).S
    return S, ref


def test_numerical_sensitivity_near_the_median_information_metric():
    """nu a quantile next to the median on a 201-node quadratic density:
    the median's jump, smoothed over the bump width, must integrate to
    within 2e-2 (1 + |S|) of the chain rule."""
    g = Grid.line(0.0, 1.0, 201)
    P = quadratic(g, 0.4113, 1.2739, 0.7484)
    S, ref = _numerical_vs_chain_rule(P, quantile_functional(0.499),
                                      information_metric())
    assert abs(S - ref) <= 2e-2 * (1.0 + abs(ref))


def test_numerical_sensitivity_near_the_median_policy_metric():
    g = Grid.line(0.0, 1.0, 201)
    P = linear(g, 0.4226, 0.8881)
    metric = policy_metric(P, quadratic(g, 0.7154, 2.2979, 0.3446))
    S, ref = _numerical_vs_chain_rule(P, quantile_functional(0.502), metric)
    assert abs(S - ref) <= 2e-2 * (1.0 + abs(ref))


def test_report_invariants_reject_inconsistent_fields():
    ok = dict(psi_label="p", nu_label="n", metric_kind="information",
              psi_value=0.5, nu_value=0.5, dpsi_dnu=0.125, S=0.5, R=0.75,
              grad_norm_psi=math.sqrt(1.0 / 12.0), grad_norm_nu=0.5,
              Lambda=0.5, Delta=0.75)
    SensitivityReport(**ok)
    with pytest.raises(SensanError, match="outside \\[0, 1\\]"):
        SensitivityReport(**{**ok, "R": 1.2})
    with pytest.raises(SensanError, match="R identity"):
        SensitivityReport(**{**ok, "R": 0.5})
    with pytest.raises(SensanError, match="S identity"):
        SensitivityReport(**{**ok, "S": 0.4})


def test_report_serialization():
    rep = sensitivity(MEAN, MEDIAN, U, information_metric())
    d = rep.to_json_dict()
    assert set(d) == {"psi_label", "nu_label", "metric_kind", "psi_value",
                      "nu_value", "dpsi_dnu", "S", "R", "grad_norm_psi",
                      "grad_norm_nu", "Lambda", "Delta"}
    assert d["psi_label"] == "mean"


def test_counterfactual_density_median_direction():
    """The median gradient is a step of size -+1/2, so the multiplicative
    path scales the two halves by 1 -+ h/2 exactly."""
    d = influence(MEDIAN, U)
    Ph = counterfactual_density(U, d, 0.1)
    assert abs(Ph.values[80] - 0.95) < 1e-12
    assert abs(Ph.values[720] - 1.05) < 1e-12
    assert abs(integrate(np.ones(G.shape), Ph) - 1.0) < 1e-12
    # the left scale applies up to the cut, which sits at the median
    assert abs(quantile(Ph, 0.475) - 0.5) < 1e-6


def test_counterfactual_zero_step_returns_base():
    d = influence(MEDIAN, U)
    assert counterfactual_density(U, d, 0.0) is U


def test_counterfactual_step_bound():
    d = influence(MEDIAN, U)
    with pytest.raises(SensanError, match="max admissible h = 2"):
        counterfactual_density(U, d, 3.0)


def test_counterfactual_requires_tangent_direction():
    # a direction anchored at a different density cannot be applied
    other = linear(G, 0.5, 1.0)
    d = influence(MEDIAN, other)
    with pytest.raises(SensanError, match="not tangent at the given density"):
        counterfactual_density(U, d, 0.1)


@pytest.mark.parametrize("other, same", [
    (lambda: uniform(Grid.line(0.0, 1.0, 801)), True),   # an equal copy
    (lambda: uniform(Grid.line(1.0, 2.0, 801)), False),  # equal values, other grid
])
def test_directions_and_tangent_pairs_share_one_base_test(other, same):
    """counterfactual_density and the tangent pairing accept the same
    bases, each with its own message for the rest (other node values:
    test_counterfactual_requires_tangent_direction)."""
    Q = other()
    d = influence(MEDIAN, Q)
    if same:
        moved = counterfactual_density(U, d, 0.1)
        want = counterfactual_density(Q, d, 0.1)
        assert np.array_equal(moved.values, want.values)
        assert inner_p(d, influence(MEDIAN, U)) == inner_p(d, d)
        return
    with pytest.raises(SensanError, match="not tangent at the given density"):
        counterfactual_density(U, d, 0.1)
    with pytest.raises(SensanError, match="mismatched bases"):
        inner_p(d, influence(MEDIAN, U))


def test_counterfactual_unknown_path():
    d = influence(MEDIAN, U)
    with pytest.raises(SensanError, match="unknown counterfactual path"):
        counterfactual_density(U, d, 0.1, path="geodesic")


def test_exponential_path():
    d = influence(MEDIAN, U)
    Ph = counterfactual_density(U, d, 0.4, path="exponential")
    assert np.all(Ph.values > 0.0)
    assert abs(integrate(np.ones(G.shape), Ph) - 1.0) < 1e-12
    assert quantile(Ph, 0.5) > 0.5
    # exponential tilt of a step direction is a two-level reweighting
    assert abs(Ph.values[100] / Ph.values[700] - math.exp(-0.4)) < 1e-9


def test_exponential_path_takes_nine_jumps():
    """Nine one-cut terms on the uniform tilt to at most one term per box
    (ten boxes, the whole grid among them), with node values
    exp(h * sum of the active jumps) over their exact integral."""
    q = [0.1 * k for k in range(1, 10)]
    terms = tuple(CutTerm(((0, c),), np.full(G.shape, 0.01)) for c in q)
    d = TangentVector(U, np.zeros(G.shape), terms=terms)
    h = 5.0
    Ph = counterfactual_density(U, d, h, path="exponential")
    assert len(Ph.terms) <= 9
    active = 0.01 * (G.axes[0].nodes[:, None] <= np.array(q)).sum(axis=1)
    # on (q_j, q_j+1] the jumps of q_j+1 .. q_9 are active
    mass = np.dot(np.diff([0.0] + q + [1.0]),
                  np.exp(h * 0.01 * np.arange(9, -1, -1)))
    assert np.max(np.abs(Ph.values - np.exp(h * active) / mass)) < 1e-12


def test_counterfactual_report_first_order_step():
    """target = 0.025 on the uniform median gives h = 0.1 and an achieved
    increment 0.025/1.05 along the exact path nu(h) = 1/2 + h/(4 + 2h)."""
    rep = counterfactual_report(MEAN, MEDIAN, U, information_metric(), 0.025)
    assert abs(rep.h - 0.1) < 1e-9
    assert abs(rep.nu_after - (0.5 + 0.025 / 1.05)) < 1e-7
    gap = abs(rep.nu_after - rep.nu_before - rep.target_increment)
    assert gap < rep.tolerance
    assert abs(rep.predicted_psi_after - (0.5 + 0.5 * 0.025)) < 1e-9


def test_counterfactual_report_refine_hits_target():
    rep = counterfactual_report(MEAN, MEDIAN, U, information_metric(), 0.025,
                                refine=True)
    # solving 0.25 h / (1 + h/2) = 0.025 gives h = 0.2/1.9
    assert abs(rep.h - 0.2 / 1.9) < 1e-7
    assert abs(rep.nu_after - 0.525) < 1e-8


def test_counterfactual_refinement_failure_names_the_gap_and_steps(monkeypatch):
    """The Beta(2, 5) median moved by -0.1 takes more than one secant step,
    so with the cap at one the refinement fails, naming what it missed by
    and how many steps it took."""
    monkeypatch.setattr("sensan.engine._REFINE_STEPS", 1)
    B25 = beta(G, 2.0, 5.0)
    with pytest.raises(SensanError, match=r"did not reach the target "
                       r"increment: \|achieved - target\| = \S+ after 1 "
                       r"secant steps$"):
        counterfactual_report(MEAN, MEDIAN, B25, information_metric(), -0.1,
                              refine=True)


def test_counterfactual_report_zero_target():
    rep = counterfactual_report(MEAN, MEDIAN, U, information_metric(), 0.0)
    assert rep.h == 0.0
    assert rep.nu_after == rep.nu_before
    assert rep.psi_after == rep.psi_before


def test_counterfactual_report_validation():
    Ph = counterfactual_density(U, influence(MEDIAN, U), 0.1)
    with pytest.raises(SensanError, match="misses the target"):
        CounterfactualReport(
            h=0.1, target_increment=0.5, nu_before=0.5, nu_after=0.51,
            psi_before=0.5, psi_after=0.51, predicted_psi_after=0.75,
            tolerance=1e-4, counterfactual=Ph)


def test_counterfactual_report_serialization():
    rep = counterfactual_report(MEAN, MEDIAN, U, information_metric(), 0.025)
    d = rep.to_json_dict()
    assert d["counterfactual"]["axes"] == [[0.0, 1.0, 801]]
    assert len(d["counterfactual"]["values"]) == 801


def test_verify_first_order_quadratic_remainder():
    chk = verify_first_order(variance(), MEDIAN, U, information_metric(),
                             [1e-2, 5e-3, 2.5e-3])
    assert 1.7 < chk.slope_nu < 2.3
    assert 1.7 < chk.slope_psi < 2.3
    assert len(chk.rows) == 3
    hs = [r[0] for r in chk.rows]
    assert hs == [1e-2, 5e-3, 2.5e-3]


def test_verify_first_order_linear_functional_has_no_remainder():
    # the mean is exactly linear along multiplicative paths
    chk = verify_first_order(MEAN, MEDIAN, U, information_metric(),
                             [1e-2, 5e-3, 2.5e-3])
    assert math.isnan(chk.slope_psi)
    assert all(r[2] < 1e-12 for r in chk.rows)


def test_verify_first_order_validates_steps():
    for bad in ([1e-2, 5e-3], [1e-2, 5e-3, 5e-3], [1e-2, -5e-3, 1e-3]):
        with pytest.raises(SensanError, match="three decreasing positive"):
            verify_first_order(MEAN, MEDIAN, U, information_metric(), bad)


def test_first_order_check_serialization():
    chk = verify_first_order(variance(), MEDIAN, U, information_metric(),
                             [1e-2, 5e-3, 2.5e-3])
    d = chk.to_json_dict()
    assert len(d["rows"]) == 3
    assert {"h", "nu_error", "psi_error"} == set(d["rows"][0])


def _same_field(a, b):
    """Bitwise equality of two piecewise fields, cut terms included."""
    assert np.array_equal(a.smooth, b.smooth)
    assert len(a.terms) == len(b.terms)
    for s, t in zip(a.terms, b.terms):
        assert s.cuts == t.cuts
        assert np.array_equal(s.samples, t.samples)
    assert np.array_equal(a.values, b.values)


G2 = Grid.box((0.0, 1.0), (0.0, 1.0), (41, 41))
P2 = GridDensity.from_callable(G2, lambda x, y: 1.0 + x * y)


@pytest.mark.parametrize("psi, nu, P, metric, target", [
    (MEAN, MEDIAN, U, information_metric(), 0.025),
    (variance(), MEDIAN, U, policy_metric(U, linear(G, 0.5, 1.0)), 0.02),
    (MEAN, quantile_functional(0.3), beta(G, 2.0, 5.0), information_metric(),
     0.01),
    (moment(lambda x, y: x * y), quantile_functional(0.5, axis=1), P2,
     policy_metric(P2, GridDensity.from_callable(G2, lambda x, y: 1.0 + x)),
     0.01),
], ids=["information", "policy", "quantile-jump", "2d"])
def test_counterfactual_report_carries_its_sensitivity(psi, nu, P, metric,
                                                       target):
    """The report's sensitivity is the one `sensitivity` computes, to the
    bit, and its nu_gradient is the metric gradient of nu's influence."""
    cf = counterfactual_report(psi, nu, P, metric, target)
    rep = sensitivity(psi, nu, P, metric)
    assert cf.sensitivity.to_json_dict() == rep.to_json_dict()
    _same_field(cf.sensitivity.psi_influence, influence(psi, P))
    _same_field(cf.sensitivity.nu_influence, influence(nu, P))
    _same_field(cf.sensitivity.nu_gradient, rep.nu_gradient)
    _same_field(cf.sensitivity.nu_gradient,
                grad_op_apply(influence(nu, P), metric))
    assert cf.predicted_psi_after == rep.psi_value + rep.S * target
    # the extra fields stay out of the JSON form
    assert "sensitivity" not in cf.to_json_dict()
