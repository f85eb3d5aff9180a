"""Acceptance checks.

Twelve numbered end-to-end criteria, each printing one PASS/FAIL line
with its wall-clock time (run with -s to see the lines as they go).
Every check has a runtime budget; the slow Monte Carlo ones dominate.
"""

import json
import os
import time

import numpy as np
from bundles import (first_order_cases, influence_densities,
                     sensitivity_cases, trunc_std_normal,
                     two_moment_misspecified, two_moment_population,
                     two_moment_spec, uniform01, unit_grid)

from sensan import (Multinomial, RatioKde, RatioKnown, TangentVector,
                    build_chart, coord_functional, coordinate_gradient,
                    counterfactual_density, gmm_efficient_influence,
                    gmm_influence, gmm_out_direction, gmm_project_tangent,
                    gmm_solve, grad_op_apply, grad_op_inverse,
                    influence_analytic, influence_numerical,
                    information_matrix, information_metric, inner_p,
                    likelihood_ratio, mc_consistency, mc_joint_asymptotics,
                    mc_joint_multinomial, moment, policy_metric, quantile,
                    quantile_functional, sensitivity, surface_sensitivity,
                    variance, verify_first_order)
from sensan.education import replicate_education
from sensan.families import linear, quadratic
from sensan.functionals import default_schedule


def _criterion(num, budget, body):
    """Run one acceptance check, print its verdict, enforce the budget."""
    t0 = time.perf_counter()
    try:
        detail = body()
        dt = time.perf_counter() - t0
        if dt >= budget:
            raise AssertionError(
                f"runtime {dt:.2f}s exceeds the {budget:.0f}s budget")
    except BaseException:
        print(f"criterion {num:02d}: FAIL")
        raise
    print(f"criterion {num:02d}: PASS in {dt:.2f}s ({detail})")


def _mean():
    return moment(lambda x: x, label="mean")


def test_criterion_01_sphere_closed_form():
    # trinomial sphere chart: S(u, v) = -uv at every interior point
    def body():
        chart = build_chart("sphere")
        pu, pv = coord_functional("u"), coord_functional("v")
        ts = np.arange(1, 21) / 42.0
        worst_a = worst_n = 0.0
        for u in ts:
            for v in ts:
                s = surface_sensitivity(chart, pu, pv, (u, v))
                worst_a = max(worst_a, abs(s + u * v))
                s = surface_sensitivity(chart, pu, pv, (u, v),
                                        mode="numerical")
                worst_n = max(worst_n, abs(s + u * v))
        assert worst_a < 1e-10
        assert worst_n < 1e-6
        return f"analytic err {worst_a:.1e}, numerical err {worst_n:.1e}"

    _criterion(1, 1.0, body)


def test_criterion_02_coordinate_gradient_reconstruction():
    # pairing the metric gradient back against the coordinate scores must
    # return the raw partials, on every built-in chart
    def body():
        rng = np.random.default_rng(42)
        pool = ("u", "v", "u*v", "u**2", "v**2", "u**2*v", "u*v**2",
                "u**3", "v**3", "u**2*v**2")
        charts = (("sphere", build_chart("sphere")),
                  ("flat", build_chart("flat")),
                  ("hyperbolic", build_chart("hyperbolic")))
        sphere_scores = build_chart("sphere").scores
        worst = 0.0
        for _ in range(50):
            coeffs = rng.integers(-3, 4, size=len(pool))
            terms = [f"{c}*{t}" for c, t in zip(coeffs, pool) if c != 0]
            f = coord_functional(" + ".join(terms) if terms else "u")
            pts = {"sphere": tuple(rng.uniform(0.05, 0.45, size=2)),
                   "flat": tuple(rng.uniform(-2.0, 2.0, size=2)),
                   "hyperbolic": (rng.uniform(-2.0, 2.0),
                                  rng.uniform(0.2, 3.0))}
            for name, chart in charts:
                at = pts[name]
                a, b = coordinate_gradient(chart, f, at)
                rec = information_matrix(chart, at) @ np.array([a, b])
                p = np.array([float(f.fu(*at)), float(f.fv(*at))])
                worst = max(worst, float(np.max(np.abs(rec - p))))
                if name == "sphere":
                    # same pairing through the ambient score vectors
                    xu, xv = sphere_scores(*at)
                    g = a * np.asarray(xu) + b * np.asarray(xv)
                    amb = np.array([g @ xu, g @ xv])
                    worst = max(worst, float(np.max(np.abs(amb - p))))
        assert worst < 1e-10
        return f"max abs err {worst:.1e} over 50 draws x 3 charts"

    _criterion(2, 1.0, body)


def test_criterion_03_gradient_operator_round_trip():
    def body():
        rng = np.random.default_rng(7)
        G = unit_grid()
        x = G.axes[0].nodes
        worst = 0.0
        for _ in range(50):
            # strictly positive quadratic pair keeps dP/dQ bounded
            P = quadratic(G, rng.uniform(0.3, 1.0), rng.uniform(0.0, 2.0),
                          rng.uniform(0.2, 0.8))
            Q = quadratic(G, rng.uniform(0.3, 1.0), rng.uniform(0.0, 2.0),
                          rng.uniform(0.2, 0.8))
            metric = policy_metric(P, Q)
            c = rng.normal(size=4)
            v = TangentVector(P, c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3)
            back = grad_op_inverse(grad_op_apply(v, metric), metric)
            diff = v.add(back.scale(-1.0))
            worst = max(worst, float(np.sqrt(inner_p(diff, diff))))
        assert worst < 1e-8
        return f"max L2(P) round-trip err {worst:.1e}"

    _criterion(3, 5.0, body)


def test_criterion_04_policy_metric_collapses_at_p():
    def body():
        cases = sensitivity_cases()
        worst = 0.0
        for label, psi, nu, P in cases:
            a = sensitivity(psi, nu, P, information_metric())
            b = sensitivity(psi, nu, P, policy_metric(P, P))
            worst = max(worst, abs(a.S - b.S), abs(a.dpsi_dnu - b.dpsi_dnu))
        assert worst < 1e-8
        return f"max gap {worst:.1e} over {len(cases)} cases"

    _criterion(4, 5.0, body)


def test_criterion_05_mean_median_benchmark_values():
    def body():
        med = quantile_functional(0.5)
        s_u = sensitivity(_mean(), med, uniform01(), information_metric()).S
        s_t = sensitivity(_mean(), med, trunc_std_normal(),
                          information_metric()).S
        assert abs(s_u - 0.5) < 1e-3
        assert abs(s_t - 2.0 / np.pi) < 1e-3
        return f"uniform S {s_u:.6f}, trunc normal S {s_t:.6f}"

    _criterion(5, 2.0, body)


def test_criterion_06_counterfactual_remainder_slopes():
    def body():
        details = []
        for label, psi, nu, metric, P in first_order_cases():
            chk = verify_first_order(psi, nu, P, metric,
                                     (1e-2, 5e-3, 2.5e-3))
            assert 1.7 < chk.slope_nu < 2.3, label
            assert 1.7 < chk.slope_psi < 2.3, label
            details.append(f"{chk.slope_nu:.2f}/{chk.slope_psi:.2f}")
        return "nu/psi slopes " + ", ".join(details)

    _criterion(6, 10.0, body)


def test_criterion_07_numerical_influence_matches_analytic():
    # The built-in kinds take the numerical route toward point masses and
    # carry no edge bias. A composite's mollified point mass near a domain
    # edge loses tail mass, which biases its route linearly in sigma right
    # at the boundary, the same smoothing artifact as at the median kink;
    # so each comparison stays 2 sigma0 away from both the edges and the
    # kink, the zones of the ladder that composites still take.
    def body():
        med = quantile_functional(0.5)
        worst_smooth = worst_med = 0.0
        for name, P in influence_densities():
            x = P.grid.axes[0].nodes
            s0 = default_schedule(P.grid).sigma0
            inside = (x >= x[0] + 2 * s0) & (x <= x[-1] - 2 * s0)
            for F in (_mean(), variance()):
                err = np.abs(influence_numerical(F, P).values
                             - influence_analytic(F, P).values)
                worst_smooth = max(worst_smooth, float(np.max(err[inside])))
            err = np.abs(influence_numerical(med, P).values
                         - influence_analytic(med, P).values)
            keep = inside & (np.abs(x - quantile(P, 0.5)) > 2 * s0)
            worst_med = max(worst_med, float(np.max(err[keep])))
        assert worst_smooth < 1e-2
        assert worst_med < 5e-2
        return (f"smooth sup {worst_smooth:.1e}, "
                f"median sup {worst_med:.1e} outside the smoothing zones")

    _criterion(7, 60.0, body)


def test_criterion_08_gmm_projection_identities():
    def body():
        P = two_moment_population()
        spec = two_moment_spec()
        sol = gmm_solve(P, spec, np.eye(2))
        infl = gmm_influence(P, spec, sol)[0]
        var_i = inner_p(infl, infl)
        assert abs(var_i - 1.32) < 1e-3
        eff = gmm_efficient_influence(P, spec, sol)[0]
        var_e = inner_p(eff, eff)
        assert abs(var_e - 1.0) < 1e-3
        proj = gmm_project_tangent(P, spec, sol, infl)
        diff = proj.add(eff.scale(-1.0))
        assert float(np.sqrt(inner_p(diff, diff))) < 1e-8
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(5):
            out = gmm_out_direction(P, spec, sol, rng.normal(size=2))
            worst = max(worst, abs(inner_p(eff, out)))
        assert worst < 1e-8
        return (f"identity-weight var {var_i:.4f}, efficient var "
                f"{var_e:.4f}, max |<eff, out>| {worst:.1e}")

    _criterion(8, 10.0, body)


def test_criterion_09_misspecified_influence_is_first_order():
    def body():
        P = two_moment_misspecified()
        spec = two_moment_spec()
        W = np.eye(2)
        sol = gmm_solve(P, spec, W)
        psi_t = gmm_influence(P, spec, sol)[0]
        theta0 = float(sol.theta[0])
        z = (P.grid.axes[0].nodes - 1.0) / 8.0
        rng = np.random.default_rng(17)
        ts = np.array([1e-2, 5e-3, 2.5e-3])
        slopes = []
        for _ in range(10):
            c = rng.normal(size=3)
            d = TangentVector(P, c[0] * z + c[1] * z**2 + c[2] * z**3)
            pred = inner_p(psi_t, d)
            rem = []
            for t in ts:
                sol_t = gmm_solve(counterfactual_density(P, d, float(t)),
                                  spec, W)
                rem.append(abs(float(sol_t.theta[0]) - theta0
                               - float(t) * pred))
            slope = float(np.polyfit(np.log(ts), np.log(rem), 1)[0])
            assert 1.7 < slope < 2.3, f"slope {slope:.3f}"
            slopes.append(slope)
        return f"remainder slopes {min(slopes):.2f}..{max(slopes):.2f}"

    _criterion(9, 60.0, body)


def test_criterion_10_joint_asymptotics_recover_the_theory():
    def body():
        med = quantile_functional(0.5)
        res = mc_joint_asymptotics(trunc_std_normal(), _mean(), med,
                                   5000, 1000, 7)
        lam_err = abs(res.lambda_hat - 2.0 / np.pi)
        assert lam_err < 0.07
        res2 = mc_joint_multinomial(Multinomial((0.5, 0.3, 0.2)), 0, 1,
                                    5000, 1000, 7)
        cov = float(res2.empirical_cov[5000][0, 1])
        assert abs(cov + 0.15) < 0.02
        return (f"|lambda_hat - 2/pi| = {lam_err:.4f}, "
                f"multinomial cross cov {cov:.4f} vs -0.15")

    _criterion(10, 300.0, body)


def test_criterion_11_plugin_estimators_are_consistent():
    def body():
        U = uniform01()
        Q = linear(U.grid, 0.5, 1.0)
        med = quantile_functional(0.5)
        pop = sensitivity(_mean(), med, U, policy_metric(U, Q)).dpsi_dnu
        details = []
        for label, est in (("known", RatioKnown(likelihood_ratio(U, Q))),
                           ("kde", RatioKde(Q))):
            res = mc_consistency(U, _mean(), med, est, (500, 2000, 8000),
                                 200, 11, pop)
            r1 = res.rmse[2000] / res.rmse[500]
            r2 = res.rmse[8000] / res.rmse[2000]
            assert r1 < 0.75 and r2 < 0.75, label
            details.append(f"{label} {r1:.2f}/{r2:.2f}")
        return "rmse ratios " + ", ".join(details)

    _criterion(11, 300.0, body)


def test_criterion_12_education_reconstruction(tmp_path):
    # the published table itself is out of reach (its inputs exist only
    # as figures); the check is self-consistency of the reconstruction
    def body():
        run = replicate_education(str(tmp_path))
        worst_nu = worst_gap = 0.0
        for row in run.rows:
            worst_nu = max(worst_nu,
                           abs(row.nu_after - run.nu_before - 0.1))
            worst_gap = max(worst_gap, row.psi_gap)
        assert worst_nu < 0.01
        assert worst_gap < 0.01
        with open(os.path.join(str(tmp_path), "report.json")) as fh:
            rep = json.load(fh)
        assert "only as figures" in rep["note"]
        return (f"median increment err {worst_nu:.1e}, max first-order "
                f"gap {worst_gap:.1e} across {len(run.rows)} metrics")

    _criterion(12, 30.0, body)
