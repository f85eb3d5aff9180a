import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensan.functionals
from sensan import (Grid, GridDensity, PluginConfig, RatioInformation,
                    Sample, estimated_influence, evaluate, information_metric,
                    parse_functional, plugin_sensitivity, sample_from,
                    sensitivity, variance)
from sensan.cli import main
from sensan.families import linear, uniform

MEAN_MEDIAN = {
    "grid": {"lo": 0.0, "hi": 1.0, "n": 801},
    "distribution": {"family": "uniform"},
    "psi": {"kind": "moment", "rho": "x"},
    "nu": {"kind": "quantile", "tau": 0.5},
    "metric": {"kind": "information"},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_sensitivity_mean_median(tmp_path, capsys):
    cfg = _write(tmp_path, "mm.json", MEAN_MEDIAN)
    assert main(["sensitivity", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("S = ")
    s = float(out.split()[2])
    assert abs(s - 0.5) < 1e-3


def test_sensitivity_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "mm.json", MEAN_MEDIAN)
    out_dir = tmp_path / "art"
    assert main(["sensitivity", "--config", cfg, "--out", str(out_dir)]) == 0
    rep = json.loads((out_dir / "report.json").read_text())
    assert abs(rep["S"] - 0.5) < 1e-3
    assert rep["metric_kind"] == "information"
    header = (out_dir / "curves" / "influence.csv").read_text().splitlines()[0]
    assert header == "x,psi,nu,grad_nu"
    assert (out_dir / "plots" / "influence.svg").read_text().startswith("<svg")


def test_sensitivity_artifacts_reuse_the_report_influences(tmp_path, capsys,
                                                          monkeypatch):
    calls = []
    orig = sensan.functionals.influence_analytic

    def counted(F, P):
        calls.append(F.label)
        return orig(F, P)

    monkeypatch.setattr(sensan.functionals, "influence_analytic", counted)
    cfg = _write(tmp_path, "mm.json", MEAN_MEDIAN)
    assert main(["sensitivity", "--config", cfg, "--out",
                 str(tmp_path / "art")]) == 0
    assert len(calls) == 2


def test_sensitivity_policy_metric(tmp_path, capsys):
    cfg_dict = dict(MEAN_MEDIAN)
    cfg_dict["metric"] = {"kind": "policy",
                          "density": {"family": "linear", "intercept": 0.5,
                                      "slope": 1.0}}
    cfg = _write(tmp_path, "pol.json", cfg_dict)
    assert main(["sensitivity", "--config", cfg]) == 0
    s = float(capsys.readouterr().out.split()[2])
    assert abs(s - 0.5) > 1e-3    # the policy geometry moves S off 1/2


def test_grid_override_flag(tmp_path, capsys):
    cfg = _write(tmp_path, "mm.json", MEAN_MEDIAN)
    assert main(["sensitivity", "--config", cfg, "--grid", "201"]) == 0
    assert abs(float(capsys.readouterr().out.split()[2]) - 0.5) < 1e-3


def test_missing_config_file_names_the_path(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["sensitivity", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert missing in err
    assert "config key 'config'" in err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sensitivity", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_functional_key(tmp_path, capsys):
    cfg_dict = {k: v for k, v in MEAN_MEDIAN.items() if k != "psi"}
    cfg = _write(tmp_path, "nopsi.json", cfg_dict)
    assert main(["sensitivity", "--config", cfg]) == 2
    assert "config key 'psi'" in capsys.readouterr().err


def test_unknown_metric_kind(tmp_path, capsys):
    cfg_dict = dict(MEAN_MEDIAN)
    cfg_dict["metric"] = {"kind": "hyperbolic"}
    cfg = _write(tmp_path, "bad.json", cfg_dict)
    assert main(["sensitivity", "--config", cfg]) == 2
    assert "config key 'metric'" in capsys.readouterr().err


def test_non_whitelisted_expression_is_a_config_error(tmp_path, capsys):
    cfg_dict = dict(MEAN_MEDIAN)
    cfg_dict["psi"] = {"kind": "moment", "rho": "exp(x)"}
    cfg = _write(tmp_path, "expr.json", cfg_dict)
    assert main(["sensitivity", "--config", cfg]) == 2
    assert "config key 'psi'" in capsys.readouterr().err


def test_expressions_outside_the_whitelist_are_config_errors(tmp_path, capsys):
    texts = ("pi*x", "E*x", "oo*x", "nan", "I*x", "S", "x.real", "x/0",
             "x if x else 1", "x/x", "-" * 5000 + "x", "+".join(["x"] * 3000))
    for text in texts:
        cfg_dict = dict(MEAN_MEDIAN)
        cfg_dict["psi"] = {"kind": "moment", "rho": text}
        cfg = _write(tmp_path, "expr.json", cfg_dict)
        assert main(["sensitivity", "--config", cfg]) == 2, text
        assert "config key 'psi'" in capsys.readouterr().err, text
        surface = ["surface", "--chart", "sphere", "--point", "0.2", "0.3",
                   "--psi=" + text.replace("x", "u"), "--nu", "v"]
        assert main(surface) == 2, text
        assert "config key 'psi'" in capsys.readouterr().err, text


def test_bad_moment_expression_names_the_moments_key(tmp_path, capsys):
    cfg = _write(tmp_path, "gm.json", {
        "grid": {"lo": -7.0, "hi": 9.0, "n": 401},
        "distribution": {"family": "truncated_normal", "mean": 1.0,
                         "sd": 1.0},
        "moments": ["x - zeta0"],
        "theta_dim": 1,
        "bounds": [[-3.0, 3.0]],
    })
    assert main(["gmm", "--config", cfg]) == 2
    assert "config key 'moments'" in capsys.readouterr().err


def test_computation_failure_exits_one(tmp_path, capsys):
    cfg_dict = dict(MEAN_MEDIAN)
    cfg_dict["target_increment"] = 10.0
    cfg = _write(tmp_path, "big.json", cfg_dict)
    assert main(["counterfactual", "--config", cfg]) == 1
    assert "step too large" in capsys.readouterr().err


def test_non_numeric_grid_size_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.json", {**MEAN_MEDIAN, "grid": {"n": "abc"}})
    assert main(["sensitivity", "--config", cfg]) == 2
    assert "config key 'grid'" in capsys.readouterr().err


def test_non_numeric_family_parameter_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "fam.json", {**MEAN_MEDIAN, "distribution": {
        "family": "linear", "intercept": "x", "slope": 1.0}})
    assert main(["sensitivity", "--config", cfg]) == 2
    assert "config key 'intercept'" in capsys.readouterr().err


def test_non_numeric_surface_point_is_a_config_error(capsys):
    assert main(["surface", "--chart", "sphere", "--point", "abc", "0.3",
                 "--psi", "u", "--nu", "v"]) == 2
    assert "config key 'point'" in capsys.readouterr().err


def test_dual_path_failure_names_the_ratio_clamp(tmp_path, capsys):
    cfg = _write(tmp_path, "clamp.json", {**MEAN_MEDIAN, "metric": {
        "kind": "policy", "density": {"family": "linear",
                                      "intercept": 0.0001, "slope": 5.0}}})
    assert main(["sensitivity", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "disagrees between code paths" in err
    assert "likelihood ratio dP/dQ was clamped into [0.001, 1000]" in err


def test_counterfactual_artifacts(tmp_path, capsys):
    cfg_dict = dict(MEAN_MEDIAN)
    cfg_dict.update(target_increment=0.025, refine=True)
    cfg = _write(tmp_path, "cf.json", cfg_dict)
    out_dir = tmp_path / "cf_art"
    assert main(["counterfactual", "--config", cfg,
                 "--out", str(out_dir)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("h = ")
    rep = json.loads((out_dir / "report.json").read_text())
    assert abs(rep["nu_after"] - 0.525) < 1e-6
    assert abs(rep["h"] - 0.2 / 1.9) < 1e-6
    assert (out_dir / "curves" / "counterfactual.csv").exists()
    assert (out_dir / "curves" / "densities.csv").exists()
    assert (out_dir / "plots" / "densities.svg").exists()


@pytest.mark.parametrize("dist,tau,target,path", [
    ({"family": "beta", "alpha": 2, "beta": 5}, 0.5, -0.1, "multiplicative"),
    ({"family": "uniform"}, 0.9, 0.05, "multiplicative"),
    ({"family": "linear", "intercept": 0.5, "slope": 1}, 0.5, 0.2,
     "exponential")], ids=["beta25-median", "uniform-q90", "linear-exp"])
def test_refinement_reaches_targets_past_five_secant_steps(tmp_path, capsys,
                                                           dist, tau, target,
                                                           path):
    """Each of these takes six to nine secant steps to come within 1e-8 of
    the target increment."""
    cfg = _write(tmp_path, "cf.json", {
        "distribution": dist, "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": tau}, "target_increment": target,
        "refine": True, "path": path})
    out_dir = tmp_path / "cf"
    assert main(["counterfactual", "--config", cfg, "--out", str(out_dir)]) == 0
    rep = json.loads((out_dir / "report.json").read_text())
    assert abs(rep["nu_after"] - rep["nu_before"] - target) <= 1e-8


def test_gmm_two_moment_case(tmp_path, capsys):
    cfg = _write(tmp_path, "gmm.json", {
        "grid": {"lo": -7.0, "hi": 9.0, "n": 801},
        "distribution": {"family": "truncated_normal", "mean": 1.0,
                         "sd": 1.0},
        "moments": ["x - th0", "x*x - th0*th0 - 1"],
        "theta_dim": 1,
        "bounds": [[-3.0, 3.0]],
        "weight": "identity",
    })
    out_dir = tmp_path / "gmm_art"
    assert main(["gmm", "--config", cfg, "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "specified = True" in text
    rep = json.loads((out_dir / "report.json").read_text())
    assert abs(rep["theta"][0] - 1.0) < 1e-8
    assert abs(rep["var_weighted"][0] - 1.32) < 1e-6
    assert abs(rep["var_efficient"][0] - 1.0) < 1e-6
    header = (out_dir / "curves" /
              "influences.csv").read_text().splitlines()[0]
    assert header == "x,influence_0,efficient_0"


def test_gmm_missing_required_key(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {
        "distribution": {"family": "uniform"},
        "moments": ["x - th0"], "theta_dim": 1})
    assert main(["gmm", "--config", cfg]) == 2
    assert "config key 'bounds'" in capsys.readouterr().err


def test_gmm_bad_weight(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {
        "distribution": {"family": "uniform"},
        "moments": ["x - th0"], "theta_dim": 1, "bounds": [[-1.0, 1.0]],
        "weight": "fast"})
    assert main(["gmm", "--config", cfg]) == 2
    assert "config key 'weight'" in capsys.readouterr().err


def test_surface_point_value(capsys):
    assert main(["surface", "--chart", "sphere", "--point", "0.33333",
                 "0.33333", "--psi", "u", "--nu", "v"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val + 0.11111) < 1e-5


def test_surface_numerical_mode_and_report(tmp_path, capsys):
    assert main(["surface", "--chart", "sphere", "--point", "0.4", "0.3",
                 "--psi", "u", "--nu", "v", "--mode", "numerical",
                 "--out", str(tmp_path)]) == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val + 0.12) < 1e-6
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["mode"] == "numerical"
    # stdout rounds to 8 decimals, the report keeps full precision
    assert abs(rep["sensitivity"] - val) < 1e-8


def test_mc_joint_multinomial(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", {
        "mode": "joint",
        "distribution": {"family": "multinomial", "probs": [0.5, 0.3, 0.2]},
        "cells": [0, 1], "n": 2000, "reps": 300, "seed": 5,
    })
    out_dir = tmp_path / "mc_art"
    assert main(["mc", "--config", cfg, "--out", str(out_dir)]) == 0
    assert "Lambda_hat" in capsys.readouterr().out
    rep = json.loads((out_dir / "report.json").read_text())
    cov = np.asarray(rep["covariance"]["2000"])
    assert abs(cov[0, 1] + 0.15) < 0.02
    header = (out_dir / "table.csv").read_text().splitlines()[0]
    assert header == "n,rep,psi_hat,nu_hat"


@pytest.mark.parametrize("case", ["multinomial", "1d"])
def test_mc_joint_takes_a_multiword_seed(tmp_path, capsys, case):
    """A seed of 2**64 + 5, three uint32 words to SeedSequence, runs, and
    the table holds the estimates of a loop that builds each replication's
    generator from SeedSequence((seed, n, rep))."""
    seed, n, reps = 2 ** 64 + 5, 300, 12
    probs = [0.5, 0.3, 0.2]
    if case == "multinomial":
        cfg = {"distribution": {"family": "multinomial", "probs": probs},
               "cells": [2, 0]}
    else:
        cfg = {**MEAN_MEDIAN, "grid": {"lo": 0.0, "hi": 1.0, "n": 201}}
    path = _write(tmp_path, "mc.json", {**cfg, "mode": "joint", "n": n,
                                        "reps": reps, "seed": seed})
    out_dir = tmp_path / "out"
    assert main(["mc", "--config", path, "--out", str(out_dir)]) == 0
    rows = [line.split(",") for line in
            (out_dir / "table.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[str(n), str(r)] for r in range(reps)]
    got = np.array([[float(v) for v in row[2:]] for row in rows])
    P = uniform(Grid.line(0.0, 1.0, 201))
    psi = parse_functional(MEAN_MEDIAN["psi"], 1)
    nu = parse_functional(MEAN_MEDIAN["nu"], 1)
    want = np.empty((reps, 2))
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep)))
        if case == "multinomial":
            counts = rng.multinomial(n, probs)
            want[rep] = counts[2] / n, counts[0] / n
        else:
            sample = sample_from(P, n, rng)
            want[rep] = evaluate(psi, sample), evaluate(nu, sample)
    assert got.tobytes() == want.tobytes()


def test_mc_consistency_mode(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", {
        "mode": "consistency",
        "grid": {"lo": 0.0, "hi": 1.0, "n": 401},
        "distribution": {"family": "uniform"},
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5},
        "n_grid": [100, 200, 400], "reps": 20,
    })
    assert main(["mc", "--config", cfg, "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "population = 0.12500000" in text
    assert text.count("rmse") == 3


def test_mc_consistency_with_a_2d_quantile(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", {
        "mode": "consistency", "grid": {"x": [0.0, 1.0, 41],
                                        "y": [0.0, 1.0, 41]},
        "distribution": {"family": "uniform"},
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5, "axis": 1},
        "n_grid": [50, 100, 200], "reps": 3,
    })
    assert main(["mc", "--config", cfg]) == 0
    assert capsys.readouterr().out.count("rmse") == 3


def test_mc_consistency_with_a_variance_psi(tmp_path, capsys):
    """A variance psi runs through the estimated variance influence; the
    population line is the engine's dpsi_dnu."""
    cfg = _write(tmp_path, "mc.json", {
        "mode": "consistency", "grid": {"lo": 0.0, "hi": 1.0, "n": 201},
        "distribution": {"family": "linear", "intercept": 0.5, "slope": 1.0},
        "psi": {"kind": "variance"}, "nu": {"kind": "moment", "rho": "x"},
        "n_grid": [50, 100, 200], "reps": 3,
    })
    assert main(["mc", "--config", cfg]) == 0
    text = capsys.readouterr().out
    P = linear(Grid.line(0.0, 1.0, 201), 0.5, 1.0)
    want = sensitivity(variance(), parse_functional(
        {"kind": "moment", "rho": "x"}, 1), P, information_metric()).dpsi_dnu
    assert f"population = {want:.8f}" in text
    assert text.count("rmse") == 3


@pytest.mark.parametrize("constant", ["psi", "nu"])
def test_mc_joint_zero_variance_estimator_exits_one(tmp_path, capsys,
                                                    constant):
    """A constant estimator leaves Lambda and Delta undefined: the run
    exits 1 naming it and writes no report."""
    cfg = _write(tmp_path, "mc.json", {
        **MEAN_MEDIAN, "grid": {"lo": 0.0, "hi": 1.0, "n": 101},
        "mode": "joint", "n": 50, "reps": 10,
        constant: {"kind": "moment", "rho": "1"}})
    out_dir = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"the {constant} estimates have zero variance" in err, err
    assert not (out_dir / "report.json").exists()


_UNIFORM201 = {"grid": {"lo": 0.0, "hi": 1.0, "n": 201},
               "distribution": {"family": "uniform"}}


def _exits_one_with(tmp_path, capsys, argv, message):
    """The run exits 1 with `message` on its last stderr line and writes
    no report (numpy's overflow warnings are silenced: the refusal is
    under test)."""
    out_dir = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--out", str(out_dir)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: {message}"), last
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("psi, nu, message", [
    ("1e300*x*x*x*x", "1e300*x",
     "the covariance of the scaled errors overflows: [[inf, inf], [inf, inf]]"),
    ("1e200*x", "x", "the covariance of the scaled errors overflows: [[inf, "),
    ("1e80*x", "1e80*x", "delta_hat overflows: nan")])
def test_mc_joint_refuses_an_overflowing_estimate(tmp_path, capsys, psi, nu,
                                                  message):
    """A covariance entry, Lambda_hat or Delta_hat that overflows is a
    failed computation, not a NaN or infinite report."""
    cfg = _write(tmp_path, "mc.json", {
        **_UNIFORM201, "mode": "joint", "n": 50, "reps": 5,
        "psi": {"kind": "moment", "rho": psi},
        "nu": {"kind": "moment", "rho": nu}})
    _exits_one_with(tmp_path, capsys, ["mc", "--config", cfg], message)


def test_mc_plugin_refuses_an_overflowing_sensitivity(tmp_path, capsys):
    s = sample_from(uniform(Grid.line(0.0, 1.0, 801)), 200,
                    np.random.default_rng(3))
    csv_path = tmp_path / "sample.csv"
    s.to_csv(str(csv_path))
    cfg = _write(tmp_path, "mc.json", {
        "mode": "plugin", "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "1e200*x"},
        "nu": {"kind": "moment", "rho": "1e200*x"}})
    _exits_one_with(tmp_path, capsys, ["mc", "--config", cfg],
                    "plug-in sensitivity overflows: nan")


@pytest.mark.parametrize("case, message", [
    ({**_UNIFORM201, "psi": {"kind": "moment", "rho": "1e300*x*x*x*x"},
      "nu": {"kind": "moment", "rho": "1e300*x"}},
     "gradient norm of nu is not finite: inf"),
    ({"grid": {"lo": 0.0, "hi": 1e154, "n": 201},
      "distribution": {"family": "uniform"}, "psi": {"kind": "variance"},
      "nu": {"kind": "moment", "rho": "x"}},
     "gradient norm of psi is not finite: inf")], ids=["moments", "variance"])
def test_sensitivity_refuses_an_infinite_gradient_norm(tmp_path, capsys, case,
                                                       message):
    """An infinite squared norm is named as such, not as two code paths
    that disagree."""
    cfg = _write(tmp_path, "s.json", {**case, "metric": {"kind": "information"}})
    _exits_one_with(tmp_path, capsys, ["sensitivity", "--config", cfg], message)


def test_mc_plugin_mode_on_stored_sample(tmp_path, capsys):
    rng = np.random.default_rng(21)
    s = sample_from(uniform(Grid.line(0.0, 1.0, 801)), 5000, rng)
    csv_path = tmp_path / "sample.csv"
    s.to_csv(str(csv_path))
    cfg = _write(tmp_path, "mc.json", {
        "mode": "plugin",
        "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5},
    })
    out_dir = tmp_path / "plug_art"
    assert main(["mc", "--config", cfg, "--out", str(out_dir)]) == 0
    val = float(capsys.readouterr().out.split("=")[1])
    assert abs(val - 0.125) < 0.02
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["n"] == 5000


def test_mc_plugin_requires_sample(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", {"mode": "plugin"})
    assert main(["mc", "--config", cfg]) == 2
    assert "config key 'sample_csv'" in capsys.readouterr().err


def test_mc_unknown_mode(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", {"mode": "warp"})
    assert main(["mc", "--config", cfg]) == 2
    assert "config key 'mode'" in capsys.readouterr().err


def test_replicate_education_requires_out(capsys):
    assert main(["replicate-education"]) == 2
    assert "config key 'out'" in capsys.readouterr().err


def test_replicate_education_runs(tmp_path, capsys):
    out_dir = tmp_path / "edu"
    assert main(["replicate-education", "--out", str(out_dir),
                 "--grid", "201"]) == 0
    text = capsys.readouterr().out
    assert "target increment = 0.1" in text
    assert text.count("achieved median") == 4
    assert (out_dir / "table.csv").exists()


# --- the output tree ----------------------------------------------------------------

_BOX = {"x": [0.0, 1.0, 21], "y": [0.0, 1.0, 21]}
_ONE_D = {"grid": {"lo": 0.0, "hi": 1.0, "n": 101},
          "distribution": {"family": "linear", "intercept": 0.5, "slope": 1.0},
          "psi": {"kind": "moment", "rho": "x"},
          "nu": {"kind": "quantile", "tau": 0.5}, "target_increment": 0.02}
_TWO_D = {"grid": _BOX, "distribution": {"family": "uniform"},
          "psi": {"kind": "moment", "rho": "x*y"},
          "nu": {"kind": "moment", "rho": "y"}, "target_increment": 0.02}
_GMM_1D = {"grid": {"lo": -7.0, "hi": 9.0, "n": 101},
           "distribution": {"family": "truncated_normal", "mean": 1.0,
                            "sd": 1.0},
           "moments": ["x - th0", "x*x - th0*th0 - 1"], "theta_dim": 1,
           "bounds": [[-3.0, 3.0]], "weight": "identity"}
_GMM_2D = {"grid": _BOX, "distribution": {"family": "uniform"},
           "moments": ["x - th0", "y - th0"], "theta_dim": 1,
           "bounds": [[0.0, 1.0]], "weight": "identity"}
_MC = {**_ONE_D, "n": 50, "reps": 10, "n_grid": [20, 40, 80]}

# every entry under --out; a directory ends in "/"
OUT_TREES = [
    ("sensitivity-1d", "sensitivity", _ONE_D,
     ["curves/", "curves/influence.csv", "plots/", "plots/influence.svg",
      "report.json"]),
    ("sensitivity-2d", "sensitivity", _TWO_D,
     ["curves/", "curves/grad_nu.csv", "curves/nu_influence.csv",
      "curves/psi_influence.csv", "plots/", "report.json"]),
    ("counterfactual-1d", "counterfactual", _ONE_D,
     ["curves/", "curves/counterfactual.csv", "curves/densities.csv",
      "plots/", "plots/densities.svg", "report.json"]),
    ("counterfactual-2d", "counterfactual", _TWO_D,
     ["curves/", "curves/counterfactual.csv", "plots/", "report.json"]),
    ("gmm-1d", "gmm", _GMM_1D,
     ["curves/", "curves/influences.csv", "plots/", "plots/influences.svg",
      "report.json"]),
    ("gmm-2d", "gmm", _GMM_2D, ["curves/", "plots/", "report.json"]),
    ("mc-joint", "mc", {**_MC, "mode": "joint"},
     ["curves/", "plots/", "report.json", "table.csv"]),
    ("mc-consistency", "mc", {**_MC, "mode": "consistency"},
     ["curves/", "plots/", "report.json", "table.csv"]),
    ("mc-plugin", "mc", {**_MC, "mode": "plugin", "sample_csv": "SAMPLE"},
     ["curves/", "plots/", "report.json"]),
    ("surface", "surface", None, ["report.json"]),
]


@pytest.mark.parametrize("command,payload,tree",
                         [case[1:] for case in OUT_TREES],
                         ids=[case[0] for case in OUT_TREES])
def test_out_holds_exactly_the_listed_files(tmp_path, capsys, command,
                                            payload, tree):
    """The files and directories each subcommand leaves under --out, and
    a report.json laid out as json.dump(indent=2) plus a newline."""
    out_dir = tmp_path / "out"
    if command == "surface":
        argv = ["surface", "--chart", "sphere", "--point", "0.2", "0.3",
                "--psi", "u", "--nu", "v"]
    else:
        if payload.get("sample_csv") == "SAMPLE":
            sample = tmp_path / "sample.csv"
            Sample(np.linspace(0.05, 0.95, 60), (0.0,), (1.0,)).to_csv(
                str(sample))
            payload = {**payload, "sample_csv": str(sample)}
        argv = [command, "--config", _write(tmp_path, "c.json", payload)]
    assert main(argv + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    got = sorted(p.relative_to(out_dir).as_posix() + "/" * p.is_dir()
                 for p in out_dir.rglob("*"))
    assert got == tree
    text = (out_dir / "report.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_module_entry_point():
    # the child imports the sensan under test, however pytest found it
    src = os.path.dirname(os.path.dirname(sensan.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "sensan.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sensitivity" in proc.stdout
    assert "replicate-education" in proc.stdout


def test_grids_the_grid_type_rejects_are_config_errors(tmp_path, capsys):
    """Too few nodes or an empty axis exit 2 naming the grid, in 1-d and
    2-d; they are configuration problems, not failed computations."""
    two_d = {"distribution": {"family": "uniform"},
             "psi": {"kind": "moment", "rho": "x"},
             "nu": {"kind": "moment", "rho": "y"},
             "metric": {"kind": "information"}}
    cases = [
        {**MEAN_MEDIAN, "grid": {"n": 2}},
        {**MEAN_MEDIAN, "grid": 2},
        {**two_d, "grid": {"x": [0.0, 1.0, 2], "y": [0.0, 1.0, 21]}},
        {**two_d, "grid": {"x": [0.0, 1.0, 21], "y": [1.0, 1.0, 21]}},
        {**two_d, "grid": {"x": [1.0, 0.0, 21], "y": [0.0, 1.0, 21]}},
    ]
    for k, payload in enumerate(cases):
        cfg = _write(tmp_path, f"grid{k}.json", payload)
        assert main(["sensitivity", "--config", cfg]) == 2, payload["grid"]
        err = capsys.readouterr().err
        assert "config key 'grid'" in err, err
        assert "Traceback" not in err


def test_mc_plugin_ratio_must_be_an_object(tmp_path, capsys):
    rng = np.random.default_rng(21)
    s = sample_from(uniform(Grid.line(0.0, 1.0, 801)), 200, rng)
    csv_path = tmp_path / "sample.csv"
    s.to_csv(str(csv_path))
    cfg = _write(tmp_path, "mc.json", {
        "mode": "plugin",
        "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5},
        "ratio": "kde",
    })
    assert main(["mc", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config key 'ratio'" in err
    assert "Traceback" not in err


def _plugin_config(tmp_path, body):
    csv_path = tmp_path / "sample.csv"
    csv_path.write_text(body)
    return _write(tmp_path, "mc.json", {
        "mode": "plugin", "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5}})


def test_mc_plugin_sample_csv_problems_name_the_key(tmp_path, capsys):
    for body in ("x\n0.1\nnan\n0.5\n", "x\n0.1\nabc\n0.5\n"):
        assert main(["mc", "--config", _plugin_config(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        assert "config key 'sample_csv'" in err, err


def test_mc_plugin_empty_sample_csv_exits_two_without_a_warning(tmp_path,
                                                                capsys):
    """A sample CSV with a header and no rows exits 2 naming sample_csv
    and saying the file holds no rows, with no warning on the way."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["mc", "--config", _plugin_config(tmp_path, "x\n")]) == 2
    assert not seen, [str(w.message) for w in seen]
    err = capsys.readouterr().err
    assert "config key 'sample_csv'" in err, err
    assert "holds no rows" in err, err
    assert "Traceback" not in err and "Warning" not in err, err


def test_mc_plugin_without_grid_spans_the_sample_range(tmp_path, capsys):
    """With no grid key the quantile KDE lives on the stored sample's own
    range, so a sample on [5, 9] runs; the value is the one
    estimated_influence(..., grid=None) gives."""
    rng = np.random.default_rng(8)
    pts = 5.0 + 4.0 * rng.uniform(size=400)
    cfg = _plugin_config(
        tmp_path, "x\n" + "".join(f"{v!r}\n" for v in pts.tolist()))
    out_dir = tmp_path / "plug"
    assert main(["mc", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    sample = Sample.from_csv(str(tmp_path / "sample.csv"))
    psi = parse_functional({"kind": "moment", "rho": "x"}, 1)
    nu = parse_functional({"kind": "quantile", "tau": 0.5}, 1)
    want = plugin_sensitivity(PluginConfig(
        psi_influence=estimated_influence(psi, sample, None),
        nu_influence=estimated_influence(nu, sample, None),
        ratio_estimator=RatioInformation(), sample=sample))
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["plugin_sensitivity"] == want


@pytest.mark.parametrize("grid", [[], ["--grid", "101"]],
                         ids=["no-grid", "grid-101"])
@pytest.mark.parametrize("x", ["0.5", "0.1"])
def test_mc_plugin_refuses_a_sample_with_no_spread(tmp_path, capsys, x, grid):
    """Three equal points leave no bandwidth to pick: with or without a
    grid the run exits 1 with kde_fit's message, not one about a grid
    the user never set. The sd of three 0.1s rounds to 1.7e-17, not 0."""
    cfg = _plugin_config(tmp_path, f"x\n{x}\n{x}\n{x}\n")
    assert main(["mc", "--config", cfg, *grid]) == 1
    err = capsys.readouterr().err
    assert "degenerate sample: zero variance, cannot pick a bandwidth" in err
    assert "grid" not in err and "Traceback" not in err, err


def _ratio_plugin_config(tmp_path, ratio_kind, **extra):
    """A plug-in run on 400 points uniform on [2, 3] (seed 1) with a
    known or kde ratio against the density 0.5 + x."""
    pts = 2.0 + np.random.default_rng(1).uniform(size=400)
    csv_path = tmp_path / "sample.csv"
    csv_path.write_text("x\n" + "".join(f"{v!r}\n" for v in pts.tolist()))
    return _write(tmp_path, "mc.json", {
        "mode": "plugin", "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "moment", "rho": "x*x"},
        "ratio": {"kind": ratio_kind, "density": {
            "family": "linear", "intercept": 0.5, "slope": 1.0}}, **extra})


@pytest.mark.parametrize("kind,value", [("known", "0.34011720"),
                                        ("kde", "1.10681390")])
def test_mc_plugin_ratio_grid_must_cover_the_sample(tmp_path, capsys, kind,
                                                    value):
    """A known or kde ratio is read on its grid, so without a grid that
    covers the sample the run exits 2 naming 'grid'; with one it runs."""
    uniform_dist = {"distribution": {"family": "uniform"}}
    cfg = _ratio_plugin_config(tmp_path, kind, **uniform_dist)
    assert main(["mc", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config key 'grid': does not cover the stored sample" in err, err
    cfg = _ratio_plugin_config(tmp_path, kind, **uniform_dist,
                               grid={"lo": 0.0, "hi": 4.0, "n": 801})
    assert main(["mc", "--config", cfg]) == 0
    assert capsys.readouterr().out == f"plugin sensitivity = {value}\n"


def test_mc_plugin_kde_ratio_needs_no_distribution(tmp_path, capsys):
    """The kde ratio estimates P from the sample, so 'distribution' is not
    read: a run without it gives the value a run with it gives."""
    grid = {"lo": 0.0, "hi": 4.0, "n": 801}
    outs = []
    for extra in ({}, {"distribution": {"family": "uniform"}}):
        cfg = _ratio_plugin_config(tmp_path, "kde", grid=grid, **extra)
        assert main(["mc", "--config", cfg]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "plugin sensitivity = 1.10681390\n"


def test_counterfactual_to_a_non_finite_density_exits_one(tmp_path, capsys):
    """An exponential step whose tilt would overflow gives no density:
    the run exits 1 naming h and the exponential path, writes no report,
    and no numpy warning reaches stderr on the way."""
    cfg = _write(tmp_path, "cf.json", {
        "grid": {"lo": 0, "hi": 1, "n": 201},
        "distribution": {"family": "linear", "intercept": 0.5, "slope": 1.0},
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "quantile", "tau": 0.5},
        "target_increment": -400, "path": "exponential"})
    out_dir = tmp_path / "cf"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["counterfactual", "--config", cfg, "--out", str(out_dir)])
    assert not seen, [str(w.message) for w in seen]
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step h = -1999.99 overflows the "
                          "exponential path"), err
    assert err.count("\n") == 1, err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("table", ["density", "three-columns"])
def test_mc_plugin_sample_csv_needs_a_sample_header(tmp_path, capsys, table):
    """Only the headers Sample.to_csv writes, "x" and "x,y", are read: a
    density table or a 3-column file exits 2 naming sample_csv instead of
    running as a 2-d or 3-d sample."""
    csv_path = tmp_path / "table.csv"
    if table == "density":
        GridDensity.from_callable(Grid.line(0.0, 1.0, 51),
                                  lambda x: 0.5 + x).to_csv(str(csv_path))
    else:
        csv_path.write_text("q,w,e\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n")
    cfg = _write(tmp_path, "mc.json", {
        "mode": "plugin", "sample_csv": str(csv_path),
        "psi": {"kind": "moment", "rho": "x"},
        "nu": {"kind": "moment", "rho": "y"},
        "grid": {"x": [0, 1, 51], "y": [0, 3, 51]}})
    assert main(["mc", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config key 'sample_csv'" in captured.err, captured.err
    assert "unrecognized sample csv header" in captured.err, captured.err
    assert "plugin sensitivity" not in captured.out


def test_csv_distribution_brings_its_own_2d_grid(tmp_path, capsys):
    """A {"csv": path} density with no 'grid' key sets the grid, and psi
    and nu are parsed in its two dimensions."""
    P = GridDensity.from_callable(Grid.box((0.0, 1.0), (0.0, 2.0), (21, 31)),
                                  lambda x, y: 1.0 + x * y)
    P.to_csv(str(tmp_path / "dens.csv"))
    psi = {"kind": "moment", "rho": "x*y"}
    nu = {"kind": "quantile", "tau": 0.5, "axis": 1}
    cfg = _write(tmp_path, "s.json", {
        "distribution": {"csv": str(tmp_path / "dens.csv")},
        "psi": psi, "nu": nu})
    out_dir = tmp_path / "art"
    assert main(["sensitivity", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    stored = GridDensity.from_csv(str(tmp_path / "dens.csv"))
    want = sensitivity(parse_functional(psi, 2), parse_functional(nu, 2),
                       stored, information_metric())
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["S"] == want.S and rep["dpsi_dnu"] == want.dpsi_dnu
    assert (out_dir / "curves" / "grad_nu.csv").read_text().startswith(
        "x,y,value")


# --- the config contract: every problem exits 2 naming its key ----------------------

SMALL = {**MEAN_MEDIAN, "grid": {"lo": 0.0, "hi": 1.0, "n": 201}}
GMM = {"grid": {"lo": -7.0, "hi": 9.0, "n": 201},
       "distribution": {"family": "truncated_normal", "mean": 1.0, "sd": 1.0},
       "moments": ["x - th0", "x*x - th0*th0 - 1"], "theta_dim": 1,
       "bounds": [[-3.0, 3.0]], "weight": "identity"}
JOINT = {**SMALL, "mode": "joint", "n": 200, "reps": 20}
MULTI = {"mode": "joint", "cells": [0, 1], "n": 200, "reps": 20,
         "distribution": {"family": "multinomial", "probs": [0.5, 0.3, 0.2]}}
CONSISTENCY = {**SMALL, "mode": "consistency", "n_grid": [50, 100, 200],
               "reps": 5}
PLUGIN = {"mode": "plugin", "psi": SMALL["psi"], "nu": SMALL["nu"]}
NAN_ROW, ABC_ROW = "x\n0.1\nnan\n0.5\n", "x\n0.1\nabc\n0.5\n"

PROBES = [
    ("sensitivity", {**SMALL, "nu": {"kind": "quantile", "tau": "abc"}}, "tau"),
    ("sensitivity", {**SMALL, "nu": {"kind": "variance", "axis": "x"}}, "axis"),
    ("sensitivity", {**SMALL, "nu": {"kind": "variance", "axis": [1]}}, "axis"),
    ("sensitivity", {**SMALL, "nu": {"kind": "variance", "axis": 3}}, "axis"),
    ("sensitivity", {**SMALL, "psi": "mean"}, "psi"),
    ("sensitivity", {**SMALL, "distribution": {"family": "beta", "alpha": -1,
                                               "beta": 2}}, "alpha"),
    ("sensitivity", {**SMALL, "metric": {"kind": "policy",
                                         "density": "uniform"}}, "density"),
    ("counterfactual", {**SMALL, "target_increment": "big"}, "target_increment"),
    ("counterfactual", {**SMALL, "path": 3}, "path"),
    ("counterfactual", {**SMALL, "refine": "no"}, "refine"),
    ("gmm", {**GMM, "theta_dim": "one"}, "theta_dim"),
    ("gmm", {**GMM, "bounds": [[0]]}, "bounds"),
    ("gmm", {**GMM, "bounds": "wide"}, "bounds"),
    ("gmm", {**GMM, "weight": [[1.0, 0.0]]}, "weight"),
    ("gmm", {**GMM, "moments": "x - th0"}, "moments"),
    ("gmm", {**GMM, "data_vars": 5}, "data_vars"),
    ("mc", {**JOINT, "n": "many"}, "n"),
    ("mc", {**JOINT, "reps": -5}, "reps"),
    ("mc", {**JOINT, "seed": "s"}, "seed"),
    ("mc", {**MULTI, "distribution": {"family": "multinomial",
                                      "probs": "x"}}, "probs"),
    ("mc", {**MULTI, "cells": [0]}, "cells"),
    ("mc", {**MULTI, "cells": [0, 7]}, "cells"),
    ("mc", {**CONSISTENCY, "n_grid": [0]}, "n_grid"),
    ("mc", {**CONSISTENCY, "n_grid": "x"}, "n_grid"),
    ("mc", {**PLUGIN, "sample_csv": NAN_ROW}, "sample_csv"),
    ("mc", {**PLUGIN, "sample_csv": ABC_ROW}, "sample_csv"),
    ("replicate-education", {"grid": "x"}, "grid"),
    ("replicate-education", {"target_increment": "big"}, "target_increment"),
    ("replicate-education", {"marginal": "x"}, "marginal"),
    ("gmm", {**GMM, "data_vars": ["x", "x"]}, "data_vars"),
    ("mc", {**PLUGIN, "sample_csv": "x\n0.05\n0.5\n0.95\n",
            "grid": {"lo": 0.6, "hi": 1.0, "n": 101}}, "grid"),
]


@pytest.mark.parametrize("command,payload,key", PROBES,
                         ids=[f"{c}-{k}-{i}" for i, (c, _, k) in
                              enumerate(PROBES)])
def test_config_probe_exits_two_naming_the_key(tmp_path, capsys, command,
                                                payload, key):
    if "sample_csv" in payload:
        body = payload["sample_csv"]
        payload = {**payload, "sample_csv": str(tmp_path / "sample.csv")}
        (tmp_path / "sample.csv").write_text(body)
    argv = [command, "--config", _write(tmp_path, "probe.json", payload)]
    if command == "replicate-education":
        argv += ["--out", str(tmp_path / "edu")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err, err


_ON_THREE_NODES = {"csv": "x,density\n0.0,1.0\n0.5,1.0\n1.0,1.0\n"}
_MISMATCH = "mismatched grids for likelihood ratio"
STORED_DENSITY_PROBES = [
    ("sensitivity", {**SMALL, "metric": {"kind": "policy",
                                         "density": _ON_THREE_NODES}},
     ("metric", "density"), _MISMATCH),
    ("counterfactual", {**SMALL, "metric": {"kind": "policy",
                                            "density": _ON_THREE_NODES}},
     ("metric", "density"), _MISMATCH),
    ("mc", {**CONSISTENCY, "ratio": {"kind": "known",
                                     "density": _ON_THREE_NODES}},
     ("ratio", "density"), _MISMATCH),
    ("mc", {**CONSISTENCY, "ratio": {"kind": "kde",
                                     "density": _ON_THREE_NODES}},
     ("ratio", "density"), _MISMATCH),
    ("mc", {**PLUGIN, "sample_csv": "x\n0.1\n0.5\n0.9\n",
            "distribution": {"family": "uniform"}, "grid": 201,
            "ratio": {"kind": "known", "density": _ON_THREE_NODES}},
     ("ratio", "density"), _MISMATCH),
    ("sensitivity", {**SMALL, "distribution": {"csv": "x,dens\n0.0,1.0\n"}},
     ("distribution",), "unrecognized density csv header ['x', 'dens']"),
]


@pytest.mark.parametrize("command,payload,keys,message", STORED_DENSITY_PROBES,
                         ids=[f"{c}-{'-'.join(k)}-{i}" for i, (c, _, k, _) in
                              enumerate(STORED_DENSITY_PROBES)])
def test_a_stored_density_exits_two_naming_its_key_path(
        tmp_path, capsys, command, payload, keys, message):
    """A stored policy density on another grid than P's, and a stored
    density with a header that is not a density table's, exit 2 naming
    every key on the path to the density, then the cause."""
    payload = copy.deepcopy(payload)
    if "sample_csv" in payload:
        (tmp_path / "sample.csv").write_text(payload["sample_csv"])
        payload["sample_csv"] = str(tmp_path / "sample.csv")
    spec = payload
    for key in keys:
        spec = spec[key]
    (tmp_path / "stored.csv").write_text(spec["csv"])
    spec["csv"] = str(tmp_path / "stored.csv")
    argv = [command, "--config", _write(tmp_path, "probe.json", payload)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    path = ": ".join(f"config key '{k}'" for k in keys)
    assert err == f"error: {path}: {message}\n", err


# Configs built from the README's config schema, one per subcommand and
# mode, on small grids so each run takes milliseconds. Every key, and
# every list item, is a place to corrupt.
_LINEAR = {"family": "linear", "intercept": 0.5, "slope": 1.0}
_UNIT = {"lo": 0.0, "hi": 1.0, "n": 101}
_PSI = {"kind": "moment", "rho": "x"}
_NU = {"kind": "quantile", "tau": 0.5, "axis": 0}
SCHEMA_CONFIGS = [
    ("sensitivity", {"grid": _UNIT, "distribution": _LINEAR, "psi": _PSI,
                     "nu": _NU, "metric": {"kind": "policy", "label": "Q",
                                           "density": {"family": "uniform"}},
                     "out": "OUT"}),
    ("counterfactual", {"grid": _UNIT, "distribution": _LINEAR, "psi": _PSI,
                        "nu": _NU, "target_increment": 0.02, "refine": True,
                        "path": "multiplicative"}),
    ("gmm", {"grid": {"lo": -7.0, "hi": 9.0, "n": 101},
             "distribution": {"family": "truncated_normal", "mean": 1.0,
                              "sd": 1.0},
             "moments": ["x - th0", "x*x - th0*th0 - 1"], "theta_dim": 1,
             "bounds": [[-3.0, 3.0]], "data_vars": ["x"],
             "weight": [[1.0, 0.0], [0.0, 1.0]]}),
    ("gmm", {"distribution": {"family": "beta", "alpha": 2.0, "beta": 3.0},
             "grid": 101, "moments": ["x - th0"], "theta_dim": 1,
             "bounds": [[0.0, 1.0]], "weight": "optimal"}),
    ("mc", {"mode": "joint", "distribution": _LINEAR, "psi": _PSI, "nu": _NU,
            "n": 50, "reps": 10, "seed": 1}),
    ("mc", {"mode": "joint", "cells": [0, 1], "n": 50, "reps": 10,
            "distribution": {"family": "multinomial",
                             "probs": [0.5, 0.3, 0.2]}}),
    ("mc", {"mode": "consistency", "grid": _UNIT,
            "distribution": {"family": "uniform"}, "psi": _PSI, "nu": _NU,
            "ratio": {"kind": "kde", "density": _LINEAR, "bandwidth": 0.1},
            "n_grid": [20, 40, 80], "reps": 2}),
    ("mc", {"mode": "plugin", "sample_csv": "SAMPLE", "grid": _UNIT,
            "distribution": {"family": "uniform"}, "psi": _PSI, "nu": _NU,
            "ratio": {"kind": "known", "density": _LINEAR}}),
    ("replicate-education", {
        "grid": 21, "target_increment": 0.05, "out": "OUT",
        "marginal": {"family": "quadratic", "offset": 0.4, "curvature": 2.4,
                     "center": 0.5},
        "policies": [_LINEAR, {"family": "linear", "intercept": 1.6,
                               "slope": -1.2}, {"family": "uniform"}]}),
]


def _places(value, key=None, path=()):
    """(path, innermost named key, value) for every key and list item."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        named = k if isinstance(k, str) else key
        yield path + (k,), named, v
        yield from _places(v, named, path + (k,))


def _wrong_types(value, key):
    """JSON values of another type than value: 2.5 stands in for a number
    where an integer, a string, a list or an object belongs (an integer
    is a legal float, so it is never offered in place of one). A grid is
    an integer or an object."""
    pool = {"number": 2.5, "string": "abc", "bool": True, "list": [1.0],
            "object": {"k": 1.0}}
    own = ("bool" if isinstance(value, bool) else
           "number" if isinstance(value, (int, float)) else
           "string" if isinstance(value, str) else
           "list" if isinstance(value, list) else "object")
    legal = {own, "object"} if key == "grid" else {own}
    return [v for name, v in pool.items() if name not in legal]


def _wrong_values(value):
    """Values of the same JSON type that a key may still reject."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [-5, 0, 1, 2, 3, value + 1]
    if isinstance(value, float):
        return [-1.0, 0.0, 0.5, 1.0, 1.5, 1e6, -value]
    if isinstance(value, str):
        return ["", "zzz", "x*y", "x**9"]
    if isinstance(value, list):
        return [[], value[:1], value[1:], value + value]
    return [{}]


def _set(config, path, value):
    out = copy.deepcopy(config)
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_corrupted_config_keys_follow_the_exit_contract(tmp_path_factory,
                                                        data):
    """One key corrupted: a wrong JSON type exits 2 naming the key (and
    every key on its path); a wrong value of the right type exits 0, 1 or
    2; nothing raises."""
    command, config = data.draw(st.sampled_from(SCHEMA_CONFIGS))
    places = [p for p in _places(config) if p[0][-1] != "out"]
    path, key, value = data.draw(st.sampled_from(places))
    wrong_type = data.draw(st.booleans())
    bad = data.draw(st.sampled_from(
        _wrong_types(value, key) if wrong_type else
        _wrong_values(value) if path[-1] not in ("sample_csv", "csv")
        else ["no/such/file.csv"]))
    tmp = tmp_path_factory.mktemp("fuzz")
    sample = tmp / "sample.csv"
    Sample(np.linspace(0.05, 0.95, 60), (0.0,), (1.0,)).to_csv(str(sample))
    text = json.dumps(_set(config, path, bad)).replace(
        '"SAMPLE"', json.dumps(str(sample))).replace(
        '"OUT"', json.dumps(str(tmp / "out")))
    cfg = tmp / "config.json"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg)])
    if wrong_type:
        assert code == 2, (path, bad, err.getvalue())
        names = [k for k in path if isinstance(k, str)]
        for k in names:
            assert f"config key '{k}'" in err.getvalue(), (path, bad, err.getvalue())
    else:
        assert code in (0, 1, 2), (path, bad)


def _null_or_missing(tmp_path, command, config, node, key):
    """The (exit code, stdout, stderr) of config with node[key] set to null
    and with it deleted; node is an object inside config."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", _write(tmp_path, "c.json", config)])
        return code, out.getvalue(), err.getvalue()

    node[key] = None
    null = run()
    del node[key]
    return null, run()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_null_config_key_reads_as_a_missing_one(tmp_path_factory, data):
    """Setting any object key of a schema config to null gives the exit
    code, stdout and stderr that deleting it gives."""
    command, config = data.draw(st.sampled_from(SCHEMA_CONFIGS))
    path = data.draw(st.sampled_from(
        [p for p, _, _ in _places(config) if isinstance(p[-1], str)]))
    tmp = tmp_path_factory.mktemp("null")
    sample = tmp / "sample.csv"
    Sample(np.linspace(0.05, 0.95, 60), (0.0,), (1.0,)).to_csv(str(sample))
    cfg = json.loads(json.dumps(config).replace(
        '"SAMPLE"', json.dumps(str(sample))).replace(
        '"OUT"', json.dumps(str(tmp / "out"))))
    node = cfg
    for k in path[:-1]:
        node = node[k]
    null, missing = _null_or_missing(tmp, command, cfg, node, path[-1])
    assert null == missing, (command, path)


def test_null_grid_in_a_plugin_run_spans_the_sample(tmp_path):
    """A null grid leaves the quantile's kernel estimate on the sample's
    own range, as no grid key does, instead of the default unit grid."""
    pts = 2.0 + np.random.default_rng(1).uniform(size=400)
    Sample(pts, (2.0,), (3.0,)).to_csv(str(tmp_path / "sample.csv"))
    cfg = {**PLUGIN, "sample_csv": str(tmp_path / "sample.csv")}
    null, missing = _null_or_missing(tmp_path, "mc", cfg, cfg, "grid")
    assert null == missing
    assert null[0] == 0 and null[1].startswith("plugin sensitivity = ")


def test_null_csv_beside_a_family_builds_the_family(tmp_path):
    cfg = {**SMALL, "distribution": {"family": "uniform"}}
    null, missing = _null_or_missing(tmp_path, "sensitivity", cfg,
                                     cfg["distribution"], "csv")
    assert null == missing and null[0] == 0


def test_null_x_beside_lo_hi_n_builds_the_line(tmp_path):
    cfg = copy.deepcopy(SMALL)
    null, missing = _null_or_missing(tmp_path, "sensitivity", cfg,
                                     cfg["grid"], "x")
    assert null == missing and null[0] == 0


@pytest.mark.parametrize("key,value", [("marginal", {}), ("policies", []),
                                       ("policies", [{"family": "uniform"}])])
def test_replicate_education_refuses_an_empty_marginal_or_policies(
        tmp_path, capsys, key, value):
    """An empty object or list is not a missing key: it is refused like
    any other wrong marginal or policy list."""
    cfg = _write(tmp_path, "edu.json", {"grid": 21, key: value})
    assert main(["replicate-education", "--config", cfg,
                 "--out", str(tmp_path / "edu")]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


def test_seed_is_an_mc_flag_only(tmp_path, capsys):
    """--seed is read by mc alone; sensitivity refuses it as argparse
    refuses any unknown flag."""
    cfg = _write(tmp_path, "mm.json", SMALL)
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--config", cfg, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,flag", [
    ("sensitivity", {**SMALL, "out": ""}, []),
    ("replicate-education", {"grid": 21, "out": ""}, []),
    ("sensitivity", SMALL, ["--out", ""]),
])
def test_an_empty_out_path_exits_two_naming_it(tmp_path, capsys, monkeypatch,
                                               command, config, flag):
    """An empty path names no directory: it is refused, in the config and
    on the command line alike, rather than read as a missing key, and
    nothing is written."""
    cfg = _write(tmp_path, "c.json", config)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg] + flag) == 2
    assert ("config key 'out': expected a directory path, got ''"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["c.json"]


def test_surface_refuses_an_empty_out_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["surface", "--chart", "flat", "--point", "0.3", "1.1",
                 "--psi", "u", "--nu", "v", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert "config key 'out'" in err and "''" in err
    assert os.listdir(tmp_path) == []
