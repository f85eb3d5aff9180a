import json
import os

import numpy as np
import pytest
from scipy import integrate as sp_integrate

import sensan.functionals
from sensan.education import (DEFAULT_MARGINAL, DEFAULT_POLICIES,
                              regression_fn, replicate_education)
from sensan.errors import ConfigError

LABELS = ("L²(P_X)", "L²(Q₁)", "L²(Q₂)", "L²(Q₃)")


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("edu")
    return replicate_education(str(out))


def test_baseline_values(default_run):
    res = default_run
    # marginal ~ (0.4 + 2.4 (x - 1/2)^2) / 0.6, symmetric about 1/2; the
    # CDF inversion carries the trapezoid's O(h^2) error
    assert abs(res.nu_before - 0.5) < 1e-5
    want, _ = sp_integrate.quad(
        lambda x: regression_fn(x) * (0.4 + 2.4 * (x - 0.5) ** 2) / 0.6,
        0.0, 1.0)
    assert abs(res.psi_before - want) < 1e-9
    assert res.target_increment == 0.1


def test_table_rows(default_run):
    rows = default_run.rows
    assert tuple(r.label for r in rows) == LABELS
    info = rows[0]
    assert info.S > 0.0
    for r in rows:
        assert abs(r.nu_after - 0.6) < 1e-6
        assert r.psi_gap < 0.01
        assert abs(r.predicted_psi_after
                   - (default_run.psi_before + r.S * 0.1)) < 1e-12
        assert abs(r.psi_after - r.predicted_psi_after) == r.psi_gap


def test_lambda_and_delta_do_not_depend_on_the_metric(default_run):
    rows = default_run.rows
    for r in rows[1:]:
        assert abs(r.Lambda - rows[0].Lambda) < 1e-10
        assert abs(r.Delta - rows[0].Delta) < 1e-10
    assert abs(rows[0].Lambda - 0.2357016) < 1e-5
    assert abs(rows[0].Delta - 0.6937463) < 1e-5


def test_emitted_files(default_run):
    res = default_run
    for path in res.files:
        assert os.path.exists(path)
    names = {os.path.relpath(p, res.out_dir) for p in res.files}
    assert names == {
        "curves/sampling_pdf.csv", "plots/sampling_pdf.svg",
        "curves/influence.csv", "plots/influence.svg",
        "curves/policy_gradients.csv", "plots/policy_gradients.svg",
        "curves/counterfactual_pdfs.csv", "plots/counterfactual_pdfs.svg",
        "curves/joint_density.csv", "table.csv", "report.json",
    }


def test_table_csv_and_curve_headers(default_run):
    res = default_run
    with open(os.path.join(res.out_dir, "table.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("metric,S,Lambda,Delta,dpsi_dnu,grad_norm_nu,h,"
                        "nu_after,psi_after,predicted_psi_after,psi_gap")
    assert len(lines) == 5
    assert lines[1].startswith("L²(P_X),")
    with open(os.path.join(res.out_dir, "curves",
                           "counterfactual_pdfs.csv")) as fh:
        header = fh.readline().strip()
    assert header == "x,baseline,L²(P_X),L²(Q₁),L²(Q₂),L²(Q₃)"


def test_table_csv_writes_the_row_loop_bytes(default_run, tmp_path):
    """table.csv reads as the row loop: LF rows, the metric label as text,
    every number as repr(float)."""
    want = tmp_path / "table.csv"
    with open(want, "w") as fh:
        fh.write("metric,S,Lambda,Delta,dpsi_dnu,grad_norm_nu,h,nu_after,"
                 "psi_after,predicted_psi_after,psi_gap\n")
        for r in default_run.rows:
            fh.write(",".join([r.label] + [repr(v) for v in (
                r.S, r.Lambda, r.Delta, r.dpsi_dnu, r.grad_norm_nu, r.h,
                r.nu_after, r.psi_after, r.predicted_psi_after,
                r.psi_gap)]) + "\n")
    got = os.path.join(default_run.out_dir, "table.csv")
    with open(got, "rb") as fh:
        assert fh.read() == want.read_bytes()


def test_plots_are_svg(default_run):
    path = os.path.join(default_run.out_dir, "plots", "influence.svg")
    with open(path) as fh:
        body = fh.read()
    assert body.startswith("<svg")
    assert "polyline" in body


def test_report_json_notes_the_reconstruction(default_run):
    with open(os.path.join(default_run.out_dir, "report.json")) as fh:
        rep = json.load(fh)
    assert "only as figures" in rep["note"]
    assert len(rep["rows"]) == 4
    assert rep["rows"][0]["metric"] == "L²(P_X)"
    assert rep["psi_before"] == default_run.psi_before


def test_joint_density_lives_on_the_sub_rectangle(default_run):
    path = os.path.join(default_run.out_dir, "curves", "joint_density.csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (161 * 201, 3)
    assert data[:, 0].max() == pytest.approx(0.8)
    assert np.all(data[:, 2] >= 0.0)


def test_zero_target_keeps_the_baseline(tmp_path):
    res = replicate_education(str(tmp_path / "z"), grid_n=201,
                              target_increment=0.0)
    for r in res.rows:
        assert r.h == 0.0
        assert r.nu_after == res.nu_before
        assert r.psi_after == res.psi_before
        assert r.psi_gap == 0.0


def test_custom_marginal_moves_the_median(tmp_path):
    res = replicate_education(
        str(tmp_path / "c"), grid_n=201,
        marginal={"family": "linear", "intercept": 0.5, "slope": 1.0})
    # F(m) = m/2 + m^2/2 = 1/2 at m = (sqrt(5) - 1) / 2
    assert abs(res.nu_before - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-5


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="config key 'grid'"):
        replicate_education(str(tmp_path / "a"), grid_n=4)
    with pytest.raises(ConfigError, match="config key 'policies'"):
        replicate_education(str(tmp_path / "b"),
                            policies=DEFAULT_POLICIES[:2])


def test_defaults_are_the_documented_reconstruction():
    assert DEFAULT_MARGINAL["family"] == "quadratic"
    assert [p["family"] for p in DEFAULT_POLICIES] == [
        "quadratic", "linear", "uniform"]


def test_each_metric_computes_the_influences_once(tmp_path, monkeypatch):
    """Two analytic influences (mean of Y, median of X) per metric, four
    metrics: the table, curves and gradients all read them from the
    counterfactual reports."""
    calls = []
    orig = sensan.functionals.influence_analytic

    def counted(F, P):
        calls.append(F.label)
        return orig(F, P)

    monkeypatch.setattr(sensan.functionals, "influence_analytic", counted)
    replicate_education(str(tmp_path / "edu"), grid_n=201)
    assert len(calls) == 8
