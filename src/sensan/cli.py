"""Command line entry point.

Subcommands map one-to-one onto the library surface: `sensitivity` and
`counterfactual` run the engine on a configured (P, psi, nu, metric)
case, `gmm` solves a moment model and reports its influence structure,
`surface` evaluates chart sensitivities, `mc` runs the Monte Carlo
harness, and `replicate-education` rebuilds the schooling example.

Exit codes: 0 on success, 2 for configuration problems (the diagnostic
names the offending key), 1 for computation failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .education import replicate_education
from .engine import counterfactual_report, sensitivity
from .errors import ConfigError, SensanError
from .estimation import (Multinomial, PluginConfig, RatioInformation,
                         RatioKde, RatioKnown, estimated_influence,
                         mc_consistency, mc_joint_asymptotics,
                         mc_joint_multinomial, plugin_sensitivity)
from .families import build_family
from .functionals import influence, parse_functional
from .gmm import gmm_efficient_influence, gmm_influence, gmm_solve, moment_spec
from .model_space import (Grid, GridDensity, Sample, likelihood_ratio,
                          write_node_table)
from .surfaces import build_chart, coord_functional, surface_sensitivity
from .svg import line_plot
from .tangent import (grad_op_apply, information_metric, inner_p,
                      policy_metric)

__all__ = ["main"]


# --- config plumbing ----------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"config file {path} is not valid JSON: "
                          f"{exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"config file {path} must hold a JSON "
                          "object")
    return cfg


def _number(value, key: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {value!r}")


def _build_grid(cfg: dict, override_n: int | None) -> Grid:
    spec = cfg.get("grid", {})
    if isinstance(spec, int):
        spec = {"n": spec}
    if not isinstance(spec, dict):
        raise ConfigError("grid", "expected an integer or an object")
    if "x" in spec or "y" in spec:
        try:
            xlo, xhi, xn = spec["x"]
            ylo, yhi, yn = spec["y"]
        except (KeyError, TypeError, ValueError):
            raise ConfigError("grid", "two-dimensional grids need 'x' and "
                              "'y' as [lo, hi, n] triples")
        if override_n is not None:
            xn = yn = override_n
        axes = ((xlo, xhi, xn), (ylo, yhi, yn))
    else:
        axes = ((spec.get("lo", 0.0), spec.get("hi", 1.0),
                 override_n if override_n is not None else spec.get("n", 801)),)
    limits = [(_number(lo, "grid"), _number(hi, "grid")) for lo, hi, _ in axes]
    sizes = [_number(n, "grid", int) for _, _, n in axes]
    try:
        if len(axes) == 1:
            return Grid.line(*limits[0], sizes[0])
        return Grid.box(*limits, tuple(sizes))
    except SensanError as exc:
        raise ConfigError("grid", str(exc))


def _build_density(cfg: dict, key: str, grid: Grid) -> GridDensity:
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(key, "missing density specification")
    return _density_from_spec(spec, key, grid)


def _density_from_spec(spec, key: str, grid: Grid) -> GridDensity:
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected an object with 'family' or 'csv'")
    if "csv" in spec:
        try:
            return GridDensity.from_csv(str(spec["csv"]))
        except OSError as exc:
            raise ConfigError(key, f"cannot read density csv: {exc}")
    return build_family(spec, grid)


def _build_metric(cfg: dict, P: GridDensity, grid: Grid):
    spec = cfg.get("metric", {"kind": "information"})
    if not isinstance(spec, dict):
        raise ConfigError("metric", "expected an object with 'kind'")
    kind = spec.get("kind", "information")
    if kind == "information":
        return information_metric()
    if kind == "policy":
        if "density" not in spec:
            raise ConfigError("metric", "policy metric requires 'density'")
        Q = _density_from_spec(spec["density"], "metric", grid)
        return policy_metric(P, Q, label=str(spec.get("label", "L2(Q)")))
    raise ConfigError("metric", f"unknown metric kind {kind!r}")


def _functional(cfg: dict, key: str, ndim: int):
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(key, "missing functional specification")
    try:
        return parse_functional(spec, ndim)
    except ConfigError:
        raise
    except SensanError as exc:
        # a malformed expression is a config problem, name the key
        raise ConfigError(key, str(exc))


def _coord_functional(args, key: str):
    try:
        return coord_functional(getattr(args, key))
    except SensanError as exc:
        raise ConfigError(key, str(exc))


def _out_dir(args, cfg: dict, required: bool = False) -> str | None:
    out = args.out or cfg.get("out")
    if out is None:
        if required:
            raise ConfigError("out", "this command writes artifacts; pass "
                              "--out or set 'out'")
        return None
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "curves"), exist_ok=True)
    os.makedirs(os.path.join(out, "plots"), exist_ok=True)
    return out


def _write_json(out: str, name: str, payload: dict) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _plot_1d(out: str, name: str, curves, title: str, ylabel: str) -> None:
    line_plot(os.path.join(out, "plots", name + ".svg"), curves,
              title=title, xlabel="x", ylabel=ylabel)


# --- subcommands --------------------------------------------------------------------

def _cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg, args.grid)
    P = _build_density(cfg, "distribution", grid)
    psi = _functional(cfg, "psi", P.grid.ndim)
    nu = _functional(cfg, "nu", P.grid.ndim)
    metric = _build_metric(cfg, P, P.grid)
    rep = sensitivity(psi, nu, P, metric)
    print(f"S = {rep.S:.8f}  (dpsi_dnu = {rep.dpsi_dnu:.8f}, "
          f"R = {rep.R:.6f}, Lambda = {rep.Lambda:.6f})")
    out = _out_dir(args, cfg)
    if out:
        _write_json(out, "report.json", rep.to_json_dict())
        psi_t = influence(psi, P)
        nu_t = influence(nu, P)
        grad = grad_op_apply(nu_t, metric)
        if P.grid.ndim == 1:
            x = P.grid.axes[0].nodes
            write_node_table(os.path.join(out, "curves", "influence.csv"),
                             ["x", "psi", "nu", "grad_nu"],
                             [x, psi_t.values, nu_t.values, grad.values])
            _plot_1d(out, "influence",
                     [("psi", x, psi_t.values), ("nu", x, nu_t.values),
                      ("grad nu", x, grad.values)],
                     "Influence functions and metric gradient", "value")
        else:
            psi_t.to_csv(os.path.join(out, "curves", "psi_influence.csv"))
            nu_t.to_csv(os.path.join(out, "curves", "nu_influence.csv"))
            grad.to_csv(os.path.join(out, "curves", "grad_nu.csv"))
    return 0


def _cmd_counterfactual(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg, args.grid)
    P = _build_density(cfg, "distribution", grid)
    psi = _functional(cfg, "psi", P.grid.ndim)
    nu = _functional(cfg, "nu", P.grid.ndim)
    metric = _build_metric(cfg, P, P.grid)
    target = float(cfg.get("target_increment", 0.1))
    rep = counterfactual_report(
        psi, nu, P, metric, target,
        refine=bool(cfg.get("refine", False)),
        path=str(cfg.get("path", "multiplicative")))
    print(f"h = {rep.h:.8f}  nu: {rep.nu_before:.6f} -> {rep.nu_after:.6f}  "
          f"psi: {rep.psi_before:.6f} -> {rep.psi_after:.6f} "
          f"(predicted {rep.predicted_psi_after:.6f})")
    out = _out_dir(args, cfg)
    if out:
        _write_json(out, "report.json", rep.to_json_dict())
        rep.counterfactual.to_csv(
            os.path.join(out, "curves", "counterfactual.csv"))
        if P.grid.ndim == 1:
            x = P.grid.axes[0].nodes
            write_node_table(os.path.join(out, "curves", "densities.csv"),
                             ["x", "baseline", "counterfactual"],
                             [x, P.values, rep.counterfactual.values])
            _plot_1d(out, "densities",
                     [("baseline", x, P.values),
                      ("counterfactual", x, rep.counterfactual.values)],
                     "Counterfactual density", "density")
    return 0


def _cmd_gmm(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg, args.grid)
    P = _build_density(cfg, "distribution", grid)
    for key in ("moments", "theta_dim", "bounds"):
        if key not in cfg:
            raise ConfigError(key, "required for the gmm command")
    try:
        spec = moment_spec(tuple(str(t) for t in cfg["moments"]),
                           int(cfg["theta_dim"]),
                           tuple(tuple(float(b) for b in pair)
                                 for pair in cfg["bounds"]),
                           data_vars=tuple(cfg.get("data_vars", ("x",))))
    except SensanError as exc:
        # bad expressions, bounds, or counts are config problems
        raise ConfigError("moments", str(exc))
    weight = cfg.get("weight", "optimal")
    if isinstance(weight, list):
        weight = np.asarray(weight, dtype=float)
    elif weight == "identity":
        weight = np.eye(spec.moment_dim)
    elif weight != "optimal":
        raise ConfigError("weight", "expected 'identity', 'optimal', or a "
                          "matrix")
    sol = gmm_solve(P, spec, weight)
    infl = gmm_influence(P, spec, sol)
    eff = gmm_efficient_influence(P, spec, sol)
    var_w = [inner_p(t, t) for t in infl]
    var_eff = [inner_p(t, t) for t in eff]
    delta = [inner_p(a, b) ** 2 / (va * vb) if va > 0 and vb > 0 else 1.0
             for a, b, va, vb in zip(infl, eff, var_w, var_eff)]
    print(f"theta = {np.array2string(sol.theta, precision=8)}  "
          f"criterion = {sol.criterion:.6g}  "
          f"specified = {sol.correctly_specified}")
    print(f"influence variances: weighted = {var_w}  efficient = {var_eff}")
    out = _out_dir(args, cfg)
    if out:
        _write_json(out, "report.json", {
            "theta": sol.theta.tolist(),
            "criterion": sol.criterion,
            "correctly_specified": sol.correctly_specified,
            "moment_means": sol.Pg.tolist(),
            "jacobian_means": sol.G.tolist(),
            "omega": sol.Omega.tolist(),
            "var_weighted": var_w,
            "var_efficient": var_eff,
            "delta_weighted_vs_efficient": delta,
        })
        if P.grid.ndim == 1:
            x = P.grid.axes[0].nodes
            cols = [x] + [t.values for t in infl] + [t.values for t in eff]
            head = (["x"] + [f"influence_{a}" for a in range(len(infl))]
                    + [f"efficient_{a}" for a in range(len(eff))])
            write_node_table(os.path.join(out, "curves", "influences.csv"),
                             head, cols)
            _plot_1d(out, "influences",
                     [(h, x, c) for h, c in zip(head[1:], cols[1:])],
                     "Parameter influence functions", "value")
    return 0


def _cmd_surface(args) -> int:
    chart = build_chart(args.chart)
    psi = _coord_functional(args, "psi")
    nu = _coord_functional(args, "nu")
    at = tuple(_number(c, "point") for c in args.point)
    val = surface_sensitivity(chart, psi, nu, at, mode=args.mode)
    print(f"{val:.8f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(args.out, "report.json", {
            "chart": args.chart, "point": list(at), "psi": args.psi,
            "nu": args.nu, "mode": args.mode, "sensitivity": val})
    return 0


def _ratio_spec(cfg: dict) -> dict:
    spec = cfg.get("ratio", {"kind": "information"})
    if not isinstance(spec, dict):
        raise ConfigError("ratio", "expected an object with 'kind'")
    return spec


def _ratio_estimator(cfg: dict, P: GridDensity, grid: Grid):
    spec = _ratio_spec(cfg)
    kind = spec.get("kind", "information")
    if kind == "information":
        return RatioInformation(), information_metric()
    if kind not in ("known", "kde"):
        raise ConfigError("ratio", f"unknown ratio kind {kind!r}")
    if "density" not in spec:
        raise ConfigError("ratio", f"{kind} ratio requires 'density'")
    Q = _density_from_spec(spec["density"], "ratio", grid)
    metric = policy_metric(P, Q)
    if kind == "known":
        return RatioKnown(likelihood_ratio(P, Q)), metric
    bw = spec.get("bandwidth")
    return RatioKde(Q, None if bw is None else float(bw)), metric


def _cmd_mc(args) -> int:
    cfg = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    mode = cfg.get("mode", "consistency")
    grid = _build_grid(cfg, args.grid)
    out = _out_dir(args, cfg)

    if mode == "joint":
        dist = cfg.get("distribution")
        n = int(cfg.get("n", 5000))
        reps = int(cfg.get("reps", 1000))
        if isinstance(dist, dict) and dist.get("family") == "multinomial":
            probs = tuple(float(p) for p in dist.get("probs", ()))
            if not probs:
                raise ConfigError("probs", "multinomial requires cell "
                                  "probabilities")
            cells = cfg.get("cells", [0, 1])
            res = mc_joint_multinomial(Multinomial(probs), int(cells[0]),
                                       int(cells[1]), n, reps, seed)
        else:
            P = _build_density(cfg, "distribution", grid)
            psi = _functional(cfg, "psi", P.grid.ndim)
            nu = _functional(cfg, "nu", P.grid.ndim)
            res = mc_joint_asymptotics(P, psi, nu, n, reps, seed)
        cov = res.empirical_cov[res.n_grid[0]]
        print(f"n = {res.n_grid[0]}  reps = {res.reps}  "
              f"cov = {np.array2string(np.asarray(cov), precision=5)}  "
              f"Lambda_hat = {res.lambda_hat:.6f}  "
              f"Delta_hat = {res.delta_hat:.6f}")
    elif mode == "consistency":
        P = _build_density(cfg, "distribution", grid)
        psi = _functional(cfg, "psi", P.grid.ndim)
        nu = _functional(cfg, "nu", P.grid.ndim)
        ratio, metric = _ratio_estimator(cfg, P, grid)
        population = sensitivity(psi, nu, P, metric).dpsi_dnu
        n_grid = cfg.get("n_grid", [500, 2000, 8000])
        reps = int(cfg.get("reps", 200))
        res = mc_consistency(P, psi, nu, ratio, n_grid, reps, seed,
                             population)
        print(f"population = {population:.8f}")
        for n in res.n_grid:
            print(f"n = {n:6d}  rmse = {res.rmse[n]:.6f}")
    elif mode == "plugin":
        if "sample_csv" not in cfg:
            raise ConfigError("sample_csv", "plugin mode runs on a stored "
                              "sample")
        try:
            sample = Sample.from_csv(str(cfg["sample_csv"]))
        except OSError as exc:
            raise ConfigError("sample_csv", f"cannot read sample: {exc}")
        psi = _functional(cfg, "psi", sample.ndim)
        nu = _functional(cfg, "nu", sample.ndim)
        P = None
        ratio_spec = _ratio_spec(cfg)
        if ratio_spec.get("kind", "information") != "information":
            P = _build_density(cfg, "distribution", grid)
        ratio, _ = (_ratio_estimator(cfg, P, grid)
                    if P is not None else (RatioInformation(), None))
        val = plugin_sensitivity(PluginConfig(
            psi_influence=estimated_influence(psi, sample, grid),
            nu_influence=estimated_influence(nu, sample, grid),
            ratio_estimator=ratio, sample=sample))
        print(f"plugin sensitivity = {val:.8f}")
        if out:
            _write_json(out, "report.json", {
                "plugin_sensitivity": val, "n": sample.n,
                "ratio": ratio_spec})
        return 0
    else:
        raise ConfigError("mode", f"unknown mc mode {mode!r}")

    if out:
        res.to_csv(os.path.join(out, "table.csv"))
        _write_json(out, "report.json", res.to_json_dict())
    return 0


def _cmd_replicate_education(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg, required=True)
    res = replicate_education(
        out,
        grid_n=int(args.grid if args.grid is not None
                   else cfg.get("grid", 801)),
        target_increment=float(cfg.get("target_increment", 0.1)),
        marginal=cfg.get("marginal"),
        policies=cfg.get("policies"))
    print(f"psi = {res.psi_before:.6f}  median = {res.nu_before:.6f}  "
          f"target increment = {res.target_increment}")
    for r in res.rows:
        print(f"  {r.label:10s} S = {r.S:.6f}  achieved median = "
              f"{r.nu_after:.6f}  psi gap = {r.psi_gap:.5f}")
    print(f"artifacts in {res.out_dir}")
    return 0


# --- entry point --------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sensan",
        description="Sensitivity of statistical functionals under policy "
                    "metrics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="artifact output directory")
        sp.add_argument("--grid", type=int, help="override grid size")
        if seed:
            sp.add_argument("--seed", type=int, help="override RNG seed")

    common(sub.add_parser("sensitivity",
                          help="sensitivity report for one case"))
    common(sub.add_parser("counterfactual",
                          help="calibrated counterfactual density"))
    common(sub.add_parser("gmm", help="moment model solve and influences"),
           seed=False)

    ssurf = sub.add_parser("surface", help="chart sensitivity at a point")
    ssurf.add_argument("--chart", required=True)
    ssurf.add_argument("--point", nargs=2, required=True, metavar=("U", "V"))
    ssurf.add_argument("--psi", required=True)
    ssurf.add_argument("--nu", required=True)
    ssurf.add_argument("--mode", default="analytic",
                       choices=("analytic", "numerical"))
    ssurf.add_argument("--out")

    common(sub.add_parser("mc", help="Monte Carlo harness"))
    common(sub.add_parser("replicate-education",
                          help="rebuild the schooling example"))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "sensitivity": _cmd_sensitivity,
        "counterfactual": _cmd_counterfactual,
        "gmm": _cmd_gmm,
        "surface": _cmd_surface,
        "mc": _cmd_mc,
        "replicate-education": _cmd_replicate_education,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SensanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
