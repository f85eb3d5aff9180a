"""Command line entry point.

Subcommands map one-to-one onto the library surface: `sensitivity` and
`counterfactual` run the engine on a configured (P, psi, nu, metric)
case, `gmm` solves a moment model and reports its influence structure,
`surface` evaluates chart sensitivities, `mc` runs the Monte Carlo
harness, and `replicate-education` rebuilds the schooling example.

`main` reads a run's config file once and hands the dict to the
subcommand (`surface` takes no config and gets an empty one); `_case`
builds the (P, psi, nu) of every subcommand that states one.

Exit codes: 0 on success, 2 for configuration problems (the diagnostic
names the offending key), 1 for computation failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .artifacts import write_curves, write_json
from .education import replicate_education
from .engine import counterfactual_report, sensitivity
from .errors import ConfigError, SensanError, nested, read
from .estimation import (Multinomial, PluginConfig, RatioInformation,
                         RatioKde, RatioKnown, estimated_influence,
                         mc_consistency, mc_joint_asymptotics,
                         mc_joint_multinomial, plugin_sensitivity)
from .families import build_family
from .functionals import parse_functional
from .gmm import gmm_efficient_influence, gmm_influence, gmm_solve, moment_spec
from .model_space import Grid, GridDensity, Sample, likelihood_ratio
from .surfaces import build_chart, coord_functional, surface_sensitivity
from .tangent import information_metric, inner_p, policy_metric

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
        raise ConfigError("config", f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"config file {path} must hold a JSON object")
    return cfg


def _build_grid(cfg: dict, override_n: int | None) -> Grid:
    spec = cfg.get("grid")
    if not isinstance(spec, dict):
        spec = {"n": read(cfg, "grid", int, 801)}
    with nested("grid"):
        if spec.get("x") is not None or spec.get("y") is not None:
            axes = []
            for name in ("x", "y"):
                t = read(spec, name, list, lo=3, hi=3, of=float)
                with nested(name):
                    axes.append((t[0], t[1], read(t, 2, int)))
        else:
            axes = [(read(spec, "lo", float, 0.0), read(spec, "hi", float, 1.0),
                     read(spec, "n", int, 801))]
        if override_n is not None:
            axes = [(lo, hi, override_n) for lo, hi, _ in axes]
        if len(axes) == 1:
            return Grid.line(*axes[0])
        return Grid.box(*(a[:2] for a in axes), tuple(a[2] for a in axes))


def _density(spec: dict, key: str, grid: Grid) -> GridDensity:
    """The density at spec[key], a family or a stored table; any problem
    with it, a family parameter the family rejects included, names key."""
    spec = read(spec, key, dict)
    with nested(key):
        path = read(spec, "csv", str, None)
        if path is not None:
            return GridDensity.from_csv(path)
        return build_family(spec, grid)


def _build_metric(cfg: dict, P: GridDensity):
    spec = read(cfg, "metric", dict, {})
    with nested("metric"):
        kind = read(spec, "kind", str, "information",
                    choices=("information", "policy"))
        if kind == "information":
            return information_metric()
        Q = _density(spec, "density", P.grid)
        label = read(spec, "label", str, "L2(Q)")
        with nested("density"):     # a stored Q may bring another grid
            return policy_metric(P, Q, label=label)


def _functional(cfg: dict, key: str, ndim: int):
    spec = read(cfg, key, dict)
    with nested(key):
        return parse_functional(spec, ndim)


def _case(cfg: dict, grid: Grid):
    """The density P, target psi and control nu cfg states. psi and nu are
    parsed on P's own grid, since a stored density brings its grid."""
    P = _density(cfg, "distribution", grid)
    return (P, _functional(cfg, "psi", P.grid.ndim),
            _functional(cfg, "nu", P.grid.ndim))


def _rows(cfg: dict, key: str, width: int):
    """cfg[key] as a list of lists of width numbers each."""
    rows = read(cfg, key, list)
    with nested(key):
        return [read(rows, i, list, lo=width, hi=width, of=float)
                for i in range(len(rows))]


def _out_dir(args, cfg: dict, required: bool = False) -> str | None:
    out = args.out if args.out is not None else read(cfg, "out", str, None)
    if out == "":
        raise ConfigError("out", "expected a directory path, got ''")
    if out is None:
        if required:
            raise ConfigError("out", "required: pass --out or set 'out'")
        return None
    with nested("out"):
        for sub in ("curves", "plots"):
            os.makedirs(os.path.join(out, sub), exist_ok=True)
    return out


# --- subcommands --------------------------------------------------------------------

def _cmd_sensitivity(args, cfg: dict) -> int:
    P, psi, nu = _case(cfg, _build_grid(cfg, args.grid))
    metric = _build_metric(cfg, P)
    rep = sensitivity(psi, nu, P, metric)
    print(f"S = {rep.S:.8f}  (dpsi_dnu = {rep.dpsi_dnu:.8f}, "
          f"R = {rep.R:.6f}, Lambda = {rep.Lambda:.6f})")
    out = _out_dir(args, cfg)
    if out:
        write_json(os.path.join(out, "report.json"), rep.to_json_dict())
        psi_t, nu_t = rep.psi_influence, rep.nu_influence
        grad = rep.nu_gradient
        if P.grid.ndim == 1:
            x = P.grid.axes[0].nodes
            write_curves(out, "influence", ["x", "psi", "nu", "grad_nu"],
                         [x, psi_t.values, nu_t.values, grad.values],
                         "Influence functions and metric gradient", "value")
        else:
            psi_t.to_csv(os.path.join(out, "curves", "psi_influence.csv"))
            nu_t.to_csv(os.path.join(out, "curves", "nu_influence.csv"))
            grad.to_csv(os.path.join(out, "curves", "grad_nu.csv"))
    return 0


def _cmd_counterfactual(args, cfg: dict) -> int:
    target = read(cfg, "target_increment", float, 0.1)
    refine = read(cfg, "refine", bool, False)
    path = read(cfg, "path", str, "multiplicative",
                choices=("multiplicative", "exponential"))
    P, psi, nu = _case(cfg, _build_grid(cfg, args.grid))
    metric = _build_metric(cfg, P)
    rep = counterfactual_report(psi, nu, P, metric, target, refine=refine,
                                path=path)
    print(f"h = {rep.h:.8f}  nu: {rep.nu_before:.6f} -> {rep.nu_after:.6f}  "
          f"psi: {rep.psi_before:.6f} -> {rep.psi_after:.6f} "
          f"(predicted {rep.predicted_psi_after:.6f})")
    out = _out_dir(args, cfg)
    if out:
        write_json(os.path.join(out, "report.json"), rep.to_json_dict())
        rep.counterfactual.to_csv(
            os.path.join(out, "curves", "counterfactual.csv"))
        if P.grid.ndim == 1:
            x = P.grid.axes[0].nodes
            write_curves(out, "densities", ["x", "baseline", "counterfactual"],
                         [x, P.values, rep.counterfactual.values],
                         "Counterfactual density", "density")
    return 0


def _cmd_gmm(args, cfg: dict) -> int:
    grid = _build_grid(cfg, args.grid)
    spec = moment_spec(read(cfg, "moments", list, of=str),
                       read(cfg, "theta_dim", int), _rows(cfg, "bounds", 2),
                       data_vars=tuple(read(cfg, "data_vars", list,
                                            ["x", "y"][:grid.ndim],
                                            lo=grid.ndim, hi=grid.ndim,
                                            of=str)))
    if isinstance(cfg.get("weight"), list):
        weight = np.array(_rows(cfg, "weight", spec.moment_dim))
    else:
        weight = read(cfg, "weight", str, "optimal",
                      choices=("optimal", "identity"))
        if weight == "identity":
            weight = np.eye(spec.moment_dim)
    P = _density(cfg, "distribution", grid)
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
        write_json(os.path.join(out, "report.json"), {
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
            write_curves(out, "influences", head, cols,
                         "Parameter influence functions", "value")
    return 0


def _cmd_surface(args, cfg: dict) -> int:
    chart = build_chart(args.chart)
    with nested("psi"):
        psi = coord_functional(args.psi)
    with nested("nu"):
        nu = coord_functional(args.nu)
    try:
        at = tuple(float(c) for c in args.point)
    except ValueError:
        raise ConfigError("point", f"expected two numbers, got {args.point}")
    val = surface_sensitivity(chart, psi, nu, at, mode=args.mode)
    print(f"{val:.8f}")
    if args.out is not None:
        with nested("out"):
            os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "report.json"), {
            "chart": args.chart, "point": list(at), "psi": args.psi,
            "nu": args.nu, "mode": args.mode, "sensitivity": val})
    return 0


def _ratio_estimator(cfg: dict, grid: Grid, P: GridDensity | None = None):
    """The ratio estimator cfg asks for and its metric at the base density
    P. Without P, as in a plug-in run, no policy metric is built (it is
    None): a known ratio builds its base from 'distribution', and a kde
    ratio needs none."""
    spec = read(cfg, "ratio", dict, {})
    with nested("ratio"):
        kind = read(spec, "kind", str, "information",
                    choices=("information", "known", "kde"))
        if kind == "information":
            return RatioInformation(), information_metric()
        Q = _density(spec, "density", grid)
        # built for both kinds, so a bad bandwidth is named under 'ratio'
        kde = RatioKde(Q, read(spec, "bandwidth", float, None))
    if P is not None:
        with nested("ratio"), nested("density"):
            metric = policy_metric(P, Q)
        return (RatioKnown(metric.ratio) if kind == "known" else kde), metric
    if kind == "known":
        P = _density(cfg, "distribution", grid)
        with nested("ratio"), nested("density"):
            return RatioKnown(likelihood_ratio(P, Q)), None
    return kde, None


def _cmd_mc(args, cfg: dict) -> int:
    seed = read(cfg if args.seed is None else vars(args), "seed", int, 0,
                lo=0)
    mode = read(cfg, "mode", str, "consistency",
                choices=("joint", "consistency", "plugin"))
    grid = _build_grid(cfg, args.grid)
    out = _out_dir(args, cfg)

    if mode == "joint":
        n = read(cfg, "n", int, 5000, lo=1)
        reps = read(cfg, "reps", int, 1000, lo=2)
        dist = read(cfg, "distribution", dict)
        if dist.get("family") == "multinomial":
            with nested("distribution"):
                model = Multinomial(tuple(read(dist, "probs", list, lo=2,
                                               of=float)))
            cells = read(cfg, "cells", list, [0, 1], lo=2, hi=2)
            with nested("cells"):
                i, j = (read(cells, k, int, lo=0, hi=len(model.probs) - 1)
                        for k in range(2))
            res = mc_joint_multinomial(model, i, j, n, reps, seed)
        else:
            res = mc_joint_asymptotics(*_case(cfg, grid), n, reps, seed)
        cov = res.empirical_cov[res.n_grid[0]]
        print(f"n = {res.n_grid[0]}  reps = {res.reps}  "
              f"cov = {np.array2string(np.asarray(cov), precision=5)}  "
              f"Lambda_hat = {res.lambda_hat:.6f}  "
              f"Delta_hat = {res.delta_hat:.6f}")
    elif mode == "consistency":
        n_grid = read(cfg, "n_grid", list, [500, 2000, 8000], of=int)
        reps = read(cfg, "reps", int, 200, lo=1)
        P, psi, nu = _case(cfg, grid)
        ratio, metric = _ratio_estimator(cfg, grid, P)
        population = sensitivity(psi, nu, P, metric).dpsi_dnu
        res = mc_consistency(P, psi, nu, ratio, n_grid, reps, seed,
                             population)
        print(f"population = {population:.8f}")
        for n in res.n_grid:
            print(f"n = {n:6d}  rmse = {res.rmse[n]:.6f}")
    else:
        path = read(cfg, "sample_csv", str)
        with nested("sample_csv"):
            sample = Sample.from_csv(path)
        psi = _functional(cfg, "psi", sample.ndim)
        nu = _functional(cfg, "nu", sample.ndim)
        ratio, _ = _ratio_estimator(cfg, grid)
        # without a grid the quantile KDE spans the sample's own range; a
        # known or kde ratio is read on its policy density's grid
        kde_grid = None if cfg.get("grid") is None and args.grid is None else grid
        ratio_grid = (ratio.ratio.grid if isinstance(ratio, RatioKnown) else
                      ratio.Q.grid if isinstance(ratio, RatioKde) else None)
        for g in (kde_grid, ratio_grid):
            if g is not None and not (g.ndim == sample.ndim and all(
                    ax.lo <= lo and hi <= ax.hi
                    for ax, lo, hi in zip(g.axes, sample.lo, sample.hi))):
                raise ConfigError("grid", "does not cover the stored sample, "
                                  f"which spans {sample.lo} to {sample.hi}")
        val = plugin_sensitivity(PluginConfig(
            psi_influence=estimated_influence(psi, sample, kde_grid),
            nu_influence=estimated_influence(nu, sample, kde_grid),
            ratio_estimator=ratio, sample=sample))
        print(f"plugin sensitivity = {val:.8f}")
        if out:
            write_json(os.path.join(out, "report.json"), {
                "plugin_sensitivity": val, "n": sample.n,
                "ratio": read(cfg, "ratio", dict, {"kind": "information"})})
        return 0

    if out:
        res.to_csv(os.path.join(out, "table.csv"))
        write_json(os.path.join(out, "report.json"), res.to_json_dict())
    return 0


def _cmd_replicate_education(args, cfg: dict) -> int:
    out = _out_dir(args, cfg, required=True)
    res = replicate_education(
        out,
        grid_n=read(cfg if args.grid is None else vars(args), "grid", int,
                    801),
        target_increment=read(cfg, "target_increment", float, 0.1),
        marginal=read(cfg, "marginal", dict, None),
        policies=read(cfg, "policies", list, None, of=dict))
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

    def common(name, run, text):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="artifact output directory")
        sp.add_argument("--grid", type=int, help="override grid size")
        return sp

    common("sensitivity", _cmd_sensitivity, "sensitivity report for one case")
    common("counterfactual", _cmd_counterfactual,
           "calibrated counterfactual density")
    common("gmm", _cmd_gmm, "moment model solve and influences")

    ssurf = sub.add_parser("surface", help="chart sensitivity at a point")
    ssurf.set_defaults(run=_cmd_surface, config=None)
    ssurf.add_argument("--chart", required=True)
    ssurf.add_argument("--point", nargs=2, required=True, metavar=("U", "V"))
    ssurf.add_argument("--psi", required=True)
    ssurf.add_argument("--nu", required=True)
    ssurf.add_argument("--mode", default="analytic",
                       choices=("analytic", "numerical"))
    ssurf.add_argument("--out")

    common("mc", _cmd_mc, "Monte Carlo harness").add_argument(
        "--seed", type=int, help="override RNG seed")
    common("replicate-education", _cmd_replicate_education,
           "rebuild the schooling example")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args, _load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SensanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
