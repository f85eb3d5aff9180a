"""Print a `label sha256` line for each result that a speed-up must keep
bit for bit, so that two checkouts can be compared with `diff`:

    python3 tools/bitcheck.py /path/to/parent > parent.txt
    python3 tools/bitcheck.py . > change.txt
    diff parent.txt change.txt

The argument is the checkout to measure (default: the one holding this
script). Its `src` is imported, and the composite evaluators come from its
`perfbench/jobs.py` and the README schema configs from its
`tests/test_cli.py`, so the script runs unchanged on an older checkout.
The lines cover:

- numerical influences of the 1-d kinds and `mean_over_median` on
  Beta(2, 3) at 101, 201 and 801 nodes, with and without a cut term
- numerical influences of the 2-d kinds and the covariance composite on
  a correlated Gaussian at 21², 31², 41² and 21×31 (and at 21×31 with a
  cut), on the uniform and on an isotropic Gaussian at 21², 31², 41²
- quantile numerical influences where a cut sits inside the crossing
  cell: Beta(2, 3) at 801 nodes on axis 0, and the correlated Gaussian at
  21×31 on axis 1
- `engine.sensitivity` S and R with `mean_over_median` as psi
- five counterfactual steps of 0.02 in the median on the density 0.5 + x
  (each step's field parts and S of the mean), and an exponential tilt of
  the uniform along nine one-cut terms
- 1-d and 2-d `sample_from` draws
- `kde_fit` of Beta(2, 5) draws on 801 nodes of [0, 1], with the Silverman
  bandwidth and with 0.05, and of a 2-d product sample on an 81² box
- the sample side: each kind's estimate at a sample's empirical measure
  (`efficient_estimate` where the checkout has it, `evaluate` on the
  Sample otherwise) and its `estimated_influence` at the sample points,
  with the grid and with `grid=None`, for a 1-d mean, variance and median
  and a 2-d moment, variance and quantile on axis 1; `plugin_sensitivity`
  under the information, known and kde ratios; `mc_joint_asymptotics`
  tables of a 1-d mean/median (n = 200, 40 replications) and
  variance/median (n = 5000, 13 replications), and of the `x*y` moment
  against the axis-1 median on the 41² density 1 + x*y (n = 700, 9
  replications); one `mc_consistency` table; and `likelihood_ratio` of
  Beta(2, 5) over itself and over Beta(2, 2), which vanish at both end
  nodes
- GMM solutions (theta, Omega, Pg, G) and the fields of `gmm_influence`,
  `gmm_efficient_influence`, `gmm_project_tangent` and `gmm_out_direction`
  for a specified and a misspecified truncated normal and a 2-d
  three-moment spec, each with identity and "optimal" weights
- every file `python -m sensan.cli` writes, with its exit code, stdout
  and stderr, for the schema configs and `replicate-education --grid 201`

A numerical failure (SensanError) is hashed by its message, so a
changed error shows too; any other exception stops the script.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def emit(label: str, *parts) -> None:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else
                 np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    print(label, h.hexdigest())


def field_parts(f) -> list:
    out = [f.smooth]
    for t in f.terms:
        out += [repr(t.cuts), t.samples]
    return out


BETA23 = {"family": "beta", "alpha": 2.0, "beta": 3.0}


def unit_box(sensan, shape):
    return sensan.Grid.box((0.0, 1.0), (0.0, 1.0), shape)


def with_cut(sensan, P, q: float):
    """P with mass moved below x = q, carried as a cut term."""
    return sensan.GridDensity(
        P.grid, 0.9 * P.smooth, _normalize="force",
        _terms=(sensan.CutTerm(((0, q),), 0.2 * P.smooth),))


def influence(sensan, label: str, F, P) -> None:
    try:
        emit(label, *field_parts(sensan.influence_numerical(F, P)))
    except sensan.SensanError as exc:
        emit(label, "error", str(exc))


def influences(sensan, jobs) -> None:
    mom = sensan.moment
    one_d = [("x2", mom(lambda x: x * x)), ("mean", mom(lambda x: x)),
             ("variance", sensan.variance()),
             ("q0.3", sensan.quantile_functional(0.3)),
             ("q0.5", sensan.quantile_functional(0.5)),
             ("mean_over_median", sensan.composite(jobs.mean_over_median))]
    for n in (101, 201, 801):
        P = sensan.build_family(BETA23, sensan.Grid.line(0.0, 1.0, n))
        for cut, Q in (("", P), ("+cut", with_cut(sensan, P, 0.4))):
            for name, F in one_d:
                influence(sensan, f"ni/beta23/{n}{cut}/{name}", F, Q)

    cov = sensan.composite(jobs.covariance)
    two_d = [("xy", mom(lambda x, y: x * y)),
             ("var0", sensan.variance(0)), ("var1", sensan.variance(1))]
    two_d += [(f"q{tau}/{a}", sensan.quantile_functional(tau, a))
              for tau in (0.3, 0.5) for a in (0, 1)]
    two_d.append(("covariance", cov))

    def correlated(x, y):
        a, b = (x - 0.45) / 0.18, (y - 0.55) / 0.2
        return np.exp(-0.5 * (a * a - 1.2 * a * b + b * b) / 0.64)

    for shape in ((21, 21), (31, 31), (41, 41), (21, 31)):
        P = sensan.GridDensity.from_callable(unit_box(sensan, shape), correlated)
        cases = [("", P)]
        if shape == (21, 31):
            cases.append(("+cut", with_cut(sensan, P, 0.5)))
        for cut, Q in cases:
            for name, F in two_d:
                influence(sensan, f"ni/gauss/{shape[0]}x{shape[1]}{cut}/{name}",
                          F, Q)

    plain = [("xy", mom(lambda x, y: x * y)), ("var1", sensan.variance(1)),
             ("median0", sensan.quantile_functional(0.5)), ("covariance", cov)]
    shapes = {"uniform": lambda x, y: 1.0 + 0.0 * x,
              "iso0.3": lambda x, y: np.exp(-((x - 0.5) ** 2
                                              + (y - 0.5) ** 2) / 0.18)}
    for dist, fn in shapes.items():
        for n in (21, 31, 41):
            P = sensan.GridDensity.from_callable(unit_box(sensan, (n, n)), fn)
            for name, F in plain:
                influence(sensan, f"ni/{dist}/{n}x{n}/{name}", F, P)
    U21 = sensan.build_family({"family": "uniform"},
                              sensan.Grid.line(0.0, 1.0, 21))
    influence(sensan, "ni/uniform/21/variance", sensan.variance(), U21)

    beta801 = sensan.build_family(BETA23, sensan.Grid.line(0.0, 1.0, 801))
    gauss = sensan.GridDensity.from_callable(unit_box(sensan, (21, 31)),
                                             correlated)
    for label, P, axis in (("beta23/801", beta801, 0),
                           ("gauss/21x31", gauss, 1)):
        Q, tau = cut_in_the_crossing_cell(sensan, P, axis)
        influence(sensan, f"ni/{label}+cut-in-crossing-cell/q{tau:.6f}/{axis}",
                  sensan.quantile_functional(tau, axis), Q)


def cut_in_the_crossing_cell(sensan, P, axis: int):
    """P with mass moved below a cut a third of the way into a cell on
    `axis`, and a level whose quantile on that axis crosses in the same
    cell, found by bisection."""
    x = P.grid.axes[axis].nodes
    k = len(x) // 3
    cut = x[k] + (x[k + 1] - x[k]) / 3.0
    Q = sensan.GridDensity(P.grid, 0.9 * P.smooth, _normalize="force",
                           _terms=(sensan.CutTerm(((axis, cut),),
                                                  0.2 * P.smooth),))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        tau = 0.5 * (lo + hi)
        q = sensan.quantile(Q, tau, axis)
        if x[k] < q < x[k + 1]:
            return Q, tau
        lo, hi = (tau, hi) if q <= x[k] else (lo, tau)
    raise RuntimeError("no level crosses in the cut's cell")


def sensitivities(sensan, jobs) -> None:
    grid = sensan.Grid.line(0.0, 1.0, 201)
    P = sensan.build_family(BETA23, grid)
    psi = sensan.composite(jobs.mean_over_median, "mean/median")
    nu = sensan.quantile_functional(0.5)
    policy = sensan.build_family(
        {"family": "linear", "intercept": 0.5, "slope": 1.0}, grid)
    for name, metric in (("information", sensan.information_metric()),
                         ("policy-linear", sensan.policy_metric(P, policy))):
        try:
            rep = sensan.sensitivity(psi, nu, P, metric)
            emit(f"sensitivity/{name}", rep.S, rep.R)
        except sensan.SensanError as exc:
            emit(f"sensitivity/{name}", "error", str(exc))


def counterfactuals(sensan) -> None:
    grid = sensan.Grid.line(0.0, 1.0, 801)
    P = sensan.build_family(
        {"family": "linear", "intercept": 0.5, "slope": 1.0}, grid)
    mean = sensan.moment(lambda x: x)
    median = sensan.quantile_functional(0.5)
    info = sensan.information_metric()
    parts = []
    for step in range(6):
        parts += field_parts(P)
        parts.append(sensan.sensitivity(mean, median, P, info).S)
        if step < 5:
            P = sensan.counterfactual_report(mean, median, P, info,
                                             0.02).counterfactual
    emit("counterfactual/median-steps", *parts)

    U = sensan.build_family({"family": "uniform"}, grid)
    jumps = tuple(sensan.CutTerm(((0, 0.1 * k),), np.full(grid.shape, 0.01))
                  for k in range(1, 10))
    d = sensan.TangentVector(U, np.zeros(grid.shape), terms=jumps)
    try:
        emit("counterfactual/tilt-9-jumps", *field_parts(
            sensan.counterfactual_density(U, d, 5.0, path="exponential")))
    except sensan.SensanError as exc:
        emit("counterfactual/tilt-9-jumps", "error", str(exc))


def samples(sensan) -> None:
    P1 = sensan.build_family(BETA23, sensan.Grid.line(0.0, 1.0, 801))
    P2 = sensan.GridDensity.from_callable(
        unit_box(sensan, (101, 101)), lambda x, y: np.exp(
            -((x - 0.4) ** 2 + (y - 0.6) ** 2 - (x - 0.4) * (y - 0.6)) / 0.05))
    for name, P in (("1d", P1), ("2d", P2)):
        for n in (1, 511, 5000):
            draws = sensan.sample_from(P, n, np.random.default_rng(n))
            emit(f"sample_from/{name}/{n}", draws.points)


def kdes(sensan) -> None:
    rng = np.random.default_rng(25)
    s1 = sensan.Sample(rng.beta(2.0, 5.0, 3000), (0.0,), (1.0,))
    line = sensan.Grid.line(0.0, 1.0, 801)
    s2 = sensan.Sample(np.column_stack([rng.beta(2.0, 3.0, 2000),
                                        rng.beta(3.0, 2.0, 2000)]),
                       (0.0, 0.0), (1.0, 1.0))
    cases = [("beta25/801/silverman", s1, line, None),
             ("beta25/801/0.05", s1, line, 0.05),
             ("product/81x81/silverman", s2, unit_box(sensan, (81, 81)), None)]
    for label, s, grid, bandwidth in cases:
        emit(f"kde_fit/{label}", sensan.kde_fit(s, grid, bandwidth).values)


def sample_side(sensan) -> None:
    estimate = getattr(sensan, "efficient_estimate", sensan.evaluate)
    line = sensan.Grid.line(0.0, 1.0, 801)
    P1 = sensan.build_family(BETA23, line)
    P2 = sensan.GridDensity.from_callable(unit_box(sensan, (41, 41)),
                                          lambda x, y: 1.0 + x * y)
    s1 = sensan.sample_from(P1, 501, np.random.default_rng(7))
    s2 = sensan.sample_from(P2, 400, np.random.default_rng(8))
    mean, median = sensan.moment(lambda x: x), sensan.quantile_functional(0.5)
    cases = [("1d", s1, P1.grid, [("mean", mean), ("variance", sensan.variance()),
                                  ("median", median)]),
             ("2d", s2, P2.grid, [("xy", sensan.moment(lambda x, y: x * y)),
                                  ("var1", sensan.variance(1)),
                                  ("q0.3/1", sensan.quantile_functional(0.3, 1))])]
    for dim, s, grid, kinds in cases:
        for name, F in kinds:
            label = f"sample/{dim}/{name}"
            emit(f"{label}/estimate", estimate(F, s))
            for g, tag in ((grid, "grid"), (None, "nogrid")):
                try:
                    emit(f"{label}/influence-{tag}",
                         sensan.estimated_influence(F, s, g)(s.points))
                except sensan.SensanError as exc:
                    emit(f"{label}/influence-{tag}", "error", str(exc))

    Q = sensan.build_family(
        {"family": "linear", "intercept": 0.5, "slope": 1.0}, line)
    ratios = [("information", sensan.RatioInformation()),
              ("known", sensan.RatioKnown(sensan.likelihood_ratio(P1, Q))),
              ("kde", sensan.RatioKde(Q))]
    for name, ratio in ratios:
        emit(f"plugin/{name}", sensan.plugin_sensitivity(sensan.PluginConfig(
            sensan.estimated_influence(mean, s1, line),
            sensan.estimated_influence(median, s1, line), ratio, s1)))
    joints = [("beta23/200x40", P1, mean, median, 200, 40, 3),
              ("beta23/variance-median/5000x13", P1, sensan.variance(), median,
               5000, 13, 4),
              ("1+xy/xy-q0.5/1/700x9", P2, sensan.moment(lambda x, y: x * y),
               sensan.quantile_functional(0.5, 1), 700, 9, 5)]
    for label, P, psi, nu, n, reps, seed in joints:
        res = sensan.mc_joint_asymptotics(P, psi, nu, n, reps, seed)
        emit(f"mc_joint/{label}", res.estimates[n], res.empirical_cov[n],
             res.lambda_hat, res.delta_hat)
    res = sensan.mc_consistency(P1, mean, median, sensan.RatioInformation(),
                                (60, 120, 240), 6, 11, 0.0)
    emit("mc_consistency/beta23/information", *(res.estimates[n] for n in
                                                res.n_grid), res.rmse)

    B25 = sensan.build_family({"family": "beta", "alpha": 2, "beta": 5}, line)
    B22 = sensan.build_family({"family": "beta", "alpha": 2, "beta": 2}, line)
    for name, Q in (("beta25-beta25", B25), ("beta25-beta22", B22)):
        lr = sensan.likelihood_ratio(B25, Q)
        emit(f"likelihood_ratio/{name}", lr.ratio_values, lr.clamped)


def gmm_case(sensan, label: str, P, spec, W) -> None:
    """Hash one solve and each influence or projection built on it."""
    try:
        sol = sensan.gmm_solve(P, spec, W)
    except sensan.SensanError as exc:
        emit(f"{label}/solution", "error", str(exc))
        return
    emit(f"{label}/solution", sol.theta, sol.W, sol.Pg, sol.G, sol.Omega,
         sol.criterion)
    alpha = np.array([1.0, -0.5, 0.25])[:spec.moment_dim]
    infl = sensan.gmm_influence(P, spec, sol)
    calls = [("influence", lambda: infl),
             ("efficient", lambda: sensan.gmm_efficient_influence(P, spec, sol)),
             ("project", lambda: [sensan.gmm_project_tangent(P, spec, sol, a)
                                  for a in infl]),
             ("out", lambda: [sensan.gmm_out_direction(P, spec, sol, alpha)])]
    for name, call in calls:
        try:
            emit(f"{label}/{name}",
                 *(part for t in call() for part in field_parts(t)))
        except sensan.SensanError as exc:
            emit(f"{label}/{name}", "error", str(exc))


def gmms(sensan) -> None:
    line = sensan.Grid.line(-7.0, 9.0, 801)
    spec = sensan.moment_spec(("x - th0", "x*x - th0*th0 - 1"), 1,
                              ((-3.0, 3.0),))
    box = sensan.Grid.box((0.0, 1.0), (-1.0, 2.0), (41, 40))
    spec2 = sensan.moment_spec(("x*y - th0", "x**2 + y - th0*th1",
                                "y**3*th1 - x*th0**2"), 2,
                               ((-1.0, 1.0), (-1.0, 2.0)), data_vars=("x", "y"))
    cases = [
        ("normal-1-1", sensan.build_family(
            {"family": "truncated_normal", "mean": 1.0, "sd": 1.0}, line), spec),
        ("normal-1-1.2", sensan.build_family(
            {"family": "truncated_normal", "mean": 1.0, "sd": 1.2}, line), spec),
        ("tilted-2d", sensan.GridDensity.from_callable(
            box, lambda x, y: 2.5 - y + x * y), spec2)]
    for name, P, sp in cases:
        for weight in ("identity", "optimal"):
            W = np.eye(sp.moment_dim) if weight == "identity" else weight
            gmm_case(sensan, f"gmm/{name}/{weight}", P, sp, W)


def cli_runs(sensan, src: str, configs) -> None:
    runs = [(f"{i}-{command}", [command, "--config"], config)
            for i, (command, config) in enumerate(configs)]
    runs.append(("edu-201", ["replicate-education", "--grid", "201"], None))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    for label, argv, config in runs:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            if config is not None:
                sample = os.path.join(tmp, "sample.csv")
                sensan.Sample(np.linspace(0.05, 0.95, 60), (0.0,),
                              (1.0,)).to_csv(sample)
                text = json.dumps(config).replace('"SAMPLE"', json.dumps(sample))
                text = text.replace('"OUT"', json.dumps(out))
                path = os.path.join(tmp, "config.json")
                with open(path, "w") as fh:
                    fh.write(text)
                argv = argv + [path]
            proc = subprocess.run([sys.executable, "-m", "sensan.cli", *argv,
                                   "--out", out], cwd=tmp, env=env,
                                  capture_output=True)
            emit(f"cli/{label}", proc.returncode,
                 proc.stdout.replace(tmp.encode(), b"TMP"),
                 proc.stderr.replace(tmp.encode(), b"TMP"))
            for base, _, files in sorted(os.walk(out)):
                for name in sorted(files):
                    full = os.path.join(base, name)
                    with open(full, "rb") as fh:
                        data = fh.read().replace(tmp.encode(), b"TMP")
                    emit(f"cli/{label}/{os.path.relpath(full, out)}", data)


def main(argv: list[str]) -> None:
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(root, "src")
    # leave no bytecode in the checkouts being compared
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, os.path.join(root, "perfbench"),
                    os.path.join(root, "tests")]
    import sensan
    import jobs
    from test_cli import SCHEMA_CONFIGS
    influences(sensan, jobs)
    sensitivities(sensan, jobs)
    counterfactuals(sensan)
    samples(sensan)
    kdes(sensan)
    sample_side(sensan)
    gmms(sensan)
    cli_runs(sensan, src, SCHEMA_CONFIGS)


if __name__ == "__main__":
    main(sys.argv[1:])
