"""Seeded job generators for the three workloads.

Every job is a plain JSON-serializable dict: config mappings, expression
strings, family parameters, grid sizes, sample sizes and replication
indices. The package only ever receives what these generators produce.

Jobs come in cycles. A cycle holds a fixed mix of job classes and sizes
(sizes are spread over the classes, not drawn; the monte-carlo harness
calls rotate over eight cycles), so each run sees the same mix and only
the drawn parameters change with the seed; that keeps run-to-run spread
small. Cycle c of workload w under seed s is
drawn from SeedSequence((s, tag(w), c)) alone, so a job never depends on
how many jobs ran before it. Warm-up jobs and the
monte-carlo populations come from cycle indices no run reaches.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

WORKLOADS = ("analytic", "numerical-influence", "monte-carlo")
_TAGS = {"analytic": 1, "numerical-influence": 2, "monte-carlo": 3}
WARMUP_CYCLE = 2 ** 31 - 1

SIZES_1D = (201, 401, 801)
SIZES_2D = (101, 201)
SIZES_2D_NUMERICAL = (21, 31, 41)
MC_SIZES = (500, 2000, 8000)
MC_RATIOS = ("information", "known", "kde")
# 401 nodes: kde_fit still dominates a replication, and a run holds
# enough replications for the RMSE gate
MC_GRID = 401
MC_2D_GRID = 101
# 2-d sample sizes: sampling and the plug-in at 8000 sit with the 2000-point
# replications in the middle of the latency range, so job_p50_ms falls
# inside a cluster of jobs, not in the gap below it
MC_2D_N, MC_2D_KDE_N = 8000, 2000
# criterion 10's sizes; the multinomial gate (|cov + 0.15| < 0.02) is only
# 2.3 standard errors wide at 1000 replications, so it runs 5000 to keep
# a correct program from failing it by chance
JOINT_N, JOINT_REPS = 5000, 1000
MULTI_N, MULTI_REPS = 5000, 5000

# cycles in each run of `--trace 1`: fixed work, the same on every commit,
# so per-layer sums compare between commits; 20 to 25 s of jobs each on a
# 2-vCPU x86-64 VM (a multiple of eight on monte-carlo, so its harness
# rotation is whole)
TRACE_CYCLES = {"analytic": 40, "numerical-influence": 1, "monte-carlo": 40}

UNIT = (0.0, 1.0)
NORMAL_WINDOW = (-4.0, 4.0)
CLOSED_FORM_WINDOW = (-6.0, 6.0)
GMM_WINDOW = (-7.0, 9.0)


def _rng(workload: str, seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), _TAGS[workload], int(cycle))))


def _u(rng, lo, hi, digits=4) -> float:
    return round(float(rng.uniform(lo, hi)), digits)


def _coef(rng) -> Fraction:
    return Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])),
                    int(rng.choice([1, 2, 4])))


def _term(c: Fraction, mono: str) -> str:
    num = f"{abs(c.numerator)}" + (f"/{c.denominator}" if c.denominator != 1
                                   else "")
    sign = "-" if c < 0 else "+"
    return f"{sign} {num}*{mono}" if mono else f"{sign} {num}"


def poly_text(rng, variables: tuple[str, ...], max_degree: int) -> str:
    """Random polynomial with rational coefficients and per-variable degree
    at most max_degree, never constant."""
    monos = [""]
    for v in variables:
        monos = [m + ("*" if m and p else "") + (f"{v}**{p}" if p > 1 else
                                                 v if p == 1 else "")
                 for m in monos for p in range(max_degree + 1)]
    nonconst = [m for m in monos if m]
    lead = nonconst[int(rng.integers(len(nonconst)))]
    picked = {lead} | {m for m in monos if rng.random() < 0.3}
    text = " ".join(_term(_coef(rng), m) for m in monos if m in picked)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def family_1d(rng, positive: bool) -> tuple[dict, tuple[float, float]]:
    """A family spec and the window it lives on. Positive families keep
    likelihood ratios against each other bounded."""
    kinds = ["uniform", "linear", "quadratic", "truncated_normal"]
    if not positive:
        kinds.append("beta")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "uniform":
        return {"family": "uniform"}, UNIT
    if kind == "beta":
        return {"family": "beta", "alpha": _u(rng, 1.5, 4.0),
                "beta": _u(rng, 1.5, 4.0)}, UNIT
    if kind == "linear":
        icpt = _u(rng, 0.4, 1.2)
        return {"family": "linear", "intercept": icpt,
                "slope": _u(rng, 0.1 - icpt, 1.2)}, UNIT
    if kind == "quadratic":
        return {"family": "quadratic", "offset": _u(rng, 0.3, 1.0),
                "curvature": _u(rng, 0.2, 2.5),
                "center": _u(rng, 0.2, 0.8)}, UNIT
    return {"family": "truncated_normal", "mean": _u(rng, -0.3, 0.3),
            "sd": _u(rng, 0.7, 1.2)}, NORMAL_WINDOW


def policy_for(rng, spec: dict, window) -> dict:
    """A policy density on the same window whose ratio to `spec` stays
    far inside the clamp."""
    if window == NORMAL_WINDOW:
        return {"family": "truncated_normal",
                "mean": round(spec["mean"] + _u(rng, -0.3, 0.3), 4),
                "sd": spec["sd"]}
    while True:
        q, w = family_1d(rng, positive=True)
        if w == UNIT:
            return q


def functional_1d(rng, kinds=("moment", "variance", "quantile")) -> dict:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "moment":  # a polynomial rho of degree 1 to 4
        return {"kind": "moment",
                "rho": poly_text(rng, ("x",), int(rng.integers(1, 5)))}
    if kind == "variance":
        return {"kind": "variance", "axis": 0}
    return {"kind": "quantile", "tau": _u(rng, 0.2, 0.8, 3), "axis": 0}


def functional_2d(rng, kinds=("moment", "variance", "quantile")) -> dict:
    kind = kinds[int(rng.integers(len(kinds)))]
    axis = int(rng.integers(2))
    if kind == "moment":
        return {"kind": "moment",
                "rho": poly_text(rng, ("x", "y"), int(rng.integers(1, 3)))}
    if kind == "variance":
        return {"kind": "variance", "axis": axis}
    return {"kind": "quantile", "tau": _u(rng, 0.3, 0.7, 3), "axis": axis}


def product_2d(rng) -> dict:
    """Two positive unit-interval families tilted by 1 + c (x-1/2)(y-1/2)."""
    fx = fy = None
    while fx is None or fy is None:
        f, w = family_1d(rng, positive=True)
        if w == UNIT:
            fx, fy = (f, fy) if fx is None else (fx, f)
    return {"x": fx, "y": fy, "tilt": _u(rng, -1.0, 1.0)}


def _target(nu: dict, dist: dict) -> float:
    """A control increment of a few percent of the functional's scale."""
    if dist["family"] == "truncated_normal":
        return 0.1 * dist["sd"] if nu["kind"] == "quantile" else 0.02 * dist["sd"] ** 2
    return 0.02 if nu["kind"] == "quantile" else 0.001


# --- analytic ------------------------------------------------------------------------

def _analytic_cycle(rng, c: int) -> list[tuple[str, dict]]:
    out = []
    size = lambda k: SIZES_1D[(c + k) % len(SIZES_1D)]

    closed = ["uniform", "truncated_normal"][c % 2]
    out.append(("sens_closed", {"family": closed, "n": size(0),
                                "scale": _u(rng, 0.5, 2.0)}))
    for k, n in enumerate(SIZES_1D):
        dist, window = family_1d(rng, positive=False)
        info = dist["family"] == "beta" or rng.random() < 0.5
        out.append(("sens_1d", {
            "n": n, "window": list(window), "distribution": dist,
            "psi": functional_1d(rng), "nu": functional_1d(rng),
            "metric": None if info else policy_for(rng, dist, window)}))
    for n in SIZES_2D:
        out.append(("sens_2d", {
            "n": n, "distribution": product_2d(rng),
            "psi": functional_2d(rng), "nu": functional_2d(rng),
            "metric": None if rng.random() < 0.5 else product_2d(rng)}))
    for k, (refine, path) in enumerate(((False, "multiplicative"),
                                        (True, "multiplicative"),
                                        (False, "exponential"),
                                        (True, "exponential"))):
        dist, window = family_1d(rng, positive=True)
        nu = functional_1d(rng, kinds=("quantile", "variance"))
        # a variance decrease pushes the multiplicative path's factor
        # negative where (x - m)^2 is large, so variance targets are raised
        sign = 1.0 if rng.random() < 0.5 or nu["kind"] == "variance" else -1.0
        out.append(("cf_1d", {
            "n": size(k), "window": list(window), "distribution": dist,
            "psi": functional_1d(rng), "nu": nu,
            "metric": None if rng.random() < 0.5 else policy_for(rng, dist, window),
            "target": sign * _target(nu, dist), "refine": refine,
            "path": path}))
    for n in SIZES_2D:
        nu = functional_2d(rng, kinds=("quantile",))
        out.append(("cf_2d", {
            "n": n, "distribution": product_2d(rng),
            "psi": functional_2d(rng, kinds=("moment", "variance")), "nu": nu,
            "metric": None if rng.random() < 0.5 else product_2d(rng),
            "target": (1.0 if rng.random() < 0.5 else -1.0) * 0.02,
            "refine": bool(rng.random() < 0.5)}))
    # criterion 06's cases: off-median quantiles of the normal have almost
    # no quadratic remainder at these steps, so the slope gate does not
    # apply to them
    normal = rng.random() < 0.5
    out.append(("first_order", {
        "n": 801, "normal": bool(normal),
        "sd": _u(rng, 0.8, 1.2) if normal else None,
        "tau": 0.5 if normal else float(rng.choice([0.25, 0.5, 0.75])),
        "policy": None if normal or rng.random() < 0.5 else {
            "family": "linear", "intercept": _u(rng, 0.5, 1.6),
            "slope": _u(rng, -0.4, 1.0)}}))
    g2 = ["x*x - th0*th0 - 1", "x**2 - th0**2 - 1", "-1 + x**2 - th0**2"]
    out.append(("gmm_specified", {
        "n": size(1), "mean": _u(rng, 0.5, 1.5),
        "moments": ["x - th0", g2[int(rng.integers(3))]]}))
    # criterion 09's population N(1, 1.2^2), not a random one: near it the
    # Gauss-Newton solve can stop short of the first-order condition from
    # every start (N(1.1609, 1.2549^2) on 401 nodes does), and a job must
    # not fail at random
    # two misspecified solves per cycle put job_p90_ms inside their block
    for k in (0, 2):
        out.append(("gmm_misspecified", {
            "n": size(k), "mean": 1.0, "sd": 1.2,
            "moments": ["x - th0", g2[int(rng.integers(3))]]}))
    out.append(("surface", {
        "psi": poly_text(rng, ("u", "v"), 2), "nu": poly_text(rng, ("u", "v"), 2),
        "sphere": [_u(rng, 0.05, 0.45), _u(rng, 0.05, 0.45)],
        "flat": [_u(rng, -2.0, 2.0), _u(rng, -2.0, 2.0)],
        "hyperbolic": [_u(rng, -2.0, 2.0), _u(rng, 0.2, 3.0)]}))
    out.append(("education", {"n": size(0),
                              "target": _u(rng, 0.05, 0.1, 3)}))
    closed = ["uniform", "truncated_normal"][(c + 1) % 2]
    out.append(("cli_sensitivity", {"family": closed, "n": size(1),
                                    "scale": _u(rng, 0.5, 2.0)}))
    dist, window = family_1d(rng, positive=True)
    nu = {"kind": "quantile", "tau": _u(rng, 0.3, 0.7, 3), "axis": 0}
    out.append(("cli_counterfactual", {
        "n": size(2), "window": list(window), "distribution": dist,
        "psi": functional_1d(rng), "nu": nu,
        "target": _target(nu, dist)}))
    out.append(("cli_gmm", {"n": size(0), "mean": _u(rng, 0.5, 1.5)}))
    out.append(("cli_surface", {"point": [_u(rng, 0.05, 0.45),
                                          _u(rng, 0.05, 0.45)]}))
    return out


# --- numerical influence -------------------------------------------------------------

def _numerical_cycle(rng, c: int) -> list[tuple[str, dict]]:
    """Three blocks of 1-d jobs, then one 2-d covariance job per size. The
    201-node size appears twice per block so a cycle holds enough cheap
    jobs for a stable p90 next to the 2-d jobs that take seconds."""
    out = []
    for _ in range(3):
        for n in (201, 201, 401, 801):
            for kind in ("mean", "variance", "median", "mean_over_median"):
                dist, window = family_1d(rng, positive=False)
                while kind == "mean_over_median" and window != UNIT:
                    dist, window = family_1d(rng, positive=False)
                out.append(("ni_1d", {"n": n, "window": list(window),
                                      "distribution": dist, "functional": kind}))
        for n in SIZES_1D:
            dist, window = family_1d(rng, positive=True)
            while window != UNIT:
                dist, window = family_1d(rng, positive=True)
            out.append(("ni_sensitivity", {
                "n": n, "distribution": dist,
                "nu": functional_1d(rng, kinds=("quantile", "variance")),
                "metric": None if rng.random() < 0.5 else policy_for(rng, dist, UNIT)}))
    for n in SIZES_2D_NUMERICAL:
        out.append(("ni_cov_2d", {
            "n": n, "center": [_u(rng, 0.45, 0.55), _u(rng, 0.45, 0.55)],
            "sd": [_u(rng, 0.25, 0.35), _u(rng, 0.25, 0.35)],
            "corr": _u(rng, -0.5, 0.5)}))
    return out


# --- monte carlo ---------------------------------------------------------------------

def mc_population(seed: int) -> dict:
    """The run-wide populations the replications draw from."""
    rng = _rng("monte-carlo", seed, WARMUP_CYCLE)
    return {"policy": {"family": "linear", "intercept": _u(rng, 0.4, 0.6),
                       "slope": _u(rng, 0.8, 1.2)},
            "density_2d": product_2d(rng), "policy_2d": product_2d(rng),
            "master_seed": int(rng.integers(2 ** 31))}


def _mc_cycle(rng, c: int) -> list[tuple[str, dict]]:
    """One replication per sample size (each feeds all three ratio
    estimators, as mc_consistency does), the 2-d jobs, and every fourth
    cycle one call of a joint-asymptotics harness."""
    out = [("mc_rep", {"n": n, "rep": c}) for n in MC_SIZES]
    out.append(("mc_sample_2d", {"n": MC_2D_N, "rep": c}))
    out.append(("mc_kde_2d", {"n": MC_2D_KDE_N, "rep": c}))
    out.append(("mc_plugin_2d", {"n": MC_2D_N, "rep": c}))
    if c % 8 == 0:
        out.append(("mc_joint", {"n": JOINT_N, "reps": JOINT_REPS,
                                 "master_seed": int(rng.integers(2 ** 31))}))
    elif c % 8 == 4:
        out.append(("mc_multinomial", {"n": MULTI_N, "reps": MULTI_REPS,
                                       "probs": [0.5, 0.3, 0.2],
                                       "master_seed": int(rng.integers(2 ** 31))}))
    return out


_CYCLES = {"analytic": _analytic_cycle,
           "numerical-influence": _numerical_cycle,
           "monte-carlo": _mc_cycle}


def cycle_jobs(workload: str, seed: int, cycle: int) -> list[dict]:
    """Jobs of one cycle, in a seed-dependent order."""
    rng = _rng(workload, seed, cycle)
    jobs = _CYCLES[workload](rng, cycle)
    order = rng.permutation(len(jobs))
    return [{"cls": jobs[i][0], "cycle": cycle, "params": jobs[i][1]}
            for i in order]


def warmup_jobs(workload: str, seed: int) -> list[dict]:
    """One job per class, the smallest size met first, from the last eight
    cycles below WARMUP_CYCLE (eight, so every rotating class appears)."""
    seen: dict[str, dict] = {}
    for cycle in range(WARMUP_CYCLE - 8, WARMUP_CYCLE):
        for job in cycle_jobs(workload, seed, cycle):
            size = job["params"].get("n", 0)
            if job["cls"] not in seen or size < seen[job["cls"]]["params"].get("n", 0):
                seen[job["cls"]] = job
    return list(seen.values())


def job_classes(workload: str) -> list[str]:
    return sorted({j["cls"] for c in range(8) for j in cycle_jobs(workload, 0, c)})
