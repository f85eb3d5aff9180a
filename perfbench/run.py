"""Benchmark for sensan: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    analytic             closed-form path: parse, build, sensitivity,
                         counterfactuals, GMM, charts, education, in-process CLI
    numerical-influence  mollifier-based influence functions, 1-d and 2-d
    monte-carlo          sampling, kernel estimates, plug-in estimators,
                         joint-asymptotics harnesses

Every workload is a closed loop: one process, one client, each job started
after the previous one finished, BLAS and OpenMP at one thread. Each job's
output is checked against a closed form or a second code path.

--trace 0 prints the end-to-end metrics: setup_s (median over three
set-ups, each in a fresh process), jobs_per_s, job_p50_ms, job_p90_ms
(correct jobs only), peak_rss_mb and ok_ratio. Times are scaled to a
reference machine speed by a calibration kernel timed around every job
and every set-up (worker.py says why and how); the unscaled figures are
printed to standard error. --trace 1 runs the
workload once untraced and once traced on the same jobs and prints the
per-layer metrics: `<module>.<function>.{calls,ms,fail}` with ms the self
time summed over the timed jobs, setup.import_ms, setup.inputs_ms and
trace.overhead_ratio. Both runs do a fixed amount of work, the first
TRACE_CYCLES cycles of the seed (generators.py), whatever --seconds says,
so a layer's summed figures compare between commits. A worker that hits
its wall-clock cap before its work is done fails the run. The traced
run's spans are written under perfbench/.work/. A human-readable summary,
with fail_ratio, goes to standard error; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 3
# every worker must have ended this long after start: a run has 180 s
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import layers  # noqa: E402
from generators import TRACE_CYCLES, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # write no bytecode into the checkout; the package compiles on import
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _child(args: argparse.Namespace, workdir: str, mode: str, deadline: float,
           *, share: float = 1.0, trace: int = 0, cycles: int = 0,
           spans_out: str = "") -> dict:
    """Run one worker process. It may use `share` of the time left before
    `deadline`; its timed loop stops starting jobs well before that, and
    a worker stopped that way fails the run."""
    t0 = time.monotonic()
    budget = (deadline - t0) * share
    if budget < 10.0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(float(args.seconds)),
           "--cycles", str(cycles), "--trace", str(trace), "--src", SRC,
           "--workdir", workdir, "--spans-out", spans_out,
           "--cap", repr(0.7 * budget), "--t0", repr(t0)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=budget)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("capped"):
        raise BenchError(f"worker ({mode}) reached its {0.7 * budget:.0f} s "
                         "wall-clock cap before its work was done")
    return result


def _latency_metrics(jobs: list[dict], key: str) -> dict:
    good = [j[key] for j in jobs if j["ok"]]
    if not good:
        raise BenchError("no job of the run was correct")
    p50, p90 = np.percentile(good, [50, 90])
    return {"jobs_per_s": len(good) / sum(j[key] for j in jobs),
            "job_p50_ms": 1e3 * float(p50), "job_p90_ms": 1e3 * float(p90)}


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, int, int]:
    """End-to-end metrics from speed-scaled times (see worker.py)."""
    jobs = run["jobs"]
    values = {"setup_s": statistics.median(setups)}
    values.update(_latency_metrics(jobs, "scaled_s"))
    failed = sum(not j["ok"] for j in jobs)
    values["peak_rss_mb"] = run["peak_rss_mb"]
    values["ok_ratio"] = (len(jobs) - failed) / len(jobs)
    units = {name: unit for name, unit, _ in layers.END_TO_END}
    return ({k: {"value": values[k], "unit": units[k]} for k in units},
            len(jobs), failed)


def per_layer(plain: dict, traced: dict) -> dict:
    units = {name: unit for name, unit, _ in layers.per_layer()}
    values = dict(traced["layers"])
    values["setup.import_ms"] = 1e3 * traced["import_s"]
    values["setup.inputs_ms"] = 1e3 * traced["inputs_s"]
    values["trace.overhead_ratio"] = (sum(j["scaled_s"] for j in traced["jobs"])
                                      / sum(j["scaled_s"] for j in plain["jobs"]))
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _versions() -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} "
                                             f"{blas.get('version', '?')}"}


def _summary(args, run: dict, metrics: dict, attempted: int, failed: int) -> None:
    out = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in "
          f"{run['cycles']} cycles, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}), "
          f"busy {run['busy_s']:.2f} s", file=out)
    print(f"environment {json.dumps(_versions())}, sizes "
          f"{json.dumps(run['describe'])}", file=out)
    by_class: dict[str, list[float]] = {}
    for j in run["jobs"]:
        if j["ok"]:
            by_class.setdefault(j["cls"], []).append(1e3 * j["latency_s"])
    print("  median ms per class: " + ", ".join(
        f"{c} {statistics.median(v):.1f} (x{len(v)})"
        for c, v in sorted(by_class.items())), file=out)
    errors: dict[str, int] = {}
    for j in run["jobs"]:
        if not j["ok"]:
            key = f"{j['cls']}: {j['error'][:120]}"
            errors[key] = errors.get(key, 0) + 1
    for key, count in sorted(errors.items()):
        print(f"  failed x{count} {key}", file=out)
    raw = _latency_metrics(run["jobs"], "latency_s")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
          file=out)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=out)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sensan", "__init__.py")):
        print(f"error: no sensan sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(workdir)
        if args.trace:
            cycles = TRACE_CYCLES[args.workload]
            plain = _child(args, workdir, "run", deadline, share=0.5,
                           cycles=cycles)
            spans_out = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
            traced = _child(args, workdir, "run", deadline, trace=1,
                            cycles=cycles, spans_out=spans_out)
            metrics = per_layer(plain, traced)
            attempted = len(traced["jobs"])
            failed = sum(not j["ok"] for j in traced["jobs"])
            correct = not any(j["gate"] for j in plain["jobs"] + traced["jobs"])
            _summary(args, traced, metrics, attempted, failed)
        else:
            setups = [_child(args, workdir, "setup", deadline, share=0.15)
                      for _ in range(SETUP_SAMPLES - 1)]
            run = _child(args, workdir, "run", deadline)
            setups = [s["setup_scaled_s"] for s in setups + [run]]
            metrics, attempted, failed = end_to_end(run, setups)
            correct = not any(j["gate"] for j in run["jobs"])
            _summary(args, run, metrics, attempted, failed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
