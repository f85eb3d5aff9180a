"""One workload process: set up, warm up, run the timed closed loop.

Started by run.py, never imported. It prints one JSON object as its last
line of standard output. `--mode setup` stops after set-up and reports
only its timings; `--mode run` runs cycles of jobs, one at a time, until
the summed job latency reaches `--seconds` and at least MIN_CORRECT jobs
were correct (at a cycle boundary), or exactly `--cycles` cycles when that
is given. A run that reaches the `--cap` wall-clock limit first stops
starting jobs and reports `"capped": true`; its figures are not valid.

Set-up time runs from `--t0`, a CLOCK_MONOTONIC reading the parent took
just before starting this process, to the start of the first timed job:
interpreter start, `import sensan`, the run-wide inputs and one untimed
warm-up job per job class.

Speed scaling. On a shared 2-vCPU virtual machine the same code ran up to
1.7x slower for seconds at a time. A fixed calibration kernel (small numpy calls in a
Python loop, the package's usual mix) is timed right before and right
after every job and around set-up; each time is also reported scaled by
CAL_REF_S over the mean of its two kernel times, i.e. in seconds at the
reference speed. The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
# a run ends at a cycle boundary once it has measured --seconds of job
# time and at least this many correct jobs, so ten lie beyond the p90
MIN_CORRECT = 100
# the calibration kernel's time at the reference speed; it fixes the unit
# of the scaled times and nothing else
CAL_REF_S = 2.0e-4
_CAL_X = np.linspace(-3.0, 3.0, 801)
_CAL_W = np.full(801, 1.0 / 801)


def calibrate() -> float:
    """Best of three timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = 0.0
        for _ in range(30):
            acc += float(np.dot(np.exp(-0.5 * _CAL_X * _CAL_X), _CAL_W))
        for i in range(300):
            acc += (i * 7) % 13
        best = min(best, time.perf_counter() - t)
    return best


def scale(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out", default="")
    p.add_argument("--cap", type=float, required=True,
                   help="wall seconds after which no new job starts")
    return p.parse_args()


def main() -> int:
    args = _args()
    cal_start = calibrate()
    t_import = time.perf_counter()
    sys.path.insert(0, args.src)
    import sensan  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(sensan.__file__).startswith(os.path.abspath(args.src)):
        print(f"sensan imported from {sensan.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import generators
    import jobs
    import layers
    import spans

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.instrument(recorder, [(m, f, layers.span_name(m, f, split))
                                    for m, f, split in layers.TARGETS])

    t_inputs = time.perf_counter()
    work = jobs.WORKLOAD_TYPES[args.workload](args.seed, args.workdir)
    work.setup()
    warmup = generators.warmup_jobs(args.workload, args.seed)
    inputs_s = time.perf_counter() - t_inputs

    for i, job in enumerate(warmup):
        job["id"] = -1 - i
        prep = work.prepare(job)
        try:
            work.check(job, prep, work.run(job, prep))
        except Exception:
            pass  # warm-up only fills caches; failures show in the timed run
        finally:
            work.release(prep)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s,
              "setup_scaled_s": scale(setup_s, cal_start, calibrate()),
              "import_s": import_s, "inputs_s": inputs_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    records = []
    busy = 0.0
    cycle = 0
    capped = done = False
    while not (done or capped):
        for job in generators.cycle_jobs(args.workload, args.seed, cycle):
            job["id"] = len(records)
            prep = work.prepare(job)
            rec = {"cls": job["cls"], "params": job["params"], "ok": False,
                   "error": None, "gate": False, "value": None}
            cal_before = calibrate()
            if recorder is not None:
                recorder.job, recorder.active = job["id"], True
            t = time.perf_counter()
            try:
                out = work.run(job, prep)
            except Exception as exc:  # a failed job is data, not a crash
                out, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            rec["latency_s"] = time.perf_counter() - t
            if recorder is not None:
                recorder.active = False
            rec["scaled_s"] = scale(rec["latency_s"], cal_before, calibrate())
            busy += rec["latency_s"]
            if rec["error"] is None:
                try:
                    work.check(job, prep, out)
                    rec["ok"] = True
                    if job["cls"] == "mc_rep":
                        rec["value"] = out
                except jobs.GateFailure as exc:
                    rec["error"], rec["gate"] = str(exc), True
            work.release(prep)
            records.append(rec)
            if time.monotonic() - args.t0 > args.cap:
                capped = True
                break
        cycle += 1
        if args.cycles:
            done = cycle >= args.cycles
        else:
            done = busy >= args.seconds and \
                sum(r["ok"] for r in records) >= MIN_CORRECT
    for msg in work.finish(records):
        print(f"gate failed: {msg}", file=sys.stderr)

    result.update({
        "busy_s": busy,
        "cycles": cycle,
        "capped": capped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [{"cls": r["cls"], "latency_s": r["latency_s"],
                  "scaled_s": r["scaled_s"], "ok": r["ok"], "gate": r["gate"],
                  "error": r["error"]} for r in records],
        "describe": work.describe(),
    })
    if recorder is not None:
        timed = lambda rec: rec[spans.JOB] is not None and rec[spans.JOB] >= 0
        result["layers"] = spans.layer_metrics(recorder.spans, layers.SPAN_NAMES, timed)
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
