"""Tests of the benchmark's own machinery: generators, metric names, span
arithmetic and reference gates."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gates  # noqa: E402
import generators as gen  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = [gen.cycle_jobs(workload, 7, c) for c in range(3)]
    again = [gen.cycle_jobs(workload, 7, c) for c in range(3)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(
        [gen.cycle_jobs(workload, 8, c) for c in range(3)])
    assert gen.warmup_jobs(workload, 7) == gen.warmup_jobs(workload, 7)
    assert {j["cls"] for j in gen.warmup_jobs(workload, 7)} == set(
        gen.job_classes(workload))


def test_cycles_keep_the_same_mix_across_seeds():
    for workload in gen.WORKLOADS:
        mix = lambda seed: sorted((j["cls"], j["params"].get("n"))
                                  for j in gen.cycle_jobs(workload, seed, 2))
        assert mix(1) == mix(2)


def test_traced_runs_do_fixed_whole_cycles():
    assert set(gen.TRACE_CYCLES) == set(gen.WORKLOADS)
    assert all(c >= 1 for c in gen.TRACE_CYCLES.values())
    # every rotating monte-carlo harness call falls inside the traced run
    assert gen.TRACE_CYCLES["monte-carlo"] % 8 == 0


def test_polynomials_stay_in_the_whitelist():
    from sensan.expressions import parse_whitelisted

    rng = gen._rng("analytic", 3, 0)
    for _ in range(200):
        text = gen.poly_text(rng, ("x", "y"), 4)
        expr = parse_whitelisted(text, ("x", "y"))
        assert expr.free_symbols


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.per_layer()
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _span(name, start, end, parent, failed=False):
    return [name, start, end, parent, 0, failed]


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span("a", 0, 100, -1),       # children cover 10-40 and 50-70
        _span("b", 10, 40, 0),        # child covers 20-25
        _span("c", 20, 25, 1, True),
        _span("d", 50, 70, 0),
        _span("a", 120, 130, -1),     # a second call of the same layer
    ]
    assert spans.self_times(tree) == [50, 25, 5, 20, 10]
    m = spans.layer_metrics(tree, ["a", "b", "c", "d", "e"])
    assert m["a.calls"] == 2 and m["a.ms"] == pytest.approx(60e-6)
    assert m["c.fail"] == 1 and m["b.fail"] == 0
    assert m["e.calls"] == 0 and m["e.ms"] == 0.0


def test_self_time_merges_overlapping_children():
    tree = [_span("p", 0, 100, -1), _span("x", 10, 50, 0), _span("y", 30, 60, 0),
            _span("z", 90, 120, 0)]
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_recorder_nests_spans_and_marks_failures():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.active = True

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = rec.wrap(inner, "inner")
    outer = rec.wrap(lambda x: traced_inner(x) + traced_inner(1), "outer")
    assert outer(2) == 3
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.FAILED]) for s in rec.spans]
    assert names == [("outer", -1, False), ("inner", 0, False),
                     ("inner", 0, False), ("outer", -1, True),
                     ("inner", 3, True)]
    rec.active = False
    assert outer(2) == 3 and len(rec.spans) == 5


def test_scaling_maps_kernel_time_to_the_reference_speed():
    import worker

    ref = worker.CAL_REF_S
    assert worker.scale(0.3, ref, ref) == pytest.approx(0.3)
    # a host running the kernel 1.5x slower ran the job 1.5x slower too
    assert worker.scale(0.45, 1.5 * ref, 1.5 * ref) == pytest.approx(0.3)
    assert worker.scale(0.3, ref, 3 * ref) == pytest.approx(0.15)


def test_split_layers_are_named_by_the_density_dimension():
    class Density:
        def __init__(self, ndim):
            self.grid = type("G", (), {"ndim": ndim})()

    infl = layers.span_name("functionals", "influence_numerical", True)
    assert infl("F", Density(2)) == "functionals.influence_numerical_2d"
    sample = layers.span_name("estimation", "sample_from", True)
    assert sample(Density(1), 10, None) == "estimation.sample_from_1d"
    assert set(layers.SPAN_NAMES) >= {"functionals.influence_numerical_2d",
                                      "estimation.sample_from_1d"}


def test_gates_flag_a_wrong_reference():
    gates.close("S", 0.5, 0.5 + 1e-4, 1e-3)
    with pytest.raises(gates.GateFailure):
        gates.close("S", 0.5, 2 / 3.141592653589793, 1e-3)
    with pytest.raises(gates.GateFailure):
        gates.below("slope", 2.4, 2.3)
    with pytest.raises(gates.GateFailure):
        gates.sup_error("influence", [0.0, 1.0], [0.0, 0.0], [False, False], 1.0)
    # errors that do not shrink with n
    flat = {500: [0.1, -0.1], 2000: [0.1, -0.1], 8000: [0.1, -0.1]}
    assert gates.rmse_ratios(flat, 0.0) == pytest.approx([1.0, 1.0])


def test_job_check_flags_a_wrong_reference(tmp_path):
    import jobs

    work = jobs.Analytic(0, str(tmp_path))
    job = {"id": 0, "cls": "sens_closed",
           "params": {"family": "uniform", "n": 201, "scale": 1.5}}
    out = work.run(job, {})
    work.check(job, {}, out)
    wrong = dict(job, params=dict(job["params"], family="truncated_normal"))
    with pytest.raises(gates.GateFailure):
        work.check(wrong, {}, out)
