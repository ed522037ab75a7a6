"""Tests of the grid benchmark's own machinery (not of the simulator)."""

import json
import re
import signal
from pathlib import Path

import pytest

import gridtrace
import gridwork
import hostspeed
from repro.cache.sa_cache import SetAssocCache
from repro.coherence.mesi import MesiSystem
from repro.common.config import ScaleConfig
from repro.runner import DEFAULT_SEED, expand_grid, result_to_dict, sweep
from repro.workloads import build_workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_wrapped_calls():
    clock = FakeClock()
    tracer = gridtrace.Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    traced_inner = tracer.wrap("b", "inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0
        traced_inner()

    tracer.wrap("a", "outer", outer)()
    layers = tracer.layers()
    assert (layers["a"].calls, layers["a"].incl, layers["a"].self_time) == (
        1, 9.0, 3.0)
    assert (layers["b"].calls, layers["b"].incl, layers["b"].self_time) == (
        2, 6.0, 6.0)


def test_recursion_within_a_layer_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = gridtrace.Tracer(clock=clock)

    def walk(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("a", "walk", walk)
    traced(2)
    layer = tracer.layers()["a"]
    assert (layer.calls, layer.incl, layer.self_time) == (3, 3.0, 3.0)


def test_span_self_times_subtract_the_union_of_children():
    spans = [
        (0, None, "run", 0.0, 10.0),
        (1, 0, "sweep", 1.0, 9.0),
        (2, 1, "cell", 2.0, 5.0),
        (3, 1, "cell", 4.0, 8.0),     # overlaps its sibling
    ]
    assert gridtrace.span_self_times(spans) == {
        "run": 2.0, "sweep": 2.0, "cell": 7.0}


def test_recorded_spans_nest_under_their_parent():
    clock = FakeClock()
    tracer = gridtrace.Tracer(clock=clock)
    with tracer.span("run"):
        clock.now += 1.0
        with tracer.span("sweep"):
            clock.now += 4.0
    assert tracer.spans == [(0, None, "run", 0.0, 5.0),
                            (1, 0, "sweep", 1.0, 5.0)]
    assert gridtrace.span_self_times(tracer.spans) == {
        "run": 1.0, "sweep": 4.0}


def test_install_wraps_and_uninstall_restores():
    lookup = vars(SetAssocCache)["lookup"]
    before = dict(vars(MesiSystem))
    tracer = gridtrace.Tracer()
    tracer.install()
    try:
        assert SetAssocCache.lookup.__wrapped__ is lookup
        assert MesiSystem.finalize.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert vars(SetAssocCache)["lookup"] is lookup
    assert dict(vars(MesiSystem)) == before


def test_metric_names_are_valid_and_match_what_the_runs_emit():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    per_layer = set(gridwork.layer_metrics({}, [], 1))
    per_layer |= {"trace.overhead_x", "fail_ratio"}
    assert per_layer == {m["name"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        gridwork.WORKLOADS)


def test_corrupted_reference_digest_counts_as_a_failure(tmp_path):
    workload = gridwork.SweepWorkload("mesi-small", DEFAULT_SEED, tmp_path,
                                      apps=("LU",))
    assert workload.run_op() is not None
    assert workload.checker.fail_ratio == 0.0
    workload.checker.expected["LU/MESI"] = "0" * 16
    workload.run_op()
    assert workload.checker.fail_ratio > 0.0
    assert list(tmp_path.iterdir()) == []     # stores are removed


def test_first_digest_is_the_reference_at_other_seeds():
    checker = gridwork.Checker({}, strict=False)
    assert checker.attempt(lambda: (1, {"x": "a"})) == 1
    assert checker.attempt(lambda: (2, {"x": "b"})) == 2
    assert (checker.attempted, checker.failed) == (2, 1)
    strict = gridwork.Checker({}, strict=True)
    strict.attempt(lambda: (1, {"x": "a"}))
    assert strict.failed == 1


def test_an_exception_counts_as_a_failure():
    checker = gridwork.Checker({}, strict=False)

    def broken():
        raise ValueError("boom")

    assert checker.attempt(broken) is None
    assert checker.fail_ratio == 1.0


def test_two_seeds_give_different_radix_traces_and_results():
    tiny = ScaleConfig.tiny()
    traces, results = [], []
    for seed in (1, 2):
        specs = expand_grid(workloads=("radix",), protocols=("MESI",),
                            scale=tiny, seed=seed)
        spec = specs[0]
        traces.append(build_workload(spec.workload, spec.scale,
                                     num_cores=spec.num_tiles,
                                     seed=spec.seed).traces)
        (outcome,) = sweep(specs, use_cache=False)
        results.append(result_to_dict(outcome.result))
    assert traces[0] != traces[1]
    assert results[0] != results[1]


def test_coverage_check_rejects_bloom_work_on_mesi():
    layers = {"bloom": gridtrace.LayerTotals()}
    layers["bloom"].calls = 1
    with pytest.raises(gridwork.CoverageError, match="bloom.calls"):
        gridwork.check_coverage("mesi-small", layers, [])


def test_host_speed_scales_by_the_probes_around_an_interval():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.samples = [(0.0, ref), (10.0, 2 * ref), (10.2, 2 * ref)]
    # The probe at 10.0 ran inside the interval: its time comes out.
    assert speed.seconds(10.0, 10.1) == pytest.approx((0.1 - 2 * ref) / 2)
    assert speed.seconds(0.0, 0.2) == pytest.approx(0.2 - ref)
    # No probe within an interval of it: the nearest one counts.
    assert speed.scale(4.0, 4.1) == pytest.approx(1.0)


def test_host_speed_scale_takes_only_the_nearest_probe_on_each_side():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # Probes between short operations: only the two next to 10.0-10.02
    # count, not their neighbours.
    speed.samples = [(9.95, 4 * ref), (9.98, ref), (10.03, 3 * ref),
                     (10.06, 4 * ref)]
    assert speed.scale(10.0, 10.02) == pytest.approx(0.5)


def test_set_up_times_scale_by_their_calibration_jobs():
    ref = hostspeed.CALIBRATION_REFERENCE_S
    # A host twice as slow doubles both times of a pair.
    pairs = [(0.3, ref), (0.6, 2 * ref), (0.33, ref)]
    assert hostspeed.calibrated(pairs) == pytest.approx(0.3)


def test_host_speed_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) == 2
