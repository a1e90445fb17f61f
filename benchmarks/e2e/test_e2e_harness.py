"""Fast self-tests of the end-to-end benchmark harness (no process cluster).

They pin what a ruler must not get wrong: inputs are a function of the seed,
percentiles are exact, span self times add up to the wall time, and the
names the harness prints are the names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from e2ebench import loadgen, stats, tracing, workloads  # noqa: E402


# ------------------------------------------------------------------ generator
def _take(stream: loadgen.RequestStream, count: int):
    return [stream.next() for _ in range(count)]


def test_request_stream_is_a_function_of_the_seed():
    first = _take(loadgen.RequestStream(7, 0.2, 64), 500)
    again = _take(loadgen.RequestStream(7, 0.2, 64), 500)
    other = _take(loadgen.RequestStream(8, 0.2, 64), 500)
    assert first == again
    assert [r[1:] for r in first] != [r[1:] for r in other]
    assert all(len(payload) == 64 and payload.isascii() for _, _, payload in first)
    assert len({msg_id for msg_id, _, _ in first}) == 500
    share = sum(1 for _, dst, _ in first if len(dst) == 2) / 500
    assert 0.1 < share < 0.3


def test_request_stream_mixes():
    assert all(len(dst) == 1 for _, dst, _ in _take(loadgen.RequestStream(1, 0.0, 8), 200))
    assert all(dst == (0, 1) for _, dst, _ in _take(loadgen.RequestStream(1, 1.0, 8), 200))
    groups = {dst[0] for _, dst, _ in _take(loadgen.RequestStream(1, 0.0, 8), 200)}
    assert groups == {0, 1}


def test_poisson_schedule_is_seeded_sorted_and_on_rate():
    due = loadgen.poisson_schedule(3, 2000.0, 5.0)
    assert due == loadgen.poisson_schedule(3, 2000.0, 5.0)
    assert due != loadgen.poisson_schedule(4, 2000.0, 5.0)
    assert due == sorted(due) and 0.0 < due[0] and due[-1] < 5.0
    assert abs(len(due) - 10_000) < 400


# ---------------------------------------------------------------- statistics
def test_percentile_is_exact():
    samples = list(range(1, 102))  # 1..101
    assert stats.percentile(samples, 0) == 1
    assert stats.percentile(samples, 50) == 51
    assert stats.percentile(samples, 99) == 100
    assert stats.percentile(samples, 100) == 101
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_highest_percentile_with_ten_samples_beyond():
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 50.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(999) == 90.0
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(10_000) == 99.9


def test_fastest_takes_each_unit_at_its_best_round():
    # Unit 1 was slow in round 0, unit 2 in round 1: neither shows.
    assert stats.fastest([[1.0, 9.0, 3.0], [1.5, 2.0, 8.0], [2.0, 2.5, 3.5]]) == [1.0, 2.0, 3.0]
    assert stats.fastest([[4.0, 5.0]]) == [4.0, 5.0]
    with pytest.raises(ValueError):
        stats.fastest([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.fastest([])


def test_quiet_percentile_takes_slices_at_their_best_round_and_the_better_quartile():
    quiet, stalled = [10.0] * 9 + [100.0], [30.0] * 10
    # Four slices; each is quiet in one round at least, except the last,
    # which a stall covers in both.  A round with no sample is no candidate.
    rounds = [
        [quiet, stalled, quiet, stalled],
        [stalled, quiet, [], stalled],
    ]
    assert stats.quiet_percentile(rounds, 50.0) == 10.0
    assert stats.quiet_percentile(rounds, 50.0, pick=100.0) == 30.0
    # p90 of a quiet slice is 10 + 0.1 * 90 (linear between ranks 8 and 9).
    assert stats.quiet_percentile(rounds, 90.0) == pytest.approx(19.0)
    with pytest.raises(ValueError):
        stats.quiet_percentile([[[], []]], 50.0)


def test_slices_scale_to_reference_speed_and_keep_the_window_wait():
    class TwiceAsSlowInTheSecondHalf:
        def factor(self, t0, t1):
            return 1.0 if t1 <= 102.0 else 2.0

    opened = loadgen.Phase(starts=[100.5, 103.0], ends=[100.512, 103.022],
                           window_waits=[0.002, 0.002])
    done = workloads.Round(setup=(0.0, 1.0), marks=[], opened=opened, t0=100.0, open_s=4.0,
                           rss_mib=0.0, messages=2, attempted=2, failed=0, violations=[])
    first, second = workloads._latency_slices(done, 2, TwiceAsSlowInTheSecondHalf())
    assert first == [pytest.approx(12.0)]  # as measured
    assert second == [pytest.approx(2.0 + 20.0 / 2)]  # the 2 ms of timer wait unscaled
    marks = [(100.0, 0, {"total": 0.0}), (102.0, 100, {"total": 3.0}),
             (104.0, 150, {"total": 6.0})]
    seconds, cpu = workloads._per_message(marks, TwiceAsSlowInTheSecondHalf())
    assert seconds == [pytest.approx(0.02), pytest.approx(0.02)]
    assert cpu == [pytest.approx(0.03), pytest.approx(0.03)]


def test_host_speed_factor_is_the_mean_unit_time_over_the_reference(tmp_path):
    from e2ebench import hostspeed

    path = tmp_path / "speed.txt"
    ref = hostspeed.REFERENCE_S
    path.write_text("".join(f"{t:.6f} {ref * f:.6f}\n" for t, f in
                            [(10.0, 1.0), (10.05, 1.0), (10.1, 2.0), (10.15, 2.0)])
                    + "10.2 0.0")  # a half-written last line is ignored
    speed = hostspeed.HostSpeed(str(path))
    assert speed.factor(10.0, 10.06) == pytest.approx(1.0)
    assert speed.factor(10.0, 10.2) == pytest.approx(1.5)
    assert speed.factor(10.06, 10.09) == pytest.approx(1.5)  # no sample inside: its neighbours
    assert hostspeed.unit() == 6000


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, steady, "lower", 0.1)["verdict"] == "unchanged"
    assert stats.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)["verdict"] == "regressed"
    assert stats.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)["verdict"] == "improved"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert stats.verdict(steady, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert stats.spread([7.0]) == 0.0


# -------------------------------------------------------------------- tracing
def test_self_times_and_residual_add_up_to_the_wall():
    # root a [0, 10] -> child b [1, 4] -> grandchild c [2, 3]; child b again
    # [5, 7]; second root d [12, 15].  Wall is [0, 20].
    spans = [
        (3, 2, "layer.c", 2.0, 3.0, "m1"),
        (2, 1, "layer.b", 1.0, 4.0, "m1"),
        (4, 1, "layer.b", 5.0, 7.0, "m1"),
        (1, 0, "root.a", 0.0, 10.0, "m1"),
        (5, 0, "root.d", 12.0, 15.0, 5),
    ]
    own, calls, rooted = tracing.self_times(spans)
    assert own == {"layer.c": 1.0, "layer.b": 4.0, "root.a": 5.0, "root.d": 3.0}
    assert calls == {"layer.c": 1, "layer.b": 2, "root.a": 1, "root.d": 1}
    assert rooted == 13.0
    report = tracing.breakdown(spans, wall_s=20.0)
    assert report["layers_s"] == {"layer": 5.0, "root": 8.0}
    assert report["residual_s"] == 7.0
    assert sum(report["self_s"].values()) + report["residual_s"] == 20.0
    assert report["attributed_share"] + report["residual_s"] / 20.0 == pytest.approx(1.0)


def test_recorder_links_children_and_survives_missing_targets(capsys):
    recorder = tracing.Recorder()

    class Layer:
        def outer(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    recorder.patch([
        (Layer, "outer", "layer.outer"),
        (Layer, "inner", "layer.inner"),
        (None, "gone.module.function", "layer.gone"),
    ])
    assert "gone.module.function" in capsys.readouterr().err
    assert recorder.dropped == ["gone.module.function"]
    assert Layer().outer(3) == 7 and recorder.spans == []  # disabled: no spans
    recorder.enabled = True
    assert Layer().outer(3) == 7
    recorder.enabled = False
    recorder.unpatch()
    (inner_id, inner_parent, inner_name, *_), (outer_id, outer_parent, outer_name, *_) = \
        recorder.spans
    assert (inner_name, outer_name) == ("layer.inner", "layer.outer")
    assert inner_parent == outer_id and outer_parent == 0
    assert recorder.spans[0][5] == recorder.spans[1][5]  # one request key per tree
    assert Layer().outer(1) == 3 and len(recorder.spans) == 2  # unpatched


# ------------------------------------------------------------- the contract
def test_benchmark_json_and_harness_name_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for section, registry in (("end_to_end", workloads.END_TO_END),
                              ("per_layer", workloads.PER_LAYER)):
        rows = {row["name"]: row for row in declared[section]}
        assert len(rows) == len(declared[section])
        assert set(rows) == set(registry)
        for name, (unit, better) in registry.items():
            assert name_ok.match(name) and unit_ok.match(unit)
            assert (rows[name]["unit"], rows[name]["better"]) == (unit, better)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert not set(workloads.FAULT_LAYER) & set(workloads.PER_LAYER)
    assert set(workloads.metric_units("rejoin", True)) == \
        set(workloads.PER_LAYER) | set(workloads.FAULT_LAYER)
    assert workloads.metric_units("rejoin", False) is workloads.END_TO_END
    assert all(name_ok.match(w["name"]) and len(w["why"]) <= 200 for w in declared["workloads"])
    setup = next(row for row in declared["end_to_end"] if row["name"] == "setup_s")
    assert setup["bound"] == max(row["bound"] for row in declared["end_to_end"]) <= 0.25
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"][-1] == "benchmarks/e2e/run.py"


def test_quick_sim_smoke(tmp_path):
    outcome = workloads.run_workload("sim_gtpcc", seed=5, seconds=0.5, trace=False,
                                     work_dir=str(tmp_path), quick=True)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted > 100
    assert set(outcome.metrics) == set(workloads.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())
    traced = workloads.run_workload("sim_gtpcc", seed=5, seconds=0.5, trace=True,
                                    work_dir=str(tmp_path), out_dir=str(tmp_path), quick=True)
    assert traced.correct
    assert set(traced.metrics) == set(workloads.PER_LAYER)
    assert traced.metrics["history.self_us_per_msg"] > 0
    assert traced.metrics["sim.events_per_msg"] > 1
    assert 0.9 < traced.metrics["trace.attributed_share"] <= 1.0
    with open(tmp_path / "trace-sim_gtpcc.jsonl", "r", encoding="utf-8") as handle:
        span = json.loads(handle.readline())
    assert set(span) == {"id", "parent", "name", "start", "end", "req"}
