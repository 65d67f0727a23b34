"""Telemetry stack: metric snapshots across worker round trips, the
sampling profiler, the prediction ledger and its watchdog, and the HTML
dashboard."""

import json
import math
import os
import pickle
import signal
import sys
import time

import pytest

from repro.config import GPUConfig
from repro.obs import (
    MetricsRegistry,
    PredictionLedger,
    SamplingProfiler,
    Tracer,
    compare_ledgers,
    diff_snapshots,
    read_ledger,
    render_dashboard,
)
from repro.obs.ledger import per_kernel_errors, runs
from repro.obs.schema import load_schema, validate, validate_file
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


# ---------------------------------------------------------------------------
# Satellites: histogram edge cases
# ---------------------------------------------------------------------------


class TestHistogramEdgeCases:
    def test_empty_percentile_is_nan(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 2, 4))
        assert math.isnan(histogram.percentile(50))
        assert math.isnan(histogram.percentile(0))
        assert math.isnan(histogram.percentile(100))

    def test_sum_is_exact_not_bucket_midpoints(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 10, 100))
        for value in (0.25, 3.5, 42.0, 1000.0):
            histogram.observe(value)
        assert histogram.sum == 0.25 + 3.5 + 42.0 + 1000.0
        assert histogram.count == 4
        assert histogram.max == 1000.0

    def test_nonempty_percentiles_still_defined(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 2, 4))
        histogram.observe(1.5)
        assert histogram.percentile(50) == 2


# ---------------------------------------------------------------------------
# Satellites: label values through the JSON snapshot
# ---------------------------------------------------------------------------


def _through_json(registry):
    """The ``--metrics-out`` path: snapshot → JSON text → a fresh
    registry, as a consumer of the exported file would rebuild it."""
    rebuilt = MetricsRegistry()
    rebuilt.merge(json.loads(registry.to_json()))
    return rebuilt


class TestLabelValues:
    @pytest.mark.parametrize("value", [
        "plain", 'with"quote', "back\\slash", "line\nfeed",
        'all\\of"them\ntogether', "", "\\\\", '""',
    ])
    def test_value_round_trips_through_snapshot_json(self, value):
        registry = MetricsRegistry()
        registry.counter("runs", kernel=value).inc(3)
        rebuilt = _through_json(registry)
        assert rebuilt.counter_value("runs", kernel=value) == 3
        (entry,) = rebuilt.snapshot()["counters"]
        assert entry["labels"] == {"kernel": value}
        assert validate(rebuilt.snapshot(), load_schema("metrics")) == []

    def test_distinct_values_stay_distinct(self):
        # A value that spells out another label must not alias it.
        registry = MetricsRegistry()
        registry.counter("n", k='v",x="1').inc()
        registry.counter("n", k="v", x="1").inc(2)
        rebuilt = _through_json(registry)
        assert len(rebuilt.snapshot()["counters"]) == 2
        assert rebuilt.counter_value("n", k='v",x="1') == 1
        assert rebuilt.counter_value("n", k="v", x="1") == 2

    def test_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.counter("runs", warps=4).inc()
        registry.counter("runs", warps="4").inc()
        assert registry.counter_value("runs", warps=4) == 2
        (entry,) = registry.snapshot()["counters"]
        assert entry["labels"] == {"warps": "4"}

    def test_diff_matches_entries_by_label_set(self):
        registry = MetricsRegistry()
        registry.counter("n", k="a", x="1").inc()
        baseline = json.loads(registry.to_json())
        registry.counter("n", x="1", k="a").inc(2)
        registry.counter("n", k="b").inc(4)
        delta = diff_snapshots(json.loads(registry.to_json()), baseline)
        assert sorted((c["labels"]["k"], c["value"])
                      for c in delta["counters"]) == [("a", 2), ("b", 4)]

    def test_no_labels_and_empty_value_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n", k="").inc(5)
        rebuilt = _through_json(registry)
        assert rebuilt.counter_value("n") == 1
        assert rebuilt.counter_value("n", k="") == 5

    def test_labeled_values_reads_one_dimension(self):
        registry = MetricsRegistry()
        registry.counter("hits", stage="trace", result="hit").inc(2)
        registry.counter("hits", stage="trace", result="miss").inc()
        registry.counter("hits", stage="oracle", result="hit").inc(4)
        registry.counter("other", stage="trace").inc(100)
        assert registry.labeled_values("hits", "stage") == {
            "trace": 3, "oracle": 4,
        }
        assert registry.labeled_values("hits", "result") == {
            "hit": 6, "miss": 1,
        }
        assert registry.labeled_values("hits", "absent") == {}


# ---------------------------------------------------------------------------
# Satellites: diff/merge across worker round-trips
# ---------------------------------------------------------------------------


def _worker_round_trip(registry, mutate, protocol=pickle.HIGHEST_PROTOCOL):
    """Simulate one pool-worker round trip: the registry is pickled into
    the worker (as spawn does; fork shares then copies-on-write, which
    pickle over-approximates), mutated there, and the activity *delta*
    is shipped back — exactly what the pipeline's worker path does."""
    worker = pickle.loads(pickle.dumps(registry, protocol=protocol))
    baseline = worker.snapshot()
    mutate(worker)
    return diff_snapshots(worker.snapshot(), baseline)


class TestSnapshotMergeDiff:
    def _seed(self):
        registry = MetricsRegistry()
        registry.counter("stage.runs", stage="trace").inc(3)
        registry.histogram("stage.ms", buckets=(1, 10, 100),
                           stage="trace").observe(5.0)
        registry.histogram("stage.ms", buckets=(1, 10, 100),
                           stage="oracle").observe(50.0)
        return registry

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_overlapping_labeled_histograms_merge_exactly(self, protocol):
        parent = self._seed()

        def work_a(worker):
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="trace").observe(0.5)
            worker.counter("stage.runs", stage="trace").inc()

        def work_b(worker):
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="trace").observe(200.0)
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="cache_sim").observe(2.0)

        for delta in (
            _worker_round_trip(parent, work_a, protocol),
            _worker_round_trip(parent, work_b, protocol),
        ):
            parent.merge(delta)

        trace = parent.histogram("stage.ms", buckets=(1, 10, 100),
                                 stage="trace")
        assert trace.count == 3  # seed + worker A + worker B
        assert trace.sum == pytest.approx(5.0 + 0.5 + 200.0)
        assert trace.max == 200.0
        assert parent.counter_value("stage.runs", stage="trace") == 4
        new = parent.histogram("stage.ms", buckets=(1, 10, 100),
                               stage="cache_sim")
        assert new.count == 1 and new.sum == 2.0

    def test_delta_excludes_preexisting_activity(self):
        parent = self._seed()
        delta = _worker_round_trip(parent, lambda w: None)
        assert delta["counters"] == []
        assert delta["histograms"] == []

    def test_merged_registry_survives_second_round_trip(self):
        # fork-then-spawn in sequence: merge a delta, pickle the merged
        # parent again, mutate, merge again — totals stay exact.
        parent = self._seed()
        parent.merge(_worker_round_trip(
            parent,
            lambda w: w.histogram("stage.ms", buckets=(1, 10, 100),
                                  stage="trace").observe(7.0),
        ))
        parent.merge(_worker_round_trip(
            parent,
            lambda w: w.histogram("stage.ms", buckets=(1, 10, 100),
                                  stage="trace").observe(9.0),
        ))
        trace = parent.histogram("stage.ms", buckets=(1, 10, 100),
                                 stage="trace")
        assert trace.count == 3
        assert trace.sum == pytest.approx(5.0 + 7.0 + 9.0)

    def test_merge_rejects_mismatched_bounds(self):
        parent = self._seed()
        foreign = MetricsRegistry()
        foreign.histogram("stage.ms", buckets=(1, 2), stage="trace").observe(1)
        with pytest.raises(ValueError):
            parent.merge(foreign.snapshot())


# ---------------------------------------------------------------------------
# The metrics snapshot: the format ``--metrics-out`` writes
# ---------------------------------------------------------------------------


class TestSnapshotFormat:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.stage_executions", stage="trace").inc(2)
        registry.counter("pipeline.stage_executions", stage="oracle").inc()
        registry.gauge("workers.active").set(3)
        hist = registry.histogram("stage.ms", buckets=(1, 10, 100),
                                  stage="trace")
        hist.observe(0.5)
        hist.observe(42.0)
        return registry

    def _errors(self, snapshot):
        return validate(snapshot, load_schema("metrics"))

    def test_snapshot_validates_clean(self):
        assert self._errors(self._registry().snapshot()) == []

    def test_empty_registry_validates_clean(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot == {"counters": [], "gauges": [], "histograms": []}
        assert self._errors(snapshot) == []

    def test_counter_entry(self):
        counters = self._registry().snapshot()["counters"]
        assert {"name": "pipeline.stage_executions",
                "labels": {"stage": "trace"}, "value": 2} in counters

    def test_gauge_entry(self):
        (gauge,) = self._registry().snapshot()["gauges"]
        assert gauge == {"name": "workers.active", "labels": {},
                         "value": 3.0}

    def test_histogram_entry_has_overflow_bucket(self):
        (hist,) = self._registry().snapshot()["histograms"]
        assert hist["bounds"] == [1.0, 10.0, 100.0]
        assert hist["counts"] == [1, 0, 1, 0]  # + one overflow bucket
        assert hist["sum"] == 42.5
        assert hist["count"] == 2
        assert hist["max"] == 42.0

    def test_entries_sorted_by_name_then_labels(self):
        stages = [c["labels"]["stage"]
                  for c in self._registry().snapshot()["counters"]]
        assert stages == ["oracle", "trace"]

    def test_to_json_independent_of_creation_order(self):
        forward = MetricsRegistry()
        forward.counter("b").inc()
        forward.counter("a", k="2").inc()
        forward.counter("a", k="1").inc()
        backward = MetricsRegistry()
        backward.counter("a", k="1").inc()
        backward.counter("a", k="2").inc()
        backward.counter("b").inc()
        assert forward.to_json() == backward.to_json()

    def test_export_writes_to_json(self, tmp_path):
        registry = self._registry()
        path = tmp_path / "metrics.json"
        registry.export(str(path))
        assert path.read_text() == registry.to_json()
        assert validate_file("metrics", str(path)) == []

    def test_same_name_in_two_kinds_stays_separate(self):
        registry = MetricsRegistry()
        registry.counter("stage.ms").inc()
        registry.histogram("stage.ms", buckets=(1,)).observe(0.5)
        snapshot = registry.snapshot()
        assert [c["name"] for c in snapshot["counters"]] == ["stage.ms"]
        assert [h["name"] for h in snapshot["histograms"]] == ["stage.ms"]
        assert self._errors(snapshot) == []

    # -- the validator actually catches broken documents --------------------

    def test_validator_rejects_missing_section(self):
        snapshot = self._registry().snapshot()
        del snapshot["gauges"]
        assert any("gauges" in e for e in self._errors(snapshot))

    def test_validator_rejects_negative_counter(self):
        snapshot = self._registry().snapshot()
        snapshot["counters"][0]["value"] = -1
        assert any("minimum" in e for e in self._errors(snapshot))

    def test_validator_rejects_negative_bucket_count(self):
        snapshot = self._registry().snapshot()
        snapshot["histograms"][0]["counts"][1] = -1
        assert any("counts[1]" in e for e in self._errors(snapshot))

    def test_validator_rejects_fractional_bucket_count(self):
        snapshot = self._registry().snapshot()
        snapshot["histograms"][0]["counts"][0] = 0.5
        assert any("integer" in e for e in self._errors(snapshot))

    def test_validator_rejects_unknown_entry_field(self):
        snapshot = self._registry().snapshot()
        snapshot["gauges"][0]["unit"] = "workers"
        assert any("unexpected property 'unit'" in e
                   for e in self._errors(snapshot))

    def test_validator_rejects_non_numeric_value(self):
        snapshot = self._registry().snapshot()
        snapshot["counters"][0]["value"] = "2"
        assert any("expected type number" in e
                   for e in self._errors(snapshot))

    def test_validator_rejects_histogram_without_counts(self):
        snapshot = self._registry().snapshot()
        del snapshot["histograms"][0]["counts"]
        assert any("'counts'" in e for e in self._errors(snapshot))

    def test_schema_cli_dispatches_metrics(self, tmp_path, capsys):
        from repro.obs.schema import main as schema_main

        good = tmp_path / "good.json"
        self._registry().export(str(good))
        assert schema_main(["metrics", str(good)]) == 0
        bad = tmp_path / "bad.json"
        snapshot = self._registry().snapshot()
        snapshot["counters"][0]["value"] = -1
        bad.write_text(json.dumps(snapshot))
        assert schema_main(["metrics", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "good.json: ok" in out and "bad.json: INVALID" in out


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


def _spin(profiler, n_samples, timeout=5.0):
    """Burn CPU on this (the main) thread until ``profiler`` has taken
    ``n_samples`` samples; False if the wall-clock ``timeout`` ran out."""
    deadline = time.monotonic() + timeout
    while profiler.n_samples < n_samples and time.monotonic() < deadline:
        sum(i * i for i in range(500))
    return profiler.n_samples >= n_samples


def _profile_call(fn, interval):
    """Run ``fn()`` under a sampler; returns ``(result, profiler)``."""
    with SamplingProfiler(interval=interval) as profiler:
        result = fn()
    return result, profiler


class TestSampler:
    def test_samples_running_code(self):
        with SamplingProfiler(interval=0.002) as profiler:
            assert _spin(profiler, 5)
        assert profiler.n_samples >= 5
        assert any("_spin" in frame for stack in profiler.stacks()
                   for frame in stack)

    def test_collapsed_format(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler._stacks[("a:f", "b:g")] = 3
        profiler._stacks[("a:f",)] = 1
        lines = profiler.collapsed()
        assert lines == ["a:f;b:g 3", "a:f 1"]

    def test_write_collapsed(self, tmp_path):
        profiler = SamplingProfiler()
        profiler._stacks[("m:f",)] = 2
        out = tmp_path / "stacks.txt"
        profiler.write_collapsed(str(out))
        assert out.read_text() == "m:f 2\n"

    def test_span_attribution(self):
        tracer = Tracer(enabled=True)
        with SamplingProfiler(interval=0.001, tracer=tracer) as profiler:
            with tracer.span("trace"):
                assert _spin(profiler, 20)
        spans = profiler.by_span()
        assert spans.get("trace", 0) > 0
        assert any(stack[0] == "stage:trace"
                   for stack in profiler.stacks())

    def test_hot_frames_are_leaves(self):
        profiler = SamplingProfiler()
        profiler._stacks[("root:r", "leaf:a")] = 5
        profiler._stacks[("root:r", "leaf:b")] = 2
        assert profiler.hot_frames(top=1) == [("leaf:a", 5)]

    def test_by_span_without_tracer(self):
        profiler = SamplingProfiler()
        profiler._stacks[("m:f",)] = 4
        assert profiler.by_span() == {"(no span)": 4}

    def test_profile_call(self):
        result, profiler = _profile_call(lambda: 42, interval=0.001)
        assert result == 42
        assert not profiler.running

    def test_stop_disarms_timer_and_restores_handler(self):
        def installed_before(signum, frame):
            pass

        original = signal.signal(signal.SIGPROF, installed_before)
        try:
            profiler = SamplingProfiler(interval=0.001)
            profiler.start()
            assert signal.getsignal(signal.SIGPROF) is not installed_before
            profiler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is installed_before
            profiler.start()
            profiler.start()
            profiler.stop()
            profiler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is installed_before
        finally:
            signal.signal(signal.SIGPROF, original)

    def test_start_names_the_platform_without_setitimer(self, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        with pytest.raises(RuntimeError, match=sys.platform):
            SamplingProfiler().start()

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_timer_armed_with_interval_while_running(self):
        with SamplingProfiler(interval=0.25) as profiler:
            _, period = signal.getitimer(signal.ITIMER_PROF)
            assert signal.getsignal(signal.SIGPROF) == profiler._sample
        assert period == pytest.approx(0.25, abs=0.01)

    def test_context_manager_stops_on_exception(self):
        before = signal.getsignal(signal.SIGPROF)
        with pytest.raises(KeyError):
            with SamplingProfiler(interval=0.001) as profiler:
                raise KeyError("boom")
        assert not profiler.running
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == before

    def test_no_samples_after_stop(self):
        with SamplingProfiler(interval=0.001) as profiler:
            assert _spin(profiler, 3)
        taken = profiler.n_samples
        deadline = time.monotonic() + 0.05
        while time.monotonic() < deadline:
            sum(i * i for i in range(500))
        assert profiler.n_samples == taken

    def test_sleeping_is_not_sampled(self):
        # ITIMER_PROF counts CPU time: a blocked process takes no samples.
        with SamplingProfiler(interval=0.01) as profiler:
            time.sleep(0.3)
        assert profiler.n_samples <= 2

    def test_frames_are_module_qualified(self):
        with SamplingProfiler(interval=0.001) as profiler:
            assert _spin(profiler, 3)
        frames = [frame for stack in profiler.stacks() for frame in stack]
        assert all(":" in frame for frame in frames)
        assert any(frame == __name__ + ":_spin" for frame in frames)

    def test_nested_spans_attribute_to_innermost(self):
        tracer = Tracer(enabled=True)
        with SamplingProfiler(interval=0.001, tracer=tracer) as profiler:
            with tracer.span("oracle"):
                with tracer.span("cache_sim"):
                    assert _spin(profiler, 5)
        assert profiler.by_span() == {"cache_sim": profiler.n_samples}
        assert all(stack[:2] == ("stage:oracle", "stage:cache_sim")
                   for stack in profiler.stacks())

    def test_span_prefix_is_configurable(self):
        tracer = Tracer(enabled=True)
        with SamplingProfiler(interval=0.001, tracer=tracer,
                              span_prefix="span:") as profiler:
            with tracer.span("predict"):
                assert _spin(profiler, 3)
        assert profiler.by_span() == {"predict": profiler.n_samples}
        assert all(stack[0] == "span:predict"
                   for stack in profiler.stacks())

    def test_by_span_counts_samples_outside_spans(self):
        profiler = SamplingProfiler()
        profiler._stacks[("stage:trace", "m:f")] = 3
        profiler._stacks[("stage:trace", "stage:predict", "m:g")] = 2
        profiler._stacks[("m:h",)] = 1
        assert profiler.by_span() == {
            "trace": 3, "predict": 2, "(no span)": 1,
        }

    def test_collapsed_ties_sort_by_stack(self):
        profiler = SamplingProfiler()
        profiler._stacks[("b:f",)] = 2
        profiler._stacks[("a:f", "z:g")] = 2
        profiler._stacks[("c:f",)] = 5
        assert profiler.collapsed() == ["c:f 5", "a:f;z:g 2", "b:f 2"]

    def test_write_collapsed_empty_profile(self, tmp_path):
        out = tmp_path / "stacks.txt"
        SamplingProfiler().write_collapsed(str(out))
        assert out.read_text() == ""

    def test_hot_frames_sum_a_leaf_across_stacks(self):
        profiler = SamplingProfiler()
        profiler._stacks[("root:r", "leaf:a")] = 2
        profiler._stacks[("root:s", "leaf:a")] = 3
        profiler._stacks[("root:r", "leaf:b")] = 4
        assert profiler.hot_frames() == [("leaf:a", 5), ("leaf:b", 4)]

    def test_forked_child_does_not_inherit_the_timer(self):
        read_end, write_end = os.pipe()
        with SamplingProfiler(interval=0.001):
            pid = os.fork()
            if pid == 0:  # child: report the timer it inherited, then exit
                try:
                    os.write(write_end, repr(
                        signal.getitimer(signal.ITIMER_PROF)
                    ).encode())
                finally:
                    os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as handle:
            reported = handle.read()
        os.waitpid(pid, 0)
        assert reported == repr((0.0, 0.0))


class TestTracerOpenSpans:
    def test_open_span_names_nesting(self):
        tracer = Tracer(enabled=True)
        assert tracer.open_span_names() == ()
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.open_span_names() == ("outer", "inner")
            assert tracer.open_span_names() == ("outer",)
        assert tracer.open_span_names() == ()

    def test_pickled_tracer_has_no_open_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            clone = pickle.loads(pickle.dumps(tracer))
        assert clone.open_span_names() == ()

    def test_open_span_names_unwind_on_exception(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with pytest.raises(RuntimeError):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
            assert tracer.open_span_names() == ("outer",)
        assert tracer.open_span_names() == ()

    def test_worker_clone_keeps_its_own_stack(self):
        # A pool worker's tracer is an unpickled copy: spans it opens
        # are roots there and never show up in the parent's stack.
        tracer = Tracer(enabled=True)
        with tracer.span("evaluate_many"):
            worker = pickle.loads(pickle.dumps(tracer))
            with worker.span("oracle"):
                assert worker.open_span_names() == ("oracle",)
                assert tracer.open_span_names() == ("evaluate_many",)
        (shipped,) = worker.drain()
        assert shipped["parent"] == 0
        assert [s["name"] for s in tracer.spans()] == ["evaluate_many"]

    def test_disabled_tracer_never_opens_spans(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer"):
            assert tracer.open_span_names() == ()


# ---------------------------------------------------------------------------
# Prediction ledger
# ---------------------------------------------------------------------------


class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PredictionLedger(str(path))
        ledger.append({"kernel": "k", "value": 1.0})
        ledger.append({"kernel": "k2", "value": float("nan")})
        records = read_ledger(str(path))
        assert len(records) == 2
        assert records[0]["run_id"] == ledger.run_id
        assert records[0]["ts"] > 0
        assert records[1]["value"] is None  # NaN sanitized, not 0.0

    def test_two_run_ids_on_one_path_group_into_two_runs(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        first = PredictionLedger(path, run_id="first")
        first.append({"kernel": "a"})
        second = PredictionLedger(path, run_id="second")
        second.append({"kernel": "a"})
        first.append({"kernel": "b"})
        grouped = runs(read_ledger(path))
        assert [run_id for run_id, _ in grouped] == ["first", "second"]
        assert [r["kernel"] for r in grouped[0][1]] == ["a", "b"]

    def test_runs_ordered_by_first_timestamp(self):
        records = [
            {"kernel": "k", "run_id": "late", "ts": 5.0},
            {"kernel": "k", "run_id": "early", "ts": 1.0},
            {"kernel": "j", "run_id": "late", "ts": 6.0},
        ]
        grouped = runs(records)
        assert [run_id for run_id, _ in grouped] == ["early", "late"]
        assert len(grouped[1][1]) == 2

    def test_fresh_ledgers_get_distinct_run_ids(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        ids = {PredictionLedger(path).run_id for _ in range(8)}
        assert len(ids) == 8

    def test_ledger_is_picklable(self, tmp_path):
        ledger = PredictionLedger(str(tmp_path / "l.jsonl"))
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.path == ledger.path
        assert clone.run_id == ledger.run_id
        clone.append({"kernel": "from-worker"})
        assert read_ledger(ledger.path)[0]["kernel"] == "from-worker"

    def test_per_kernel_errors_takes_last(self):
        records = [
            {"kernel": "k", "ts": 1, "errors": {"mt_mshr_band": 0.5}},
            {"kernel": "k", "ts": 2, "errors": {"mt_mshr_band": 0.1}},
        ]
        assert per_kernel_errors(records) == {"k": 0.1}

    def test_pipeline_record_validates_against_schema(
        self, config, tmp_path
    ):
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(),
                            ledger=PredictionLedger(str(path)))
        pipeline.evaluate("vectoradd", warps_per_core=4)
        records = read_ledger(str(path))
        assert len(records) == 1
        record = records[0]
        schema = load_schema("ledger")
        assert validate(record, schema) == []
        assert record["kernel"] == "vectoradd"
        assert record["fingerprint"]
        assert record["arch"] == config.arch
        assert set(record["model_cpis"]) == {
            "naive", "markov", "mt", "mt_mshr", "mt_mshr_band"
        }
        assert "BASE" in record["cpi_stack"]
        assert 0.0 <= record["cache"]["l1_miss_rate"] <= 1.0
        assert record["stage_seconds"]  # fresh run: stages executed
        assert record["duration_s"] > 0
        assert pipeline.metrics.counter_value("ledger.records") == 1

    def test_parallel_workers_append_all_records(self, config, tmp_path):
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(), jobs=2,
                            ledger=PredictionLedger(str(path)))
        kernels = ("vectoradd", "strided_deg8", "transpose_naive")
        pipeline.evaluate_many(
            [{"kernel": k, "warps_per_core": 4} for k in kernels]
        )
        records = read_ledger(str(path))
        assert sorted(r["kernel"] for r in records) == sorted(kernels)
        assert {r["run_id"] for r in records} == {pipeline.ledger.run_id}

    def test_cached_reevaluation_still_appends(self, config, tmp_path):
        # Accuracy history wants one record per *evaluation*, even when
        # every artifact comes from the store.
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(),
                            ledger=PredictionLedger(str(path)))
        pipeline.evaluate("vectoradd", warps_per_core=4)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        assert len(read_ledger(str(path))) == 2


# ---------------------------------------------------------------------------
# Accuracy watchdog
# ---------------------------------------------------------------------------


def _record(kernel, error, run_id="r1", ts=1.0):
    return {
        "kernel": kernel, "run_id": run_id, "ts": ts,
        "errors": {"mt_mshr_band": error},
    }


class TestWatchdog:
    def test_self_compare_is_clean(self):
        records = [_record("a", 0.05), _record("b", 0.10)]
        report = compare_ledgers(records, records)
        assert not report.has_regressions
        assert len(report.rows) == 2

    def test_fault_injection_trips_the_gate(self):
        """The CI-gate demonstration: inflate one kernel's error beyond
        tolerance and the watchdog must fail."""
        baseline = [_record("a", 0.05), _record("b", 0.10)]
        current = [_record("a", 0.05), _record("b", 0.10 + 0.03)]
        report = compare_ledgers(baseline, current, tolerance=0.02)
        assert report.has_regressions
        assert [r.kernel for r in report.regressions] == ["b"]
        assert report.regressions[0].delta == pytest.approx(0.03)

    def test_within_tolerance_passes(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", 0.06)]
        assert not compare_ledgers(
            baseline, current, tolerance=0.02
        ).has_regressions

    def test_rel_tolerance_adds_budget(self):
        baseline = [_record("a", 0.10)]
        current = [_record("a", 0.145)]
        assert compare_ledgers(baseline, current, tolerance=0.02,
                               rel_tolerance=0.0).has_regressions
        assert not compare_ledgers(baseline, current, tolerance=0.02,
                                   rel_tolerance=0.5).has_regressions

    def test_missing_kernel_is_coverage_loss(self):
        baseline = [_record("a", 0.05), _record("b", 0.05)]
        current = [_record("a", 0.05)]
        report = compare_ledgers(baseline, current)
        assert report.has_regressions
        assert report.regressions[0].note == "missing from current"
        assert not compare_ledgers(
            baseline, current, allow_missing=True
        ).has_regressions

    def test_new_kernel_is_informational(self):
        report = compare_ledgers([_record("a", 0.05)],
                                 [_record("a", 0.05), _record("new", 0.9)])
        assert not report.has_regressions
        notes = {r.kernel: r.note for r in report.rows}
        assert "new" in notes["new"]

    def test_becoming_degenerate_regresses(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", None)]
        report = compare_ledgers(baseline, current)
        assert report.has_regressions
        assert report.regressions[0].note == "degenerate oracle"

    def test_latest_record_wins_within_a_ledger(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", 0.50, ts=1.0), _record("a", 0.05, ts=2.0)]
        assert not compare_ledgers(baseline, current).has_regressions

    def test_report_render_and_dict(self):
        report = compare_ledgers([_record("a", 0.05)],
                                 [_record("a", 0.20)])
        text = report.render_text()
        assert "REGRESSED" in text and "a" in text
        payload = report.to_dict()
        assert payload["n_regressions"] == 1
        assert payload["rows"][0]["regressed"] is True


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------


def _ledger_history():
    records = []
    for i, run_id in enumerate(("run-1", "run-2", "run-3")):
        for kernel, base in (("vectoradd", 0.02), ("strided_deg8", 0.06)):
            records.append({
                "kernel": kernel, "run_id": run_id, "ts": 10.0 * i + 1,
                "arch": "gpumech2014", "backend": "vectorized",
                "oracle_cpi": 2.0,
                "model_cpis": {"mt_mshr_band": 2.0 * (1 + base + 0.01 * i)},
                "errors": {"mt_mshr_band": base + 0.01 * i},
                "cpi_stack": {"BASE": 1.0, "DEP": 0.4, "L1": 0.2,
                              "L2": 0.1, "DRAM": 0.2, "MSHR": 0.05,
                              "QUEUE": 0.05, "SFU": 0.0, "SMEM": 0.0},
                "cache": {"l1_miss_rate": 0.3 + 0.01 * i,
                          "l2_miss_rate": 0.5},
            })
    return records


class TestDashboard:
    def test_renders_multi_run_history(self):
        html = render_dashboard(_ledger_history())
        assert "<svg" in html and "polyline" in html
        assert "Prediction error per kernel" in html
        assert "CPI-stack attribution" in html
        assert "Cache miss-rate trends" in html
        assert "vectoradd" in html and "strided_deg8" in html
        assert "3 run(s)" in html

    def test_drift_direction_marked_not_color_alone(self):
        html = render_dashboard(_ledger_history())
        assert "▲" in html  # errors rise across the synthetic runs

    def test_dark_mode_is_selected_palette(self):
        html = render_dashboard(_ledger_history())
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html
        assert "#3987e5" in html  # dark-mode series-1, not an auto-invert

    def test_kernel_names_are_escaped(self):
        records = _ledger_history()
        for record in records:
            record["kernel"] = "<script>alert(1)</script>"
        html = render_dashboard(records)
        assert "<script>alert" not in html

    def test_single_run_renders_without_sparklines(self):
        records = [r for r in _ledger_history() if r["run_id"] == "run-1"]
        html = render_dashboard(records)
        assert "1 run(s)" in html
        assert "n/a" in html  # a 1-point trend is not a line

    def test_bench_table(self, tmp_path):
        (tmp_path / "BENCH_obs.json").write_text(
            json.dumps({"baseline_s": 1.5, "enabled_s": 1.6, "note": "x"})
        )
        from repro.obs import collect_bench
        bench = collect_bench(str(tmp_path))
        html = render_dashboard(_ledger_history(), bench=bench)
        assert "BENCH_obs.json" in html and "baseline_s" in html

    def test_write_dashboard(self, tmp_path):
        from repro.obs import write_dashboard
        out = tmp_path / "dash.html"
        write_dashboard(str(out), _ledger_history())
        assert out.read_text().startswith("<!DOCTYPE html>")


# ---------------------------------------------------------------------------
# CLI faces
# ---------------------------------------------------------------------------


class TestTelemetryCLI:
    def _seed_ledgers(self, tmp_path, drift=0.0):
        from repro.cli import main

        baseline = tmp_path / "baseline.jsonl"
        for kernel, error in (("a", 0.05), ("b", 0.10)):
            PredictionLedger(str(baseline), run_id="base").append(
                _record(kernel, error)
            )
        current = tmp_path / "current.jsonl"
        for kernel, error in (("a", 0.05), ("b", 0.10 + drift)):
            PredictionLedger(str(current), run_id="cur").append(
                _record(kernel, error)
            )
        return main, str(baseline), str(current)

    def test_watchdog_exit_zero_when_clean(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path)
        assert main(["watchdog", "--baseline", baseline,
                     "--current", current]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_watchdog_exit_nonzero_on_regression(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path, drift=0.05)
        assert main(["watchdog", "--baseline", baseline,
                     "--current", current]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_watchdog_json_format(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path, drift=0.05)
        assert main(["watchdog", "--baseline", baseline, "--current",
                     current, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_regressions"] == 1

    def test_dash_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        for run in range(2):
            PredictionLedger(str(path), run_id="run-%d" % run).append(
                {"kernel": "a", "errors": {"mt_mshr_band": 0.05 + 0.01 * run}}
            )
        out = tmp_path / "dash.html"
        assert main(["dash", str(path), "--out", str(out)]) == 0
        assert "2 run(s)" in capsys.readouterr().out
        assert "<svg" in out.read_text()

    def test_dash_empty_ledger_errors(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["dash", str(path),
                     "--out", str(tmp_path / "x.html")]) == 2

    def test_validate_with_ledger_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        assert main(["--ledger", str(path), "validate", "vectoradd",
                     "--scale", "tiny", "--warps", "4", "-q"]) == 0
        records = read_ledger(str(path))
        assert len(records) == 1
        assert validate(records[0], load_schema("ledger")) == []

    @pytest.mark.parametrize("command", ["concheck", "serve-metrics"])
    def test_removed_commands_are_rejected(self, command, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_no_removed_command(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "profile" in out and "watchdog" in out
        assert "concheck" not in out and "serve-metrics" not in out

    def test_metrics_out_counts_advance_with_work(self, tmp_path, capsys):
        from repro.cli import main

        def stage_runs(*kernels):
            path = tmp_path / ("%d.json" % len(kernels))
            argv = ["profile", "-q", "--scale", "tiny", "--warps", "4",
                    "--trace-out", str(tmp_path / "t.json"),
                    "--metrics-out", str(path)]
            for kernel in kernels:
                argv += ["--suite-kernel", kernel]
            assert main(argv) == 0
            assert validate_file("metrics", str(path)) == []
            payload = json.loads(path.read_text())
            return sum(c["value"] for c in payload["counters"]
                       if c["name"] == "pipeline.stage_executions")

        one = stage_runs("vectoradd")
        two = stage_runs("vectoradd", "strided_deg8")
        assert one > 0
        assert two == 2 * one

    def test_profile_sample_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["profile", "--sample", "--sample-out", "x.txt",
             "--sample-interval", "0.005", "--scale", "tiny"]
        )
        assert args.sample and args.sample_out == "x.txt"
        assert args.sample_interval == 0.005
