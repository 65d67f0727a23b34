"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.config import GPUConfig
from repro.obs import (
    MetricsRegistry,
    Timeline,
    Tracer,
    diff_snapshots,
    get_tracer,
    set_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import HistogramMetric
from repro.obs.schema import FORMATS, load_schema, validate, validate_file
from repro.obs.tracer import NULL_SPAN, chrome_events
from repro.timing.simulator import TimingSimulator
from repro.trace.emulator import emulate
from repro.workloads.suite import get_kernel
from repro.workloads.generators import Scale


class TestTracerDisabled:
    def test_disabled_span_is_shared_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", category="x", args={"k": 1}) is NULL_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            tracer.instant("marker")
        assert tracer.n_spans == 0
        assert tracer.spans() == []

    def test_global_default_is_disabled(self):
        assert get_tracer().enabled is False


class TestTracerRecording:
    def test_span_fields(self):
        tracer = Tracer()
        with tracer.span("stage", category="pipeline", args={"key": "k1"}):
            pass
        (span,) = tracer.spans()
        assert span["name"] == "stage"
        assert span["cat"] == "pipeline"
        assert span["args"] == {"key": "k1"}
        assert span["parent"] == 0
        assert span["dur"] >= 0.0
        assert span["ts"] >= 0.0

    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # inner closes first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] == 0
        # The child is contained within the parent's interval.
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span["error"] == "ValueError"

    def test_span_tid_is_process_id(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        tracer.instant("marker")
        for span in tracer.spans():
            assert span["pid"] == span["tid"] == os.getpid()

    def test_sibling_spans_are_not_parent_and_child(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        with tracer.span("outer"):
            with tracer.span("c"):
                pass
            with tracer.span("d"):
                pass
        by_name = {s["name"]: s for s in tracer.spans()}
        assert by_name["a"]["parent"] == by_name["b"]["parent"] == 0
        assert by_name["c"]["parent"] == by_name["outer"]["id"]
        assert by_name["d"]["parent"] == by_name["outer"]["id"]
        assert len({s["id"] for s in tracer.spans()}) == 5

    def test_instant_parents_to_open_span(self):
        tracer = Tracer()
        tracer.instant("top", args={"n": 1})
        with tracer.span("outer"):
            tracer.instant("inside")
        by_name = {s["name"]: s for s in tracer.spans()}
        assert by_name["top"]["parent"] == 0
        assert by_name["top"]["args"] == {"n": 1}
        assert by_name["top"]["dur"] == 0.0
        assert by_name["inside"]["parent"] == by_name["outer"]["id"]

    def test_disabled_instant_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.instant("marker")
        assert tracer.n_spans == 0

    def test_drain_and_merge(self):
        worker = Tracer()
        with worker.span("in-worker"):
            pass
        shipped = worker.drain()
        assert worker.n_spans == 0
        parent = Tracer()
        with parent.span("in-parent"):
            pass
        parent.merge(shipped)
        assert {s["name"] for s in parent.spans()} == {
            "in-worker", "in-parent"
        }

    def test_pickle_drops_spans_keeps_epoch(self):
        tracer = Tracer()
        with tracer.span("before-pickle"):
            pass
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.enabled is True
        assert clone.epoch == tracer.epoch
        assert clone.n_spans == 0  # workers must not replay parent spans
        with clone.span("after"):
            pass
        assert clone.n_spans == 1

    def test_set_tracer_installs_and_resets(self):
        tracer = Tracer()
        try:
            assert set_tracer(tracer) is tracer
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer().enabled is False


class TestTracerExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("outer", args={"kernel": "saxpy"}):
            with tracer.span("inner"):
                pass
        tracer.instant("mark")
        return tracer

    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "spans.jsonl")
        tracer.export_jsonl(path)
        assert validate_file("spans", path) == []
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert len(lines) == 3
        assert lines == sorted(lines, key=lambda s: s["ts"])

    def test_chrome_trace_schema_and_shape(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "trace.json")
        tracer.export_chrome(path, metadata={"run": "test"})
        assert validate_file("trace", path) == []
        doc = json.load(open(path, encoding="utf-8"))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner", "mark"}
        assert meta and meta[0]["args"]["name"] == "repro"
        assert doc["otherData"] == {"run": "test"}
        # Span ids survive into args so nesting is recoverable.
        by_name = {e["name"]: e for e in complete}
        assert (by_name["inner"]["args"]["parent_id"]
                == by_name["outer"]["args"]["span_id"])

    def test_extra_events_are_appended(self, tmp_path):
        path = str(tmp_path / "trace.json")
        counter = {"name": "occ", "cat": "timeline", "ph": "C",
                   "ts": 1.0, "pid": 1, "args": {"warps": 3}}
        write_chrome_trace(path, self._traced().spans(),
                           extra_events=[counter])
        assert validate_file("trace", path) == []
        doc = json.load(open(path, encoding="utf-8"))
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_chrome_events_mark_errors(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError
        (event,) = chrome_events(tracer.spans())
        assert event["args"]["error"] == "RuntimeError"

    def test_write_jsonl_plain_function(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        write_jsonl(self._traced().spans(), path)
        assert validate_file("spans", path) == []


class TestMetrics:
    def test_counter_inc_and_reject_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", stage="trace")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter_value("requests", stage="trace") == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_labels_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("n", x="1", y="2")
        b = registry.counter("n", y="2", x="1")  # label order irrelevant
        assert a is b

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("temp").set(4)
        registry.gauge("temp").set(7)
        assert registry.snapshot()["gauges"][0]["value"] == 7.0

    def test_histogram_percentiles(self):
        histogram = HistogramMetric(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(106.6 / 5)
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 100.0  # overflow -> max
        assert histogram.percentile(0) in (0.0, 1.0)

    def test_labeled_values(self):
        registry = MetricsRegistry()
        registry.counter("stage_runs", stage="trace").inc(2)
        registry.counter("stage_runs", stage="oracle").inc(1)
        registry.counter("other", stage="trace").inc(9)
        values = registry.labeled_values("stage_runs", "stage")
        assert values == {"trace": 2, "oracle": 1}

    def test_snapshot_diff_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("runs", stage="trace").inc(5)
        worker.histogram("ms", buckets=(1.0, 10.0), stage="trace").observe(3.0)
        baseline = worker.snapshot()
        worker.counter("runs", stage="trace").inc(2)
        worker.counter("runs", stage="oracle").inc(1)
        worker.histogram("ms", buckets=(1.0, 10.0), stage="trace").observe(0.5)
        delta = diff_snapshots(worker.snapshot(), baseline)
        # The delta contains only post-baseline activity.
        assert {(c["labels"]["stage"], c["value"])
                for c in delta["counters"]} == {("trace", 2), ("oracle", 1)}
        parent = MetricsRegistry()
        parent.counter("runs", stage="trace").inc(10)
        parent.merge(delta)
        assert parent.counter_value("runs", stage="trace") == 12
        assert parent.counter_value("runs", stage="oracle") == 1
        histogram = parent.histogram("ms", buckets=(1.0, 10.0), stage="trace")
        assert histogram.count == 1
        assert histogram.sum == 0.5

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 8.0)).observe(1.0)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_export_validates_against_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs", stage="trace").inc()
        registry.gauge("occupancy").set(0.5)
        registry.histogram("ms").observe(12.0)
        path = str(tmp_path / "metrics.json")
        registry.export(path)
        assert validate_file("metrics", path) == []

    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    def test_metrics_pickle_natively(self, protocol):
        registry = MetricsRegistry()
        registry.counter("runs", stage="trace").inc(3)
        registry.gauge("occupancy").set(0.5)
        registry.histogram("ms", buckets=(1.0, 10.0)).observe(4.0)
        clone = pickle.loads(pickle.dumps(registry, protocol=protocol))
        assert clone.snapshot() == registry.snapshot()
        clone.histogram("ms", buckets=(1.0, 10.0)).observe(40.0)
        assert clone.histogram("ms", buckets=(1.0, 10.0)).counts == [0, 1, 1]
        assert registry.histogram("ms", buckets=(1.0, 10.0)).count == 1

    def test_histogram_entry_merge_entry_round_trip(self):
        source = HistogramMetric(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            source.observe(value)
        target = HistogramMetric(bounds=(10.0, 1.0))  # bounds get sorted
        target.merge_entry({"name": "h", **source.entry()})
        assert target.entry() == source.entry()
        assert target.percentile(100) == 50.0

    def test_pickle(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter_value("runs") == 3
        clone.counter("runs").inc()
        assert clone.counter_value("runs") == 4


class TestTimeline:
    def test_deltas_from_cumulative_samples(self):
        timeline = Timeline(interval=100.0)
        timeline.record(0, 100.0, 8, insts_issued=50, issue_cycles=40,
                        mshr_stall_cycles=10, sfu_stall_cycles=0,
                        barrier_stall_cycles=0, dep_stall_cycles=50)
        timeline.record(0, 200.0, 4, insts_issued=70, issue_cycles=55,
                        mshr_stall_cycles=25, sfu_stall_cycles=0,
                        barrier_stall_cycles=0, dep_stall_cycles=120)
        assert timeline.n_samples == 2
        first, second = timeline.deltas(0)
        assert first["insts_issued"] == 50
        assert second["insts_issued"] == 20
        assert second["mshr_stall_cycles"] == 15
        assert second["occupancy"] == 4

    def test_counter_events_shape(self):
        timeline = Timeline(interval=10.0)
        timeline.record(1, 10.0, 2, insts_issued=5, issue_cycles=5,
                        mshr_stall_cycles=0, sfu_stall_cycles=0,
                        barrier_stall_cycles=0, dep_stall_cycles=5)
        events = timeline.counter_events(pid=42, base_ts=100.0,
                                         track_prefix="k1 ")
        assert len(events) == 2
        occupancy, activity = events
        assert occupancy["name"] == "k1 core1 occupancy"
        assert occupancy["ph"] == "C"
        assert occupancy["ts"] == 110.0
        assert occupancy["pid"] == 42
        assert activity["args"]["issued"] == 5

    def test_simulator_sampling(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        kernel, memory = get_kernel("vectoradd", Scale.tiny())
        trace = emulate(kernel, config, memory=memory)
        baseline = TimingSimulator(config).run(trace)
        sampled = TimingSimulator(config, timeline_interval=16.0).run(trace)
        # Sampling is observation only: identical simulation outcome.
        assert sampled.total_cycles == baseline.total_cycles
        assert sampled.total_insts == baseline.total_insts
        assert baseline.timeline is None
        timeline = sampled.timeline
        assert timeline is not None and timeline.n_samples > 0
        (core_id,) = timeline.samples
        samples = timeline.samples[core_id]
        # Cumulative counters never decrease; closing sample matches the
        # core's final totals.
        issued = [s.insts_issued for s in samples]
        assert issued == sorted(issued)
        assert issued[-1] == sampled.cores[0].insts_issued
        assert samples[-1].occupancy == 0  # core finished

    def test_simulator_rejects_bad_interval(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4)
        with pytest.raises(ValueError):
            TimingSimulator(config, timeline_interval=0)


class TestSchemaValidator:
    def test_type_errors(self):
        schema = {"type": "object", "required": ["a"],
                  "properties": {"a": {"type": "integer", "minimum": 0}}}
        assert validate({"a": 1}, schema) == []
        assert validate({"a": "x"}, schema)
        assert validate({"a": -1}, schema)
        assert validate({}, schema)
        assert validate([], schema)

    def test_enum_and_additional_properties(self):
        schema = {"type": "object",
                  "properties": {"ph": {"enum": ["X", "C"]}},
                  "additionalProperties": False}
        assert validate({"ph": "X"}, schema) == []
        assert validate({"ph": "Q"}, schema)
        assert validate({"other": 1}, schema)

    def test_items(self):
        schema = {"type": "array", "items": {"type": "number"}}
        assert validate([1, 2.5], schema) == []
        assert validate([1, "x"], schema)
        assert validate([True], schema)  # bools are not numbers

    def test_all_checked_in_schemas_load(self):
        for kind in FORMATS:
            schema = load_schema(kind)
            assert isinstance(schema, dict) and schema

    def test_formats_are_the_post_hoc_artifacts(self):
        assert sorted(FORMATS) == ["ledger", "metrics", "spans", "trace"]

    def test_invalid_file_reports_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "X"}]}')
        errors = validate_file("trace", str(path))
        assert errors  # missing name/pid/ts

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.obs.schema import main as schema_main

        good = tmp_path / "good.json"
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.export_chrome(str(good))
        assert schema_main(["trace", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert schema_main(["trace", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "INVALID" in out
