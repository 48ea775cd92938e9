"""The span model: tracer lifecycle, span tree, propagation, assembly."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    NEW_TRACE,
    NOOP_TRACE_SPAN,
    TRACER,
    MemorySink,
    TraceAssembler,
    TraceContext,
    Tracer,
    assemble_trace_dir,
    configure,
    shutdown,
)
from repro.obs.trace import MAX_CHILDREN


@pytest.fixture(autouse=True)
def _tracer_disabled():
    shutdown()
    TRACER.disable()
    yield
    shutdown()
    TRACER.disable()


@pytest.fixture
def telemetry():
    sink = MemorySink()
    configure(sinks=[sink])
    yield sink
    shutdown()


def _span_histogram(sink):
    snapshot = sink.metric_snapshots[-1]
    return {
        row["labels"]["span"]: row["count"]
        for row in snapshot["histograms"]
        if row["name"] == "repro_span_seconds"
    }


def _counter(sink, name, **labels):
    snapshot = sink.metric_snapshots[-1]
    return sum(
        row["value"] for row in snapshot["counters"]
        if row["name"] == name and row["labels"] == labels
    )


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestTracerLifecycle:
    def test_disabled_tracer_returns_shared_noop(self):
        # Telemetry off and no trace directory: spans are not live.
        assert not TRACER.enabled
        assert TRACER.span("anything") is NOOP_TRACE_SPAN
        assert TRACER.child_span("anything") is NOOP_TRACE_SPAN
        with NOOP_TRACE_SPAN:
            pass  # no state, no record, no histogram
        assert NOOP_TRACE_SPAN.ctx is None
        assert NOOP_TRACE_SPAN.duration is None

    def test_enable_writes_meta_and_spans(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("service.observe", session="s1"):
            pass
        TRACER.disable()
        files = list(tmp_path.glob("trace-unit.*.jsonl"))
        assert len(files) == 1
        records = _records(files[0])
        metas = [r for r in records if "meta" in r]
        spans = [r for r in records if "meta" not in r]
        assert metas[0]["meta"] == "tracer_start"
        assert metas[-1]["meta"] == "tracer_stop"
        assert metas[-1]["recorded"] == 1
        assert metas[-1]["dropped"] == 0
        (span,) = spans
        assert span["name"] == "service.observe"
        assert span["process"] == "unit"
        assert span["parent"] is None
        assert span["attrs"] == {"session": "s1"}

    def test_span_cap_counts_drops(self, tmp_path):
        tracer = Tracer()
        tracer.enable(tmp_path, "capped", max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        tracer.disable()
        (path,) = tmp_path.glob("trace-capped.*.jsonl")
        stop = [r for r in _records(path) if r.get("meta") == "tracer_stop"]
        assert stop[0]["recorded"] == 2
        assert stop[0]["dropped"] == 3


class TestSpanTree:
    def test_live_with_telemetry_and_no_trace_dir(self, telemetry):
        assert TRACER.enabled and not TRACER.writing
        span = TRACER.span("eadrl.fit")
        assert span is not NOOP_TRACE_SPAN
        assert span.duration is None
        with span:
            pass
        assert span.duration >= 0.0
        shutdown()
        assert not TRACER.enabled
        assert TRACER.span("eadrl.fit") is NOOP_TRACE_SPAN

    def test_nesting_builds_tree(self, telemetry):
        with TRACER.span("outer") as outer:
            with TRACER.span("inner") as inner:
                pass
            with TRACER.span("inner2"):
                pass
        events = telemetry.events_of("span")
        assert [e["name"] for e in events] == ["inner", "inner2", "outer"]
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == outer.ctx.span_id
        assert by_name["inner2"]["parent"] == outer.ctx.span_id
        assert by_name["inner"]["span"] == inner.ctx.span_id
        assert {e["trace"] for e in events} == {outer.ctx.trace_id}
        assert outer.duration >= inner.duration

    def test_enabled_emits_records_and_histogram(self, telemetry):
        with TRACER.span("outer"):
            with TRACER.span("inner"):
                pass
        shutdown()
        (inner, outer) = telemetry.events_of("span")
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["pid"] == outer["pid"]
        assert outer["dur"] >= inner["dur"]
        assert _span_histogram(telemetry) == {"outer": 1, "inner": 1}

    @staticmethod
    def _overflowing_loop(extra):
        """A root with ``MAX_CHILDREN + extra`` two-level children."""
        with TRACER.span("root"):
            for _ in range(MAX_CHILDREN + extra):
                with TRACER.span("online.step"):
                    with TRACER.child_span("actor.forward"):
                        pass
        shutdown()

    def test_child_cap_counts_dropped(self, telemetry):
        extra = 10
        self._overflowing_loop(extra)
        events = telemetry.events_of("span")
        names = [e["name"] for e in events]
        assert names.count("online.step") == MAX_CHILDREN
        assert names.count("actor.forward") == MAX_CHILDREN
        # Every dropped span counts once: the overflow steps and the
        # forwards beneath them.
        assert _counter(
            telemetry, "repro_obs_spans_dropped_total", source="span_tree"
        ) == 2 * extra
        assembler = TraceAssembler()
        for event in events:
            assembler.add_span(event)
        (trace,) = assembler.traces()
        assert trace.root.name == "root"
        assert trace.orphans == 0
        assert len(trace.children(trace.root)) == MAX_CHILDREN

    def test_histogram_sees_every_span(self, telemetry):
        extra = 10
        self._overflowing_loop(extra)
        assert _span_histogram(telemetry) == {
            "root": 1,
            "online.step": MAX_CHILDREN + extra,
            "actor.forward": MAX_CHILDREN + extra,
        }

    def test_telemetry_and_trace_dir_record_the_same_span(
        self, telemetry, tmp_path
    ):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("pool.fit", members=3):
            pass
        TRACER.disable()
        assert TRACER.enabled  # the telemetry session keeps spans live
        (path,) = tmp_path.glob("trace-unit.*.jsonl")
        (written,) = [r for r in _records(path) if "meta" not in r]
        (event,) = telemetry.events_of("span")
        assert {k: event[k] for k in written} == written
        assert written["attrs"] == {"members": 3}


class TestPropagation:
    def test_nested_spans_share_trace_and_parent(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("http.request") as root:
            with TRACER.span("service.observe") as inner:
                assert inner.ctx.trace_id == root.ctx.trace_id
                assert inner.parent_id == root.ctx.span_id

    def test_child_span_requires_ambient_context(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        assert TRACER.child_span("store.restore") is NOOP_TRACE_SPAN
        with TRACER.span("http.request"):
            assert TRACER.child_span("store.restore") is not NOOP_TRACE_SPAN

    def test_new_trace_sentinel_forces_fresh_root(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("http.request") as root:
            batch = TRACER.span("batcher.batch", parent=NEW_TRACE)
            assert batch.ctx.trace_id != root.ctx.trace_id
            assert batch.parent_id is None

    def test_wire_round_trip(self):
        ctx = TraceContext("a" * 16, "b" * 16, {"tenant": "t1"})
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id
        assert back.baggage == {"tenant": "t1"}
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({"s": "x"}) is None

    def test_headers_adopted_only_when_valid(self):
        assert TRACER.from_headers({}) is None
        assert TRACER.from_headers({"X-Trace-Id": "NOT HEX!"}) is None
        ctx = TRACER.from_headers({"X-Trace-Id": "DEADBEEFDEADBEEF"})
        assert ctx.trace_id == "deadbeefdeadbeef"

    def test_explicit_parent_crosses_threads(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("http.request") as root:
            captured = TRACER.current()
        seen = {}

        def worker():
            with TRACER.span("batcher.exec", parent=captured) as span:
                seen["trace"] = span.ctx.trace_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["trace"] == root.ctx.trace_id

    def test_record_after_the_fact(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        ctx = TraceContext("c" * 16, "d" * 16)
        start = time.time() - 0.5
        TRACER.record("batcher.queue", ctx, start=start, duration=0.25,
                      batch_span="e" * 16)
        TRACER.disable()
        (path,) = tmp_path.glob("trace-unit.*.jsonl")
        (span,) = [r for r in _records(path) if "meta" not in r]
        assert span["trace"] == "c" * 16
        assert span["parent"] == "d" * 16
        assert span["dur"] == 0.25


class TestAssembly:
    def _write_trace(self, tmp_path):
        """Synthetic two-process trace with a known shape."""
        front = tmp_path / "trace-frontend.1.jsonl"
        shard = tmp_path / "trace-shard-0.2.jsonl"
        t0 = 1000.0
        front.write_text("\n".join(json.dumps(r) for r in [
            {"meta": "tracer_start", "process": "frontend", "pid": 1},
            {"trace": "t1", "span": "root", "parent": None,
             "name": "http.request", "process": "frontend", "pid": 1,
             "start": t0, "dur": 1.0, "attrs": {"path": "/x"}},
            {"trace": "t1", "span": "rpc", "parent": "root",
             "name": "rpc.shard", "process": "frontend", "pid": 1,
             "start": t0 + 0.02, "dur": 0.95},
            {"meta": "tracer_stop", "process": "frontend", "pid": 1,
             "recorded": 2, "dropped": 3},
        ]) + "\n")
        shard.write_text("\n".join(json.dumps(r) for r in [
            {"trace": "t1", "span": "wk", "parent": "rpc",
             "name": "worker.handle", "process": "shard-0", "pid": 2,
             "start": t0 + 0.05, "dur": 0.9},
            {"trace": "t1", "span": "rs", "parent": "wk",
             "name": "store.restore", "process": "shard-0", "pid": 2,
             "start": t0 + 0.1, "dur": 0.4,
             "attrs": {"batch_span": "b1", "batch_trace": "t9"}},
            "not json at all",
        ]) + "\n")
        return tmp_path

    def test_run_events_are_skipped_not_malformed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [
            {"seq": 1, "event": "fit_start", "n_observations": 10},
            {"seq": 2, "event": "span", "trace": "t1", "span": "a",
             "parent": None, "name": "eadrl.fit", "process": "main",
             "pid": 1, "start": 0.0, "dur": 1.0},
            {"seq": 3, "event": "online_step", "step": 0},
        ]) + "\n")
        assembler = TraceAssembler().add_file(path)
        assert assembler.malformed_lines == 0
        (trace,) = assembler.traces()
        assert trace.root.name == "eadrl.fit"

    def test_cross_process_stitching(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        trace = assembler.trace("t1")
        assert trace.root.name == "http.request"
        assert trace.processes == ["frontend", "shard-0"]
        assert trace.orphans == 0
        assert [c.name for c in trace.children(trace.root)] == ["rpc.shard"]
        assert assembler.malformed_lines == 1

    def test_coverage_and_breakdown(self, tmp_path):
        trace = assemble_trace_dir(self._write_trace(tmp_path)).trace("t1")
        # rpc.shard spans 95% of the 1s root.
        assert trace.coverage() == pytest.approx(0.95)
        breakdown = trace.breakdown()
        # Self time: rpc = 0.95 - 0.9, worker = 0.9 - 0.4, restore = 0.4.
        assert breakdown["restore"] == pytest.approx(0.4)
        assert breakdown["worker"] == pytest.approx(0.5)
        assert breakdown["rpc"] == pytest.approx(0.05)

    def test_batch_links_and_drop_totals(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        trace = assembler.trace("t1")
        assert trace.batch_links() == [
            {"batch_span": "b1", "batch_trace": "t9"}
        ]
        assert assembler.spans_dropped == 3
        assert assembler.dropped == {"frontend": 3}

    def test_report_rows(self, tmp_path):
        report = assemble_trace_dir(self._write_trace(tmp_path)).report(
            root_name="http.request"
        )
        (row,) = report["traces"]
        assert row["trace_id"] == "t1"
        assert row["duration_ms"] == pytest.approx(1000.0)
        assert row["spans"] == 4
        assert report["spans_dropped"] == 3
        assert report["malformed_lines"] == 1

    def test_render_shows_tree_and_coverage(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        text = assembler.trace("t1").render(assembler)
        assert "http.request" in text
        assert "worker.handle [shard-0]" in text
        assert "coverage 95.0%" in text

    def test_end_to_end_live_roundtrip(self, tmp_path):
        TRACER.enable(tmp_path, "live")
        with TRACER.span("http.request", path="/v1/x"):
            with TRACER.span("service.observe"):
                with TRACER.child_span("store.restore"):
                    pass
        TRACER.disable()
        traces = assemble_trace_dir(tmp_path).traces()
        assert len(traces) == 1
        assert traces[0].root.name == "http.request"
        assert len(traces[0].spans) == 3
        assert traces[0].coverage() > 0.0
