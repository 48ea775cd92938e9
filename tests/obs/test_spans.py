"""The global span path: training and serving spans open TRACER.span."""

from __future__ import annotations

from repro.obs import NOOP_TRACE_SPAN, TRACER, MemorySink, configure, shutdown


class TestGlobalSpanPath:
    def test_disabled_returns_shared_noop(self):
        # A telemetry session makes spans live; shutting it down must
        # unbind the tracer so the next span is the shared no-op again.
        configure(sinks=[MemorySink()])
        assert TRACER.enabled
        shutdown()
        assert not TRACER.writing
        assert not TRACER.enabled
        span = TRACER.span("anything")
        assert span is NOOP_TRACE_SPAN
        with span:
            pass  # no state, no record, no histogram
