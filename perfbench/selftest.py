"""Self-tests of the benchmark's own machinery (not of the program).

Run from the root of a source checkout::

    python3 perfbench/selftest.py

Covers the layer wrappers (install, restore, identity with the
originals), the self-time partition, and the load generator's
discipline. The same checks also run inside every benchmark run on its
real data; these tests pin them on inputs whose answer is known.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import (  # noqa: E402
    GROUPS, Patcher, Request, Span, Tracer, _traced_acquire, layer_metrics,
    self_times,
)
from loadgen import (  # noqa: E402
    Recorder, discipline_report, nproc, partition, run_clients,
)


def span(layer, start, end, sessions=("a",), sid=None, fn="f"):
    return Span(layer, fn, start, end, sid, frozenset(sessions), (), None)


class PatcherTest(unittest.TestCase):
    def test_install_restore_identity(self):
        patcher = Patcher(Tracer())
        self.assertEqual(patcher.verify_pristine(), [])
        patcher.install(GROUPS)
        patched = patcher.verify_pristine()
        self.assertEqual(len(patched), len(patcher.targets))
        patcher.restore()
        self.assertEqual(patcher.verify_pristine(), [])

    def test_by_name_imports_patched_everywhere(self):
        import repro.persistence as persistence
        import repro.runtime.checkpoint as checkpoint
        import repro.serving.store as store

        original = persistence.atomic_write_bytes
        patcher = Patcher(Tracer())
        patcher.install(["persistence"])
        try:
            for module in (persistence, checkpoint, store):
                self.assertIsNot(module.atomic_write_bytes, original)
        finally:
            patcher.restore()
        for module in (persistence, checkpoint, store):
            self.assertIs(module.atomic_write_bytes, original)

    def test_staticmethod_stays_static(self):
        from repro.rl.ddpg import DDPGAgent

        descriptor = vars(DDPGAgent)["policy_weights_batch"]
        patcher = Patcher(Tracer())
        patcher.install(["agent"])
        try:
            self.assertIsInstance(
                vars(DDPGAgent)["policy_weights_batch"], staticmethod
            )
        finally:
            patcher.restore()
        self.assertIs(vars(DDPGAgent)["policy_weights_batch"], descriptor)

    def test_wrapped_call_records_one_span(self):
        tracer = Tracer()
        patcher = Patcher(tracer)
        patcher.install(["persistence"])
        try:
            import repro.persistence as persistence

            path = HERE / ".selftest.tmp"
            try:
                persistence.write_bytes_unsynced(path, b"12345")
            finally:
                path.unlink(missing_ok=True)
        finally:
            patcher.restore()
        writes = [s for s in tracer.spans if s.layer == "persistence.write"]
        self.assertEqual(len(writes), 1)
        self.assertEqual(writes[0].size, 5)


class AcquireTest(unittest.TestCase):
    def test_pins_join_nested_spans(self):
        tracer = Tracer()

        @contextlib.contextmanager
        def acquire(store, sid):
            yield sid

        traced = _traced_acquire(tracer, acquire)
        with traced(None, "s1"):
            token = tracer.enter("pool.eval", None)
            tracer.leave("pool.eval", "eval", None, token)
        inner = [s for s in tracer.spans if s.layer == "pool.eval"][0]
        self.assertEqual(inner.sessions, frozenset({"s1"}))
        token = tracer.enter("pool.eval", None)
        tracer.leave("pool.eval", "eval", None, token)
        self.assertEqual(tracer.spans[-1].sessions, frozenset())


class PartitionTest(unittest.TestCase):
    def test_self_times_partition_the_request(self):
        request = Request("observe", "a", 0.0, 10.0, True, "direct")
        spans = [
            span("service.observe", 1.0, 9.0),
            span("store.acquire", 2.0, 4.0),
            span("bundle.restore", 2.5, 3.5),
            span("pool.eval", 5.0, 11.0),  # clipped at the request end
        ]
        selfs, rest = self_times(request, spans)
        self.assertAlmostEqual(rest, 1e3 * 1.0)  # [0, 1)
        self.assertAlmostEqual(selfs["service.observe"], 1e3 * 2.0)
        self.assertAlmostEqual(selfs["store.acquire"], 1e3 * 1.0)
        self.assertAlmostEqual(selfs["bundle.restore"], 1e3 * 1.0)
        self.assertAlmostEqual(selfs["pool.eval"], 1e3 * 5.0)
        self.assertAlmostEqual(sum(selfs.values()) + rest, request.ms)

    def test_spans_of_other_sessions_do_not_join(self):
        requests = [Request("observe", "a", 0.0, 1.0, True, "direct")]
        spans = [span("service.observe", 0.1, 0.9, sessions=("b",))]
        metrics, check = layer_metrics(spans, requests, {}, 0)
        self.assertTrue(check["ok"])
        self.assertAlmostEqual(metrics["trace.unattributed_ms.p50"], 1e3)

    def test_online_updates_come_from_outside_the_window(self):
        def update(start, outer=()):
            return Span("agent.update", "update", start, start + 0.002,
                        None, frozenset(), outer, None)

        def feedback(start):
            return Span("session.step", "feedback", start, start + 0.001,
                        "s", frozenset(("s",)), (), None)

        spans = [
            update(0.0, outer=("agent.train",)),  # training, not counted
            update(1.0), feedback(1.1), feedback(1.2),  # the online loop
            update(10.5), feedback(10.6),  # inside the load window
        ]
        metrics, _ = layer_metrics(spans, [], {}, 0, (10.0, 20.0))
        self.assertAlmostEqual(metrics["agent.update_ms.p50"], 2.0)
        self.assertAlmostEqual(metrics["agent.updates_per_step"], 0.5)


class LoadgenTest(unittest.TestCase):
    def test_partition_is_disjoint_and_complete(self):
        tenants = [f"t{i}" for i in range(11)]
        parts = partition(tenants, 2)
        flat = [t for p in parts for t in p]
        self.assertEqual(sorted(flat), sorted(tenants))
        self.assertEqual(len(flat), len(set(flat)))

    def test_thread_cap(self):
        with self.assertRaises(RuntimeError):
            run_clients([lambda: None] * (nproc() + 1))

    def test_counts_and_overlap(self):
        recorder = Recorder()
        recorder.call("measure", "observe", "a", "direct", lambda: 1)

        def boom():
            raise ValueError("refused")

        recorder.call("measure", "observe", "b", "direct", boom)
        self.assertEqual(recorder.counts["measure"],
                         {"sent": 2, "ok": 1, "failed": 1})
        report = discipline_report([["a"], ["b"]], recorder, 2, 0)
        self.assertTrue(report["ok"])
        # Two overlapping requests of one tenant break the discipline.
        release = threading.Event()
        started = threading.Barrier(2)

        def slow():
            started.wait()
            release.wait(5)

        threads = [
            threading.Thread(target=recorder.call,
                             args=("measure", "observe", "a", "direct",
                                   slow))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(5)
        report = discipline_report([["a"], ["b"]], recorder, 2, 0)
        self.assertGreater(report["overlapping_requests"], 0)
        self.assertFalse(report["ok"])


if __name__ == "__main__":
    unittest.main()
