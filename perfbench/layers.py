"""Outside-in layer tracing: wrap public layer functions, attribute time.

Nothing here is imported by the program. The traced run patches the
functions listed in :func:`layer_targets` with timing wrappers, runs the
workload, and restores the originals; the untraced run never patches
anything (:meth:`Patcher.verify_pristine` proves it). Spans live in
memory and are reduced to per-layer metrics when the phase ends.

Joining spans to requests: every load-generator client owns a disjoint
set of tenants and has at most one request in flight per tenant, so a
span joins the request whose tenant is in the span's session set and
whose interval overlaps the span. A span's session set is the session id
its function was called with (where it takes one) plus every session the
recording thread holds pinned through ``SessionStore.acquire`` at span
start -- work a batched dispatch does while it holds a session blocks that
session's request.

Self time: each instant of a request is charged to the innermost joined
span covering it (latest start wins); instants no span covers are the
request's ``trace.unattributed_ms``. Layer self-times plus unattributed
time therefore partition the request exactly.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from stats import percentile


class Span:
    __slots__ = ("layer", "fn", "start", "end", "sid", "sessions", "outer",
                 "size")

    def __init__(self, layer, fn, start, end, sid, sessions, outer, size):
        self.layer = layer
        self.fn = fn
        self.start = start
        self.end = end
        self.sid = sid
        self.sessions = sessions
        self.outer = outer
        self.size = size

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Request:
    """One client-observed operation of the load generator."""

    __slots__ = ("kind", "session", "start", "end", "ok", "transport")

    def __init__(self, kind, session, start, end, ok, transport):
        self.kind = kind
        self.session = session
        self.start = start
        self.end = end
        self.ok = ok
        self.transport = transport

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder with per-thread layer stack and pins."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.pinned = {}
        return local

    def pin(self, sid: str) -> None:
        pinned = self._state().pinned
        pinned[sid] = pinned.get(sid, 0) + 1

    def unpin(self, sid: str) -> None:
        pinned = self._state().pinned
        left = pinned.get(sid, 1) - 1
        if left:
            pinned[sid] = left
        else:
            pinned.pop(sid, None)

    def enter(self, layer: str, sid: Optional[str]):
        """Open a span; returns None when ``layer`` is already open on
        this thread (a nested call of the same layer is covered by the
        outer span and not recorded twice)."""
        state = self._state()
        if layer in state.stack:
            return None
        sessions = frozenset(state.pinned) | (
            frozenset((sid,)) if sid is not None else frozenset()
        )
        outer = tuple(state.stack)
        state.stack.append(layer)
        return (sessions, outer, time.perf_counter())

    def leave(self, layer, fn, sid, token, size=None) -> None:
        end = time.perf_counter()
        self._state().stack.pop()
        sessions, outer, start = token
        # list.append is atomic under the interpreter lock.
        self.spans.append(
            Span(layer, fn, start, end, sid, sessions, outer, size)
        )


def _timed(tracer: Tracer, layer: str, fn: Callable,
           session_of=None, size_of=None) -> Callable:
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = session_of(args, kwargs) if session_of is not None else None
        token = tracer.enter(layer, sid)
        if token is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            size = size_of(args, kwargs) if size_of is not None else None
            tracer.leave(layer, name, sid, token, size)

    return wrapper


class _TracedAcquire:
    """``SessionStore.acquire`` context: times entry, tracks the pin."""

    __slots__ = ("_tracer", "_cm", "_sid")

    def __init__(self, tracer, cm, sid):
        self._tracer = tracer
        self._cm = cm
        self._sid = sid

    def __enter__(self):
        self._tracer.pin(self._sid)
        token = self._tracer.enter("store.acquire", self._sid)
        try:
            return self._cm.__enter__()
        except BaseException:
            self._tracer.unpin(self._sid)
            raise
        finally:
            if token is not None:
                self._tracer.leave(
                    "store.acquire", "acquire", self._sid, token
                )

    def __exit__(self, *exc):
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.unpin(self._sid)


def _traced_acquire(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def acquire(self, session_id):
        return _TracedAcquire(tracer, fn(self, session_id), session_id)

    return acquire


def _arg(index: int, name: str):
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]

    return get


def _http_session(args, kwargs) -> Optional[str]:
    parts = [p for p in args[0].path.split("?", 1)[0].split("/") if p]
    return parts[2] if len(parts) >= 3 and parts[:2] == ["v1", "sessions"] \
        else None


def _session_attr(args, kwargs) -> Optional[str]:
    return getattr(args[0], "session_id", None)


def _byte_count(args, kwargs) -> int:
    data = kwargs["data"] if "data" in kwargs else args[1]
    return len(data)


#: Layer groups, installable separately: the sharded fleet's traced set-up
#: and load install only ``supervisor``, because forked shard workers
#: would inherit every other wrapper.
GROUPS = ("http", "service", "store", "bundle", "checkpoint", "persistence",
          "pool", "agent", "session", "supervisor")


def layer_targets() -> List[Tuple[str, Any, str, Callable]]:
    """``(group, owner, attribute, make_wrapper)`` for every patch.

    ``owner`` is a class or a module; functions that other modules bind
    by name (``atomic_write_bytes`` and ``write_bytes_unsynced``) are
    patched in every module that imports them.
    """
    import repro.persistence as persistence
    import repro.runtime.checkpoint as checkpoint
    import repro.serving.store as store
    import repro.serving.supervisor as supervisor
    from repro.models.pool import ForecasterPool
    from repro.rl.agents.base import BaseAgent
    from repro.rl.ddpg import DDPGAgent
    from repro.serving.bundle import ModelBundle
    from repro.serving.http import _Handler
    from repro.serving.service import ForecastService
    from repro.serving.session import SeriesSession

    def timed(layer, session_of=None, size_of=None):
        return lambda tracer, fn: _timed(
            tracer, layer, fn, session_of, size_of
        )

    first = _arg(1, "session_id")
    targets = [
        ("http", _Handler, "do_POST", timed("http", _http_session)),
        ("service", ForecastService, "observe",
         timed("service.observe", first)),
        ("store", store.SessionStore, "acquire", _traced_acquire),
        ("store", store.SessionStore, "sync", timed("store.sync", first)),
        ("bundle", ModelBundle, "restore_session",
         timed("bundle.restore", first)),
        ("bundle", ModelBundle, "create_session",
         timed("bundle.create", first)),
        ("checkpoint", checkpoint.CheckpointManager, "save",
         timed("checkpoint.save")),
        ("persistence", os, "fsync", timed("persistence.fsync")),
    ]
    for module in (persistence, checkpoint, store, supervisor):
        for name in ("atomic_write_bytes", "write_bytes_unsynced"):
            if name in vars(module):
                targets.append((
                    "persistence", module, name,
                    timed("persistence.write", size_of=_byte_count),
                ))
    targets += [
        ("pool", ForecasterPool, "fit", timed("pool.fit")),
        ("pool", ForecasterPool, "prediction_matrix", timed("pool.matrix")),
        ("pool", ForecasterPool, "prediction_matrix_with_mask",
         timed("pool.matrix")),
        ("pool", ForecasterPool, "predict_next_with_mask",
         timed("pool.eval")),
        ("pool", ForecasterPool, "predict_next_batch_with_mask",
         timed("pool.eval", size_of=lambda a, k: len(a[1]))),
        ("agent", BaseAgent, "train", timed("agent.train")),
        ("agent", DDPGAgent, "update", timed("agent.update")),
        ("agent", BaseAgent, "policy_weights", timed("actor.forward")),
        ("agent", DDPGAgent, "policy_weights_batch",
         timed("actor.forward", size_of=lambda a, k: len(a[0]))),
        ("session", SeriesSession, "feedback",
         timed("session.step", _session_attr)),
        ("session", SeriesSession, "apply_forecast",
         timed("session.step", _session_attr)),
        ("supervisor", supervisor.ShardSupervisor, "__init__",
         timed("supervisor.spawn")),
        ("supervisor", supervisor.ShardSupervisor, "observe",
         timed("supervisor.observe", first)),
    ]
    return targets


class Patcher:
    """Installs and restores the layer wrappers, and proves restoration.

    Originals are captured from the owner's own ``__dict__`` (so a
    ``staticmethod`` descriptor is restored as the descriptor) when the
    patcher is built, before any run.
    """

    groups = GROUPS

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.targets = layer_targets()
        self.originals = {
            (id(owner), attr): vars(owner)[attr]
            for _, owner, attr, _ in self.targets
        }
        self.installed: List[Tuple[Any, str]] = []

    def install(self, groups: Iterable[str]) -> None:
        groups = set(groups)
        for group, owner, attr, make in self.targets:
            if group not in groups:
                continue
            original = self.originals[(id(owner), attr)]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(make(self.tracer, original.__func__))
            else:
                wrapped = make(self.tracer, original)
            setattr(owner, attr, wrapped)
            self.installed.append((owner, attr))

    def restore(self) -> None:
        while self.installed:
            owner, attr = self.installed.pop()
            setattr(owner, attr, self.originals[(id(owner), attr)])

    def verify_pristine(self) -> List[str]:
        """Names of patched functions that are not the originals."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for _, owner, attr, _ in self.targets
            if vars(owner).get(attr) is not self.originals[(id(owner), attr)]
        ]


# ----------------------------------------------------------------------
# Reduction: spans + requests -> per-request self time -> layer metrics
# ----------------------------------------------------------------------
def join(spans: List[Span], requests: List[Request]) -> Dict[int, List[Span]]:
    """Spans overlapping each request, by request index (unclipped)."""
    by_session: Dict[str, List[Span]] = {}
    for span in spans:
        for sid in span.sessions:
            by_session.setdefault(sid, []).append(span)
    joined: Dict[int, List[Span]] = {}
    for index, request in enumerate(requests):
        joined[index] = [
            span for span in by_session.get(request.session, ())
            if span.start < request.end and span.end > request.start
        ]
    return joined


def self_times(request: Request, spans: List[Span]) -> Tuple[Dict[str, float],
                                                              float]:
    """Partition the request interval: ``({layer: ms}, unattributed_ms)``."""
    lo, hi = request.start, request.end
    clipped = [
        (max(lo, s.start), min(hi, s.end), s.start, s.layer) for s in spans
    ]
    points = sorted({lo, hi, *(c[0] for c in clipped),
                     *(c[1] for c in clipped)})
    per_layer: Dict[str, float] = {}
    unattributed = 0.0
    for a, b in zip(points, points[1:]):
        covering = [c for c in clipped if c[0] <= a and c[1] >= b]
        if not covering:
            unattributed += b - a
            continue
        layer = max(covering, key=lambda c: (c[2], -c[1]))[3]
        per_layer[layer] = per_layer.get(layer, 0.0) + (b - a)
    return (
        {layer: v * 1e3 for layer, v in per_layer.items()},
        unattributed * 1e3,
    )


def _durations(spans: Iterable[Span]) -> List[float]:
    return [span.ms for span in spans]


def layer_metrics(spans: List[Span], requests: List[Request],
                  store_delta: Dict[str, float], restarts: int,
                  window: Tuple[float, float] = (-math.inf, math.inf),
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metric values plus the attribution self-test result.

    Request-path layers count only spans inside ``window`` (the measured
    phase); set-up layers (fit, train, create, spawn, matrix) count every
    span of the traced run; the agent's online updates, and the steps
    they are counted against, come from the paper's periodic online loop,
    which runs outside the window. A layer with no spans reports 0.
    """
    by_layer: Dict[str, List[Span]] = {}
    in_window: Dict[str, List[Span]] = {}
    outside: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
        inside = window[0] <= span.start and span.end <= window[1]
        (in_window if inside else outside).setdefault(
            span.layer, []
        ).append(span)

    def layer(name):
        return in_window.get(name, [])

    def setup_layer(name):
        return by_layer.get(name, [])

    def p(values, q):
        return percentile(values, q) if values else 0.0

    observes = [r for r in requests if r.kind == "observe" and r.ok]
    n_obs = max(1, len(observes))
    joined = join(spans, observes)

    overhead, wait, unattributed, steps = [], [], [], []
    worst_gap = 0.0
    for index, request in enumerate(observes):
        mine = joined[index]
        services = [s for s in mine if s.layer == "service.observe"]
        if request.transport == "http" and services:
            overhead.append(request.ms - sum(s.ms for s in services))
        if services:
            entry = min(s.start for s in services)
            acquires = [
                s.start for s in mine
                if s.layer == "store.acquire" and s.sid == request.session
                and s.start >= entry
            ]
            if acquires:
                wait.append((min(acquires) - entry) * 1e3)
        step = [s.ms for s in mine if s.layer == "session.step"
                and s.sid == request.session]
        if step:
            steps.append(sum(step))
        selfs, rest = self_times(request, mine)
        unattributed.append(rest)
        worst_gap = max(worst_gap, abs(sum(selfs.values()) + rest - request.ms))

    batches = [s.size for s in layer("pool.eval")
               if s.fn == "predict_next_batch_with_mask"]
    online_updates = [s for s in outside.get("agent.update", [])
                      if "agent.train" not in s.outer]
    feedbacks = [s for s in outside.get("session.step", [])
                 if s.fn == "feedback"]
    writes = layer("persistence.write")
    spawns = setup_layer("supervisor.spawn")
    requests_total = max(1, sum(1 for r in requests if r.ok))
    metrics = {
        "http.overhead_ms.p50": p(overhead, 50),
        "http.overhead_ms.p99": p(overhead, 99),
        "http.create_ms.p50": p([r.ms for r in requests
                                 if r.kind == "create" and r.ok
                                 and r.transport == "http"], 50),
        "batcher.wait_ms.p50": p(wait, 50),
        "batcher.wait_ms.p99": p(wait, 99),
        "batcher.group_size.mean": (
            sum(batches) / len(batches) if batches else 0.0
        ),
        "batcher.batched_share": (
            sum(batches) / n_obs if observes else 0.0
        ),
        "store.acquire_ms.p50": p(_durations(layer("store.acquire")), 50),
        "store.acquire_ms.p99": p(_durations(layer("store.acquire")), 99),
        "store.restores_per_acquire": store_delta.get(
            "restores_per_acquire", 0.0
        ),
        "store.evictions_per_request": (
            store_delta.get("evictions", 0.0) / requests_total
        ),
        "store.sync_ms.p50": p(_durations(layer("store.sync")), 50),
        "bundle.restore_ms.p50": p(_durations(layer("bundle.restore")), 50),
        "bundle.create_ms.p50": p(
            _durations(setup_layer("bundle.create")), 50
        ),
        "checkpoint.save_ms.p50": p(
            _durations(layer("checkpoint.save")), 50
        ),
        "checkpoint.saves_per_observe": (
            len(layer("checkpoint.save")) / n_obs if observes else 0.0
        ),
        "persistence.fsyncs_per_observe": (
            len(layer("persistence.fsync")) / n_obs if observes else 0.0
        ),
        "persistence.bytes_per_observe": (
            sum(s.size for s in writes) / n_obs if observes else 0.0
        ),
        "persistence.write_ms_per_observe": (
            sum(_durations(writes)) / n_obs if observes else 0.0
        ),
        "pool.eval_ms.p50": p(_durations(layer("pool.eval")), 50),
        "pool.matrix_ms.p50": p(_durations(setup_layer("pool.matrix")), 50),
        "pool.fit_s": p(_durations(setup_layer("pool.fit")), 50) / 1e3,
        "agent.train_s": p(_durations(setup_layer("agent.train")), 50)
        / 1e3,
        "agent.update_ms.p50": p(_durations(online_updates), 50),
        "agent.updates_per_step": (
            len(online_updates) / len(feedbacks) if feedbacks else 0.0
        ),
        "actor.forward_ms.p50": p(_durations(layer("actor.forward")), 50),
        "session.step_ms.p50": p(steps, 50),
        "supervisor.observe_ms.p50": p(
            _durations(layer("supervisor.observe")), 50
        ),
        "supervisor.spawn_s": p(_durations(spawns), 50) / 1e3,
        "supervisor.worker_restarts": float(restarts),
        "trace.unattributed_ms.p50": p(unattributed, 50),
    }
    check = {
        "requests": len(observes),
        "spans": len(spans),
        "max_partition_gap_ms": worst_gap,
        "ok": worst_gap < 1e-6,
    }
    return metrics, check
