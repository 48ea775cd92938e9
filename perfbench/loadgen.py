"""Closed-loop load generation with per-phase request accounting.

Discipline, checked on every run (see :func:`discipline_report`):

- at most ``nproc`` client threads, each with at most one connection;
- every client owns a disjoint set of tenants and has at most one request
  in flight, so layer spans join to requests by session id;
- every request of every phase (creates, warm-up, measurement, checks) is
  counted as sent, succeeded or failed; a non-2xx response or an
  exception counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from layers import Request


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class HTTPError(Exception):
    """A non-2xx response."""


class Recorder:
    """Thread-safe request log and per-phase sent/ok/failed counters."""

    def __init__(self):
        self.requests: Dict[str, List[Request]] = {}
        self.counts: Dict[str, Dict[str, int]] = {}
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def call(self, phase: str, kind: str, session: str, transport: str,
             fn: Callable[[], Any]):
        """Run one request; returns its result, or None when it failed."""
        with self._lock:
            counts = self.counts.setdefault(
                phase, {"sent": 0, "ok": 0, "failed": 0}
            )
            counts["sent"] += 1
        start = time.perf_counter()
        try:
            result = fn()
            ok = True
        except Exception as err:  # noqa: BLE001 - counted as a failure
            result = None
            ok = False
            error = f"{phase}/{kind} {session}: {err!r}"
        end = time.perf_counter()
        with self._lock:
            counts["ok" if ok else "failed"] += 1
            if not ok and len(self.errors) < 20:
                self.errors.append(error)
            self.requests.setdefault(phase, []).append(
                Request(kind, session, start, end, ok, transport)
            )
        return result

    def phase(self, *phases: str) -> List[Request]:
        """Requests of the named phases, in completion order."""
        return [r for name in phases for r in self.requests.get(name, ())]

    @property
    def attempted(self) -> int:
        return sum(c["sent"] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.counts.values())


def partition(tenants: Sequence[str], clients: int) -> List[List[str]]:
    """Round-robin split of ``tenants`` into disjoint per-client sets."""
    return [list(tenants[i::clients]) for i in range(clients)]


def run_clients(bodies: List[Callable[[], None]]) -> None:
    """Run one thread per client body and wait for all of them.

    A body that raises is reported by re-raising here, after every
    thread has ended.
    """
    if len(bodies) > nproc():
        raise RuntimeError(
            f"{len(bodies)} client threads exceed nproc={nproc()}"
        )
    errors: List[BaseException] = []

    def guard(body):
        try:
            body()
        except BaseException as err:  # noqa: BLE001 - re-raised below
            errors.append(err)

    threads = [
        threading.Thread(target=guard, args=(body,), name=f"client-{i}")
        for i, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def discipline_report(parts: List[List[str]], recorder: Recorder,
                      clients: int, connections: int) -> Dict[str, Any]:
    """The load-generator self-test, evaluated on the run itself."""
    owned = [t for part in parts for t in part]
    per_phase_balanced = all(
        c["sent"] == c["ok"] + c["failed"] for c in recorder.counts.values()
    )
    # One request in flight per tenant: a tenant's measured requests
    # never overlap in time.
    last_end: Dict[str, float] = {}
    overlapping = 0
    requests = [r for rs in recorder.requests.values() for r in rs]
    for request in sorted(requests, key=lambda r: r.start):
        if request.start < last_end.get(request.session, float("-inf")):
            overlapping += 1
        last_end[request.session] = request.end
    report = {
        "clients": clients,
        "connections": connections,
        "nproc": nproc(),
        "disjoint_tenants": len(owned) == len(set(owned)),
        "counts_balanced": per_phase_balanced,
        "overlapping_requests": overlapping,
    }
    report["ok"] = (
        clients <= report["nproc"]
        and connections <= report["nproc"]
        and report["disjoint_tenants"]
        and per_phase_balanced
        and overlapping == 0
    )
    return report


class HTTPClient:
    """One persistent HTTP/1.1 connection with JSON helpers.

    Uses :mod:`http.client` with its default socket options, as a
    connection-pooled client would.
    """

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if not 200 <= response.status < 300:
            raise HTTPError(f"{response.status}: {data[:200]!r}")
        return json.loads(data)

    def create(self, session: str, history) -> dict:
        return self._request("POST", "/v1/sessions", {
            "session": session, "history": [float(v) for v in history],
        })

    def observe(self, session: str, value: float, seq: int) -> dict:
        return self._request(
            "POST", f"/v1/sessions/{session}/observe",
            {"y": value, "seq": seq},
        )

    def predict(self, session: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session}/predict")

    def close(self) -> None:
        self.conn.close()
