"""The benchmark's four workloads.

Every workload follows the ``repro serve`` defaults: the ``small`` pool,
DDPG with 20 episodes x 60 iterations, a series of length 400 split 75/25,
and drift-triggered policy updates for served sessions. The workload seed
only shapes the generated inputs (tenant series and their streams, or the
paper datasets' realisations); the program receives nothing but those.

A run of a serving workload:

1. fits the bundle on dataset 9 (before the set-up clock starts);
2. sets the service up ``SETUPS`` times -- construction, worker spawn and
   every tenant's create -- and keeps the last (``setup_s`` is the
   median);
3. warms up, then drives the closed loop for ``--seconds``;
4. checks the outputs and tears the service down.

With tracing on, step 3 runs twice: untraced, then with the layer
wrappers installed, and the per-layer metrics come from the second pass,
which also times the fit and one of the paper's online passes.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import os
import resource
import shutil
import time
from typing import Any, Dict, List, Optional

import numpy as np

from layers import Patcher, Tracer, layer_metrics
from loadgen import HTTPClient, Recorder, discipline_report, partition, \
    run_clients
from stats import median, percentile, supported

from repro.core import EADRL, EADRLConfig
from repro.datasets import load
from repro.preprocessing import train_test_split
from repro.rl.ddpg import DDPGConfig
from repro.serving import (
    ForecastHTTPServer,
    ModelBundle,
    ServiceConfig,
    make_service,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop clients (and connections), capped at ``nproc``.
CLIENTS = 2
#: Every fifth request of a client is a predict, the rest observes.
PREDICT_EVERY = 5
#: Unmeasured closed-loop time before the measured window.
WARMUP_SECONDS = 0.5
#: Timed repetitions of each paper pass per fitted pipeline model.
PASSES = 5

SERVING_DATASET = 9
PIPELINE_DATASETS = (9, 15)
SERIES_LENGTH = 400


def fresh_model() -> EADRL:
    return EADRL(
        pool_size="small",
        config=EADRLConfig(
            episodes=20, max_iterations=60, ddpg=DDPGConfig(seed=0)
        ),
    )


def policy_arrays(model: EADRL) -> list:
    """The fitted policy's parameters, in a fixed order."""
    return [
        value
        for _, module in model.agent._checkpoint_modules()
        for _, value in sorted(module.state_dict().items())
    ]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus the given live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# The paper's online passes on a fitted model
# ----------------------------------------------------------------------
def online_inputs(model: EADRL, series: np.ndarray, start: int) -> tuple:
    """The online loop's inputs: the test-period prediction matrix, the
    ω bootstrap rows before it, and the realised values."""
    window = model.config.window
    return (
        model.pool.prediction_matrix(series, start),
        model.pool.prediction_matrix(series[:start], start - window),
        series[start:],
    )


class PaperPasses:
    """Table III passes and periodic online loops on one fitted model.

    The first :meth:`run` starts with an untimed warm-up call of each.
    The online loop keeps training the agent it drives, so every online
    pass runs on a copy of the fitted model and all passes see the same
    inputs.
    """

    def __init__(self, model: EADRL, series: np.ndarray, start: int,
                 inputs: tuple):
        self.model = model
        self.series = series
        self.start = start
        self.predictions, self.bootstrap, self.truth = inputs
        self.table3: List[float] = []
        self.steps: List[float] = []
        self.digests: set = set()
        self.finite = True
        self._warm = False

    def _online(self):
        clone = copy.deepcopy(self.model)
        gc.collect()
        t0 = time.perf_counter()
        out = clone.rolling_forecast_online(
            self.predictions, self.truth, mode="periodic",
            bootstrap_predictions=self.bootstrap,
        )
        return out, time.perf_counter() - t0

    def run(self, passes: int) -> None:
        if not self._warm:
            self.model.timed_rolling_forecast(self.series, self.start)
            self._online()
            self._warm = True
        for _ in range(passes):
            # A collection left over from earlier work would otherwise
            # land inside a ~15 ms timed pass.
            gc.collect()
            out3, elapsed = self.model.timed_rolling_forecast(
                self.series, self.start
            )
            self.table3.append(elapsed * 1e3)
            out_online, elapsed = self._online()
            self.steps.append(self.truth.size / elapsed)
            self.digests.add(digest(out3, out_online))
            self.finite &= bool(
                np.isfinite(out3).all() and np.isfinite(out_online).all()
            )

    @property
    def ok(self) -> bool:
        """Finite, and identical across every pass."""
        return self.finite and len(self.digests) == 1

    def metrics(self) -> Dict[str, float]:
        return {
            "table3_online_ms": median(self.table3),
            "online_steps_per_s": median(self.steps),
        }


def load_metrics(recorder: Recorder, checks: Dict[str, Any], phase: str,
                 start: float, end: float) -> Dict[str, float]:
    """Request metrics of one phase, driven from ``start`` to ``end``.

    Tail percentiles, with their sample support, go to ``checks``: they
    are printed but carry no bound (see README).
    """
    requests = recorder.phase(phase)
    observes = [r for r in requests if r.kind == "observe" and r.ok]
    predicts = [r.ms for r in requests if r.kind == "predict" and r.ok]
    latencies = [r.ms for r in observes]
    checks[f"{phase}_samples"] = {
        "observe": len(latencies),
        "predict": len(predicts),
        "observe_p95_ms": percentile(latencies, 95),
        "observe_p95_supported": supported(len(latencies), 95),
        "predict_p90_ms": percentile(predicts, 90),
        "predict_p90_supported": supported(len(predicts), 90),
    }
    return {
        "observe_rps": len(observes) / (end - start),
        "observe_p50_ms": percentile(latencies, 50),
        "predict_p50_ms": percentile(predicts, 50),
    }


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServingSpec:
    def __init__(self, name, *, tenants, resident, durable, shards, http):
        self.name = name
        self.tenants = tenants
        self.resident = resident  # per service process
        self.durable = durable
        self.shards = shards
        self.http = http


SERVING = {
    "http_keepalive": ServingSpec(
        "http_keepalive", tenants=64, resident=128, durable=False, shards=0,
        http=True,
    ),
    "durable_churn": ServingSpec(
        "durable_churn", tenants=256, resident=64, durable=True, shards=0,
        http=False,
    ),
    "sharded_fleet": ServingSpec(
        "sharded_fleet", tenants=256, resident=32, durable=True, shards=2,
        http=False,
    ),
}


class Tenant:
    __slots__ = ("sid", "history", "stream", "acked", "log")

    def __init__(self, sid, history, stream):
        self.sid = sid
        self.history = history
        self.stream = stream
        self.acked = 0
        self.log: Optional[list] = None


def make_tenants(seed: int, n: int, train, test) -> Dict[str, Tenant]:
    """Per-tenant variants of the served series: a level shift plus noise
    on the training history, and the same on the held-out continuation
    the tenant streams."""
    scale = float(np.std(train))
    tenants = {}
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        level = rng.normal(0.0, 0.05 * scale)
        sid = f"tenant-{i:04d}"
        tenants[sid] = Tenant(
            sid,
            train + level + rng.normal(0.0, 0.05 * scale, train.size),
            test + level + rng.normal(0.0, 0.05 * scale, test.size),
        )
    return tenants


class Ops:
    """One client's operations, over HTTP or by direct call."""

    def __init__(self, service, client: Optional[HTTPClient]):
        self.service = service
        self.client = client
        self.transport = "http" if client is not None else "direct"

    def create(self, t: Tenant):
        if self.client is not None:
            return self.client.create(t.sid, t.history)
        return self.service.create_session(t.sid, t.history)

    def observe(self, sid, value, seq):
        if self.client is not None:
            return self.client.observe(sid, value, seq)
        return self.service.observe(sid, value, seq=seq)

    def predict(self, sid):
        if self.client is not None:
            return self.client.predict(sid)
        return self.service.predict(sid)


class Deployment:
    """One set-up: the service, its optional HTTP frontend and clients."""

    def __init__(self, spec: ServingSpec, bundle, spill_dir: str):
        self.spec = spec
        self.spill_dir = spill_dir
        self.service = make_service(bundle, ServiceConfig(
            max_sessions=spec.resident,
            spill_dir=spill_dir,
            durable=spec.durable,
            shards=spec.shards,
            executor="process" if spec.shards else "thread",
        ))
        self.server = None
        self.clients: List[Optional[HTTPClient]] = [None] * CLIENTS
        if spec.http:
            self.server = ForecastHTTPServer(self.service, port=0).start()
            self.clients = [
                HTTPClient(*self.server.address) for _ in range(CLIENTS)
            ]
        self.ops = [Ops(self.service, c) for c in self.clients]

    def worker_pids(self) -> List[int]:
        shards = getattr(self.service, "_shards", [])
        return [s.process.pid for s in shards if s.process is not None]

    def store_counters(self) -> Dict[str, float]:
        if self.spec.shards:
            per_shard = self.service.stats()["shards"].values()
            stats = [s["sessions"] for s in per_shard if "sessions" in s]
        else:
            stats = [self.service.store.stats()]
        return {
            key: float(sum(s[key] for s in stats))
            for key in ("acquires", "restores", "evictions")
        }

    def restarts(self) -> int:
        return int(self.service.health().get("restarts", 0))

    def close(self) -> None:
        for client in self.clients:
            if client is not None:
                client.close()
        if self.server is not None:
            self.server.shutdown()  # also shuts the service down
        else:
            self.service.shutdown()
        shutil.rmtree(self.spill_dir, ignore_errors=True)


class ServingRun:
    def __init__(self, spec: ServingSpec, seed: int, seconds: float,
                 workdir: str):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorder = Recorder()
        self.checks: Dict[str, Any] = {}
        self._setups = 0

    # -- inputs and set-up ---------------------------------------------
    def fit(self) -> None:
        series = load(SERVING_DATASET, n=SERIES_LENGTH)
        self.series = series
        self.train, self.test = train_test_split(series)
        self.model = fresh_model()
        self.model.fit(self.train)

    def make_bundle(self) -> None:
        self.bundle = ModelBundle.from_estimator(self.model, mode="drift")
        self.tenants = make_tenants(
            self.seed, self.spec.tenants, self.train, self.test
        )
        self.parts = partition(list(self.tenants), CLIENTS)
        twin = self.tenants[self.parts[0][0]]
        twin.log = []
        self.twin = twin

    def setup(self, phase: str) -> tuple:
        """Build a deployment and create every tenant; returns it with
        its wall time."""
        self._setups += 1
        spill = os.path.join(self.workdir, f"spill-{self._setups}")
        for tenant in self.tenants.values():
            tenant.acked = 0
            if tenant.log is not None:
                tenant.log = []
        t0 = time.perf_counter()
        deployment = Deployment(self.spec, self.bundle, spill)
        bodies = [
            self._creator(ops, part, phase)
            for ops, part in zip(deployment.ops, self.parts)
        ]
        run_clients(bodies)
        return deployment, time.perf_counter() - t0

    def _creator(self, ops: Ops, part: List[str], phase: str):
        def body():
            for sid in part:
                tenant = self.tenants[sid]
                self.recorder.call(
                    phase, "create", sid, ops.transport,
                    lambda: ops.create(tenant),
                )
        return body

    # -- load ------------------------------------------------------------
    def _client(self, ops: Ops, part: List[str], phase: str,
                deadline: float):
        recorder = self.recorder

        def body():
            i = 0
            while time.perf_counter() < deadline:
                tenant = self.tenants[part[i % len(part)]]
                i += 1
                sid = tenant.sid
                # The client's own request count picks predicts (a
                # per-tenant count would wait five visits of every
                # tenant for the first one). The cycle length is coprime
                # with the per-client tenant counts, so every tenant
                # still sees four observes per predict.
                if i % PREDICT_EVERY == 0:
                    recorder.call(phase, "predict", sid, ops.transport,
                                  lambda: ops.predict(sid))
                else:
                    seq = tenant.acked + 1
                    value = float(tenant.stream[tenant.acked
                                                % tenant.stream.size])
                    result = recorder.call(
                        phase, "observe", sid, ops.transport,
                        lambda: ops.observe(sid, value, seq),
                    )
                    if result is not None:
                        tenant.acked = seq
                        if tenant.log is not None:
                            tenant.log.append((value, result["forecast"]))
        return body

    def drive(self, deployment: Deployment, phase: str,
              seconds: float) -> tuple:
        """Closed loop for ``seconds``; returns the phase's (start, end)."""
        start = time.perf_counter()
        deadline = start + seconds
        run_clients([
            self._client(ops, part, phase, deadline)
            for ops, part in zip(deployment.ops, self.parts)
        ])
        return start, time.perf_counter()

    def load_metrics(self, phase: str, window: tuple) -> Dict[str, float]:
        return load_metrics(self.recorder, self.checks, phase, *window)

    # -- correctness -------------------------------------------------------
    def check(self, deployment: Deployment) -> bool:
        if self.spec.http:
            return self._check_twin()
        return self._check_acks(deployment)

    def _check_twin(self) -> bool:
        """The twin tenant's served forecasts equal a local serial
        session's, bit for bit."""
        twin = self.bundle.create_session(self.twin.sid, self.twin.history)
        mismatches = sum(
            1 for value, served in self.twin.log
            if float(twin.observe(value)).hex() != float(served).hex()
        )
        ok = bool(self.twin.log) and mismatches == 0
        self.checks["twin"] = {
            "observes": len(self.twin.log), "mismatches": mismatches,
            "ok": ok,
        }
        return ok

    def _check_acks(self, deployment: Deployment) -> bool:
        """Every acknowledged seq is the session's step after the run."""
        lost = []

        def checker(ops: Ops, part: List[str]):
            def body():
                for sid in part:
                    tenant = self.tenants[sid]
                    if not tenant.acked:
                        continue
                    info = self.recorder.call(
                        "check", "info", sid, ops.transport,
                        lambda: ops.service.session_info(sid),
                    )
                    if info is None or info.get("step") != tenant.acked:
                        lost.append(sid)
            return body

        run_clients([
            checker(ops, part)
            for ops, part in zip(deployment.ops, self.parts)
        ])
        acked = sum(1 for t in self.tenants.values() if t.acked)
        ok = acked > 0 and not lost
        self.checks["acks"] = {
            "tenants_acked": acked, "lost": len(lost), "ok": ok,
        }
        return ok

    # -- runs --------------------------------------------------------------
    def run_untraced(self) -> Dict[str, float]:
        marks = [time.perf_counter()]
        metrics = {}
        self.fit()
        self.make_bundle()
        marks.append(time.perf_counter())
        times = []
        for k in range(SETUPS):
            deployment, elapsed = self.setup("create")
            times.append(elapsed)
            if k < SETUPS - 1:
                deployment.close()
        metrics["setup_s"] = median(times)
        marks.append(time.perf_counter())
        try:
            self.drive(deployment, "warmup", WARMUP_SECONDS)
            window = self.drive(deployment, "measure", self.seconds)
            metrics.update(self.load_metrics("measure", window))
            marks.append(time.perf_counter())
            self.checks["outputs_ok"] = self.check(deployment)
            metrics["peak_rss_mb"] = peak_rss_mb(deployment.worker_pids())
            marks.append(time.perf_counter())
        finally:
            deployment.close()
        self.checks["phase_s"] = dict(zip(
            ("fit", "setups", "load", "check"),
            (round(b - a, 2) for a, b in zip(marks, marks[1:])),
        ))
        return metrics

    def run_traced(self, patcher: Patcher) -> Dict[str, float]:
        """Untraced pass, then the same pass with the wrappers on; each
        drives the load for half of ``--seconds``."""
        half = self.seconds / 2
        self.fit()
        policy = digest(*policy_arrays(self.model))
        self.make_bundle()
        deployment, _ = self.setup("create")
        try:
            self.drive(deployment, "warmup", WARMUP_SECONDS)
            untraced_p50 = self.load_metrics(
                "measure", self.drive(deployment, "measure", half)
            )["observe_p50_ms"]
        finally:
            deployment.close()
        self.checks["pristine_after_untraced"] = patcher.verify_pristine()

        tracer = patcher.tracer
        groups = [g for g in patcher.groups if g != "supervisor"]
        serving_groups = ["supervisor"] if self.spec.shards else \
            patcher.groups
        patcher.install(groups)
        try:
            self.fit()
            # The paper's passes, for the layers of Table III and of the
            # periodic online loop's updates (drift-mode serving rarely
            # updates the policy).
            start = self.train.size
            passes = PaperPasses(
                self.model, self.series, start,
                online_inputs(self.model, self.series, start),
            )
            passes.run(1)
            self.checks["paper_passes_ok"] = passes.ok and (
                digest(*policy_arrays(self.model)) == policy
            )
            if self.spec.shards:
                # Forked workers would inherit every wrapper: only the
                # supervisor side is traced on the fleet.
                patcher.restore()
                patcher.install(serving_groups)
            self.make_bundle()
            deployment, _ = self.setup("traced_create")
            try:
                self.drive(deployment, "warmup", WARMUP_SECONDS)
                before = deployment.store_counters()
                window = self.drive(deployment, "traced", half)
                after = deployment.store_counters()
                restarts = deployment.restarts()
            finally:
                patcher.restore()
                try:
                    self.checks["outputs_ok"] = self.check(deployment)
                finally:
                    deployment.close()
        finally:
            patcher.restore()
        self.checks["pristine_after_traced"] = patcher.verify_pristine()
        traced_p50 = self.load_metrics("traced", window)["observe_p50_ms"]
        delta = {k: after[k] - before[k] for k in after}
        delta["restores_per_acquire"] = (
            delta["restores"] / delta["acquires"] if delta["acquires"] else 0.0
        )
        requests = self.recorder.phase("traced", "traced_create")
        metrics, attribution = layer_metrics(
            tracer.spans, requests, delta, restarts, window
        )
        self.checks["attribution"] = attribution
        metrics["trace.overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0
        )
        return metrics

    def report(self) -> Dict[str, Any]:
        return discipline_report(
            self.parts, self.recorder, CLIENTS,
            CLIENTS if self.spec.http else 0,
        )


# ----------------------------------------------------------------------
# The paper pipeline
# ----------------------------------------------------------------------
class PipelineRun:
    """The paper's pipeline on datasets 9 and 15, single-threaded, with no
    serving code.

    Each repetition builds and fits one model per dataset, then times the
    Table III pass and the periodic online loop on it. After the
    repetitions, a closed loop drives Algorithm 1 through the step API
    for ``--seconds``: fresh pool-mode sessions of the fitted models, in
    turn, each fed the held-out values, every observe followed by a
    predict.
    """

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.recorder = Recorder()
        self.checks: Dict[str, Any] = {}
        self.parts = [[f"ds{d}" for d in PIPELINE_DATASETS]]

    def series(self, dataset: int) -> np.ndarray:
        """The registered Table-I series plus seeded noise at 1% of its
        spread: a fresh realisation that keeps the fitted pool's shape,
        so per-step costs compare across seeds."""
        base = load(dataset, n=SERIES_LENGTH)
        rng = np.random.default_rng([self.seed, dataset])
        return base + rng.normal(0.0, 0.01 * float(np.std(base)), base.size)

    def repetition(self) -> Dict[str, Any]:
        setup = fit = 0.0
        table3, steps, digests, finite = [], [], [], True
        self.models = []
        for dataset in PIPELINE_DATASETS:
            t0 = time.perf_counter()
            series = self.series(dataset)
            train, test = train_test_split(series)
            model = fresh_model()
            setup += time.perf_counter() - t0
            t0 = time.perf_counter()
            model.fit(train)
            fit += time.perf_counter() - t0
            t0 = time.perf_counter()
            inputs = online_inputs(model, series, train.size)
            setup += time.perf_counter() - t0
            passes = PaperPasses(model, series, train.size, inputs)
            passes.run(PASSES)
            table3.append(passes.metrics()["table3_online_ms"])
            steps.append(passes.metrics()["online_steps_per_s"])
            finite &= passes.ok
            digests.append("".join(sorted(passes.digests)))
            self.models.append((f"ds{dataset}", model, train, test))
        return {
            "setup_s": setup, "fit_s": fit,
            # Per-pass figures summed over the two datasets.
            "table3_online_ms": sum(table3),
            "online_steps_per_s": sum(steps) / len(steps),
            "digest": "/".join(digests), "finite": finite,
        }

    def step_phase(self, phase: str, seconds: float,
                   tracer: Optional[Tracer] = None) -> tuple:
        """Whole step-API passes until ``seconds`` have gone by; returns
        the phase's (start, end)."""
        start = time.perf_counter()
        turn = 0
        while turn < len(self.models) or \
                time.perf_counter() - start < seconds:
            sid, model, train, test = self.models[turn % len(self.models)]
            forecasts = self._step_api(sid, model, train, test, phase,
                                       tracer)
            self.step_digests.setdefault(sid, set()).add(digest(forecasts))
            self.step_finite &= bool(np.isfinite(forecasts).all())
            turn += 1
        return start, time.perf_counter()

    def _step_api(self, sid, model, train, test, phase, tracer):
        session = copy.deepcopy(model).online_session(
            mode="periodic", history=train, session_id=sid
        )
        recorder = self.recorder
        forecasts = []

        def pinned(fn):
            # The step runs on this thread: pin the session so layer
            # spans recorded here join the request.
            if tracer is None:
                return fn

            def call():
                tracer.pin(sid)
                try:
                    return fn()
                finally:
                    tracer.unpin(sid)
            return call

        for value in test:
            out = recorder.call(
                phase, "observe", sid, "direct",
                pinned(lambda: session.observe(float(value))),
            )
            forecasts.append(out if out is not None else math.nan)
            recorder.call(phase, "predict", sid, "direct",
                          pinned(session.predict))
        return np.asarray(forecasts)

    def _outputs_ok(self, reps) -> bool:
        """Finite, and identical across repetitions and step passes."""
        return (
            len({r["digest"] for r in reps}) == 1
            and all(r["finite"] for r in reps)
            and self.step_finite
            and all(len(d) == 1 for d in self.step_digests.values())
        )

    def run_untraced(self) -> Dict[str, float]:
        self.step_digests: Dict[str, set] = {}
        self.step_finite = True
        reps = [self.repetition() for _ in range(2)]
        window = self.step_phase("measure", self.seconds)
        self.checks["outputs_ok"] = self._outputs_ok(reps)
        metrics = {
            key: median([r[key] for r in reps])
            for key in ("setup_s", "fit_s", "table3_online_ms",
                        "online_steps_per_s")
        }
        metrics.update(load_metrics(
            self.recorder, self.checks, "measure", *window
        ))
        metrics["peak_rss_mb"] = peak_rss_mb()
        return metrics

    def run_traced(self, patcher: Patcher) -> Dict[str, float]:
        """An untraced repetition and step phase, then both traced; each
        step phase runs for half of ``--seconds``."""
        self.step_digests = {}
        self.step_finite = True
        half = self.seconds / 2
        first = self.repetition()
        untraced_p50 = load_metrics(
            self.recorder, self.checks, "measure",
            *self.step_phase("measure", half),
        )["observe_p50_ms"]
        self.checks["pristine_after_untraced"] = patcher.verify_pristine()
        patcher.install(patcher.groups)
        try:
            second = self.repetition()
            window = self.step_phase("traced", half, patcher.tracer)
        finally:
            patcher.restore()
        self.checks["pristine_after_traced"] = patcher.verify_pristine()
        self.checks["outputs_ok"] = self._outputs_ok([first, second])
        traced_p50 = load_metrics(
            self.recorder, self.checks, "traced", *window
        )["observe_p50_ms"]
        metrics, attribution = layer_metrics(
            patcher.tracer.spans, self.recorder.phase("traced"), {}, 0,
            window,
        )
        self.checks["attribution"] = attribution
        metrics["trace.overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0
        )
        return metrics

    def report(self) -> Dict[str, Any]:
        return discipline_report(self.parts, self.recorder, 1, 0)


#: Every workload ``--workload`` accepts. BENCHMARK.json declares the
#: first two; the other two run by name and under ``--all`` (see README,
#: Steadiness, for why they are not declared).
WORKLOADS = ("http_keepalive", "durable_churn", "paper_pipeline",
             "sharded_fleet")


def make_run(name: str, seed: int, seconds: float, workdir: str):
    if name == "paper_pipeline":
        return PipelineRun(seed, seconds)
    return ServingRun(SERVING[name], seed, seconds, workdir)
