"""EA-DRL: the paper's ensemble-aggregation estimator.

Offline phase (:meth:`EADRL.fit`):

1. Fit the base-model pool on the first ``pool_train_fraction`` of the
   training series ("trained in parallel and separately").
2. Compute the pool's prequential prediction matrix on the held-out
   meta-segment of the training series.
3. Standardise predictions/truth with training statistics, build the
   :class:`~repro.rl.mdp.EnsembleMDP`, and train the DDPG agent
   (γ = 0.9, rank reward, median-balanced replay — all paper defaults).

Online phase:

- :meth:`rolling_forecast` — prequential one-step forecasting over a test
  segment (the Table II protocol): the policy sees the window of its own
  recent ensemble outputs, emits weights, and combines the pool's
  one-step predictions computed from the true history.
- :meth:`forecast` — the paper's Algorithm 1: multi-step forecasting of
  ``N_f`` future values, feeding ensemble predictions back into the
  window and the pool inputs.

Every online loop (these two, :meth:`rolling_forecast_from_matrix` and
:meth:`rolling_forecast_online`) builds one
:class:`~repro.serving.session.SeriesSession` and hands it to a single
private driver, which owns the per-step telemetry and loop snapshots.
"""

from __future__ import annotations

import time
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pruning import Pruner
    from repro.serving.session import SeriesSession

import numpy as np

from repro.core.config import EADRLConfig
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.models.base import Forecaster
from repro.models.pool import ForecasterPool, build_pool
from repro.obs import OBS, TRACER
from repro.obs import configure as _configure_telemetry
from repro.obs import get_logger
from repro.persistence import resolve_npz_path, save_npz_atomic
from repro.preprocessing.embedding import validate_series
from repro.preprocessing.scaling import StandardScaler
from repro.rl.agents import AgentProtocol, make_agent
from repro.rl.ddpg import TrainingHistory, _action_entropy
from repro.rl.mdp import EnsembleMDP
from repro.rl.rewards import DiversityRankReward, NRMSEReward, RankReward, RewardFunction
from repro.runtime import (
    CheckpointManager,
    LoopCheckpointer,
    PoolHealth,
    TrainingCheckpointer,
)

_LOG = get_logger("eadrl")

#: ``layout`` key of every forecast-loop snapshot context: a session
#: state (:meth:`SeriesSession.window_state` or ``checkpoint_state``)
#: plus ``outputs`` and ``weights``.
_LOOP_LAYOUT = "session"


def _make_reward(config: EADRLConfig) -> RewardFunction:
    if config.reward == "rank":
        return RankReward()
    if config.reward == "nrmse":
        return NRMSEReward()
    return DiversityRankReward(config.diversity_weight)


class _StepTelemetry:
    """One forecast loop's metric handles, looked up once per loop.

    :meth:`record` emits the per-step ``online_step`` event: the chosen
    weight vector (the paper's Fig. 3 trajectory, one row per step) plus
    the step latency; when the session computed the Eq. 3 reward the
    event also carries it and the implied ensemble rank ``m + 1 − r``.
    Only loops that feed truths back bind the reward, drift and update
    metrics.
    """

    def __init__(self, phase: str, feeds_back: bool):
        registry = OBS.registry
        labels = {"phase": phase}
        self.phase = phase
        self.steps = registry.counter("repro_online_steps_total", labels)
        self.seconds = registry.histogram("repro_online_step_seconds", labels)
        self.entropy = registry.histogram(
            "repro_online_weight_entropy", labels
        )
        if feeds_back:
            self.rank = registry.gauge("repro_online_ensemble_rank")
            self.drifts = registry.counter("repro_online_drift_events_total")
            self.updates = registry.counter(
                "repro_online_policy_updates_total"
            )

    def record(
        self, session: "SeriesSession", step: int, prediction: float,
        seconds: float,
    ) -> None:
        weights = session.last_weights
        entropy = _action_entropy(weights)
        self.steps.inc()
        self.seconds.observe(seconds)
        self.entropy.observe(entropy)
        fields = {
            "phase": self.phase,
            "step": step,
            "prediction": prediction,
            "weights": [float(w) for w in weights],
            "weight_entropy": entropy,
            "seconds": seconds,
        }
        if session.last_reward is not None:
            fields["reward"] = session.last_reward
        if session.last_rank is not None:
            fields["ensemble_rank"] = session.last_rank
            self.rank.set(session.last_rank)
        OBS.emit("online_step", **fields)
        if session.last_drifted:
            self.drifts.inc()
        if session.last_update_trigger is not None:
            self.updates.inc(session.updates_per_trigger)
            OBS.emit(
                "policy_update", step=step,
                trigger=session.last_update_trigger,
                updates=session.updates_per_trigger,
            )


class EADRL:
    """Ensemble Aggregation using Deep Reinforcement Learning.

    Parameters
    ----------
    models:
        Unfitted base forecasters for the pool ``M``. If ``None``, a pool
        is built with :func:`repro.models.build_pool` (``pool_size``
        selects the preset).
    config:
        Hyper-parameters; defaults follow the paper.
    pool_size:
        Preset used when ``models`` is ``None``.

    Examples
    --------
    >>> from repro.datasets import load
    >>> from repro.preprocessing import train_test_split
    >>> series = load(9, n=400)
    >>> train, test = train_test_split(series)
    >>> model = EADRL(pool_size="small",
    ...               config=EADRLConfig(episodes=5, max_iterations=30))
    >>> model.fit(train)                                    # doctest: +ELLIPSIS
    <...EADRL...>
    >>> preds = model.rolling_forecast(series, start=len(train))
    >>> preds.shape == test.shape
    True
    """

    def __init__(
        self,
        models: Optional[Sequence[Forecaster]] = None,
        config: Optional[EADRLConfig] = None,
        pool_size: str = "medium",
        pruner: Optional["Pruner"] = None,
    ):
        self.config = config if config is not None else EADRLConfig()
        self.config.validate()
        if self.config.telemetry is not None:
            # Activates the process-global session (see repro.obs); the
            # no-op fast path everywhere else is untouched when None.
            _configure_telemetry(self.config.telemetry)
        if models is None:
            models = build_pool(
                pool_size, embedding_dimension=self.config.embedding_dimension
            )
        self.pruner = pruner
        self.pruned_indices_: Optional[np.ndarray] = None
        self.pool = ForecasterPool(
            models,
            guard_config=self.config.runtime_guards,
            executor=self.config.executor,
            n_jobs=self.config.n_jobs,
        )
        self.agent: Optional[AgentProtocol] = None
        self._checkpoint_manager: Optional[CheckpointManager] = None
        self._scaler = StandardScaler()
        self._fitted = False
        self._fitted_from_matrix = False
        self._matrix_bootstrap: Optional[np.ndarray] = None
        self._train_tail: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_models(self) -> int:
        return len(self.pool)

    @property
    def training_history(self) -> TrainingHistory:
        if self.agent is None:
            raise NotFittedError(type(self).__name__)
        return self.agent.history

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(type(self).__name__)

    def health(self) -> PoolHealth:
        """The pool's runtime-health registry (empty when unguarded)."""
        return self.pool.health()

    # ------------------------------------------------------------------
    # Crash-safe checkpointing (config.checkpoint)
    # ------------------------------------------------------------------
    def checkpoint_manager(self) -> Optional[CheckpointManager]:
        """The snapshot store for ``config.checkpoint`` (None when off)."""
        if self.config.checkpoint is None:
            return None
        if self._checkpoint_manager is None:
            self._checkpoint_manager = CheckpointManager(
                self.config.checkpoint.directory,
                keep=self.config.checkpoint.keep,
            )
        return self._checkpoint_manager

    def _training_checkpointer(
        self, state_dim: int, action_dim: int
    ) -> Optional[TrainingCheckpointer]:
        """Episode-boundary hook passed to the agent's ``train``."""
        manager = self.checkpoint_manager()
        if manager is None:
            return None
        cfg = self.config.checkpoint
        return TrainingCheckpointer(
            manager,
            every=cfg.train_every,
            resume=cfg.resume,
            context={
                "state_dim": int(state_dim),
                "action_dim": int(action_dim),
                "episodes": int(self.config.episodes),
                "reward": self.config.reward,
                "agent": self.config.agent,
            },
        )

    def _loop_checkpointer(
        self, kind: str, n_members: int, n_steps: int, **extra: Any
    ) -> Optional[LoopCheckpointer]:
        """Step-periodic hook for one of the online forecast loops."""
        manager = self.checkpoint_manager()
        if manager is None:
            return None
        cfg = self.config.checkpoint
        context: Dict[str, Any] = {
            # Snapshots written before the loops shared one layout lack
            # this key and are skipped as a context mismatch on resume.
            "layout": _LOOP_LAYOUT,
            "n_members": int(n_members),
            "n_steps": int(n_steps),
            "window": int(self.config.window),
        }
        context.update(extra)
        return LoopCheckpointer(
            manager, kind, every=cfg.every, resume=cfg.resume, context=context
        )

    def _drive(
        self,
        phase: str,
        session: "SeriesSession",
        n_steps: int,
        advance: Callable[[int], float],
        return_weights: bool = False,
        feeds_back: bool = False,
        **context: Any,
    ):
        """The one per-step loop behind every forecast method.

        ``advance(i)`` runs step ``i`` on ``session`` and returns its
        forecast. Around it the driver times each step in an
        ``online.step`` span, emits the ``online_step`` telemetry, logs
        the weights, and saves/restores loop snapshots under the
        checkpoint kind ``phase`` (``context`` joins the snapshot
        context). A snapshot is the session's own state plus the
        outputs and weights so far. Loops that never feed truths back
        (``feeds_back=False``) leave the agent read-only, so their
        snapshots hold only :meth:`SeriesSession.window_state`.
        """
        checkpointer = self._loop_checkpointer(
            phase, session.n_members, n_steps, **context
        )
        outputs = np.empty(n_steps)
        weight_log = np.empty((n_steps, session.n_members))
        first = 0
        snapshot = checkpointer.restore() if checkpointer is not None else None
        if snapshot is not None:
            first = int(snapshot.meta["next_step"])
            outputs[:first] = snapshot.arrays["outputs"]
            weight_log[:first] = snapshot.arrays["weights"]
            session.restore_checkpoint_state(snapshot.arrays, snapshot.meta)
        telemetry = None
        for i in range(first, n_steps):
            with TRACER.span("online.step") as step_span:
                outputs[i] = advance(i)
                weight_log[i] = session.last_weights
            if step_span.duration is not None and OBS.enabled:
                if telemetry is None:
                    telemetry = _StepTelemetry(phase, feeds_back)
                telemetry.record(
                    session, i, float(outputs[i]), step_span.duration
                )
            if checkpointer is not None and checkpointer.due(i):
                arrays, meta = (
                    session.checkpoint_state() if feeds_back
                    else session.window_state()
                )
                arrays["outputs"] = outputs[: i + 1]
                arrays["weights"] = weight_log[: i + 1]
                checkpointer.after_step(i, arrays, meta)
        if return_weights:
            return outputs, weight_log
        return outputs

    # ------------------------------------------------------------------
    def fit(self, train_series: np.ndarray) -> "EADRL":
        """Run the full offline phase (pool + policy learning)."""
        series = validate_series(train_series, min_length=60)
        cut = int(round(series.size * self.config.pool_train_fraction))
        min_cut = max(20, self._min_pool_context() + 5)
        cut = min(max(cut, min_cut), series.size - self.config.window - 5)
        if cut <= 0:
            raise DataValidationError(
                f"training series of length {series.size} is too short for "
                f"the configured window/pool"
            )

        with TRACER.span("eadrl.fit"):
            OBS.emit("fit_start", n_observations=int(series.size),
                     pool_cut=cut, n_members=len(self.pool))
            self.pool.fit(series[:cut])
            meta_start = max(cut, self.pool.max_min_context())
            predictions = self.pool.prediction_matrix(series, meta_start)
            truth = series[meta_start:]

            if self.pruner is not None:
                # Paper §III-B: "incorporate a pruning step ... so that
                # only relevant models take part in the weighting stage".
                self.pruned_indices_ = self.pruner.select(predictions, truth)
                self.pool = self.pool.subset(self.pruned_indices_)
                predictions = predictions[:, self.pruned_indices_]

            self._scaler.fit(series[:cut])
            env = EnsembleMDP(
                self._scaler.transform(predictions),
                self._scaler.transform(truth),
                window=self.config.window,
                reward_fn=_make_reward(self.config),
            )
            self.agent = make_agent(
                self.config.agent,
                env.state_dim,
                env.action_dim,
                self.config.resolve_agent_config(),
            )
            self.agent.train(
                env,
                episodes=self.config.episodes,
                max_iterations=self.config.max_iterations,
                checkpoint=self._training_checkpointer(
                    env.state_dim, env.action_dim
                ),
            )
            self._train_tail = series[-max(self.config.window * 4, 64) :].copy()
            self._fitted = True
            _LOG.info(
                "fit complete: %d members (%d dropped), %d meta rows, "
                "%d episodes", len(self.pool), len(self.pool.dropped_),
                truth.size, self.agent.history.n_episodes,
            )
            OBS.emit("fit_done", members=self.pool.names,
                     dropped=[name for name, _, _ in self.pool.dropped_],
                     meta_rows=int(truth.size),
                     episodes=self.agent.history.n_episodes)
        return self

    def _min_pool_context(self) -> int:
        return max(m.min_context for m in self.pool.models)

    # ------------------------------------------------------------------
    # Matrix-level API: share one fitted pool across many combiners.
    # ------------------------------------------------------------------
    def fit_policy_from_matrix(
        self, meta_predictions: np.ndarray, meta_truth: np.ndarray
    ) -> "EADRL":
        """Train only the DDPG policy from a precomputed prediction matrix.

        Used by the evaluation harness, which fits one pool per dataset
        and hands the same prequential matrix to every combiner. The
        estimator is marked fitted for the matrix-level prediction API
        (:meth:`rolling_forecast_from_matrix`); the series-level API still
        requires :meth:`fit`.
        """
        meta_predictions = np.asarray(meta_predictions, dtype=np.float64)
        meta_truth = np.asarray(meta_truth, dtype=np.float64)
        if meta_predictions.ndim != 2 or meta_predictions.shape[0] != meta_truth.size:
            raise DataValidationError(
                f"matrix {meta_predictions.shape} does not align with truth "
                f"{meta_truth.shape}"
            )
        finite = np.isfinite(meta_predictions)
        if not finite.all():
            bad_columns = np.flatnonzero(~finite.all(axis=0))
            raise DataValidationError(
                "meta_predictions contains NaN/Inf entries in member "
                f"column(s) {bad_columns.tolist()} — these would poison the "
                "MDP and replay buffer; drop or guard the offending members"
            )
        if not np.all(np.isfinite(meta_truth)):
            raise DataValidationError("meta_truth contains NaN/Inf entries")
        self._scaler.fit(meta_truth)
        env = EnsembleMDP(
            self._scaler.transform(meta_predictions),
            self._scaler.transform(meta_truth),
            window=self.config.window,
            reward_fn=_make_reward(self.config),
        )
        self.agent = make_agent(
            self.config.agent,
            env.state_dim,
            meta_predictions.shape[1],
            self.config.resolve_agent_config(),
        )
        self.agent.train(
            env,
            episodes=self.config.episodes,
            max_iterations=self.config.max_iterations,
            checkpoint=self._training_checkpointer(
                env.state_dim, meta_predictions.shape[1]
            ),
        )
        self._matrix_bootstrap = meta_predictions[-self.config.window :]
        self._fitted_from_matrix = True
        return self

    def rolling_forecast_from_matrix(
        self,
        predictions: np.ndarray,
        bootstrap_predictions: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        """Rolling forecasts over a precomputed test prediction matrix.

        ``bootstrap_predictions`` supplies the ω rows preceding the test
        segment for the initial state (defaults to the tail of the
        meta-training matrix seen by :meth:`fit_policy_from_matrix`; an
        explicit bootstrap also unlocks this API for a policy restored
        with :meth:`load_policy` from a series-level :meth:`fit`, whose
        archive carries no bootstrap matrix).

        Non-finite cells in ``predictions`` mark the member as unhealthy
        at that step: its weight is zeroed and the remaining weights are
        renormalised on the simplex. A row with no healthy member raises
        :class:`EnsembleUnavailableError`.
        """
        predictions = np.asarray(predictions, dtype=np.float64)
        session = self.online_session(
            mode="none", bootstrap_predictions=bootstrap_predictions
        )
        with TRACER.span("eadrl.rolling_forecast_from_matrix"):
            return self._drive(
                "matrix", session, predictions.shape[0],
                lambda i: session.forecast_step(predictions[i]),
                return_weights,
            )

    # ------------------------------------------------------------------
    def _bootstrap_matrix(self, series: np.ndarray, start: int) -> np.ndarray:
        """The pool's predictions for the ω positions before ``start``.

        Mirrors ``EnsembleMDP.reset``: before the policy has produced any
        outputs, the session's window is filled with uniform-weight
        combinations of these rows.
        """
        omega = self.config.window
        boot_start = start - omega
        if boot_start < self.pool.max_min_context():
            raise DataValidationError(
                f"start={start} leaves no room for the ω={omega} bootstrap "
                f"window before the forecast origin"
            )
        return self.pool.prediction_matrix(series[:start], boot_start)

    def rolling_forecast(
        self, series: np.ndarray, start: int, return_weights: bool = False
    ):
        """Prequential one-step forecasts for ``t in [start, len(series))``.

        ``series`` must include the training prefix so pool members can
        condition on the true history. Returns the prediction array, or
        ``(predictions, weights)`` with per-step weight vectors when
        ``return_weights`` is set.

        Under a guarded pool (``config.runtime_guards``) failing members
        are fallback-filled and quarantined by their circuit breakers;
        at each step the policy's weights are renormalised over the
        healthy members (and over the finite predictions of an
        unguarded pool), and only an all-unhealthy step raises
        :class:`EnsembleUnavailableError`.
        """
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        with TRACER.span("eadrl.rolling_forecast"):
            predictions, healthy = self.pool.prediction_matrix_with_mask(
                array, start
            )
            session = self.online_session(
                mode="none",
                bootstrap_predictions=self._bootstrap_matrix(array, start),
            )
            return self._drive(
                "rolling", session, predictions.shape[0],
                lambda i: session.forecast_step(predictions[i], healthy[i]),
                return_weights, origin=int(start),
            )

    def forecast(self, history: np.ndarray, horizon: int) -> np.ndarray:
        """Paper Algorithm 1: forecast the next ``horizon`` values.

        Predictions are fed back both into the policy's state window and
        into the pool members' inputs (fully autonomous multi-step mode).
        """
        self._check_fitted()
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        session = self.online_session(mode="none", history=history)

        def advance(_step: int) -> float:
            values, healthy = self.pool.predict_next_with_mask(session.history)
            value = session.forecast_step(values, healthy)
            session.extend_history(value)
            return value

        with TRACER.span("eadrl.forecast"):
            return self._drive(
                "multistep", session, horizon, advance,
                history_length=int(session.history.size),
            )

    # ------------------------------------------------------------------
    def rolling_forecast_online(
        self,
        predictions: np.ndarray,
        truth: np.ndarray,
        mode: str = "periodic",
        interval: int = 25,
        updates_per_trigger: int = 10,
        bootstrap_predictions: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        """Online forecasting *with policy updates* (paper §III-B future work).

        Like :meth:`rolling_forecast_from_matrix`, but realised truths are
        fed back as MDP transitions and the DDPG agent keeps learning:

        - ``mode="periodic"`` — run ``updates_per_trigger`` gradient
          updates every ``interval`` steps;
        - ``mode="drift"`` — run them when a Page-Hinkley detector fires
          on the ensemble's absolute error stream (the paper's "informed
          fashion following a drift-detection mechanism");
        - ``mode="none"`` — behave exactly like the static policy.

        Requires a policy trained via :meth:`fit_policy_from_matrix`, or
        any loaded policy plus an explicit ``bootstrap_predictions``.
        Non-finite cells in ``predictions`` are treated as unhealthy
        members for that step (weights renormalised over the rest, the
        transition stored with the realised weights).

        The per-step mechanics live in
        :class:`repro.serving.session.SeriesSession`; this method drives
        one session over the matrix, closing each step with
        ``session.feedback``. Its snapshots carry the full session state,
        agent included, since the agent keeps learning here. Batch and
        step-API outputs are bit-identical by construction.
        """
        predictions = np.asarray(predictions, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if predictions.shape[0] != truth.size:
            raise DataValidationError(
                f"matrix {predictions.shape} does not align with truth "
                f"{truth.shape}"
            )
        session = self.online_session(
            mode=mode,
            interval=int(interval),
            updates_per_trigger=int(updates_per_trigger),
            bootstrap_predictions=bootstrap_predictions,
        )

        def advance(i: int) -> float:
            output = session.forecast_step(predictions[i])
            session.feedback(truth[i])
            return output

        with TRACER.span("eadrl.rolling_forecast_online"):
            return self._drive(
                "online", session, predictions.shape[0], advance,
                return_weights, feeds_back=True, mode=mode,
                interval=int(interval),
                updates_per_trigger=int(updates_per_trigger),
            )

    def online_session(
        self,
        *,
        mode: str = "periodic",
        interval: int = 25,
        updates_per_trigger: int = 10,
        bootstrap_predictions: Optional[np.ndarray] = None,
        history: Optional[np.ndarray] = None,
        agent=None,
        session_id: Optional[str] = None,
    ):
        """A live :class:`~repro.serving.session.SeriesSession` on this policy.

        Every forecast loop of this class drives a session built here;
        it is the step-API twin of :meth:`rolling_forecast_online`:
        ``session.observe(y_t)`` closes the previous forecast with its
        realised value (feeding the MDP transition, drift detector, and
        policy-update triggers) and returns the forecast for the next
        step. Two flavours:

        - **matrix mode** (default) — mirrors
          :meth:`rolling_forecast_online`: requires a policy trained via
          :meth:`fit_policy_from_matrix` (or explicit
          ``bootstrap_predictions``), and the caller passes each step's
          base-model prediction row to ``observe``. Feeding the same
          rows/truths produces bit-identical outputs to the batch
          method.
        - **pool mode** — pass ``history`` (true values, at least
          ``pool.max_min_context() + ω`` long) after :meth:`fit`; the
          session queries the fitted pool itself each step.

        ``agent`` defaults to this estimator's own agent (the session
        keeps training it in place); the serving layer passes per-tenant
        clones instead.
        """
        from repro.serving.session import SeriesSession

        agent = agent if agent is not None else self.agent
        if agent is None:
            raise NotFittedError(type(self).__name__)
        omega = self.config.window
        pool = None
        if history is not None:
            self._check_fitted()
            history = validate_series(
                history, min_length=self.pool.max_min_context() + omega
            )
            pool = self.pool
            boot = pool.prediction_matrix(history, history.size - omega)
        else:
            if not self._fitted_from_matrix and bootstrap_predictions is None:
                raise NotFittedError(type(self).__name__)
            boot = (
                np.asarray(bootstrap_predictions, dtype=np.float64)
                if bootstrap_predictions is not None
                else self._matrix_bootstrap
            )
        return SeriesSession(
            agent,
            self._scaler,
            window=omega,
            n_members=boot.shape[1],
            reward_fn=_make_reward(self.config),
            bootstrap_matrix=boot,
            mode=mode,
            interval=interval,
            updates_per_trigger=updates_per_trigger,
            pool=pool,
            history=history,
            session_id=session_id,
        )

    # ------------------------------------------------------------------
    def timed_rolling_forecast(self, series: np.ndarray, start: int):
        """Rolling forecast plus elapsed *online* seconds (Table III).

        The pool's prediction matrix and the policy inference are both
        part of the online phase; pool *training* is not.
        """
        self._check_fitted()
        t0 = time.perf_counter()
        outputs = self.rolling_forecast(series, start)
        elapsed = time.perf_counter() - t0
        return outputs, elapsed

    def member_names(self) -> List[str]:
        """Names of the surviving pool members (weight-vector order)."""
        return self.pool.names

    # ------------------------------------------------------------------
    # Policy persistence
    # ------------------------------------------------------------------
    def save_policy(self, path) -> Path:
        """Save the trained policy (actor/critic/targets + scaler) to npz.

        Base models are not serialised — they retrain quickly and their
        fitted state is dataset-specific; the policy network is the
        expensive artefact (paper: ~300 min offline).

        The archive is written atomically (temp file + fsync + rename),
        so a crash mid-save never clobbers a previous good archive.
        Returns the path actually written — with the ``.npz`` suffix
        numpy appends — so ``load_policy`` accepts the same ``path``
        whether or not the caller spelled the suffix out.
        """
        if self.agent is None:
            raise NotFittedError(type(self).__name__)
        payload = {"meta.state_dim": np.array([self.agent.state_dim]),
                   "meta.action_dim": np.array([self.agent.action_dim]),
                   "meta.agent": np.array(type(self.agent).name),
                   "scaler.mean": np.atleast_1d(self._scaler.mean_),
                   "scaler.scale": np.atleast_1d(self._scaler.scale_)}
        for prefix, module in self.agent._checkpoint_modules():
            for name, value in module.state_dict().items():
                payload[f"{prefix}.{name}"] = value
        if self._matrix_bootstrap is not None:
            payload["bootstrap"] = self._matrix_bootstrap
        return save_npz_atomic(path, payload)

    def load_policy(self, path) -> "EADRL":
        """Restore a policy saved with :meth:`save_policy`.

        Rebuilds the agent named in the archive's ``meta.agent`` key
        (architecture from the file's metadata plus this estimator's
        agent config; archives predating the registry are DDPG) and
        marks the matrix-level prediction API as ready. A missing or
        truncated archive raises
        :class:`~repro.exceptions.SerializationError` naming the first
        offending key; a wrong-architecture archive raises it from
        :meth:`Module.load_state_dict`.
        """
        resolved = resolve_npz_path(path)
        if not resolved.exists():
            raise SerializationError(f"policy archive not found: {resolved}")
        try:
            with np.load(resolved) as archive:
                data = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as err:
            raise SerializationError(
                f"policy archive {resolved} is unreadable: {err}"
            ) from err
        required = ("meta.state_dim", "meta.action_dim",
                    "scaler.mean", "scaler.scale")
        for key in required:
            if key not in data:
                raise SerializationError(
                    f"policy archive {resolved} is missing key {key!r}"
                )
        state_dim = int(data.pop("meta.state_dim")[0])
        action_dim = int(data.pop("meta.action_dim")[0])
        self._scaler.mean_ = data.pop("scaler.mean")
        self._scaler.scale_ = data.pop("scaler.scale")
        if self._scaler.mean_.size == 1:
            self._scaler.mean_ = self._scaler.mean_[0]
            self._scaler.scale_ = self._scaler.scale_[0]
        bootstrap = data.pop("bootstrap", None)
        legacy = "meta.agent" not in data
        agent_name = "ddpg" if legacy else str(data.pop("meta.agent"))
        self.agent = make_agent(
            agent_name,
            state_dim,
            action_dim,
            self.config.resolve_agent_config(agent_name),
        )
        for prefix, module in self.agent._checkpoint_modules():
            state = {
                name[len(prefix) + 1 :]: value
                for name, value in data.items()
                if name.startswith(prefix + ".")
            }
            if not state:
                # Pre-registry archives stored only the four canonical
                # DDPG modules; tolerate absent extras (e.g. critic2 of
                # a twin-critic config) so old files keep loading.
                if legacy and prefix not in (
                    "actor", "critic", "target_actor", "target_critic"
                ):
                    continue
                raise SerializationError(
                    f"policy archive {resolved} has no arrays for "
                    f"module {prefix!r} of agent {agent_name!r}"
                )
            module.load_state_dict(state)
        if bootstrap is not None:
            self._matrix_bootstrap = bootstrap
            self._fitted_from_matrix = True
        return self
