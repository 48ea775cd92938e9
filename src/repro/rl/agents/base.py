"""Agent-agnostic substrate shared by every registered policy learner.

The paper fixes DDPG as the actor-critic that learns the ensemble
weights; the aggregation machinery around it (warmup, the training
loop, replay, crash-safe checkpointing, per-tenant cloning) is
agent-agnostic. This module factors that machinery out of
:class:`~repro.rl.ddpg.DDPGAgent` so alternative learners (TD3, SAC)
plug into every downstream layer — training, serving, Table II —
through one interface:

- :class:`AgentProtocol` — the structural type the rest of the code
  relies on (``act`` / ``train_step`` / ``state_dict`` /
  ``clone_for_session`` / checkpointing);
- :class:`BaseAgent` — the shared implementation; concrete agents
  provide ``_build`` (networks + optimizers), ``act`` and ``update``
  plus small checkpoint hooks.

Bit-identity is the load-bearing contract: the generic checkpoint
path here preserves the exact array/meta layout the DDPG agent wrote
before the refactor, so existing snapshots keep restoring and the
killed-anywhere-resume gates hold for every agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DataValidationError,
)
from repro.nn import init as init_schemes
from repro.obs import OBS, TRACER
from repro.rl.mdp import EnsembleMDP, Transition, project_to_simplex
from repro.rl.replay import ReplayBuffer


def _action_entropy(weights: np.ndarray) -> float:
    """Shannon entropy of a simplex weight vector (nats).

    0 at a one-hot vertex, ``log(m)`` at the uniform point — the
    telemetry proxy for how concentrated the policy currently is
    (paper Fig. 3 tracks the same collapse of the weight vector).
    """
    w = np.clip(weights, 1e-12, None)
    return float(-np.sum(w * np.log(w)))


@dataclass
class TrainingHistory:
    """Per-episode learning diagnostics (drives the Fig. 2 benches)."""

    episode_rewards: List[float] = field(default_factory=list)
    critic_losses: List[float] = field(default_factory=list)
    actor_objectives: List[float] = field(default_factory=list)

    @property
    def n_episodes(self) -> int:
        return len(self.episode_rewards)

    def moving_average(self, span: int = 5) -> np.ndarray:
        """Smoothed episode rewards (for learning-curve plots).

        ``span`` is clamped to the number of recorded episodes, so a
        span larger than the history degrades to the overall mean; an
        empty history returns an empty array.
        """
        if span < 1:
            raise ConfigurationError(f"span must be >= 1, got {span}")
        rewards = np.asarray(self.episode_rewards, dtype=np.float64)
        if rewards.size == 0:
            return rewards
        width = min(span, rewards.size)
        kernel = np.ones(width) / width
        return np.convolve(rewards, kernel, mode="valid")


@runtime_checkable
class AgentProtocol(Protocol):
    """Structural interface every registered agent satisfies.

    ``name`` identifies the agent in :data:`~repro.rl.agents.registry.
    AGENT_REGISTRY` and in checkpoint/bundle metadata; ``batchable``
    advertises whether the serving layer may run the agent's policy as
    one stacked forward per micro-batch (agents exposing
    ``stack_actor_params`` / ``policy_weights_batch``).
    """

    name: str
    batchable: bool
    state_dim: int
    action_dim: int

    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray: ...

    def policy_weights(self, state: np.ndarray) -> np.ndarray: ...

    def train_step(self) -> None: ...

    def train(self, env, episodes: int, max_iterations, updates_per_step,
              checkpoint) -> TrainingHistory: ...

    def state_dict(self) -> Dict[str, np.ndarray]: ...

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None: ...

    def clone_for_session(self, seed: int, *, config=None,
                          init_weights: bool = True) -> "AgentProtocol": ...

    def checkpoint_state(
        self, *, pristine_light: bool = False
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]: ...

    def restore_checkpoint_state(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> None: ...


class BaseAgent:
    """Shared skeleton of every registered actor-critic agent.

    Subclasses set the class attributes and implement:

    - ``_build(init_rng, init_weights)`` — construct networks and
      optimizers in a *fixed* order (every init draw comes from
      ``init_rng``, so construction order is part of the
      reproducibility contract);
    - ``_build_noise()`` — the exploration-noise process, or ``None``
      for stochastic policies that explore by sampling;
    - ``act(state, explore)`` / ``update()`` — the algorithm itself;
    - ``_checkpoint_modules()`` / ``_checkpoint_optimizers()`` —
      ``(prefix, object)`` lists, in a stable order;
    - optionally the ``_extra_checkpoint_meta`` /
      ``_check_restore_meta`` / ``_restore_extra_meta`` hooks for
      agent-specific snapshot fields (extra RNG streams, temperature).
    """

    #: Registry key; also stamped into checkpoints and bundles.
    name: str = "base"
    #: Whether the serving layer may batch this agent's policy forward.
    batchable: bool = False
    #: Config dataclass used when ``config=None``.
    config_cls: type = None  # type: ignore[assignment]

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config=None,
        *,
        init_weights: bool = True,
    ):
        self.config = config if config is not None else self.config_cls()
        self.config.validate()
        if state_dim < 1 or action_dim < 1:
            raise ConfigurationError("state_dim and action_dim must be >= 1")
        self.state_dim = state_dim
        self.action_dim = action_dim

        rng = np.random.default_rng(self.config.seed)
        self._rng = rng
        # ``init_weights=False`` builds a zero-weight skeleton: every
        # parameter must then be overwritten by the caller (template
        # copy or checkpoint restore). The agent's own RNG stays seeded
        # but has consumed no init draws, so this is only sound when
        # its state is also about to be restored/overwritten.
        init_rng = rng if init_weights else init_schemes.ZeroDrawGenerator()
        self._build(init_rng, init_weights)
        self.buffer = ReplayBuffer(self.config.buffer_capacity, seed=self.config.seed)
        self.noise = self._build_noise()
        self.history = TrainingHistory()
        self._last_actor_grad_norm: Optional[float] = None
        # Number of gradient updates actually applied. Serving clones
        # that never trained (``updates_applied == 0``) still hold the
        # template's exact weights, which unlocks the light spill path.
        self.updates_applied = 0
        # (prefix, module, its parameter arrays) — cached on first
        # clone so per-tenant clones copy weights positionally instead
        # of re-walking the module tree per clone.
        self._template_params: Optional[list] = None

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _build(self, init_rng, init_weights: bool) -> None:
        raise NotImplementedError

    def _build_noise(self):
        return None

    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray:
        raise NotImplementedError

    def update(self) -> None:
        raise NotImplementedError

    def _checkpoint_modules(self):
        raise NotImplementedError

    def _checkpoint_optimizers(self):
        raise NotImplementedError

    def _extra_checkpoint_meta(self) -> Dict[str, Any]:
        return {}

    def _check_restore_meta(self, meta: Dict[str, Any]) -> None:
        pass

    def _restore_extra_meta(self, meta: Dict[str, Any]) -> None:
        pass

    # ------------------------------------------------------------------
    def train_step(self) -> None:
        """Protocol alias: one gradient update from the replay buffer."""
        self.update()

    def policy_weights(self, state: np.ndarray) -> np.ndarray:
        """Greedy simplex weights for deployment (paper Alg. 1 line 2/6)."""
        return project_to_simplex(self.act(state, explore=False))

    def _check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (self.state_dim,):
            raise DataValidationError(
                f"state must have shape ({self.state_dim},), got {state.shape}"
            )
        return state

    # ------------------------------------------------------------------
    def _begin_episode(self) -> None:
        """Per-episode reset hook (noise processes restart here)."""
        if self.noise is not None:
            self.noise.reset()

    def train(
        self,
        env: EnsembleMDP,
        episodes: int = 100,
        max_iterations: Optional[int] = 100,
        updates_per_step: int = 1,
        checkpoint=None,
    ) -> TrainingHistory:
        """Run the training loop (paper: max.ep = max.iter = 100).

        Each episode resets the environment, rolls the policy with
        exploration, stores transitions, and performs
        ``updates_per_step`` gradient updates per environment step.
        Returns the accumulated :class:`TrainingHistory`.

        ``checkpoint`` accepts a
        :class:`repro.runtime.TrainingCheckpointer`: training then
        snapshots the agent's full resumable state at the configured
        episode period, and — when the checkpointer is in resume mode —
        restores the newest valid snapshot before the first episode and
        continues from the episode after it, bit-identically to an
        uninterrupted run. The hook is duck-typed (``restore_into`` /
        ``after_episode``) so this module needs no runtime import.
        """
        if episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
        with TRACER.span(f"{self.name}.train"):
            start_episode = 0
            if checkpoint is not None:
                start_episode = checkpoint.restore_into(self)
            self._warmup(env)
            for episode_index in range(start_episode, episodes):
                state = env.reset()
                self._begin_episode()
                total_reward = 0.0
                steps = env.steps_per_episode
                if max_iterations is not None:
                    steps = min(steps, max_iterations)
                telemetry_on = OBS.enabled
                entropy_sum, entropy_steps = 0.0, 0
                loss_start = len(self.history.critic_losses)
                for _ in range(steps):
                    action = self.act(state, explore=True)
                    if telemetry_on:
                        entropy_sum += _action_entropy(action)
                        entropy_steps += 1
                    next_state, reward, done = env.step(action)
                    self.buffer.push(
                        Transition(state, action, reward, next_state, done)
                    )
                    total_reward += reward
                    state = next_state
                    for _ in range(updates_per_step):
                        self.update()
                    if done:
                        break
                self.history.episode_rewards.append(total_reward / max(steps, 1))
                if telemetry_on:
                    self._record_episode_telemetry(
                        episode_index, entropy_sum, entropy_steps, loss_start
                    )
                if checkpoint is not None:
                    checkpoint.after_episode(
                        self, episode_index,
                        final=episode_index == episodes - 1,
                    )
        return self.history

    def _record_episode_telemetry(
        self,
        episode: int,
        entropy_sum: float,
        entropy_steps: int,
        loss_start: int,
    ) -> None:
        """One ``train_episode`` event + registry updates (enabled only).

        Surfaces the paper's Fig. 2 learning-curve signal (per-episode
        mean reward under Eq. 4 median-balanced sampling) plus the
        stability diagnostics around it: mean critic loss over the
        episode's updates, the last actor pre-clip gradient norm, mean
        exploration-action entropy, replay fill, and the Eq. 4 split
        median of the buffered rewards. Metric names stay on the
        ``repro_ddpg_*`` prefix for every agent — dashboards and the
        observability tests key on them, and the ``train_episode``
        event carries the agent kind.
        """
        registry = OBS.registry
        mean_reward = self.history.episode_rewards[-1]
        losses = self.history.critic_losses[loss_start:]
        critic_loss = float(np.mean(losses)) if losses else None
        entropy = entropy_sum / entropy_steps if entropy_steps else None
        fill = len(self.buffer)
        reward_median = self.buffer.reward_median() if fill else None
        registry.counter("repro_ddpg_episodes_total").inc()
        registry.gauge("repro_ddpg_replay_fill").set(fill)
        if reward_median is not None:
            registry.gauge("repro_ddpg_replay_reward_median").set(reward_median)
        if entropy is not None:
            registry.histogram("repro_ddpg_action_entropy").observe(entropy)
        OBS.emit(
            "train_episode",
            episode=episode,
            agent=self.name,
            mean_reward=mean_reward,
            critic_loss=critic_loss,
            actor_grad_norm=self._last_actor_grad_norm,
            action_entropy=entropy,
            replay_fill=fill,
            reward_median=reward_median,
        )

    # ------------------------------------------------------------------
    def _warmup(self, env: EnsembleMDP) -> None:
        """Seed the buffer with Dirichlet-random simplex actions.

        Exposes the critic to the whole action space before the
        learned policy starts steering data collection, which prevents
        the actor from locking onto a poorly estimated vertex.
        """
        remaining = self.config.warmup_steps - len(self.buffer)
        if remaining <= 0:
            return
        state = env.reset()
        # Alternate concentrated (vertex-like) and diffuse actions.
        while remaining > 0:
            alpha = 0.3 if remaining % 2 == 0 else 1.0
            action = self._rng.dirichlet(np.full(self.action_dim, alpha))
            next_state, reward, done = env.step(action)
            self.buffer.push(Transition(state, action, reward, next_state, done))
            state = env.reset() if done else next_state
            remaining -= 1

    # ------------------------------------------------------------------
    # Flat parameter access (the AgentProtocol state_dict surface)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``{"module.param": array}`` copy of every network.

        Covers exactly the modules :meth:`_checkpoint_modules` lists —
        online and target networks, twin critics, and (for SAC) the
        temperature — in their stable checkpoint order.
        """
        state: Dict[str, np.ndarray] = {}
        for prefix, module in self._checkpoint_modules():
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_dict` (strict: keys must match)."""
        for prefix, module in self._checkpoint_modules():
            cut = len(prefix) + 1
            module.load_state_dict({
                name[cut:]: value
                for name, value in state.items()
                if name.startswith(prefix + ".")
            })

    # ------------------------------------------------------------------
    def clone_for_session(
        self, seed: int, *, config=None, init_weights: bool = True
    ) -> "BaseAgent":
        """Fresh same-kind agent carrying this agent's network weights.

        Networks (online + targets, twins, temperature when present)
        copy the trained parameters; optimizer moments, replay ring,
        RNG and exploration state start clean under the per-session
        seed. ``config`` overrides the clone's hyper-parameters (the
        serving bundle passes its session-sized replay capacity);
        ``seed`` always wins over the config's.

        ``init_weights=False`` skips the skeleton's own init draws —
        safe only for restore clones, whose RNG/noise/replay state is
        overwritten from a snapshot right after (the template copy
        below still supplies the network weights either way).
        """
        clone = type(self)(
            self.state_dim,
            self.action_dim,
            replace(config if config is not None else self.config,
                    seed=int(seed)),
            init_weights=init_weights,
        )
        if self._template_params is None:
            self._template_params = [
                (name, module, [p.data for p in module.parameters()])
                for name, module in self._checkpoint_modules()
            ]
        clone_modules = dict(clone._checkpoint_modules())
        for name, template_module, sources in self._template_params:
            module = clone_modules.get(name)
            if module is None:  # pragma: no cover - same-kind clones match
                continue
            params = module.parameters()
            if len(params) == len(sources) and all(
                p.data.shape == s.shape for p, s in zip(params, sources)
            ):
                for param, source in zip(params, sources):
                    param.data[...] = source
            else:  # pragma: no cover - same-config clones always match
                module.copy_from(template_module)
        return clone

    # ------------------------------------------------------------------
    # Crash-safe checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def checkpoint_state(
        self, *, pristine_light: bool = False
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Capture *every* source of future behaviour, bit-exactly.

        Arrays: the network state dicts, the Adam moment slots, the
        replay ring, the exploration-noise state (when the agent has a
        noise process), and the :class:`TrainingHistory` series. Meta:
        the agent kind, Adam step counters, replay cursors, RNG
        bit-generator states, the last actor gradient norm, and any
        agent-specific fields from :meth:`_extra_checkpoint_meta`
        (twin-critic flag, smoothing/sampling RNG streams, SAC
        temperature state). A restored agent continues training
        bit-identically to one that was never interrupted
        (``tests/integration/test_resume_determinism.py``).

        ``pristine_light=True`` elides the network and optimizer arrays
        when no gradient update has ever been applied
        (``updates_applied == 0``) — they are byte-for-byte the template
        the agent was cloned from, and the restorer re-copies them from
        that template instead. ``meta["pristine"]`` records which form
        was written; agents that have trained always get the full
        snapshot regardless of the flag.
        """
        pristine = pristine_light and self.updates_applied == 0
        arrays: Dict[str, np.ndarray] = {}
        opt_meta: Dict[str, Any] = {}
        if not pristine:
            for prefix, module in self._checkpoint_modules():
                for name, value in module.state_dict().items():
                    arrays[f"{prefix}.{name}"] = value
            for prefix, optimizer in self._checkpoint_optimizers():
                slot_arrays, slot_meta = optimizer.checkpoint_state()
                for name, value in slot_arrays.items():
                    arrays[f"{prefix}.{name}"] = value
                opt_meta[prefix] = slot_meta
        buffer_arrays, buffer_meta = self.buffer.checkpoint_state()
        for name, value in buffer_arrays.items():
            arrays[f"buffer.{name}"] = value
        noise_meta: Optional[Dict[str, Any]] = None
        if self.noise is not None:
            noise_arrays, noise_meta = self.noise.checkpoint_state()
            for name, value in noise_arrays.items():
                arrays[f"noise.{name}"] = value
        arrays["history.episode_rewards"] = np.asarray(
            self.history.episode_rewards, dtype=np.float64
        )
        arrays["history.critic_losses"] = np.asarray(
            self.history.critic_losses, dtype=np.float64
        )
        arrays["history.actor_objectives"] = np.asarray(
            self.history.actor_objectives, dtype=np.float64
        )
        meta: Dict[str, Any] = {
            "kind": self.name,
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
            "rng": self._rng.bit_generator.state,
            "optimizers": opt_meta,
            "buffer": buffer_meta,
            "noise": noise_meta,
            "last_actor_grad_norm": self._last_actor_grad_norm,
            "updates_applied": self.updates_applied,
            "pristine": pristine,
        }
        meta.update(self._extra_checkpoint_meta())
        return arrays, meta

    def restore_checkpoint_state(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> None:
        """Restore a snapshot from :meth:`checkpoint_state` in place."""
        # Snapshots written before the agent registry carry no "kind"
        # and are DDPG by construction.
        kind = meta.get("kind", "ddpg")
        if kind != self.name:
            raise CheckpointError(
                f"agent snapshot was written by a {kind!r} agent; this "
                f"agent is {self.name!r}"
            )
        if (
            int(meta["state_dim"]) != self.state_dim
            or int(meta["action_dim"]) != self.action_dim
        ):
            raise CheckpointError(
                f"agent snapshot is for dims "
                f"({meta['state_dim']}, {meta['action_dim']}); this agent "
                f"has ({self.state_dim}, {self.action_dim})"
            )
        self._check_restore_meta(meta)

        def split(prefix: str) -> Dict[str, np.ndarray]:
            cut = len(prefix) + 1
            return {
                name[cut:]: value
                for name, value in arrays.items()
                if name.startswith(prefix + ".")
            }

        pristine = bool(meta.get("pristine", False))
        if not pristine:
            for prefix, module in self._checkpoint_modules():
                try:
                    module.load_state_dict(split(prefix))
                except (KeyError, ValueError) as err:
                    raise CheckpointError(
                        f"agent snapshot does not fit module {prefix!r}: {err}"
                    ) from err
            for prefix, optimizer in self._checkpoint_optimizers():
                optimizer.restore_checkpoint_state(
                    split(prefix), meta["optimizers"][prefix]
                )
        # A pristine snapshot carries no network/optimizer arrays: the
        # caller (ModelBundle.restore_session) is responsible for having
        # copied the template weights into this agent already.
        self.buffer.restore_checkpoint_state(split("buffer"), meta["buffer"])
        if self.noise is not None:
            self.noise.restore_checkpoint_state(split("noise"), meta["noise"])
        self.history.episode_rewards = [
            float(x) for x in arrays["history.episode_rewards"]
        ]
        self.history.critic_losses = [
            float(x) for x in arrays["history.critic_losses"]
        ]
        self.history.actor_objectives = [
            float(x) for x in arrays["history.actor_objectives"]
        ]
        self._rng.bit_generator.state = meta["rng"]
        grad_norm = meta.get("last_actor_grad_norm")
        self._last_actor_grad_norm = (
            None if grad_norm is None else float(grad_norm)
        )
        # Older snapshots predate the counter; ``update()`` appends one
        # critic loss per applied update, so the history length is exact.
        self.updates_applied = int(
            meta.get("updates_applied", len(self.history.critic_losses))
        )
        self._restore_extra_meta(meta)
