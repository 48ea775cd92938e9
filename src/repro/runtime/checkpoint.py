"""Crash-safe checkpoint & exact-resume runtime.

The paper's online protocol (Alg. 1) follows a long DDPG training phase
with an open-ended rolling stream; this subsystem makes both survive
process death. A *snapshot* is a pair of files committed in order:

1. ``<kind>-<step>.npz`` — every resumable array (network parameters,
   Adam moments, the replay ring, loop windows, ...), written through
   :func:`repro.persistence.atomic_write_bytes` (temp file + fsync +
   rename);
2. ``<kind>-<step>.json`` — the manifest: format version, SHA-256 of the
   payload, the JSON-able state (RNG bit-generator states, counters),
   and a digest over the manifest itself.

The manifest is the commit point: a crash before it lands leaves an
orphan payload that restore ignores and the retention sweep deletes. On
restore, snapshots are scanned newest-first; any snapshot failing
integrity checks (torn payload, digest mismatch, unparsable manifest)
is moved to ``quarantine/`` and the scan falls back to the next valid
one — a torn snapshot can therefore never be loaded.

Resume is **bit-exact**: every source of numeric state is captured
(float64 arrays round-trip exactly through ``.npz``; RNG bit-generator
states and Python floats round-trip exactly through JSON), so a run
killed at any step and resumed from its last snapshot produces output
bit-identical to the uninterrupted run. Enforced by
``tests/integration/test_resume_determinism.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigurationError,
)
from repro.obs import OBS, TRACER, get_logger
from repro.persistence import (
    PathLike,
    atomic_write_bytes,
    load_npz_bytes,
    npz_bytes,
    sha256_hex,
    write_bytes_unsynced,
)

FORMAT_VERSION = 1

_LOG = get_logger("checkpoint")

_MANIFEST_REQUIRED = (
    "format_version",
    "kind",
    "step",
    "payload",
    "payload_sha256",
    "context",
    "meta",
    "digest",
)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class CheckpointConfig:
    """Auto-checkpointing knobs surfaced as ``EADRLConfig.checkpoint``.

    Attributes
    ----------
    directory:
        Where snapshots live. One directory can hold snapshots of every
        phase (training and each online loop kind); restore matches on
        kind and context.
    every:
        Online-loop snapshot period in *steps* (CLI
        ``--checkpoint-every``; default 50 keeps the measured overhead
        under the 3% budget, see ``benchmarks/bench_checkpoint.py``).
    train_every:
        Training snapshot period in *episodes* (episode boundaries are
        the exact-resume points of :meth:`DDPGAgent.train`). The
        default of 5 amortises the per-snapshot cost (payload +
        manifest fsyncs) below the overhead budget; set 1 to never
        lose more than a single episode.
    keep:
        Retention: number of most recent snapshots kept per kind.
    resume:
        When True, training and the online loops first look for the
        newest valid snapshot of their kind/context and continue from
        it; otherwise they start fresh (existing snapshots are simply
        overwritten as the run progresses).
    """

    directory: str = "checkpoints"
    every: int = 50
    train_every: int = 5
    keep: int = 3
    resume: bool = False

    def validate(self) -> None:
        if not self.directory:
            raise ConfigurationError("checkpoint directory must be non-empty")
        if self.every < 1:
            raise ConfigurationError(
                f"checkpoint every must be >= 1, got {self.every}"
            )
        if self.train_every < 1:
            raise ConfigurationError(
                f"checkpoint train_every must be >= 1, got {self.train_every}"
            )
        if self.keep < 1:
            raise ConfigurationError(
                f"checkpoint keep must be >= 1, got {self.keep}"
            )


# ----------------------------------------------------------------------
# RNG + JSON helpers
# ----------------------------------------------------------------------
def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """JSON-able bit-generator state of a numpy Generator."""
    return generator.bit_generator.state


def set_rng_state(generator: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state` (bit-exact)."""
    generator.bit_generator.state = state


def _json_default(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.size <= 16:
        return value.tolist()
    raise TypeError(f"checkpoint meta is not JSON-serialisable: {value!r}")


def _canonical(manifest: Dict[str, Any]) -> bytes:
    """Deterministic serialisation of a manifest minus its digest field."""
    body = {key: value for key, value in manifest.items() if key != "digest"}
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass
class Snapshot:
    """One verified, loaded checkpoint."""

    kind: str
    step: int
    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]
    manifest: Dict[str, Any]
    path: Path

    @property
    def next_step(self) -> int:
        """First step/episode index the resumed run should execute."""
        return self.step + 1


class CheckpointManager:
    """Atomic, checksummed, schema-versioned snapshot store.

    Parameters
    ----------
    directory:
        Snapshot directory (created on first save).
    keep:
        Retention count per snapshot kind.
    writer:
        Byte-writer used for both payload and manifest files; defaults
        to :func:`repro.persistence.atomic_write_bytes`. The seam exists
        for the fault-injection harness
        (:class:`repro.testing.TornWriter`) which simulates crashes
        mid-write.
    durable:
        ``False`` selects the fsync-free cache-tier writer
        (:func:`repro.persistence.write_bytes_unsynced`) for both files:
        snapshots are still atomic (never torn) but may vanish on power
        loss. Only for directories that are caches of live state — the
        serving store's spill tier in non-durable mode — never for a
        system of record. Ignored when an explicit ``writer`` is given.
    """

    def __init__(
        self,
        directory: PathLike,
        keep: int = 3,
        writer: Optional[Callable[[PathLike, bytes], Any]] = None,
        durable: bool = True,
    ):
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(os.fspath(directory))
        self.keep = keep
        if writer is not None:
            self.writer = writer
        elif durable:
            self.writer = atomic_write_bytes
        else:
            self.writer = write_bytes_unsynced
        #: Non-durable cache-tier managers (the serving spill store)
        #: skip re-encoding the manifest to check its digest on load —
        #: the payload SHA-256 is still verified, and within one
        #: process nothing tears an unsynced manifest. Durable managers
        #: and custom writers keep the full check.
        self._verify_manifest_digest = durable or writer is not None
        # mkdir-once guard: save() runs per eviction on the serving
        # spill path, and the two syscalls per save added up. Reset by
        # nobody — a directory removed mid-run fails the write loudly.
        self._directory_ready = False

    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def _payload_name(self, kind: str, step: int) -> str:
        return f"{kind}-{step:010d}.npz"

    def _manifest_name(self, kind: str, step: int) -> str:
        return f"{kind}-{step:010d}.json"

    # ------------------------------------------------------------------
    def save(
        self,
        kind: str,
        step: int,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Commit one snapshot; returns the manifest path.

        Write order is payload-then-manifest, each atomic, so a crash at
        any instant leaves either the previous snapshot set intact or
        the new snapshot fully committed — never a readable torn state.
        """
        if "-" in kind or "/" in kind:
            raise ConfigurationError(
                f"snapshot kind must not contain '-' or '/', got {kind!r}"
            )
        if step < 0:
            raise ConfigurationError(f"step must be >= 0, got {step}")
        with TRACER.span("checkpoint.save"):
            if not self._directory_ready:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._directory_ready = True
            payload = npz_bytes(arrays)
            payload_name = self._payload_name(kind, step)
            if self.writer is atomic_write_bytes:
                # The manifest write below fsyncs the directory, which
                # persists this rename too; deferring the payload's
                # directory sync drops one fsync per snapshot. Worst
                # case on power loss: a manifest without its payload,
                # which restore quarantines and falls back from.
                atomic_write_bytes(
                    self.directory / payload_name, payload,
                    sync_directory=False,
                )
            else:
                self.writer(self.directory / payload_name, payload)
            manifest: Dict[str, Any] = {
                "format_version": FORMAT_VERSION,
                "kind": kind,
                "step": int(step),
                "payload": payload_name,
                "payload_sha256": sha256_hex(payload),
                "payload_bytes": len(payload),
                "context": context if context is not None else {},
                "meta": meta if meta is not None else {},
            }
            # The digest covers the canonical (sorted, compact) body;
            # splicing it into that same serialisation writes the file
            # with a single JSON encode — snapshot meta (RNG state
            # dicts, ring indices) is big enough that a second encode
            # showed up on the per-request serving spill path.
            body = _canonical(manifest)
            digest = sha256_hex(body)
            manifest["digest"] = digest
            manifest_path = self.directory / self._manifest_name(kind, step)
            self.writer(
                manifest_path,
                b'{"digest":"' + digest.encode("ascii") + b'",' + body[1:],
            )
            self._sweep(kind)
            if OBS.enabled:
                labels = {"kind": kind}
                registry = OBS.registry
                registry.counter("repro_checkpoint_saves_total", labels).inc()
                registry.histogram(
                    "repro_checkpoint_payload_bytes", labels
                ).observe(float(len(payload)))
                OBS.emit(
                    "checkpoint_saved",
                    snapshot_kind=kind,
                    step=int(step),
                    path=str(manifest_path),
                    payload_bytes=len(payload),
                )
        return manifest_path

    # ------------------------------------------------------------------
    def manifest_paths(self, kind: Optional[str] = None) -> List[Path]:
        """Manifest files on disk, newest step first."""
        try:
            entries = os.scandir(os.fspath(self.directory))
        except OSError:
            return []
        found: List[Tuple[int, str]] = []
        with entries:
            for entry in entries:
                stem, _, ext = entry.name.rpartition(".")
                if ext != "json":
                    continue
                stem_kind, _, stem_step = stem.rpartition("-")
                if not stem_kind or not stem_step.isdigit():
                    continue
                if kind is not None and stem_kind != kind:
                    continue
                found.append((int(stem_step), entry.name))
        found.sort(key=lambda item: item[0], reverse=True)
        return [self.directory / name for _, name in found]

    def load(self, manifest_path: PathLike) -> Snapshot:
        """Load + verify one snapshot; raises on any integrity failure.

        :class:`CheckpointCorruptError` marks torn/rotted files (the
        restore scan quarantines these); :class:`CheckpointError` marks
        schema problems such as an unsupported format version.
        """
        manifest_path = Path(os.fspath(manifest_path))
        try:
            raw = manifest_path.read_bytes()
        except OSError as err:
            raise CheckpointCorruptError(
                f"cannot read manifest {manifest_path}: {err}"
            ) from err
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointCorruptError(
                f"manifest {manifest_path} is not valid JSON "
                f"(torn write?): {err}"
            ) from err
        missing = [key for key in _MANIFEST_REQUIRED if key not in manifest]
        if missing:
            raise CheckpointCorruptError(
                f"manifest {manifest_path} is missing field(s) {missing}"
            )
        if manifest["format_version"] != FORMAT_VERSION:
            raise CheckpointError(
                f"snapshot {manifest_path} has format version "
                f"{manifest['format_version']}; this build reads version "
                f"{FORMAT_VERSION}"
            )
        if self._verify_manifest_digest and sha256_hex(
            _canonical(manifest)
        ) != manifest["digest"]:
            raise CheckpointCorruptError(
                f"manifest {manifest_path} failed its digest check"
            )
        payload_path = self.directory / manifest["payload"]
        try:
            payload = payload_path.read_bytes()
        except OSError as err:
            raise CheckpointCorruptError(
                f"snapshot payload {payload_path} is unreadable: {err}"
            ) from err
        if sha256_hex(payload) != manifest["payload_sha256"]:
            raise CheckpointCorruptError(
                f"snapshot payload {payload_path} failed its SHA-256 check "
                "(torn write or bit rot)"
            )
        try:
            arrays = load_npz_bytes(payload)
        except Exception as err:
            raise CheckpointCorruptError(
                f"snapshot payload {payload_path} is not a valid npz "
                f"archive: {err}"
            ) from err
        return Snapshot(
            kind=str(manifest["kind"]),
            step=int(manifest["step"]),
            arrays=arrays,
            meta=manifest["meta"],
            manifest=manifest,
            path=manifest_path,
        )

    def restore_latest(
        self,
        kind: str,
        context: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> Optional[Snapshot]:
        """Newest valid snapshot of ``kind`` matching ``context``.

        Corrupt snapshots are quarantined and skipped (automatic
        fallback to the next most recent valid one); snapshots whose
        context does not match are skipped with a warning (they belong
        to a differently-configured run sharing the directory). Returns
        ``None`` when no usable snapshot exists.

        With ``strict=True``, *ending up empty-handed because of
        corruption* — at least one snapshot was quarantined and no valid
        one remained to fall back to — raises
        :class:`CheckpointCorruptError` instead of returning ``None``,
        so callers can distinguish "never existed" from "existed but
        unrecoverable" (the serving store turns the latter into
        degraded-mode serving rather than a 404).
        """
        corrupt: List[str] = []
        with TRACER.span("checkpoint.restore"):
            for manifest_path in self.manifest_paths(kind):
                try:
                    snapshot = self.load(manifest_path)
                except CheckpointCorruptError as err:
                    self._quarantine(manifest_path, str(err))
                    corrupt.append(manifest_path.stem)
                    continue
                if context is not None:
                    mismatch = _context_mismatch(
                        snapshot.manifest.get("context", {}), context
                    )
                    if mismatch is not None:
                        _LOG.warning(
                            "skipping snapshot %s: context mismatch on %s",
                            manifest_path.name, mismatch,
                        )
                        continue
                if OBS.enabled:
                    OBS.registry.counter(
                        "repro_checkpoint_restores_total", {"kind": kind}
                    ).inc()
                    OBS.emit(
                        "checkpoint_restored",
                        snapshot_kind=kind,
                        step=snapshot.step,
                        path=str(manifest_path),
                    )
                _LOG.info(
                    "restored %s snapshot at step %d from %s",
                    kind, snapshot.step, manifest_path.name,
                )
                return snapshot
        if strict and corrupt:
            raise CheckpointCorruptError(
                f"every {kind!r} snapshot in {self.directory} was "
                f"quarantined as corrupt ({', '.join(corrupt)}); nothing "
                "valid left to restore"
            )
        return None

    # ------------------------------------------------------------------
    def _quarantine(self, manifest_path: Path, reason: str) -> None:
        """Move a corrupt snapshot's files out of the live directory."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        moved = []
        payload_path = manifest_path.with_suffix(".npz")
        for path in (manifest_path, payload_path):
            if path.exists():
                os.replace(path, self.quarantine_dir / path.name)
                moved.append(path.name)
        _LOG.warning(
            "quarantined corrupt snapshot %s (%s)", manifest_path.stem, reason
        )
        if OBS.enabled:
            OBS.registry.counter("repro_checkpoint_quarantined_total").inc()
            OBS.emit(
                "checkpoint_quarantined",
                snapshot=manifest_path.stem,
                files=moved,
                reason=reason,
            )

    def _sweep(self, kind: str) -> None:
        """Retention: keep the newest ``keep`` snapshots of ``kind``.

        Also removes orphan payloads of this kind (a payload whose
        manifest never landed — the footprint of a crash between the
        two writes). One ``os.scandir`` pass with string matching: this
        runs after every save, and on the serving spill path every
        eviction is a save, so two ``pathlib`` globs here were a
        measurable slice of the round trip.
        """
        prefix = f"{kind}-"
        directory = os.fspath(self.directory)
        manifest_steps: List[int] = []
        payload_steps: List[int] = []
        try:
            entries = os.scandir(directory)
        except OSError:
            return
        with entries:
            for entry in entries:
                name = entry.name
                if not name.startswith(prefix):
                    continue
                stem, _, ext = name.rpartition(".")
                step_text = stem[len(prefix) :]
                if not step_text.isdigit():
                    continue
                if ext == "json":
                    manifest_steps.append(int(step_text))
                elif ext == "npz":
                    payload_steps.append(int(step_text))
        manifest_steps.sort(reverse=True)
        live = set(manifest_steps[: self.keep])
        doomed = [(step, ".json") for step in manifest_steps[self.keep :]]
        doomed += [
            (step, ".npz")
            for step in set(manifest_steps[self.keep :]) | set(payload_steps)
            if step not in live
        ]
        for step, suffix in doomed:
            try:
                os.unlink(
                    os.path.join(directory, f"{prefix}{step:010d}{suffix}")
                )
            except OSError:
                pass


def _context_mismatch(
    stored: Dict[str, Any], expected: Dict[str, Any]
) -> Optional[str]:
    """First key where a snapshot's context disagrees with the run's."""
    for key, value in expected.items():
        if key not in stored:
            return f"{key} (absent in snapshot)"
        if stored[key] != value:
            return f"{key} ({stored[key]!r} != {value!r})"
    return None


# ----------------------------------------------------------------------
# Periodic checkpoint hooks
# ----------------------------------------------------------------------
class TrainingCheckpointer:
    """Episode-boundary auto-checkpointing for :meth:`DDPGAgent.train`.

    Duck-typed against the agent (``checkpoint_state`` /
    ``restore_checkpoint_state``) so the RL layer needs no import of
    this module. Episode boundaries are exact resume points: all RNG,
    optimizer, noise, replay, and history state is captured, so the
    continuation is bit-identical to an uninterrupted run.
    """

    kind = "train"

    def __init__(
        self,
        manager: CheckpointManager,
        every: int = 1,
        resume: bool = False,
        context: Optional[Dict[str, Any]] = None,
    ):
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.manager = manager
        self.every = every
        self.resume = resume
        self.context = dict(context or {})
        self.context.setdefault("phase", self.kind)

    def restore_into(self, agent) -> int:
        """Restore the newest matching snapshot; returns the start episode."""
        if not self.resume:
            return 0
        snapshot = self.manager.restore_latest(self.kind, context=self.context)
        if snapshot is None:
            return 0
        agent.restore_checkpoint_state(snapshot.arrays, snapshot.meta["agent"])
        return int(snapshot.meta["next_episode"])

    def after_episode(
        self, agent, episode_index: int, final: bool = False
    ) -> None:
        """Snapshot at the configured episode period.

        ``final=True`` (the last episode of the run) always snapshots,
        regardless of the period: a completed training run must be
        resumable without retraining, even when ``episodes`` is smaller
        than the snapshot period.
        """
        if not final and (episode_index + 1) % self.every != 0:
            return
        arrays, meta = agent.checkpoint_state()
        self.manager.save(
            self.kind,
            episode_index,
            arrays,
            meta={"agent": meta, "next_episode": episode_index + 1},
            context=self.context,
        )


class LoopCheckpointer:
    """Periodic step checkpointing for the EADRL online forecast loops.

    The loop owner supplies its resumable arrays/meta per step; this
    class handles the cadence, the snapshot composition, and restore.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        kind: str,
        every: int = 50,
        resume: bool = False,
        context: Optional[Dict[str, Any]] = None,
    ):
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.manager = manager
        self.kind = kind
        self.every = every
        self.resume = resume
        self.context = dict(context or {})
        self.context.setdefault("phase", kind)

    def restore(self) -> Optional[Snapshot]:
        if not self.resume:
            return None
        return self.manager.restore_latest(self.kind, context=self.context)

    def due(self, step: int) -> bool:
        """True when ``after_step(step, ...)`` would actually save.

        Lets callers skip composing an expensive snapshot (e.g. a full
        agent state capture) on the steps between checkpoints.
        """
        return (step + 1) % self.every == 0

    def after_step(
        self,
        step: int,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, Any],
    ) -> None:
        if (step + 1) % self.every != 0:
            return
        meta = dict(meta)
        meta["next_step"] = step + 1
        self.manager.save(
            self.kind, step, arrays, meta=meta, context=self.context
        )
