"""Versioned model registry for the serving layer.

Production serving needs to answer "which weights are live for this
traffic?" — the registry keys every model by ``(name, version)``, hands out
the latest version by default, and can hydrate entries straight from
checkpoints so a scoring process never touches training code.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from .checkpoint import (ENVIRONMENT_FILENAME, CheckpointCorrupted,
                         checksum_file, load_model)

__all__ = ["ModelRegistry", "RegisteredModel"]


@dataclass(frozen=True)
class RegisteredModel:
    """One registry entry: a scorable model plus its identity/metadata."""

    name: str
    version: int
    model: object                       # anything with .score(batch)
    metadata: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.version)


class ModelRegistry:
    """In-memory ``(name, version) → model`` store.

    Versions are positive integers; ``register`` without an explicit
    version auto-increments past the newest one, and lookups without a
    version resolve to the newest.  Registration and lookup are
    thread-safe (serving workers may hot-swap models under traffic).
    """

    def __init__(self):
        self._entries: dict[str, dict[int, RegisteredModel]] = {}
        self._lock = threading.Lock()
        # Serializes directory reloads: two concurrent reloads seeing the
        # same changed checkpoint must not both register it (each would
        # get a fresh auto-incremented version for identical weights).
        self._reload_lock = threading.Lock()
        # Quarantine: checkpoints whose bytes failed verification (or
        # failed to load), keyed by name.  Each entry remembers the bad
        # checksum so re-polling the directory skips the same corrupt
        # bytes silently instead of re-reporting them every sweep; a
        # repaired checkpoint (different checksum) clears the entry.
        self._quarantined: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, model, version: int | None = None,
                 metadata: dict | None = None) -> RegisteredModel:
        """Register ``model`` under ``name``; returns the new entry.

        ``version=None`` assigns the next free version.  Re-registering an
        existing (name, version) raises — versions are immutable once live.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        with self._lock:
            versions = self._entries.setdefault(name, {})
            if version is None:
                version = max(versions, default=0) + 1
            version = int(version)
            if version <= 0:
                raise ValueError("version must be a positive integer")
            if version in versions:
                raise ValueError(f"{name!r} version {version} already registered")
            entry = RegisteredModel(name=name, version=version, model=model,
                                    metadata=dict(metadata or {}))
            versions[version] = entry
            return entry

    def register_checkpoint(self, name: str, path: str | Path,
                            spec: FeatureSpec, taxonomy: Taxonomy,
                            version: int | None = None,
                            metadata: dict | None = None) -> RegisteredModel:
        """Load a ranking-model checkpoint and register it."""
        model = load_model(path, spec, taxonomy)
        metadata = {"checkpoint": str(path), **(metadata or {})}
        return self.register(name, model, version=version, metadata=metadata)

    def reload_from_directory(self, directory: str | Path, spec: FeatureSpec,
                              taxonomy: Taxonomy) -> list[RegisteredModel]:
        """Scan a checkpoint directory; register new or changed checkpoints.

        Every ``<name>.json`` + ``<name>.npz`` sidecar/weights pair is a
        ranking-model checkpoint served under ``name`` (classifier
        checkpoints and the ``environment.json`` bundle are skipped — the
        gateway owns those).  A checkpoint is registered as a *new
        version* of its name only when the weights **bytes** changed since
        the last reload: the fingerprint is the weights checksum, so an
        in-place rewrite is detected even when it lands with the same size
        inside the filesystem's mtime granularity (where an mtime+size
        fingerprint would silently serve stale weights), and polling stays
        idempotent — unchanged bytes hash to the same fingerprint.

        Corruption-safe: a checkpoint whose bytes fail checksum
        verification or fail to load is **quarantined** (recorded in
        :meth:`quarantined`, skipped on re-polls while its bytes are
        unchanged) and the registry keeps serving whatever version of
        that name is already live — a torn write can never evict a good
        model.  Returns the newly registered entries.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"checkpoint directory not found: {directory}")
        registered: list[RegisteredModel] = []
        with self._reload_lock:
            for meta_path in sorted(directory.glob("*.json")):
                if meta_path.name == ENVIRONMENT_FILENAME:
                    continue
                try:
                    meta = json.loads(meta_path.read_text())
                except ValueError:
                    continue                  # not a checkpoint sidecar
                if not isinstance(meta, dict) or "model_name" not in meta:
                    continue                  # classifier / foreign JSON
                weights_path = meta_path.with_suffix(".npz")
                if not weights_path.exists():
                    continue                  # half-written checkpoint
                name = meta_path.stem
                # Content fingerprint: the weights checksum.  Hashing on
                # every poll costs one file read per checkpoint — cheap
                # next to model rebuild, and the only fingerprint that
                # cannot be fooled by a same-size in-place rewrite.
                fingerprint = checksum_file(weights_path)
                bad = self._quarantined.get(name)
                if bad is not None and bad.get("fingerprint") == fingerprint:
                    continue                  # known-corrupt bytes, unchanged
                if name in self:
                    latest = self.entry(name)
                    if latest.metadata.get("fingerprint") == fingerprint:
                        # Unchanged since last reload.  Also the repair
                        # path for a rollback: bytes restored to the
                        # registered good version clear any quarantine.
                        self._quarantined.pop(name, None)
                        continue
                try:
                    entry = self.register_checkpoint(
                        name, meta_path.with_suffix(""), spec, taxonomy,
                        metadata={"fingerprint": fingerprint})
                except Exception as error:
                    # CheckpointCorrupted (checksum mismatch, torn
                    # archive) and any other load failure (shape errors
                    # from a mangled-but-parseable file, bad config):
                    # quarantine rather than raise, so the last good
                    # version (if any) keeps serving and the poll loop
                    # survives.
                    self._quarantined[name] = {
                        "path": str(weights_path),
                        "fingerprint": fingerprint,
                        "reason": f"{type(error).__name__}: {error}",
                    }
                    continue
                self._quarantined.pop(name, None)   # repaired checkpoint
                registered.append(entry)
        return registered

    def quarantined(self) -> dict[str, dict]:
        """Checkpoints refused by the last reloads: ``name → {path,
        fingerprint, reason}``.  An entry clears when the checkpoint's
        bytes change and load cleanly (a repaired write)."""
        with self._reload_lock:
            return {name: dict(info)
                    for name, info in self._quarantined.items()}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entry(self, name: str, version: int | None = None) -> RegisteredModel:
        """The entry for ``(name, version)``; latest version when None."""
        with self._lock:
            versions = self._entries.get(name)
            if not versions:
                raise KeyError(f"no model registered under {name!r}; "
                               f"known: {sorted(self._entries)}")
            if version is None:
                version = max(versions)
            if version not in versions:
                raise KeyError(f"{name!r} has no version {version}; "
                               f"known: {sorted(versions)}")
            return versions[version]

    def get(self, name: str, version: int | None = None):
        """The model for ``(name, version)``; latest version when None."""
        return self.entry(name, version).model

    def latest_version(self, name: str) -> int:
        return self.entry(name).version

    def fingerprint(self, name: str, version: int | None = None) -> str | None:
        """The content fingerprint (weights checksum) serving for ``name``.

        ``None`` for models registered in-memory (no checkpoint behind
        them).  There is exactly one registry per gateway — shared by
        every gateway shard and every scorer process host — so this is
        the single source of truth reload atomicity is asserted against:
        after a ``POST /reload``, all shards answer with this fingerprint
        or the reload never happened.
        """
        return self.entry(name, version).metadata.get("fingerprint")

    def versions(self, name: str) -> list[int]:
        with self._lock:
            if name not in self._entries:
                raise KeyError(f"no model registered under {name!r}")
            return sorted(self._entries[name])

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> list[RegisteredModel]:
        """Every registered entry, ordered by (name, version)."""
        with self._lock:
            return [self._entries[name][version]
                    for name in sorted(self._entries)
                    for version in sorted(self._entries[name])]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())
