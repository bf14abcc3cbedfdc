"""Checkpoint format for the serving layer.

Ranking-model checkpoints are the ``state_dict → .npz + JSON config`` format
from :mod:`repro.utils.serialization` (re-exported here so serving code has
one import surface).  This module adds the same treatment for the BiGRU
query classifier — the intent stage of :class:`repro.serving.RankingService`
— whose architecture is described by ``(vocab_size, num_sub_categories,
QueryClassifierConfig)`` rather than a :class:`~repro.models.config.ModelConfig`.

It also defines the **checkpoint-directory layout** the HTTP gateway serves
from: one ``<name>.npz`` + ``<name>.json`` pair per ranking model (served
under ``name``), optionally a classifier checkpoint (its sidecar carries
``kind: querycat_classifier``), and an ``environment.json`` bundle
(:func:`save_environment`) holding the :class:`~repro.data.schema.FeatureSpec`
and :class:`~repro.hierarchy.Taxonomy` the models were trained against — so
``python -m repro.serving.server`` can rebuild every model from disk alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from ..querycat import QueryCategoryClassifier, QueryClassifierConfig
from ..utils.serialization import (CheckpointCorrupted, atomic_write_bytes,
                                   atomic_write_text, build_model_from_meta,
                                   checksum_file, load_checkpoint, load_model,
                                   save_checkpoint)

__all__ = ["save_checkpoint", "load_checkpoint", "load_model",
           "build_model_from_meta",
           "save_classifier_checkpoint", "load_classifier_checkpoint",
           "save_environment", "load_environment",
           "find_classifier_checkpoint", "ENVIRONMENT_FILENAME",
           "ensure_weight_store", "load_shared_state", "load_model_shared",
           "CheckpointCorrupted", "checksum_file"]

_CLASSIFIER_FORMAT_VERSION = 1
_ENVIRONMENT_FORMAT_VERSION = 1

ENVIRONMENT_FILENAME = "environment.json"


def save_classifier_checkpoint(model: QueryCategoryClassifier,
                               path: str | Path,
                               extra: dict | None = None) -> Path:
    """Persist a query classifier to ``<path>.npz`` + ``<path>.json``.

    The JSON sidecar records the vocabulary size, class count, and the
    :class:`QueryClassifierConfig`, so :func:`load_classifier_checkpoint`
    can rebuild the exact architecture.  Returns the weights path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    weights_path = path.with_suffix(".npz")
    meta_path = path.with_suffix(".json")
    # Atomic write + checksum manifest, same contract as the ranking-model
    # format (see repro.utils.serialization): the weights land first, the
    # sidecar referencing their checksum second.
    buffer = io.BytesIO()
    np.savez(buffer, **model.state_dict())
    weights_bytes = buffer.getvalue()
    atomic_write_bytes(weights_path, weights_bytes)
    meta = {
        "format_version": _CLASSIFIER_FORMAT_VERSION,
        "kind": "querycat_classifier",
        "vocab_size": int(model.embedding.num_embeddings),
        "num_sub_categories": int(model.head.out_features),
        "config": dataclasses.asdict(model.config),
        "dtype": str(model.embedding.weight.dtype),
        "extra": extra or {},
        "checksum": {
            "weights": f"sha256:{hashlib.sha256(weights_bytes).hexdigest()}"},
    }
    atomic_write_text(meta_path, json.dumps(meta, indent=2))
    return weights_path


def load_classifier_checkpoint(path: str | Path) -> QueryCategoryClassifier:
    """Rebuild a query classifier from a checkpoint and restore its weights."""
    path = Path(path)
    weights_path = path.with_suffix(".npz")
    meta_path = path.with_suffix(".json")
    if not weights_path.exists() or not meta_path.exists():
        raise FileNotFoundError(f"classifier checkpoint incomplete at {path}")
    meta = json.loads(meta_path.read_text())
    if meta.get("kind") != "querycat_classifier":
        raise ValueError(f"not a classifier checkpoint: {path}")
    if meta.get("format_version") != _CLASSIFIER_FORMAT_VERSION:
        raise ValueError(
            f"unsupported classifier checkpoint version {meta.get('format_version')}")
    declared = (meta.get("checksum") or {}).get("weights")
    if declared is not None and checksum_file(weights_path) != declared:
        raise CheckpointCorrupted(weights_path,
                                  "weights checksum mismatch")
    config = QueryClassifierConfig(**meta["config"])
    model = QueryCategoryClassifier(meta["vocab_size"],
                                    meta["num_sub_categories"], config)
    dtype = np.dtype(meta.get("dtype", "float64"))
    if model.embedding.weight.dtype != dtype:
        model.astype(dtype)
    with np.load(weights_path) as archive:
        state = {key: archive[key] for key in archive.files}
        model.load_state_dict(state)
    return model


# ----------------------------------------------------------------------
# Environment bundles (checkpoint-directory serving)
# ----------------------------------------------------------------------
def save_environment(directory: str | Path, spec: FeatureSpec,
                     taxonomy: Taxonomy) -> Path:
    """Write ``environment.json`` describing a checkpoint directory.

    The bundle pins the feature schema and category tree every checkpoint
    in ``directory`` was trained against, which is exactly what
    :func:`repro.utils.serialization.load_model` needs to rebuild them —
    the serving gateway reads it at boot so a scoring process carries no
    dependency on the training-side world generator.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / ENVIRONMENT_FILENAME
    payload = {
        "format_version": _ENVIRONMENT_FORMAT_VERSION,
        "kind": "serving_environment",
        "spec": spec.to_dict(),
        "taxonomy": taxonomy.to_dict(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2))
    return path


def load_environment(directory: str | Path) -> tuple[FeatureSpec, Taxonomy]:
    """Load the (spec, taxonomy) bundle written by :func:`save_environment`."""
    path = Path(directory) / ENVIRONMENT_FILENAME
    if not path.exists():
        raise FileNotFoundError(
            f"no {ENVIRONMENT_FILENAME} in {directory} — write one with "
            "serving.save_environment(dir, spec, taxonomy) when checkpointing")
    payload = json.loads(path.read_text())
    if payload.get("kind") != "serving_environment":
        raise ValueError(f"not a serving environment bundle: {path}")
    if payload.get("format_version") != _ENVIRONMENT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported environment bundle version {payload.get('format_version')}")
    return (FeatureSpec.from_dict(payload["spec"]),
            Taxonomy.from_dict(payload["taxonomy"]))


# ----------------------------------------------------------------------
# Shared weight stores (multi-process serving)
# ----------------------------------------------------------------------
_WEIGHT_STORE_FORMAT_VERSION = 1
_WEIGHT_STORE_MANIFEST = "manifest.json"


def ensure_weight_store(path: str | Path) -> Path:
    """Extract a checkpoint's parameters into a mmap-able ``.npy`` store.

    ``np.load(mmap_mode="r")`` cannot map members of an ``.npz`` archive
    (they are zip entries, not page-aligned files), so multi-process
    serving explodes the archive once into
    ``.<name>-<digest>.weights/`` next to the checkpoint — one ``.npy``
    per parameter plus a manifest mapping qualified parameter names to
    files.  Every scorer process then maps the same files read-only and
    the OS page cache keeps a single physical copy of the weights.

    The store is keyed by the source file's content digest, so a
    hot-reloaded checkpoint gets a fresh store and an existing store is
    reused as-is (idempotent).  Creation is atomic: the store is built in
    a temp directory and renamed into place; a concurrent creator losing
    the rename race simply uses the winner's store.
    """
    path = Path(path)
    fingerprint = checksum_file(path.with_suffix(".npz"))
    digest = fingerprint.split(":", 1)[1][:16]
    store = path.parent / f".{path.name}-{digest}.weights"
    manifest_path = store / _WEIGHT_STORE_MANIFEST
    if manifest_path.exists():
        return store
    # Verifies the checksum manifest before trusting the bytes — a torn
    # checkpoint must not become a quietly-corrupt weight store.
    state, _ = load_checkpoint(path)
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}-tmp."))
    try:
        params = {}
        for index, (name, array) in enumerate(state.items()):
            filename = f"p{index:04d}.npy"
            np.save(tmp / filename, np.ascontiguousarray(array))
            params[name] = filename
        manifest = {
            "format_version": _WEIGHT_STORE_FORMAT_VERSION,
            "kind": "weight_store",
            "fingerprint": fingerprint,
            "params": params,
        }
        (tmp / _WEIGHT_STORE_MANIFEST).write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, store)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not manifest_path.exists():
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return store


def load_shared_state(store: str | Path) -> dict[str, np.ndarray]:
    """Map a weight store's parameters read-only (name → memmap array)."""
    store = Path(store)
    manifest = json.loads((store / _WEIGHT_STORE_MANIFEST).read_text())
    if manifest.get("kind") != "weight_store":
        raise ValueError(f"not a weight store: {store}")
    return {name: np.load(store / filename, mmap_mode="r")
            for name, filename in manifest["params"].items()}


def load_model_shared(path: str | Path, spec: FeatureSpec,
                      taxonomy: Taxonomy):
    """Rebuild a checkpointed model with memory-mapped, shared weights.

    Functionally equivalent to :func:`load_model` but every parameter is
    backed by the checkpoint's weight store (see :func:`ensure_weight_store`)
    instead of a private copy, so N processes serving the same checkpoint
    hold one physical copy of the parameters.  The result is
    inference-only: the arrays are read-only memmaps.
    """
    path = Path(path)
    store = ensure_weight_store(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    model = build_model_from_meta(meta, spec, taxonomy)
    model.load_state_dict(load_shared_state(store), copy=False)
    return model


def find_classifier_checkpoint(directory: str | Path) -> Path | None:
    """Locate a query-classifier checkpoint in a checkpoint directory.

    Returns the checkpoint *base* path (no suffix) of the first sidecar
    whose ``kind`` is ``querycat_classifier``, or None when the directory
    serves ranking models only.
    """
    directory = Path(directory)
    for meta_path in sorted(directory.glob("*.json")):
        if meta_path.name == ENVIRONMENT_FILENAME:
            continue
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError:
            continue
        if isinstance(meta, dict) and meta.get("kind") == "querycat_classifier":
            if meta_path.with_suffix(".npz").exists():
                return meta_path.with_suffix("")
    return None
