"""Model checkpointing: save/load parameters + config as .npz / JSON.

The paper's conclusions motivate "extraction and tweaking of
category-dedicated models from the unified ensemble" — which requires being
able to persist and reload trained models.  Checkpoints store the flat
parameter state dict (``numpy.savez``) plus a JSON sidecar with the model
name and :class:`~repro.models.config.ModelConfig` fields, so
:func:`load_model` can rebuild the exact architecture.

Checkpoints are written **atomically** (temp file in the same directory,
then :func:`os.replace`) so a crash mid-write can never leave a
half-written file under the real name — a hot-reloading server polling the
directory sees either the old bytes or the new bytes, never a torn mix.
The sidecar additionally records a SHA-256 **checksum** of the weights
file; :func:`load_checkpoint` verifies it and raises
:class:`CheckpointCorrupted` on mismatch, which is what lets
``ModelRegistry.reload_from_directory`` quarantine a corrupt checkpoint
instead of serving garbage weights.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from ..models import ModelConfig, build_model
from ..models.base import RankingModel

__all__ = ["CheckpointCorrupted", "atomic_write_bytes", "atomic_write_text",
           "checksum_file", "save_checkpoint", "load_checkpoint",
           "build_model_from_meta", "load_model"]

_FORMAT_VERSION = 1

# Checksum-manifest entry -> the artifact suffix it covers.  Every artifact
# a checkpoint declares must appear here so load-time verification covers
# the complete artifact set, not just the weights archive.  Checkpoints
# written before int8 serving was removed (every ``--bootstrap-demo``
# directory among them) also declare the int8 sidecar
# (``save_checkpoint(quantize=True)``): it is verified, never read.
_ARTIFACT_SUFFIXES = {"weights": ".npz", "quantized": ".quant.npz"}


class CheckpointCorrupted(ValueError):
    """A checkpoint's bytes do not match its declared checksum (or cannot
    be parsed at all): a torn write, bit rot, or a concurrent overwrite.
    Callers that hot-reload should quarantine the checkpoint and keep
    serving the last good version rather than let this propagate."""

    def __init__(self, path, reason: str):
        super().__init__(f"corrupt checkpoint {path}: {reason}")
        self.path = Path(path)
        self.reason = reason


# ----------------------------------------------------------------------
# Atomic writes + checksums
# ----------------------------------------------------------------------
def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (same-directory temp file +
    :func:`os.replace`): readers never observe a partial file, and a crash
    mid-write leaves the previous contents intact."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomic counterpart of ``Path.write_text`` (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def checksum_file(path: str | Path) -> str:
    """SHA-256 of a file's bytes as ``"sha256:<hex>"`` (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def _checksum_bytes(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


def save_checkpoint(model: RankingModel, path: str | Path,
                    model_name: str, extra: dict | None = None) -> Path:
    """Persist a model to ``<path>.npz`` + ``<path>.json``.

    Returns the weights path.  ``extra`` (JSON-serializable) is stored in
    the sidecar, e.g. training metrics.  Both files are written atomically
    and the sidecar carries a SHA-256 checksum of **every** artifact (see
    the module docstring); the artifacts land before the sidecar
    referencing them, so a crash between the writes leaves a
    stale-but-consistent set.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    weights_path = path.with_suffix(".npz")
    meta_path = path.with_suffix(".json")

    state = model.state_dict()
    # Serialize the archive in memory so the checksum covers exactly the
    # bytes that hit disk, then write them in one atomic replace.
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    weights_bytes = buffer.getvalue()
    atomic_write_bytes(weights_path, weights_bytes)
    checksum = {"weights": _checksum_bytes(weights_bytes)}

    config = getattr(model, "config", None)
    if not isinstance(config, ModelConfig):
        raise TypeError("model has no ModelConfig; cannot serialize architecture")
    dtypes = {str(param.dtype) for param in model.parameters()}
    meta = {
        "format_version": _FORMAT_VERSION,
        "model_name": model_name,
        "config": dataclasses.asdict(config),
        # Parameter dtype (recorded when uniform) so a float32-served model
        # reloads as float32 regardless of the ambient default dtype.
        "dtype": dtypes.pop() if len(dtypes) == 1 else None,
        "extra": extra or {},
        "checksum": checksum,
    }
    # MMoE's task routing lives outside the parameter arrays; persist it so
    # the rebuilt model routes examples identically.
    buckets = getattr(model, "bucket_assignment", None)
    if buckets is not None:
        meta["bucket_assignment"] = {str(k): int(v) for k, v in buckets.items()}
    atomic_write_text(meta_path,
                      json.dumps(meta, indent=2, default=_json_default))
    return weights_path


def _verify_artifacts(path: Path, meta: dict) -> None:
    """Verify every artifact the sidecar's checksum manifest declares.

    Each manifest entry maps to its file (:data:`_ARTIFACT_SUFFIXES`): a
    missing file, a digest mismatch, or an entry this code doesn't know
    how to locate all raise :class:`CheckpointCorrupted` so hot-reloaders
    quarantine instead of serving a partially-verified checkpoint.
    """
    for key, declared in (meta.get("checksum") or {}).items():
        suffix = _ARTIFACT_SUFFIXES.get(key)
        if suffix is None:
            raise CheckpointCorrupted(
                path, f"checksum manifest declares unknown artifact {key!r}")
        artifact = path.with_suffix(suffix)
        if not artifact.exists():
            raise CheckpointCorrupted(
                artifact, f"declared artifact {key!r} is missing")
        actual = checksum_file(artifact)
        if actual != declared:
            raise CheckpointCorrupted(
                artifact, f"{key} checksum {actual} != declared {declared}")


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load (state dict, metadata) from a checkpoint base path.

    When the sidecar declares a checksum manifest (every checkpoint
    written since checksums landed), **all** declared artifacts are
    verified against it before parsing — a mismatch or a missing artifact
    raises :class:`CheckpointCorrupted`, as does an unparseable archive.
    Sidecars without a checksum (older checkpoints) load unverified,
    preserving compatibility.
    """
    path = Path(path)
    weights_path = path.with_suffix(".npz")
    meta_path = path.with_suffix(".json")
    if not weights_path.exists() or not meta_path.exists():
        raise FileNotFoundError(f"checkpoint incomplete at {path}")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('format_version')}")
    _verify_artifacts(path, meta)
    try:
        with np.load(weights_path) as archive:
            state = {key: archive[key].copy() for key in archive.files}
    except Exception as error:
        # A torn/garbled archive that predates checksums (or got mangled
        # between the verify above and the read) is corruption, not a
        # loader bug: surface it as such so reloaders can quarantine.
        raise CheckpointCorrupted(weights_path, f"unreadable archive: {error}")
    return state, meta


def build_model_from_meta(meta: dict, spec: FeatureSpec, taxonomy: Taxonomy,
                          train_dataset=None) -> RankingModel:
    """Rebuild the architecture a checkpoint sidecar describes — no weights.

    Factored out of :func:`load_model` so alternative weight sources can
    reuse the rebuild: multi-process serving workers construct the model
    here and then attach memory-mapped parameter files instead of the
    ``.npz`` copy (``load_state_dict(..., copy=False)``).  The returned
    model is freshly initialized and already cast to the sidecar's dtype.
    """
    config_fields = dict(meta["config"])
    # JSON turns tuples into lists; restore the tuple-typed fields.
    for key in ("hidden_sizes", "gate_features", "input_features"):
        if key in config_fields and isinstance(config_fields[key], list):
            config_fields[key] = tuple(config_fields[key])
    config = ModelConfig(**config_fields)
    if "bucket_assignment" in meta:
        from ..models.mmoe import MMoERanker
        buckets = {int(k): int(v) for k, v in meta["bucket_assignment"].items()}
        model: RankingModel = MMoERanker(spec, buckets, config)
    else:
        model = build_model(meta["model_name"], spec, taxonomy, config,
                            train_dataset=train_dataset)
    dtype = meta.get("dtype")
    if dtype is not None and any(p.dtype != np.dtype(dtype) for p in model.parameters()):
        model.astype(np.dtype(dtype))
    return model


def load_model(path: str | Path, spec: FeatureSpec, taxonomy: Taxonomy,
               train_dataset=None) -> RankingModel:
    """Rebuild a model from a checkpoint and restore its weights.

    ``spec``/``taxonomy`` must structurally match the ones the model was
    trained with (same cardinalities); mismatches surface as shape errors.
    """
    state, meta = load_checkpoint(path)
    model = build_model_from_meta(meta, spec, taxonomy,
                                  train_dataset=train_dataset)
    model.load_state_dict(state)
    return model


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")
