"""Multi-process scorer backend: score batches in worker *processes*.

The in-process :class:`~repro.serving.scorer.ScorerPool` only beats one
worker while BLAS releases the GIL — the Python side of every compiled
plan still serializes on one interpreter.  This module crosses the
process boundary instead: :class:`ProcessScorerHost` spawns N scorer
processes, each of which hydrates the model **from the checkpoint
directory** (the parent never pickles a model) and serves score requests
over a pipe.

Three design points keep this cheap:

* **Shared weights.**  Children rebuild the architecture from the
  checkpoint sidecar and attach parameters from the checkpoint's weight
  store (:func:`~repro.serving.checkpoint.ensure_weight_store`) via
  ``np.load(mmap_mode="r")`` — N processes map the same ``.npy`` files,
  so the OS page cache holds **one** physical copy of every parameter.

* **Binary frames, not pickles.**  Requests and responses cross the pipe
  as compact binary frames — a dtype + shape header followed by the raw
  array bytes per feature (:func:`encode_batch` / :func:`decode_batch`).
  No pickling of feature dicts, no per-row Python objects on the wire.

* **Blocking recv releases the GIL.**  Each pool worker thread in the
  parent owns one channel to a child and blocks in ``recv_bytes`` while
  the child scores; the parent's other workers keep collecting and
  dispatching, so cross-process parallelism composes with the existing
  micro-batching pool unchanged.

Fork-safety: every child reseeds its model's RNGs from
``np.random.SeedSequence(entropy=(seed, version, worker_index))`` (see
:meth:`repro.nn.Module.reseed`), so "independent" workers can never share
a noise stream — whether the start method was ``fork`` or ``spawn``.
"""

from __future__ import annotations

import json
import multiprocessing
import struct
import threading
import time
from pathlib import Path

import numpy as np

from ..data.dataset import Batch
from .checkpoint import load_environment, load_model_shared

__all__ = ["ProcessScorerHost", "ProcessScorerError",
           "encode_batch", "decode_batch", "encode_frame", "decode_frame"]

# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
# Every message is MAGIC (2 bytes) + kind (1 byte) + kind-specific payload.
FRAME_MAGIC = b"RS"                     # "repro scorer"
KIND_BATCH = 1                          # parent -> child: score this batch
KIND_SCORES = 2                         # child -> parent: scores array
KIND_ERROR = 3                          # child -> parent: scoring failed
KIND_STATS = 4                          # parent -> child: counters request
KIND_STATS_REPLY = 5                    # child -> parent: counters JSON
KIND_SHUTDOWN = 6                       # parent -> child: exit cleanly

_HEADER = struct.Struct("<2sB")


class ProcessScorerError(RuntimeError):
    """A scorer process reported a structured failure (or died mid-call)."""


def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    return _HEADER.pack(FRAME_MAGIC, kind) + payload


def decode_frame(frame: bytes) -> tuple[int, memoryview]:
    if len(frame) < _HEADER.size:
        raise ProcessScorerError(f"short frame: {len(frame)} bytes")
    magic, kind = _HEADER.unpack_from(frame)
    if magic != FRAME_MAGIC:
        raise ProcessScorerError(f"bad frame magic {magic!r}")
    return kind, memoryview(frame)[_HEADER.size:]


def _pack_array(array: np.ndarray) -> bytes:
    """dtype-str + shape header + raw contiguous bytes for one array."""
    array = np.ascontiguousarray(array)
    dtype = array.dtype.str.encode("ascii")
    header = struct.pack("<B", len(dtype)) + dtype
    header += struct.pack("<B", array.ndim)
    header += struct.pack(f"<{array.ndim}q", *array.shape)
    return header + struct.pack("<Q", array.nbytes) + array.tobytes()


def _unpack_array(view: memoryview, offset: int) -> tuple[np.ndarray, int]:
    (dtype_len,) = struct.unpack_from("<B", view, offset)
    offset += 1
    dtype = np.dtype(bytes(view[offset:offset + dtype_len]).decode("ascii"))
    offset += dtype_len
    (ndim,) = struct.unpack_from("<B", view, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}q", view, offset)
    offset += 8 * ndim
    (nbytes,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    array = np.frombuffer(view[offset:offset + nbytes], dtype=dtype)
    return array.reshape(shape), offset + nbytes


def encode_batch(batch: Batch) -> bytes:
    """Serialize a batch's features as a KIND_BATCH frame.

    Only the numeric matrix and the sparse feature arrays travel —
    serving-side batches carry placeholder labels/session ids, which the
    child reconstructs as zeros (exactly what the gateway's JSON decoder
    does on the way in).
    """
    parts = [_pack_array(batch.numeric)]
    parts.append(struct.pack("<H", len(batch.sparse)))
    for name in sorted(batch.sparse):
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)) + encoded)
        parts.append(_pack_array(batch.sparse[name]))
    return encode_frame(KIND_BATCH, b"".join(parts))


def decode_batch(payload: memoryview) -> Batch:
    """Inverse of :func:`encode_batch` (labels/session ids zeroed)."""
    numeric, offset = _unpack_array(payload, 0)
    (num_sparse,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    sparse = {}
    for _ in range(num_sparse):
        (name_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        name = bytes(payload[offset:offset + name_len]).decode("utf-8")
        offset += name_len
        sparse[name], offset = _unpack_array(payload, offset)
    rows = numeric.shape[0]
    return Batch(numeric=numeric, sparse=sparse,
                 labels=np.zeros(rows, dtype=np.float64),
                 session_ids=np.zeros(rows, dtype=np.int64))


def encode_scores(scores: np.ndarray) -> bytes:
    return encode_frame(KIND_SCORES, _pack_array(np.asarray(scores)))


def decode_scores(payload: memoryview) -> np.ndarray:
    scores, _ = _unpack_array(payload, 0)
    # The frombuffer view is read-only over pipe memory; hand callers an
    # owned array.
    return scores.copy()


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def _scorer_process_main(conn, checkpoint_base: str, environment_dir: str,
                         seed: int, version: int, worker_index: int) -> None:
    """Entry point of one scorer process (must stay module-level for
    spawn-context picklability).

    Hydrates the model from disk (shared weights), reseeds its RNGs with
    a per-child spawn key, compiles a scoring plan, then serves frames
    until a shutdown frame or a closed pipe.
    """
    spec, taxonomy = load_environment(environment_dir)
    model = load_model_shared(checkpoint_base, spec, taxonomy)
    model.eval()
    model.reseed(np.random.SeedSequence(
        entropy=(int(seed), int(version), int(worker_index))))
    make = getattr(model, "make_scorer", None)
    scorer = make() if callable(make) else model.score
    requests = rows = 0
    busy_seconds = 0.0
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return                      # parent went away; nothing to flush
        try:
            kind, payload = decode_frame(frame)
        except ProcessScorerError as error:
            conn.send_bytes(encode_frame(KIND_ERROR, str(error).encode("utf-8")))
            continue
        if kind == KIND_SHUTDOWN:
            return
        if kind == KIND_STATS:
            counters = {"requests": requests, "rows": rows,
                        "busy_seconds": busy_seconds,
                        "worker_index": worker_index}
            conn.send_bytes(encode_frame(
                KIND_STATS_REPLY, json.dumps(counters).encode("utf-8")))
            continue
        if kind != KIND_BATCH:
            conn.send_bytes(encode_frame(
                KIND_ERROR, f"unexpected frame kind {kind}".encode("utf-8")))
            continue
        try:
            batch = decode_batch(payload)
            t0 = time.perf_counter()
            scores = scorer(batch)
            busy_seconds += time.perf_counter() - t0
            requests += 1
            rows += len(batch)
            conn.send_bytes(encode_scores(scores))
        except BaseException as error:       # noqa: BLE001 — must answer
            conn.send_bytes(encode_frame(
                KIND_ERROR,
                f"{type(error).__name__}: {error}".encode("utf-8")))


# ----------------------------------------------------------------------
# Parent-side host
# ----------------------------------------------------------------------
class _Channel:
    """One scorer process + its pipe; the lock serializes frame exchanges."""

    __slots__ = ("index", "conn", "process", "lock", "last_counters")

    def __init__(self, index: int):
        self.index = index
        self.conn = None
        self.process = None
        self.lock = threading.Lock()
        # Last counters the child reported; kept so /stats stays monotonic
        # even when a child is busy (or dead) at snapshot time.
        self.last_counters = {"requests": 0, "rows": 0, "busy_seconds": 0.0}


class ProcessScorerHost:
    """Own N scorer processes for one checkpoint and hand out scorer
    closures compatible with :class:`~repro.serving.scorer.ScorerPool`.

    ``make_scorer`` is the pool's ``scorer_factory``: each call binds the
    next channel round-robin, so a pool with ``num_workers == processes``
    gives every worker thread a private channel.  A channel exchange that
    finds its process dead (or breaks mid-call) respawns the child and
    raises :class:`ProcessScorerError` for that request — the pool's
    normal error path (and the service breaker) absorb it.
    """

    def __init__(self, checkpoint_base: str | Path, environment_dir: str | Path,
                 processes: int, seed: int = 0, version: int = 0,
                 start_method: str | None = None,
                 stats_timeout_s: float = 1.0):
        if processes <= 0:
            raise ValueError("processes must be positive")
        self._checkpoint_base = str(checkpoint_base)
        self._environment_dir = str(environment_dir)
        self._seed = int(seed)
        self._version = int(version)
        self._stats_timeout_s = float(stats_timeout_s)
        # spawn by default: the serving parent is heavily threaded, and
        # fork() of a threaded process inherits locks in arbitrary states.
        self._ctx = multiprocessing.get_context(start_method or "spawn")
        self._state_lock = threading.Lock()
        self._restarts = 0
        self._next_channel = 0
        self._closed = False
        self._channels = [_Channel(index) for index in range(processes)]
        try:
            for channel in self._channels:
                self._start_child(channel)
        except BaseException:
            self.close()
            raise

    @property
    def processes(self) -> int:
        return len(self._channels)

    @property
    def process_restarts(self) -> int:
        return self._restarts

    def _start_child(self, channel: _Channel) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_scorer_process_main,
            args=(child_conn, self._checkpoint_base, self._environment_dir,
                  self._seed, self._version, channel.index),
            name=f"repro-scorer-{channel.index}", daemon=True)
        process.start()
        child_conn.close()
        channel.conn = parent_conn
        channel.process = process

    def _respawn(self, channel: _Channel) -> None:
        """Replace a dead/broken child (caller holds ``channel.lock``)."""
        try:
            if channel.conn is not None:
                channel.conn.close()
        except OSError:
            pass
        if channel.process is not None and channel.process.is_alive():
            channel.process.terminate()
        if channel.process is not None:
            channel.process.join(timeout=5.0)
        self._start_child(channel)
        with self._state_lock:
            self._restarts += 1

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def make_scorer(self):
        """Pool-compatible scorer factory: returns a ``Batch -> scores``
        closure bound to the next channel (round-robin)."""
        with self._state_lock:
            channel = self._channels[self._next_channel % len(self._channels)]
            self._next_channel += 1

        def score(batch: Batch) -> np.ndarray:
            return self._score_on(channel, batch)

        return score

    def _score_on(self, channel: _Channel, batch: Batch) -> np.ndarray:
        frame = encode_batch(batch)
        with channel.lock:
            if self._closed:
                raise ProcessScorerError("scorer host is closed")
            if channel.process is None or not channel.process.is_alive():
                self._respawn(channel)
            try:
                channel.conn.send_bytes(frame)
                reply = channel.conn.recv_bytes()
            except (EOFError, OSError, BrokenPipeError) as error:
                self._respawn(channel)
                raise ProcessScorerError(
                    f"scorer process {channel.index} died mid-request "
                    f"({type(error).__name__}); respawned") from error
        kind, payload = decode_frame(reply)
        if kind == KIND_SCORES:
            return decode_scores(payload)
        if kind == KIND_ERROR:
            raise ProcessScorerError(bytes(payload).decode("utf-8"))
        raise ProcessScorerError(f"unexpected reply kind {kind}")

    # ------------------------------------------------------------------
    # Stats aggregation
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate child counters (best-effort, never blocks serving).

        Each child is polled over its channel; a child mid-score (lock
        held) or mid-respawn contributes its last known counters instead,
        so the aggregate lags rather than regresses.
        """
        totals = {"processes": len(self._channels),
                  "process_restarts": self.process_restarts,
                  "requests": 0, "rows": 0, "busy_seconds": 0.0}
        for channel in self._channels:
            counters = channel.last_counters
            if not self._closed and channel.lock.acquire(timeout=0.05):
                try:
                    if channel.process is not None \
                            and channel.process.is_alive():
                        channel.conn.send_bytes(encode_frame(KIND_STATS))
                        if channel.conn.poll(self._stats_timeout_s):
                            kind, payload = decode_frame(
                                channel.conn.recv_bytes())
                            if kind == KIND_STATS_REPLY:
                                counters = json.loads(bytes(payload))
                                channel.last_counters = counters
                except (EOFError, OSError, ProcessScorerError, ValueError):
                    pass
                finally:
                    channel.lock.release()
            totals["requests"] += counters.get("requests", 0)
            totals["rows"] += counters.get("rows", 0)
            totals["busy_seconds"] += counters.get("busy_seconds", 0.0)
        return totals

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every child down (idempotent)."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for channel in self._channels:
            with channel.lock:
                if channel.conn is None:
                    continue
                try:
                    channel.conn.send_bytes(encode_frame(KIND_SHUTDOWN))
                except (OSError, BrokenPipeError):
                    pass
        for channel in self._channels:
            with channel.lock:
                if channel.process is not None:
                    channel.process.join(timeout=5.0)
                    if channel.process.is_alive():
                        channel.process.terminate()
                        channel.process.join(timeout=5.0)
                if channel.conn is not None:
                    try:
                        channel.conn.close()
                    except OSError:
                        pass

    def __enter__(self) -> "ProcessScorerHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
