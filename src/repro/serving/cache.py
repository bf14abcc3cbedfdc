"""Version-keyed result cache for the serving hot path.

Production ranking traffic is zipfian — a small set of hot (query,
candidate-set) pairs dominates — yet scoring is a pure function of
``(model name, model version, candidate features)``.  This module caches
those scores:

* :func:`canonical_key` turns a request's feature payload into a stable
  digest: dict-order independent (sparse features are hashed in sorted
  name order), dtype-stable (ids canonicalize to int64, floats to
  float64), and NaN/negative-zero-stable (every NaN collapses to one bit
  pattern, ``-0.0`` to ``+0.0``) — a naive ``str(payload)`` key would
  silently fragment the cache across clients that serialize the same
  candidates differently.
* :class:`ResultCache` is a thread-safe, TTL'd, capacity-bounded LRU.
  The **model version lives inside the key** (see
  :meth:`RankingService.rank`), so a hot reload invalidates structurally:
  new-version requests simply miss, and the old version's entries age out
  of the LRU — no flush coordination, no stale hits.

The cache stores full score arrays (pre-top-k), so requests that differ
only in ``top_k`` share one entry; the hit path re-runs the (cheap)
argsort.  Stored arrays are defensive read-only copies — a hit returns
bit-identical scores to the compute path for the same model version.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

__all__ = ["ResultCache", "canonical_key"]


def _canonical_bytes(array: np.ndarray) -> np.ndarray:
    """Canonicalize one feature array for hashing (see module docs)."""
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.floating) \
            or np.issubdtype(array.dtype, np.complexfloating):
        # float64 + add-zero: one dtype for every float feed, and IEEE
        # ``-0.0 + 0.0 == +0.0`` collapses signed zeros.  NaNs compare
        # equal for caching purposes, so every payload collapses to the
        # canonical quiet NaN before the bytes are hashed.
        array = np.asarray(array, dtype=np.float64) + 0.0
        nans = np.isnan(array)
        if nans.any():
            array[nans] = np.nan
    elif array.dtype == np.bool_:
        array = array.astype(np.int64)
    else:
        array = np.asarray(array, dtype=np.int64)
    return np.ascontiguousarray(array)


def canonical_key(numeric, sparse: dict | None = None, extra=()) -> str:
    """Stable digest of a candidate feature payload.

    ``numeric`` is any array (float features, or e.g. query token ids);
    ``sparse`` maps feature name -> id array and is hashed in sorted name
    order, so two dicts with different insertion order produce the same
    key.  ``extra`` is a tuple of hashable primitives (strings/ints)
    folded into the digest — callers use it to scope a key (e.g. an
    endpoint tag).  Shapes are part of the digest, so ``(2, 3)`` and
    ``(3, 2)`` payloads with identical bytes do not collide.
    """
    digest = hashlib.blake2b(digest_size=16)

    def feed(label: str, array) -> None:
        canonical = _canonical_bytes(array)
        digest.update(label.encode())
        digest.update(repr(canonical.shape).encode())
        digest.update(b"\x00")
        digest.update(canonical.tobytes())

    feed("numeric", numeric)
    for name in sorted(sparse or {}):
        feed(f"sparse:{name}", sparse[name])
    for item in extra:
        digest.update(b"\x01")
        digest.update(repr(item).encode())
    return digest.hexdigest()


class ResultCache:
    """Thread-safe, TTL'd, capacity-bounded LRU for serving results.

    Parameters
    ----------
    max_entries:
        Capacity bound; inserting past it evicts the least recently used
        entry (``evictions`` counter).  Must be positive — a disabled
        cache is represented by *no* cache (see
        :class:`~repro.serving.service.RankingService`), not a zero-size
        one.
    ttl_s:
        Seconds an entry stays servable.  An expired entry is dropped on
        lookup (``expired`` counter) and counts as a miss.  ``None``
        disables expiry (capacity is then the only bound).
    clock:
        Monotonic time source; injectable so TTL behavior is testable
        without sleeping.

    Keys are ordinary hashables — the service keys rank results by
    ``(model name, model version, querycat intent, canonical feature
    hash)``.  Values are stored as-is; callers storing arrays should pass
    read-only copies (the service does).
    """

    def __init__(self, max_entries: int = 4096, ttl_s: float | None = 30.0,
                 clock=time.monotonic):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None for no expiry)")
        self.max_entries = int(max_entries)
        self.ttl_s = ttl_s
        self.clock = clock
        self._lock = threading.Lock()
        # key -> (expires_at | None, value); dict order is the LRU order
        # (pop + reinsert on every touch, same idiom as BufferPool).
        self._entries: dict[object, tuple[float | None, object]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expired = 0

    def get(self, key):
        """The cached value, or ``None`` on a miss (or expired entry)."""
        now = self.clock()
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                self._misses += 1
                return None
            expires_at, value = entry
            if expires_at is not None and now >= expires_at:
                self._expired += 1
                self._misses += 1
                return None
            self._entries[key] = entry      # reinsert: most recently used
            self._hits += 1
            return value

    def peek(self, key):
        """The live value, or ``None``, like :meth:`get` without its side
        effects: no counter moves, the LRU order stays, and an expired
        entry stays in place for the next :meth:`get` to count."""
        now = self.clock()
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or (entry[0] is not None and now >= entry[0]):
            return None
        return entry[1]

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries past capacity."""
        expires_at = None if self.ttl_s is None else self.clock() + self.ttl_s
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (expires_at, value)
            while len(self._entries) > self.max_entries:
                self._entries.pop(next(iter(self._entries)))
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Counters for ``/stats`` (and the Prometheus families)."""
        with self._lock:
            hits, misses = self._hits, self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_s": self.ttl_s,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "expired": self._expired,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
