"""End-to-end ranking service: intent → model selection → scoring → top-k.

This is the serving-side composition of the paper's pipeline: the query is
classified into its sub/top category by the BiGRU classifier (§4.1), the
top category selects which registered ranking model handles the traffic
(per-category routing with a default fallback — the "category-dedicated
model extraction" direction of the paper's conclusions), candidates are
scored through that model's micro-batching :class:`ScorerPool`, and the
top-k items come back with scores and latency.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..data.dataset import Batch
from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from ..querycat import QueryCategoryClassifier
from .breaker import BreakerConfig, CircuitBreaker
from .cache import ResultCache, canonical_key
from .procscorer import ProcessScorerHost
from .registry import ModelRegistry
from .scorer import DeadlineExceeded, PoolOverloaded, ScorerPool, ScorerStats

__all__ = ["RankingService", "RankingResponse", "candidate_batch"]

# Numeric features (by FeatureSpec name) the model-free degraded prior
# prefers, in priority order: popularity/quality signals that rank
# sensibly without any learned weights.
_PRIOR_FEATURES = ("historical_ctr", "log_sales", "brand_popularity",
                   "relevance")

# Outcomes that say nothing about model health: backpressure, expired
# deadlines, and client-data errors must neither open nor close the
# breaker (see repro.serving.breaker).
_BREAKER_EXEMPT = (PoolOverloaded, DeadlineExceeded, KeyError, ValueError,
                   IndexError)


def candidate_batch(numeric: np.ndarray, sparse: dict[str, np.ndarray]) -> Batch:
    """Build a scoring :class:`Batch` from candidate features.

    Serving requests have no labels or session structure; they are filled
    with zeros (models never read them when scoring).
    """
    numeric = np.atleast_2d(np.asarray(numeric))
    n = numeric.shape[0]
    sparse = {name: np.asarray(ids) for name, ids in sparse.items()}
    return Batch(numeric=numeric, sparse=sparse,
                 labels=np.zeros(n), session_ids=np.zeros(n, dtype=np.int64))


@dataclass
class RankingResponse:
    """Result of one :meth:`RankingService.rank` call."""

    indices: np.ndarray                 # candidate rows, best first
    scores: np.ndarray                  # matching purchase probabilities
    model_name: str
    model_version: int
    predicted_sc: int | None = None     # query intent (when classified)
    predicted_tc: int | None = None
    latency_ms: float = 0.0
    degraded: bool = False              # model-free fallback (breaker open)
    cached: bool = False                # served from the result cache
    # Opaque handle on the result-cache entry this answer went into or
    # came from (``None`` when uncached or degraded); passing it back as
    # ``rank(None, known=key)`` answers the same request again.
    key: object = None
    extras: dict = field(default_factory=dict)


class _ResultKey(NamedTuple):
    """What :meth:`RankingService.rank` resolved a request to.

    Everything a cache lookup needs except the model version, which is
    read live on each replay: ``pin`` is the request's ``version`` (``None``
    follows the latest), so a reload moves an unpinned key to the new
    version's (empty) entry instead of serving the old one.
    """

    name: str
    pin: int | None
    sc: int | None
    tc: int | None
    digest: str

    def entry(self, version: int) -> tuple:
        """The result-cache key under model ``version``."""
        return (self.name, version, self.tc, self.digest)


class RankingService:
    """Compose querycat intent, model routing, and micro-batched scoring.

    Parameters
    ----------
    registry:
        Versioned model store; every routed name must be registered.
    default_model:
        Name used when no routing rule matches (default: the registry's
        sole name, an error if it is ambiguous at rank time).
    classifier / taxonomy:
        Optional BiGRU query classifier and category tree.  When both are
        given and a request carries query tokens, the predicted top
        category drives routing.
    routing:
        ``top-category id → model name`` rules for category-dedicated
        models.
    max_batch_rows / min_batch_rows:
        Micro-batching knobs handed to each model's :class:`ScorerPool`,
        whose adaptive cap is recomputed from the live backlog at collect
        time, with ``max_batch_rows`` as the upper and ``min_batch_rows``
        the lower clamp.
    num_workers:
        Scoring workers per model (default 1); more workers score a
        model's micro-batches concurrently, each on its own compiled plan
        (``model.make_scorer()``), overlapping collection with scoring.
    max_backlog_rows:
        Per-pool admission bound, in rows.  A submission that would push
        a pool's backlog past this raises
        :class:`~repro.serving.scorer.PoolOverloaded` (the gateway turns
        it into a 429); ``None`` (the default) keeps the unbounded
        library behavior.  The gateway always serves with a bound — see
        :func:`~repro.serving.server.serve_from_directory`.
    breaker_config:
        When set, each routed model name gets a
        :class:`~repro.serving.breaker.CircuitBreaker` with this config:
        repeated *model* failures open it and :meth:`rank` serves a
        model-free degraded fallback (``degraded: True`` on the
        response) instead of erroring, until half-open probes prove the
        model healthy again.  ``None`` (the default) keeps the library
        behavior — errors propagate; the gateway always serves with a
        breaker.
    spec:
        Optional :class:`~repro.data.schema.FeatureSpec` letting the
        degraded prior pick popularity-style numeric columns by name;
        without it the prior averages all numeric features.
    degraded_prior:
        Optional ``Batch -> (n,) scores`` override for the degraded
        fallback ordering (e.g. a business-rule prior).
    fault_injector:
        Optional :class:`~repro.serving.faults.FaultInjector` threaded
        into every scorer pool — the chaos-testing seam.
    result_cache:
        Optional :class:`~repro.serving.cache.ResultCache`.  When set,
        :meth:`rank` answers repeat requests from the cache — keyed by
        ``(model name, model version, querycat intent, canonical feature
        hash)``, so a hot reload invalidates structurally (new-version
        requests miss; old entries age out of the LRU) — and
        :meth:`classify_query` memoizes intent per token sequence.
        Degraded (breaker-open) answers are never cached, and a cache
        hit is bit-identical to the compute path for the same version
        (the stored array *is* the computed one).  ``None`` (the
        default) keeps the library uncached; the gateway serves with a
        cache unless ``--cache-entries 0`` — see
        :func:`~repro.serving.server.serve_from_directory`.
    scorer_processes / environment_dir:
        When ``scorer_processes`` > 0 **and** the routed registry entry
        was registered from a checkpoint (its metadata carries the
        checkpoint path), scoring crosses the process boundary: a
        :class:`~repro.serving.procscorer.ProcessScorerHost` spawns that
        many scorer processes which hydrate the model from disk with
        memory-mapped shared weights, and the pool's worker threads each
        proxy batches to one process over a binary-frame pipe.
        ``environment_dir`` is the checkpoint directory holding
        ``environment.json`` (required for the process path; without it,
        or for entries with no checkpoint on disk, scoring silently stays
        in-process).  ``process_start_method`` overrides the
        multiprocessing start method (default ``spawn`` — the serving
        parent is heavily threaded, so ``fork`` is reserved for tests).
    """

    def __init__(self, registry: ModelRegistry,
                 default_model: str | None = None,
                 classifier: QueryCategoryClassifier | None = None,
                 taxonomy: Taxonomy | None = None,
                 routing: dict[int, str] | None = None,
                 max_batch_rows: int = 256,
                 num_workers: int = 1, min_batch_rows: int = 8,
                 max_backlog_rows: int | None = None,
                 breaker_config: BreakerConfig | None = None,
                 spec: FeatureSpec | None = None,
                 degraded_prior=None,
                 fault_injector=None,
                 result_cache: ResultCache | None = None,
                 scorer_processes: int = 0,
                 environment_dir=None,
                 process_start_method: str | None = None):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if scorer_processes < 0:
            raise ValueError("scorer_processes must be >= 0")
        self.registry = registry
        self.default_model = default_model
        self.classifier = classifier
        self.taxonomy = taxonomy
        self.routing = dict(routing or {})
        self.spec = spec
        self.fault_injector = fault_injector
        self._max_batch_rows = max_batch_rows
        self._num_workers = num_workers
        self._min_batch_rows = min_batch_rows
        self._max_backlog_rows = max_backlog_rows
        self._breaker_config = breaker_config
        self._degraded_prior = degraded_prior
        self._cache = result_cache
        self._scorer_processes = int(scorer_processes)
        self._environment_dir = environment_dir
        self._process_start_method = process_start_method
        self._breakers: dict[str, CircuitBreaker] = {}
        self._degraded_responses = 0
        self._scorers: dict[tuple[str, int], ScorerPool] = {}
        self._proc_hosts: dict[tuple[str, int], ProcessScorerHost] = {}
        self._closed = False
        # Guards pool creation: two concurrent rank() calls for the same
        # model must share one ScorerPool — its workers own the compiled
        # plans, and duplicating pools would leak worker threads.  Also
        # guards breaker creation (same one-instance-per-name argument).
        self._scorers_lock = threading.Lock()

    @property
    def num_workers(self) -> int:
        """Scoring workers per model pool."""
        return self._num_workers

    # ------------------------------------------------------------------
    # Intent
    # ------------------------------------------------------------------
    def classify_query(self, tokens: np.ndarray,
                       lengths: np.ndarray | int | None = None
                       ) -> tuple[int | None, int | None]:
        """Predict (sub category, top category) for one query, or Nones.

        With a result cache configured, the (sc, tc) pair is memoized per
        token sequence — the classifier is loaded once at boot (it has no
        versioned reload path), so its answers never go stale; the TTL
        just bounds the memory.
        """
        if self.classifier is None:
            return None, None
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if lengths is None:
            lengths = np.full(tokens.shape[0], tokens.shape[1], dtype=np.int64)
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        cache_key = None
        if self._cache is not None:
            cache_key = ("classify",
                         canonical_key(tokens, {"lengths": lengths}))
            hit = self._cache.get(cache_key)
            if hit is not None:
                return hit
        sc = int(self.classifier.predict_sc(tokens, lengths)[0])
        tc = int(self.taxonomy.parents_of(np.asarray([sc]))[0]) \
            if self.taxonomy is not None else None
        if cache_key is not None:
            self._cache.put(cache_key, (sc, tc))
        return sc, tc

    # ------------------------------------------------------------------
    # Routing and scoring
    # ------------------------------------------------------------------
    def _select_model(self, tc: int | None, model: str | None) -> str:
        if model is not None:
            return model
        if tc is not None and tc in self.routing:
            return self.routing[tc]
        if self.default_model is not None:
            return self.default_model
        names = self.registry.names()
        if len(names) == 1:
            return names[0]
        raise ValueError("no default_model configured and routing is "
                         f"ambiguous between {names}")

    def _scorer_factory(self, model):
        """Per-worker score closures for ``model``.

        Models expose :meth:`~repro.models.base.RankingModel.make_scorer`
        (an independent compiled plan per call), and arbitrary scorable
        objects fall back to their bound ``score`` behind one shared
        lock, since nothing guarantees it is safe to call from several
        workers.
        """
        make_scorer = getattr(model, "make_scorer", None)
        if make_scorer is not None:
            return make_scorer
        lock = threading.Lock()

        def locked_score(batch: Batch) -> np.ndarray:
            with lock:
                return model.score(batch)

        return lambda: locked_score

    def _process_host_for(self, entry) -> ProcessScorerHost | None:
        """Build the multi-process backend for ``entry``, or ``None``.

        The process path needs a checkpoint on disk (children hydrate the
        model themselves) and the environment bundle's directory; entries
        registered in-memory keep the in-process factory.
        """
        if self._scorer_processes <= 0 or self._environment_dir is None:
            return None
        checkpoint = (entry.metadata or {}).get("checkpoint")
        if checkpoint is None:
            return None
        return ProcessScorerHost(
            checkpoint, self._environment_dir,
            processes=self._scorer_processes,
            version=entry.version,
            start_method=self._process_start_method)

    def _scorer_for(self, name: str, version: int | None) -> tuple[ScorerPool, int]:
        entry = self.registry.entry(name, version)
        stale: list[ScorerPool] = []
        stale_hosts: list[ProcessScorerHost] = []
        with self._scorers_lock:
            # A closed service must not resurrect pools: a late caller
            # (e.g. an in-flight gateway request during shutdown) would
            # otherwise build worker threads nothing ever stops.
            if self._closed:
                raise RuntimeError("RankingService is closed")
            scorer = self._scorers.get(entry.key)
            if scorer is None:
                host = self._process_host_for(entry)
                if host is not None:
                    # One pool worker thread per scorer process: each
                    # thread parks in recv_bytes (GIL released) while its
                    # child scores, so micro-batch collection overlaps
                    # cross-process scoring.
                    factory, num_workers = host.make_scorer, host.processes
                    self._proc_hosts[entry.key] = host
                else:
                    factory = self._scorer_factory(entry.model)
                    num_workers = self._num_workers
                scorer = ScorerPool(factory,
                                    num_workers=num_workers,
                                    max_batch_rows=self._max_batch_rows,
                                    name=f"{entry.name}-v{entry.version}",
                                    min_batch_rows=self._min_batch_rows,
                                    max_backlog_rows=self._max_backlog_rows,
                                    fault_injector=self.fault_injector)
                self._scorers[entry.key] = scorer
                # Hot swap: a newer version's scorer retires older ones for
                # the same name, else every swap leaks a worker thread and
                # keeps the superseded model's weights alive.  A caller
                # still pinning an old version just gets a fresh scorer on
                # its next request.
                for key in [k for k in self._scorers
                            if k[0] == name and k[1] < entry.version]:
                    stale.append(self._scorers.pop(key))
                    old_host = self._proc_hosts.pop(key, None)
                    if old_host is not None:
                        stale_hosts.append(old_host)
        for old in stale:
            old.close()                 # completes its pending requests first
        for old_host in stale_hosts:
            old_host.close()            # after the pool: no in-flight frames
        return scorer, entry.version

    def _pooled_score(self, name: str, version: int | None, candidates: Batch,
                      deadline: float | None = None) -> tuple[np.ndarray, int]:
        """Resolve the pool and score, riding out hot-swap retirement.

        A caller can lose the race with a hot swap: it resolves a pool,
        a concurrent request for a newer version retires and closes that
        pool, and the submit is refused.  Scoring is a pure function, so
        the fix is simply to re-resolve (the retired key is gone, so the
        lookup now yields a live pool) and try again.
        """
        while True:
            scorer, resolved_version = self._scorer_for(name, version)
            try:
                return scorer.score(candidates, deadline=deadline), \
                    resolved_version
            except RuntimeError:
                if not scorer.closed:
                    raise               # a model error, not the swap race

    def score(self, candidates: Batch, model: str | None = None,
              version: int | None = None,
              deadline: float | None = None) -> np.ndarray:
        """Micro-batched scores for ``candidates`` under a routed model."""
        name = self._select_model(None, model)
        return self._pooled_score(name, version, candidates,
                                  deadline=deadline)[0]

    # ------------------------------------------------------------------
    # Circuit breaker + degraded fallback
    # ------------------------------------------------------------------
    def _breaker_for(self, name: str) -> CircuitBreaker | None:
        if self._breaker_config is None:
            return None
        with self._scorers_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(self._breaker_config)
                self._breakers[name] = breaker
            return breaker

    def _degraded_scores(self, candidates: Batch) -> np.ndarray:
        """Model-free fallback ordering while a breaker is open.

        A degraded answer must cost nothing that can fail the way the
        model just did: no pool, no compiled plan, no weights.  The
        default prior averages popularity-style numeric columns (located
        by name when ``spec`` is known, every numeric column otherwise)
        and squashes through a sigmoid so the values stay score-like in
        (0, 1) — historical CTR, sales, and brand popularity order
        candidates far better than chance and infinitely better than a
        500.  ``degraded_prior`` overrides the whole computation.
        """
        if self._degraded_prior is not None:
            return np.asarray(self._degraded_prior(candidates),
                              dtype=np.float64)
        numeric = np.atleast_2d(np.asarray(candidates.numeric,
                                           dtype=np.float64))
        if numeric.size == 0:
            return np.full(len(candidates), 0.5)
        columns = numeric
        if self.spec is not None:
            names = list(self.spec.numeric_names)
            wanted = [names.index(n) for n in _PRIOR_FEATURES if n in names]
            if wanted:
                columns = numeric[:, wanted]
        prior = columns.mean(axis=1)
        return 1.0 / (1.0 + np.exp(-prior))

    def _latest_known_version(self, name: str) -> int:
        try:
            return self.registry.latest_version(name)
        except KeyError:
            return 0

    def breaker_stats(self) -> dict[str, dict]:
        """Per-model breaker snapshots (empty without a breaker config)."""
        with self._scorers_lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot()
                for name, breaker in sorted(breakers.items())}

    @property
    def degraded_responses(self) -> int:
        """Rank calls served by the degraded fallback since start."""
        return self._degraded_responses

    def rank(self, candidates: Batch | None,
             query_tokens: np.ndarray | None = None,
             query_lengths: np.ndarray | int | None = None, top_k: int = 10,
             model: str | None = None, version: int | None = None,
             deadline: float | None = None,
             known=None) -> RankingResponse | None:
        """Rank ``candidates`` for a query; returns the top-k best first.

        ``deadline`` (absolute :func:`time.monotonic`) propagates into the
        scorer pool: an expired request raises
        :class:`~repro.serving.scorer.DeadlineExceeded` instead of
        burning model time.  With a breaker configured, model failures
        are recorded against the routed model's breaker, and while it is
        open the response comes from the degraded prior with
        ``degraded=True`` instead of erroring.

        With a result cache configured, a repeat of ``(routed model,
        live version, intent, candidate features)`` answers from the
        cache (``cached=True``) without touching the scorer pool — the
        cached value is the previously computed score array, so hits are
        bit-identical to recomputation under the same model version.
        Entries are stored **pre-top-k**, so requests differing only in
        ``top_k`` share one entry; degraded fallback answers are never
        stored (a healthy answer must not be shadowed by an outage's
        prior).  Every answer that went into or came from the cache
        carries its :attr:`RankingResponse.key`.

        ``rank(None, known=key)`` replays such a key without candidates,
        query or classifier: it reads the live version for the key's pin
        and makes one cache lookup.  It returns ``None`` when that misses
        (a reload, eviction or expiry), and the caller ranks the full
        request instead.
        """
        started = time.monotonic()
        if known is not None:
            return self._replay(known, top_k, started)
        sc = tc = None
        if query_tokens is not None:
            sc, tc = self.classify_query(query_tokens, query_lengths)
        name = self._select_model(tc, model)
        key = None
        if self._cache is not None:
            feature_digest = canonical_key(candidates.numeric,
                                           candidates.sparse)
            key = _ResultKey(name, version, sc, tc, feature_digest)
            try:
                live_version = self.registry.entry(name, version).version
            except KeyError:
                live_version = None     # scoring will raise the same error
            if live_version is not None:
                scores = self._cache.get(key.entry(live_version))
                if scores is not None:
                    return self._top_k_response(
                        scores, top_k, name, live_version, sc, tc, started,
                        cached=True, key=key)
        degraded = False
        breaker = self._breaker_for(name)
        if breaker is not None and not breaker.allow():
            scores = self._degraded_scores(candidates)
            resolved_version = self._latest_known_version(name)
            degraded = True
            with self._scorers_lock:
                self._degraded_responses += 1
        else:
            try:
                scores, resolved_version = self._pooled_score(
                    name, version, candidates, deadline=deadline)
            except BaseException as error:
                if breaker is not None:
                    if isinstance(error, _BREAKER_EXEMPT):
                        breaker.abandon()   # no verdict on model health
                    else:
                        breaker.record_failure()
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
                if self._cache is not None:
                    # Store under the version that actually scored (which
                    # can differ from the looked-up one if a reload won a
                    # race in between) — an entry is only ever keyed by
                    # the version that produced it, so stale hits are
                    # structurally impossible.  Read-only copy: the hit
                    # path hands this exact array back out.
                    stored = np.array(scores, copy=True)
                    stored.setflags(write=False)
                    self._cache.put(key.entry(resolved_version), stored)
        return self._top_k_response(scores, top_k, name, resolved_version,
                                    sc, tc, started, degraded=degraded,
                                    key=None if degraded else key)

    def holds(self, known) -> bool:
        """Whether ``rank(None, known=known)`` would answer right now.

        The same live-version read and result-cache lookup as the replay,
        but through :meth:`ResultCache.peek`: no counter or LRU order
        moves, so the call that answers the request does all the
        counting.
        """
        live_version = self._live_version(known)
        return live_version is not None \
            and self._cache.peek(known.entry(live_version)) is not None

    def _live_version(self, key: _ResultKey) -> int | None:
        """The registry version ``key``'s pin names now, if any."""
        try:
            return self.registry.entry(key.name, key.pin).version
        except KeyError:
            return None

    def _replay(self, key: _ResultKey, top_k: int,
                started: float) -> RankingResponse | None:
        """The cached answer for a key :meth:`rank` resolved, or ``None``."""
        live_version = self._live_version(key)
        if live_version is None:
            return None
        scores = self._cache.get(key.entry(live_version))
        if scores is None:
            return None
        return self._top_k_response(scores, top_k, key.name, live_version,
                                    key.sc, key.tc, started, cached=True,
                                    key=key)

    def _top_k_response(self, scores: np.ndarray, top_k: int, name: str,
                        version: int, sc: int | None, tc: int | None,
                        started: float, degraded: bool = False,
                        cached: bool = False,
                        key: _ResultKey | None = None) -> RankingResponse:
        top_k = min(top_k, len(scores))
        order = np.argsort(-scores, kind="stable")[:top_k]
        return RankingResponse(
            indices=order,
            scores=scores[order],
            model_name=name,
            model_version=version,
            predicted_sc=sc,
            predicted_tc=tc,
            latency_ms=(time.monotonic() - started) * 1000.0,
            degraded=degraded,
            cached=cached,
            key=key,
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, ScorerStats]:
        """Per-model serving statistics, keyed by ``name:vVERSION``.

        For models scored by worker processes, the host's aggregated
        child counters are folded into the pool's stats (``processes``,
        ``process_restarts``, ``process_busy_seconds``), so ``/stats``
        reports where the work actually ran.
        """
        with self._scorers_lock:
            scorers = dict(self._scorers)
            hosts = dict(self._proc_hosts)
        result = {}
        for (name, version), scorer in scorers.items():
            stats = scorer.stats()
            host = hosts.get((name, version))
            if host is not None:
                aggregate = host.stats()
                stats.processes = aggregate["processes"]
                stats.process_restarts = aggregate["process_restarts"]
                stats.process_busy_seconds = aggregate["busy_seconds"]
            result[f"{name}:v{version}"] = stats
        return result

    @property
    def result_cache(self) -> ResultCache | None:
        """The configured result cache, or ``None`` when uncached."""
        return self._cache

    def cache_stats(self) -> dict:
        """Result-cache counters for ``/stats`` (zeros when uncached)."""
        if self._cache is None:
            return {"enabled": False, "entries": 0, "max_entries": 0,
                    "ttl_s": 0.0, "hits": 0, "misses": 0, "evictions": 0,
                    "expired": 0, "hit_rate": 0.0}
        return {"enabled": True, **self._cache.snapshot()}

    def overload_status(self) -> float | None:
        """Pre-parse admission check: retry-after seconds, or ``None``.

        Returns the worst live pool's ``retry_after_s`` when any pool's
        backlog has reached its admission bound, else ``None`` (admit).
        This is the gateway's cheap gate — one lock-free int read per
        pool — run *before* any JSON parsing cost is spent on a request
        that would only be refused at submit time anyway.  A request the
        check admits can still lose the race to a concurrent burst; the
        pool's own bound in :meth:`ScorerPool.submit` is the backstop.
        """
        with self._scorers_lock:
            scorers = list(self._scorers.values())
        worst = None
        for scorer in scorers:
            bound = scorer.max_backlog_rows
            if bound is not None and scorer.backlog_rows >= bound:
                retry_after = scorer.retry_after_s()
                if worst is None or retry_after > worst:
                    worst = retry_after
        return worst

    def close(self) -> None:
        """Stop every scorer worker (pending requests complete first).

        Idempotent; after close every scoring call raises rather than
        silently rebuilding a pool.
        """
        with self._scorers_lock:
            self._closed = True
            scorers, self._scorers = dict(self._scorers), {}
            hosts, self._proc_hosts = dict(self._proc_hosts), {}
        for scorer in scorers.values():
            scorer.close()
        # Hosts after pools: the pools' worker threads are the only frame
        # senders, and they are joined by now.
        for host in hosts.values():
            host.close()

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
