"""Transport-agnostic JSON dispatch for the serving gateway.

The dispatch layer of the three-layer gateway split: given a method, a
path, and a raw body, :class:`GatewayDispatcher` routes to an endpoint
handler and returns ``(status, payload, extra headers)``.  It never
touches a socket or an HTTP byte; the transport feeds it parsed requests.

Every endpoint handler returns a JSON-safe dict or raises
:class:`ApiError` (4xx for client mistakes); anything else escaping a
handler becomes a structured 500 — a bad request must never take down a
scorer worker or the gateway.  A model that scores NaN or ±inf is such a
500 too (:class:`~repro.serving.scorer.NonFiniteScores`), never a 200.

The dispatcher is also the gateway's **self-protection gate**: scoring
endpoints are checked against the scorer pools' admission bounds before
a byte of JSON is parsed, and over-budget requests are shed with a
structured 429 carrying ``Retry-After`` derived from the pools' live
drain rate.  Shedding at the door keeps the refusal cost to one int
read — an overloaded gateway must get *cheaper* per excess request, not
more expensive, or shedding itself becomes the overload.

With a result cache configured, a repeated ``/rank`` body is answered
from its bytes: a memo maps the body's digest to the result key
:meth:`RankingService.rank` resolved for it, and a repeat replays that
key with no JSON decode, validation, classification or feature hashing.
Such a replay and a health check never wait on a scorer, so
:meth:`GatewayDispatcher.answers_inline` lets the transport answer them
on its event loop instead of a dispatch thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from .breaker import CLOSED, HALF_OPEN, OPEN
from .cache import ResultCache
from .metrics import (PROMETHEUS_CONTENT_TYPE, LatencyHistogram,
                      render_enum_metric, render_histogram, render_metric)
from .protocol import parse_deadline_ms
from .scorer import DeadlineExceeded, PoolOverloaded
from .service import RankingResponse, RankingService, candidate_batch

__all__ = ["ApiError", "GatewayDispatcher"]


class ApiError(Exception):
    """A client-visible error: HTTP status + machine-readable type."""

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(message)
        self.status = status
        self.kind = kind


def _require(payload: dict, key: str):
    if key not in payload:
        raise ApiError(400, "bad_request", f"missing required field {key!r}")
    return payload[key]


def _as_array(value, dtype, field: str, ndim: int | None = None) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as error:
        raise ApiError(400, "bad_request",
                       f"field {field!r} is not a valid array: {error}") from None
    if ndim is not None and array.ndim != ndim:
        raise ApiError(400, "bad_request",
                       f"field {field!r} must be {ndim}-dimensional, "
                       f"got shape {array.shape}")
    return array


def _integer(value, field: str, low: int = 1, high: int | None = None) -> int:
    """A JSON integer in ``[low, high]``; booleans and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < low or (high is not None and value > high):
        allowed = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise ApiError(400, "bad_request",
                       f"field {field!r} must be an integer {allowed}, "
                       f"got {value!r}")
    return value


def _query(payload: dict, tokens_field: str, lengths_field: str
           ) -> tuple[np.ndarray | None, int | None]:
    """One query's token ids and length, or ``(None, None)`` without tokens.

    The tokens must be one non-empty id list and the length (an integer
    or a one-element list) must lie in ``[1, len(tokens)]``: the scan
    reads exactly that prefix, so anything else would be classified as a
    query the client never sent.
    """
    raw = payload.get(tokens_field)
    if raw is None:
        return None, None
    tokens = _as_array(raw, np.int64, tokens_field, ndim=1)
    if tokens.shape[0] == 0:
        raise ApiError(400, "bad_request",
                       f"field {tokens_field!r} is an empty list; a query "
                       f"needs at least one token")
    length = payload.get(lengths_field)
    if isinstance(length, list) and len(length) == 1:
        length = length[0]
    if length is not None:
        length = _integer(length, lengths_field, 1, tokens.shape[0])
    return tokens, length


def _route_path(target: str) -> str:
    """The route a request target names: no query string or trailing slash."""
    return target.split("?", 1)[0].rstrip("/") or "/"


def _body_digest(body: bytes) -> bytes:
    """The memo's key for a ``/rank`` body: blake2b-16 of its bytes."""
    return hashlib.blake2b(body, digest_size=16).digest()


def _rank_payload(response: RankingResponse) -> dict:
    return {
        "indices": response.indices,
        "scores": response.scores,
        "model_name": response.model_name,
        "model_version": response.model_version,
        "predicted_sc": response.predicted_sc,
        "predicted_tc": response.predicted_tc,
        "latency_ms": response.latency_ms,
        "degraded": response.degraded,
        "cached": response.cached,
    }


class GatewayDispatcher:
    """Route requests to endpoint handlers; own the request/error counters.

    Parameters
    ----------
    service:
        The :class:`RankingService` behind every scoring endpoint.
    spec / taxonomy / checkpoint_dir:
        When all are set, ``POST /reload`` re-scans ``checkpoint_dir``
        through :meth:`ModelRegistry.reload_from_directory`; ``spec``
        alone additionally enables request validation and the
        ``GET /models`` schema block.
    connection_stats:
        Zero-argument callable returning the transport's connection
        counter snapshot (see
        :class:`~repro.serving.transport.GatewayCounters`), surfaced
        under ``GET /stats``.
    """

    # Route table: (method, path) -> handler method name.
    ROUTES = {
        ("POST", "/rank"): "handle_rank",
        ("POST", "/classify"): "handle_classify",
        ("GET", "/healthz"): "handle_healthz",
        ("GET", "/stats"): "handle_stats",
        ("GET", "/metrics"): "handle_metrics",
        ("GET", "/models"): "handle_models",
        ("POST", "/reload"): "handle_reload",
        ("POST", "/faults"): "handle_faults",
    }

    # Scoring endpoints subject to admission control.  Operational
    # endpoints (/healthz, /stats, /metrics, ...) are never shed: an
    # overloaded gateway that also goes dark to its monitoring is
    # indistinguishable from a dead one.
    SHEDDABLE = {("POST", "/rank"), ("POST", "/classify")}

    def __init__(self, service: RankingService,
                 spec: FeatureSpec | None = None,
                 taxonomy: Taxonomy | None = None,
                 checkpoint_dir: str | Path | None = None,
                 connection_stats=None):
        self.service = service
        self.spec = spec
        self.taxonomy = taxonomy
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._connection_stats = connection_stats
        self._started_at = time.monotonic()
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._shed_requests = 0
        self._deadline_exceeded = 0
        # Per-endpoint latency histograms, known routes only — recording
        # arbitrary 404 paths would hand any client an unbounded-label
        # cardinality attack on the metrics endpoint.
        self._histograms = {path: LatencyHistogram()
                            for _, path in self.ROUTES}
        # /rank body digest -> (result key, top_k), written only for
        # answers the result cache holds and bounded exactly like it.
        cache = service.result_cache
        self._memo = (ResultCache(cache.max_entries, cache.ttl_s,
                                  clock=cache.clock)
                      if cache is not None else None)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def answers_inline(self, method: str, target: str, body: bytes) -> bool:
        """Whether a request can be answered without waiting on a scorer.

        True for ``GET /healthz``, and for a ``/rank`` body whose memo
        entry would replay right now (:meth:`RankingService.holds`).  The
        check moves no counter and no LRU order, so a request it turns
        away is counted once, by the call that answers it.  ``/stats``
        and ``/metrics`` are not inline: a scorer-process host's stats
        can wait on a busy child.
        """
        path = _route_path(target)
        if method == "GET":
            return path == "/healthz"
        if self._memo is None or method != "POST" or path != "/rank":
            return False
        memoized = self._memo.peek(_body_digest(body))
        return memoized is not None and self.service.holds(memoized[0])

    def dispatch(self, method: str, path: str, body: bytes,
                 headers: dict | None = None,
                 received_at: float | None = None,
                 inline: bool = False) -> tuple[int, object, dict] | None:
        """Route one request: ``(status, payload, extra headers)``.

        ``payload`` is a JSON-safe dict for every endpoint except
        ``/metrics`` (a text body); the extra headers carry per-response
        additions like ``Retry-After`` on a shed request.  Transport
        layers call this with the body already drained from the stream,
        so a 4xx can never desync keep-alive framing.

        ``headers`` (lowercased names) and ``received_at`` (the
        transport's :func:`time.monotonic` arrival stamp) are optional
        for back-compat with direct callers; together they carry the
        request's ``X-Deadline-Ms`` budget into dispatch, anchored at
        arrival so gateway queueing counts against it.

        ``inline`` is the event loop's call for a request
        :meth:`answers_inline` accepted.  If the memo entry went stale in
        between (a concurrent eviction, expiry or reload), the answer is
        ``None``, with nothing counted or observed, and the caller hands
        the request to a thread that may wait on a scorer.
        """
        path = _route_path(path)
        started = time.monotonic()
        deadline = None
        if headers:
            budget_ms = parse_deadline_ms(headers)
            if budget_ms is not None:
                anchor = received_at if received_at is not None else started
                deadline = anchor + budget_ms / 1000.0
        answer = self._route(method, path, body, deadline, inline)
        histogram = self._histograms.get(path)
        if answer is not None and histogram is not None \
                and (method, path) in self.ROUTES:
            histogram.observe(time.monotonic() - started)
        return answer

    def _route(self, method: str, path: str, body: bytes,
               deadline: float | None = None, inline: bool = False
               ) -> tuple[int, object, dict] | None:
        try:
            handler_name = self.ROUTES.get((method, path))
            if handler_name is None:
                if any(route_path == path for _, route_path in self.ROUTES):
                    raise ApiError(405, "method_not_allowed",
                                   f"{method} not allowed on {path}")
                raise ApiError(404, "not_found", f"unknown endpoint {path}")
            if (method, path) in self.SHEDDABLE:
                if deadline is not None and time.monotonic() >= deadline:
                    # Already expired on arrival (or while queued in the
                    # transport): refuse pre-parse, same cheapness
                    # argument as the overload gate — the client has
                    # given up, so every further cycle is pure waste.
                    return self._deadline_expired()
                retry_after = self.service.overload_status()
                if retry_after is not None:
                    # Shed before parsing: the whole point of the gate is
                    # that a refused request costs an int read, not a
                    # JSON parse of a payload nobody will score.
                    return self._shed(retry_after)
            digest = result = None
            if handler_name == "handle_rank" and self._memo is not None:
                digest = _body_digest(body)
                result = self._replay(digest)
            if result is None:
                if inline and handler_name != "handle_healthz":
                    # Only a replay or a health check never waits on a
                    # scorer; the memo entry went stale since the check.
                    return None
                payload = self._parse_json(body) if method == "POST" else {}
                if handler_name == "handle_rank":
                    # The one handler deadlines propagate *into*: its
                    # scoring queue is where a request can expire
                    # post-admission.
                    result = self.handle_rank(payload, deadline=deadline,
                                              digest=digest)
                else:
                    result = getattr(self, handler_name)(payload)
            headers = {}
            if isinstance(result, tuple):
                result, headers = result
            self._count(error=False)
            return 200, result, headers
        except PoolOverloaded as error:
            # Admitted at the gate but lost the race to a concurrent
            # burst: the pool's own bound refused the submit.
            return self._shed(error.retry_after_s)
        except DeadlineExceeded:
            # Expired inside the scoring queue: a collector dropped it.
            return self._deadline_expired()
        except ApiError as error:
            self._count(error=True)
            return error.status, {"error": {"type": error.kind,
                                            "message": str(error)}}, {}
        except Exception as error:      # never kill the serving thread
            self._count(error=True)
            return 500, {"error": {
                "type": "internal",
                "message": f"{type(error).__name__}: {error}"}}, {}

    def _deadline_expired(self) -> tuple[int, dict, dict]:
        """Structured 504: the request's deadline passed before scoring."""
        with self._counter_lock:
            self._requests += 1
            self._errors += 1
            self._deadline_exceeded += 1
        return 504, {"error": {
            "type": "deadline_exceeded",
            "message": "request deadline passed before it could be scored",
        }}, {}

    def _shed(self, retry_after_s: float) -> tuple[int, dict, dict]:
        """Structured 429: the scoring backlog is at its admission bound."""
        with self._counter_lock:
            self._requests += 1
            self._errors += 1
            self._shed_requests += 1
        retry_after = max(1, math.ceil(retry_after_s))
        return 429, {"error": {
            "type": "overloaded",
            "message": f"scoring backlog is at its admission bound; "
                       f"retry in ~{retry_after}s",
        }}, {"Retry-After": str(retry_after)}

    def _replay(self, digest: bytes) -> dict | None:
        """The memoized ``/rank`` answer for a body digest, or ``None``.

        ``None`` also when the result-cache entry behind the memo is gone
        (a reload, eviction or expiry): the full path then answers and
        refreshes the memo.
        """
        memoized = self._memo.get(digest)
        if memoized is None:
            return None
        known, top_k = memoized
        response = self.service.rank(None, top_k=top_k, known=known)
        return None if response is None else _rank_payload(response)

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise ApiError(400, "bad_json", f"request body is not JSON: {error}") \
                from None
        if not isinstance(payload, dict):
            raise ApiError(400, "bad_json", "request body must be a JSON object")
        return payload

    def _count(self, error: bool) -> None:
        with self._counter_lock:
            self._requests += 1
            if error:
                self._errors += 1

    def record_protocol_error(self) -> None:
        """Count a transport-level framing violation (413/431/...) that
        never reached :meth:`dispatch` — it is still a served error."""
        self._count(error=True)

    def _validate_candidates(self, batch) -> None:
        """Reject schema-invalid candidates before they reach a scorer.

        Micro-batching co-batches concurrent requests: one request with a
        missing feature or out-of-range id would fail the merged batch and
        400 every innocent request coalesced with it.  When the gateway
        knows the schema (``spec``), bad requests are turned away at the
        door instead.  A numeric block that is not one row of numbers per
        candidate, and non-finite numeric features, are refused whether or
        not the schema is known: the first fails every request it is
        co-batched with, the second can only score as NaN, and NaN is not
        JSON.
        """
        if batch.numeric.ndim != 2:
            raise ApiError(400, "bad_request",
                           f"candidates.numeric must be a list of rows of "
                           f"numbers, got shape {batch.numeric.shape}")
        if not np.isfinite(batch.numeric).all():
            raise ApiError(400, "bad_request",
                           "candidates.numeric must be finite "
                           "(no NaN or Infinity)")
        if self.spec is None:
            return
        expected = set(self.spec.sparse_names)
        provided = set(batch.sparse)
        if provided != expected:
            raise ApiError(400, "bad_request",
                           f"candidates.sparse must provide exactly "
                           f"{sorted(expected)}; got {sorted(provided)}")
        if batch.numeric.shape[1] != self.spec.num_numeric:
            raise ApiError(400, "bad_request",
                           f"candidates.numeric must have "
                           f"{self.spec.num_numeric} columns, "
                           f"got {batch.numeric.shape[1]}")
        for name, ids in batch.sparse.items():
            cardinality = self.spec.cardinality(name)
            if ids.size and (ids.min() < 0 or ids.max() >= cardinality):
                raise ApiError(400, "bad_request",
                               f"candidates.sparse.{name} ids must be in "
                               f"[0, {cardinality})")

    # ------------------------------------------------------------------
    # Endpoint handlers (return JSON-safe dicts; raise ApiError for 4xx)
    # ------------------------------------------------------------------
    def handle_rank(self, payload: dict, deadline: float | None = None,
                    digest: bytes | None = None) -> dict:
        candidates = _require(payload, "candidates")
        if not isinstance(candidates, dict):
            raise ApiError(400, "bad_request",
                           "'candidates' must be an object with "
                           "'numeric' and 'sparse'")
        numeric = _as_array(_require(candidates, "numeric"), np.float64,
                            "candidates.numeric")
        if numeric.ndim and numeric.shape[0] == 0:
            # Checked before candidate_batch: atleast_2d would read [] as
            # one candidate row of zero columns.
            raise ApiError(400, "bad_request",
                           "candidates.numeric is an empty list; /rank needs "
                           "at least one candidate row")
        sparse_raw = candidates.get("sparse", {})
        if not isinstance(sparse_raw, dict):
            raise ApiError(400, "bad_request", "'candidates.sparse' must map "
                           "feature name -> id list")
        sparse = {name: _as_array(ids, np.int64, f"candidates.sparse.{name}",
                                  ndim=1)
                  for name, ids in sparse_raw.items()}
        batch = candidate_batch(numeric, sparse)
        if any(ids.shape[0] != len(batch) for ids in sparse.values()):
            raise ApiError(400, "bad_request",
                           "sparse feature lengths must match the number of "
                           f"candidate rows ({len(batch)})")
        self._validate_candidates(batch)
        query_tokens, query_lengths = _query(payload, "query_tokens",
                                             "query_lengths")
        top_k = _integer(payload.get("top_k", 10), "top_k")
        model = payload.get("model")
        version = payload.get("version")
        if version is not None:
            version = _integer(version, "version")
        if model is not None:
            # Resolve explicitly named models up front so "unknown model"
            # is a clean 404; KeyErrors raised *during* scoring (e.g. a
            # missing sparse feature) are client data errors, not routing.
            try:
                self.service.registry.entry(model, version)
            except KeyError as error:
                raise ApiError(404, "unknown_model", str(error)) from None
        try:
            response = self.service.rank(
                batch, query_tokens=query_tokens, query_lengths=query_lengths,
                top_k=top_k, model=model, version=version, deadline=deadline)
        except (KeyError, ValueError, IndexError) as error:
            raise ApiError(400, "bad_request", str(error)) from None
        if digest is not None and response.key is not None:
            self._memo.put(digest, (response.key, top_k))
        return _rank_payload(response)

    def handle_classify(self, payload: dict) -> dict:
        if self.service.classifier is None:
            raise ApiError(400, "no_classifier",
                           "this gateway serves no query classifier")
        tokens, lengths = _query(payload, "tokens", "lengths")
        if tokens is None:
            raise ApiError(400, "bad_request",
                           "missing required field 'tokens'")
        try:
            sc, tc = self.service.classify_query(tokens, lengths)
        except (KeyError, ValueError, IndexError) as error:
            raise ApiError(400, "bad_request", str(error)) from None
        result = {"sc": sc, "tc": tc}
        if payload.get("probs"):
            token_matrix = tokens[None, :]
            length_vec = np.asarray([lengths if lengths is not None
                                     else tokens.shape[0]], dtype=np.int64)
            result["probs"] = self.service.classifier.predict_proba(
                token_matrix, length_vec)[0]
        return result

    def handle_healthz(self, payload: dict) -> dict:
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_at,
            "models": self.service.registry.names(),
            "workers": self.service.num_workers,
            "requests": self._requests,
            "errors": self._errors,
        }

    def handle_stats(self, payload: dict) -> dict:
        scorers = {}
        for key, stats in self.service.stats().items():
            entry = asdict(stats)
            entry["mean_batch_rows"] = stats.mean_batch_rows
            entry["throughput_rows_per_s"] = stats.throughput_rows_per_s
            scorers[key] = entry
        connections = (self._connection_stats() if self._connection_stats
                       else {"open": 0, "accepted": 0, "requests": 0,
                             "keepalive_reuses": 0, "in_flight": 0})
        endpoints = {}
        for path, histogram in sorted(self._histograms.items()):
            cumulative, total_sum, total = histogram.snapshot()
            endpoints[path] = {
                "count": total,
                "sum_ms": total_sum * 1000.0,
                "p50_ms": histogram.quantile(0.50) * 1000.0,
                "p95_ms": histogram.quantile(0.95) * 1000.0,
                "p99_ms": histogram.quantile(0.99) * 1000.0,
                # Cumulative counts per log-spaced bucket bound (ms), the
                # same series /metrics exposes in Prometheus text.
                "buckets": [[bound * 1000.0, count] for bound, count
                            in zip(histogram.bounds, cumulative)],
            }
        result = {
            "server": {
                "requests": self._requests,
                "errors": self._errors,
                "shed_requests": self._shed_requests,
                "deadline_exceeded": self._deadline_exceeded,
                "degraded_responses": self.service.degraded_responses,
                "uptime_s": time.monotonic() - self._started_at,
                "connections": connections,
            },
            "scorers": scorers,
            "endpoints": endpoints,
            "breakers": self.service.breaker_stats(),
            "quarantined": self.service.registry.quarantined(),
            "cache": self.service.cache_stats(),
        }
        if self.service.fault_injector is not None:
            result["faults"] = self.service.fault_injector.snapshot()
        return result

    def handle_metrics(self, payload: dict) -> tuple[str, dict]:
        """Prometheus text exposition: the same counters ``/stats`` serves.

        Returns ``(text body, headers)`` — the one endpoint whose body is
        not JSON; the transports pass raw ``str`` payloads through.
        """
        lines: list[str] = []

        def family(name: str, mtype: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")

        family("gateway_uptime_seconds", "gauge",
               "Seconds since the dispatcher started.")
        lines.append(render_metric("gateway_uptime_seconds",
                                   time.monotonic() - self._started_at))
        family("gateway_requests_total", "counter",
               "Requests dispatched (including error responses).")
        lines.append(render_metric("gateway_requests_total", self._requests))
        family("gateway_errors_total", "counter",
               "Error responses served (4xx/5xx, protocol errors included).")
        lines.append(render_metric("gateway_errors_total", self._errors))
        family("gateway_shed_requests_total", "counter",
               "Requests refused with 429 at the admission gate.")
        lines.append(render_metric("gateway_shed_requests_total",
                                   self._shed_requests))
        family("gateway_deadline_exceeded_total", "counter",
               "Requests answered 504 because their deadline passed.")
        lines.append(render_metric("gateway_deadline_exceeded_total",
                                   self._deadline_exceeded))
        family("gateway_degraded_responses_total", "counter",
               "Rank responses served by the model-free degraded fallback.")
        lines.append(render_metric("gateway_degraded_responses_total",
                                   self.service.degraded_responses))
        cache = self.service.cache_stats()
        family("result_cache_enabled", "gauge",
               "1 when the version-keyed result cache is configured.")
        lines.append(render_metric("result_cache_enabled",
                                   int(cache["enabled"])))
        family("result_cache_entries", "gauge",
               "Entries currently held by the result cache.")
        lines.append(render_metric("result_cache_entries", cache["entries"]))
        family("result_cache_capacity_entries", "gauge",
               "Result cache capacity bound (LRU evicts past it).")
        lines.append(render_metric("result_cache_capacity_entries",
                                   cache["max_entries"]))
        family("result_cache_hits_total", "counter",
               "Requests answered from the result cache.")
        lines.append(render_metric("result_cache_hits_total", cache["hits"]))
        family("result_cache_misses_total", "counter",
               "Cache lookups that fell through to the scorer.")
        lines.append(render_metric("result_cache_misses_total",
                                   cache["misses"]))
        family("result_cache_evictions_total", "counter",
               "Entries evicted by the LRU capacity bound.")
        lines.append(render_metric("result_cache_evictions_total",
                                   cache["evictions"]))
        family("result_cache_expired_total", "counter",
               "Entries dropped at lookup because their TTL passed.")
        lines.append(render_metric("result_cache_expired_total",
                                   cache["expired"]))
        if self._connection_stats is not None:
            connections = self._connection_stats()
            family("gateway_connections_open", "gauge",
                   "Currently connected sockets.")
            lines.append(render_metric("gateway_connections_open",
                                       connections.get("open", 0)))
            family("gateway_connections_accepted_total", "counter",
                   "Connections accepted since start.")
            lines.append(render_metric("gateway_connections_accepted_total",
                                       connections.get("accepted", 0)))
            family("gateway_keepalive_reuses_total", "counter",
                   "Requests that arrived on an already-used connection.")
            lines.append(render_metric("gateway_keepalive_reuses_total",
                                       connections.get("keepalive_reuses", 0)))
            family("gateway_dispatch_in_flight", "gauge",
                   "Requests inside a handler or queued for a dispatch "
                   "thread.")
            lines.append(render_metric("gateway_dispatch_in_flight",
                                       connections.get("in_flight", 0)))
        family("gateway_request_duration_seconds", "histogram",
               "Request latency by endpoint (dispatch-observed).")
        for path, histogram in sorted(self._histograms.items()):
            lines.extend(render_histogram("gateway_request_duration_seconds",
                                          histogram, {"endpoint": path}))
        scorer_gauges = [
            ("scorer_backlog_rows", "gauge",
             "Rows enqueued but not yet collected into a micro-batch.",
             lambda s: s.backlog_rows),
            ("scorer_max_backlog_rows", "gauge",
             "Admission bound in rows (absent when unbounded).",
             lambda s: s.max_backlog_rows),
            ("scorer_shed_requests_total", "counter",
             "Submissions refused at the pool's admission bound.",
             lambda s: s.shed_requests),
            ("scorer_shed_rows_total", "counter",
             "Rows carried by refused submissions.",
             lambda s: s.shed_rows),
            ("scorer_drain_rate_rows_per_second", "gauge",
             "Recent wall-clock drain rate of the pool.",
             lambda s: s.drain_rate_rows_per_s),
            ("scorer_requests_total", "counter",
             "Score requests completed.", lambda s: s.requests),
            ("scorer_rows_total", "counter",
             "Candidate rows scored.", lambda s: s.rows),
            ("scorer_worker_restarts_total", "counter",
             "Dead scoring workers respawned by the pool supervisor.",
             lambda s: s.worker_restarts),
            ("scorer_expired_requests_total", "counter",
             "Queued requests dropped because their deadline passed.",
             lambda s: s.expired_requests),
            ("scorer_expired_rows_total", "counter",
             "Rows carried by deadline-dropped requests.",
             lambda s: s.expired_rows),
            ("scorer_lost_resolutions_total", "counter",
             "Future resolutions lost to a cancel/race (lost responses).",
             lambda s: s.lost_resolutions),
            ("scorer_averted_respawns_total", "counter",
             "Worker respawns abandoned because close() won the race.",
             lambda s: s.averted_respawns),
            ("scorer_processes", "gauge",
             "Scorer processes behind the pool (0 = in-process scoring).",
             lambda s: s.processes),
            ("scorer_process_restarts_total", "counter",
             "Dead scorer processes respawned by the host.",
             lambda s: s.process_restarts),
            ("scorer_process_busy_seconds_total", "counter",
             "Child-measured seconds inside the scoring plan.",
             lambda s: s.process_busy_seconds),
        ]
        scorer_stats = self.service.stats()
        for name, mtype, help_text, getter in scorer_gauges:
            family(name, mtype, help_text)
            for pool, stats in sorted(scorer_stats.items()):
                value = getter(stats)
                if value is None:       # unbounded pool: omit the sample
                    continue
                lines.append(render_metric(name, value, {"pool": pool}))
        breakers = self.service.breaker_stats()
        if breakers:
            family("breaker_state", "gauge",
                   "Circuit breaker state (1 on the active state's sample).")
            for model_name, snapshot in breakers.items():
                lines.extend(render_enum_metric(
                    "breaker_state", snapshot["state"],
                    (CLOSED, OPEN, HALF_OPEN), {"model": model_name}))
            family("breaker_opens_total", "counter",
                   "Transitions into the open state.")
            for model_name, snapshot in breakers.items():
                lines.append(render_metric("breaker_opens_total",
                                           snapshot["opens"],
                                           {"model": model_name}))
            family("breaker_rejected_total", "counter",
                   "Requests the breaker diverted to the degraded fallback.")
            for model_name, snapshot in breakers.items():
                lines.append(render_metric("breaker_rejected_total",
                                           snapshot["rejected"],
                                           {"model": model_name}))
        return ("\n".join(lines) + "\n",
                {"Content-Type": PROMETHEUS_CONTENT_TYPE})

    def handle_models(self, payload: dict) -> dict:
        result = {
            "models": [{"name": entry.name, "version": entry.version,
                        "metadata": entry.metadata}
                       for entry in self.service.registry.entries()],
        }
        if self.spec is not None:
            # The feature schema a client (or load generator) needs to
            # construct valid /rank candidates.
            result["spec"] = {
                "numeric": self.spec.numeric_names,
                "sparse": {f.name: f.cardinality for f in self.spec.sparse},
            }
        return result

    def handle_reload(self, payload: dict) -> dict:
        if self.checkpoint_dir is None or self.spec is None \
                or self.taxonomy is None:
            raise ApiError(400, "no_checkpoint_dir",
                           "this gateway was not started from a checkpoint "
                           "directory; nothing to reload")
        registered = self.service.registry.reload_from_directory(
            self.checkpoint_dir, self.spec, self.taxonomy)
        return {
            "registered": [{"name": entry.name, "version": entry.version}
                           for entry in registered],
            "models": self.service.registry.names(),
            # Checkpoints refused this (or an earlier) sweep: corrupt
            # bytes were quarantined and the last good version of each
            # name keeps serving.
            "quarantined": self.service.registry.quarantined(),
        }

    def handle_faults(self, payload: dict) -> dict:
        """Configure fault injection on a live gateway (chaos testing).

        Only routable when the server was started with
        ``--enable-fault-injection`` (which is what constructs the
        service's injector); otherwise a structured 403.  Payload keys:
        ``score_error_rate``, ``latency_rate``, ``latency_ms``,
        ``kill_workers`` (one-shot count), ``tear_checkpoint`` (a model
        name, or ``true`` for the first ranking checkpoint — truncates
        its weights file in place), and ``reset`` (zero all rates first).
        """
        injector = self.service.fault_injector
        if injector is None:
            raise ApiError(403, "fault_injection_disabled",
                           "fault injection is not enabled on this gateway; "
                           "start it with --enable-fault-injection")
        try:
            if payload.get("reset"):
                injector.reset()
            injector.configure(
                score_error_rate=payload.get("score_error_rate"),
                latency_rate=payload.get("latency_rate"),
                latency_ms=payload.get("latency_ms"))
            kills = payload.get("kill_workers", 0)
            if not isinstance(kills, int) or kills < 0:
                raise ValueError("kill_workers must be a non-negative integer")
            if kills:
                injector.arm_worker_kills(kills)
        except (TypeError, ValueError) as error:
            raise ApiError(400, "bad_request", str(error)) from None
        result = {"faults": injector.snapshot()}
        tear = payload.get("tear_checkpoint")
        if tear:
            result["torn"] = self._tear_checkpoint(injector, tear)
            result["faults"] = injector.snapshot()
        return result

    def _tear_checkpoint(self, injector, target) -> dict:
        """Truncate a checkpoint's weights file in place (torn write)."""
        if self.checkpoint_dir is None:
            raise ApiError(400, "no_checkpoint_dir",
                           "this gateway serves no checkpoint directory; "
                           "nothing to tear")
        weights_path = None
        if isinstance(target, str):
            candidate = self.checkpoint_dir / f"{target}.npz"
            if not candidate.exists():
                raise ApiError(404, "not_found",
                               f"no checkpoint weights for {target!r}")
            weights_path = candidate
        else:
            # tear_checkpoint: true — first ranking-model weights file
            # (sidecar carries model_name), mirroring the reload scan.
            for meta_path in sorted(self.checkpoint_dir.glob("*.json")):
                try:
                    meta = json.loads(meta_path.read_text())
                except ValueError:
                    continue
                if isinstance(meta, dict) and "model_name" in meta \
                        and meta_path.with_suffix(".npz").exists():
                    weights_path = meta_path.with_suffix(".npz")
                    break
            if weights_path is None:
                raise ApiError(404, "not_found",
                               "no ranking-model checkpoint to tear")
        new_size = injector.tear_file(weights_path)
        return {"path": str(weights_path), "new_size_bytes": new_size}
