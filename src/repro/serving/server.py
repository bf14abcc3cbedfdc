"""HTTP/JSON serving gateway: the wire protocol in front of :class:`RankingService`.

Dependency-free (stdlib only).  The gateway is three layers, composed
here:

* :mod:`repro.serving.transport` — connection I/O.  One
  :mod:`selectors` event loop multiplexes every socket (non-blocking
  reads/writes, keep-alive, idle-timeout reaping — a slow client costs
  a buffer, not a thread) and answers health checks and memo answers
  itself; ``--gateway-shards`` runs several such loops on one port.
* :mod:`repro.serving.protocol` — incremental HTTP/1.1 framing that
  tolerates partial reads and pipelining, with structured 4xx answers
  for framing violations (oversized bodies → 413, stalled slow-loris
  requests → 408).
* :mod:`repro.serving.handlers` — the transport-agnostic JSON dispatch:

========  =============  ====================================================
method    path           purpose
========  =============  ====================================================
POST      ``/rank``      rank candidates (optionally with query intent)
POST      ``/classify``  query → (sub category, top category)
GET       ``/healthz``   liveness + model inventory
GET       ``/stats``     gateway + connection counters, latency histograms,
                         per-model scorers
GET       ``/models``    registry listing + the feature schema clients need
GET       ``/metrics``   Prometheus text exposition of the same counters
POST      ``/reload``    hot checkpoint reload from the watched directory
POST      ``/faults``    chaos-test fault injection (``--enable-fault-injection``)
========  =============  ====================================================

Every error is a structured JSON body ``{"error": {"type", "message"}}``
with a 4xx status for client mistakes (malformed JSON, unknown model,
bad feature shapes) and 500 for anything unexpected — a bad request must
never take down a scorer worker or the gateway.

The gateway protects itself under overload: each model pool carries an
admission bound in queued scoring rows, and requests past it are shed
with ``429`` + a ``Retry-After`` derived from the pool's measured drain
rate (see ``--max-backlog-rows``).  On SIGTERM/SIGINT it drains
gracefully — stops accepting, answers every accepted request (bounded by
``--drain-deadline``), and marks final responses ``Connection: close``.

It is also fault-tolerant by construction: requests may carry an
``X-Deadline-Ms`` budget (expired ones answer a structured 504 instead
of being scored), dead scoring workers are respawned by a pool
supervisor, a per-model circuit breaker (``--breaker-*`` flags) trips to
a model-free degraded fallback when scoring keeps failing, and corrupt
checkpoints are quarantined on reload while the last good version keeps
serving.

Run it from a checkpoint directory (see :mod:`repro.serving.checkpoint`
for the layout)::

    python -m repro.serving.server --checkpoint-dir ckpts --port 8000 \\
        --workers 4

``POST /reload`` re-scans the same directory, registering changed or new
checkpoints as fresh versions; the service retires superseded scorer pools
as traffic moves over, so reloads need no downtime.
"""

from __future__ import annotations

import argparse
import signal
import threading
import time
from pathlib import Path

from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from .breaker import BreakerConfig
from .cache import ResultCache
from .checkpoint import find_classifier_checkpoint, load_classifier_checkpoint, load_environment
from .faults import FaultInjector
from .handlers import ApiError, GatewayDispatcher
from .protocol import MAX_BODY_BYTES, MAX_HEADER_BYTES
from .registry import ModelRegistry
from .service import RankingService
from .transport import (DEFAULT_IDLE_TIMEOUT_S, GatewayCounters,
                        create_transport)

__all__ = ["ServingServer", "ApiError", "serve_from_directory", "main"]


class ServingServer:
    """The HTTP gateway: owns the transport, the dispatcher, and the service.

    Parameters
    ----------
    service:
        The :class:`RankingService` to expose.  The gateway owns it —
        :meth:`close` shuts down its scorer pools too.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` / :attr:`url` after construction).
    checkpoint_dir / spec / taxonomy:
        When all are set, ``POST /reload`` re-scans ``checkpoint_dir``
        through :meth:`ModelRegistry.reload_from_directory`; otherwise the
        endpoint answers 400.
    idle_timeout_s:
        Keep-alive connections idle this long are closed; a request that
        stalls mid-frame (slow loris) is answered with a 408 first.
    max_body_bytes:
        Request bodies beyond this answer with a structured 413.
    dispatch_workers:
        Threads for requests that may wait on a scorer (they block on
        its futures; connection count is not bounded by this).  Health
        checks and memo answers run on the event loop instead.
    drain_deadline_s:
        Bound on the graceful drain: on :meth:`close` (and on SIGTERM via
        :meth:`install_signal_handlers`) the gateway stops accepting and
        answers every in-flight request, but cuts whatever cannot finish
        within this many seconds.
    gateway_shards:
        Run this many independent selector loops accepting on the same
        port (``SO_REUSEPORT`` siblings, or one ``dup()``-shared acceptor
        where unavailable).  All shards drive
        one dispatcher/registry, so hot reload stays atomic across them.

    The constructor binds the socket but does not serve: call
    :meth:`start` (background thread) or :meth:`serve_forever`.
    """

    def __init__(self, service: RankingService, host: str = "127.0.0.1",
                 port: int = 0, checkpoint_dir: str | Path | None = None,
                 spec: FeatureSpec | None = None,
                 taxonomy: Taxonomy | None = None,
                 idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 dispatch_workers: int = 8,
                 drain_deadline_s: float = 10.0,
                 gateway_shards: int = 1):
        self.service = service
        self.gateway_shards = gateway_shards
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.spec = spec
        self.taxonomy = taxonomy
        self.counters = GatewayCounters()
        self.dispatcher = GatewayDispatcher(
            service, spec=spec, taxonomy=taxonomy,
            checkpoint_dir=checkpoint_dir,
            connection_stats=self.counters.snapshot)
        self._transport = create_transport(
            host, port, self.dispatcher, counters=self.counters,
            idle_timeout_s=idle_timeout_s, max_body_bytes=max_body_bytes,
            max_header_bytes=max_header_bytes,
            dispatch_workers=dispatch_workers,
            shards=gateway_shards)
        self.drain_deadline_s = drain_deadline_s
        self._thread: threading.Thread | None = None
        self._serving = False
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._transport.server_address[0]

    @property
    def port(self) -> int:
        return self._transport.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServingServer":
        """Serve in a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._transport.serve_forever,
                                        daemon=True, name="ServingServer")
        self._serving = True
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._transport.serve_forever()

    def request_drain(self) -> None:
        """Start a graceful stop without blocking (signal-handler safe).

        Stops accepting immediately; a helper thread rides out the
        drain deadline and then forces the loop down, so
        :meth:`serve_forever` (and :meth:`close` after it) return on
        their own.  Idempotent — repeated signals don't stack threads
        that matter (drain/shutdown are both idempotent).
        """
        threading.Thread(target=self._transport.drain,
                         args=(self.drain_deadline_s,),
                         name="gateway-drain-deadline", daemon=True).start()

    def install_signal_handlers(self) -> dict:
        """Route SIGTERM/SIGINT to :meth:`request_drain`.

        Must run on the main thread (CPython restriction).  Returns the
        previous handlers keyed by signal number so tests (and embedders)
        can restore them.
        """
        previous = {}

        def _handle(signum, frame):
            del frame
            self.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handle)
        return previous

    def close(self) -> None:
        """Drain in-flight requests, stop the listener, then the pools.

        Previously this called ``shutdown()`` directly, which tore the
        loop down with accepted requests still being scored — their
        connections were closed with no response.  Now every accepted
        request is answered first, bounded by ``drain_deadline_s``.
        """
        if self._serving:
            # drain() ends with shutdown(), which waits for the serve
            # loop to exit; calling either on a bound-but-never-served
            # transport would deadlock.
            self._transport.drain(self.drain_deadline_s)
            self._serving = False
        self._transport.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Boot from a checkpoint directory
# ----------------------------------------------------------------------
def serve_from_directory(checkpoint_dir: str | Path, host: str = "127.0.0.1",
                         port: int = 0, num_workers: int = 4,
                         max_batch_rows: int = 256,
                         default_model: str | None = None,
                         min_batch_rows: int = 8,
                         idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                         dispatch_workers: int = 8,
                         max_backlog_rows: int | None = 4096,
                         drain_deadline_s: float = 10.0,
                         breaker_config: BreakerConfig | None = None,
                         enable_fault_injection: bool = False,
                         cache_entries: int = 4096,
                         cache_ttl_s: float = 30.0,
                         scorer_processes: int = 0,
                         gateway_shards: int = 1,
                         process_start_method: str | None = None
                         ) -> ServingServer:
    """Build a ready-to-start gateway from a checkpoint directory.

    Reads the ``environment.json`` bundle, registers every ranking
    checkpoint, and loads the classifier checkpoint when one is present
    (see :mod:`repro.serving.checkpoint` for the layout).

    Unlike the bare library classes (which default to unbounded for
    back-compat), a gateway booted this way always serves with an
    admission bound: ``max_backlog_rows`` rows of queued scoring work per
    model pool, beyond which requests are shed with a 429 and a
    ``Retry-After`` derived from the pool's drain rate.  Pass ``None`` to
    opt out.  The same always-protected default applies to the circuit
    breaker: every routed model gets one (``breaker_config`` overrides
    the default tuning), so repeated model failures degrade to the
    model-free fallback instead of a 500 storm.

    A directory-booted gateway also serves with a version-keyed result
    cache by default (``cache_entries`` LRU entries, ``cache_ttl_s``
    seconds each; either 0 disables it): repeat ``(model version,
    intent, candidate features)`` requests answer from the cache,
    bit-identical per version, and a hot reload invalidates structurally
    because the version lives in the key.

    ``enable_fault_injection`` builds a
    :class:`~repro.serving.faults.FaultInjector` into the service and
    routes ``POST /faults`` to it — chaos tests only; never enable it on
    a gateway you are not deliberately breaking.

    ``scorer_processes`` > 0 moves scoring into that many worker
    *processes* per model (hydrated from this same checkpoint directory
    with memory-mapped shared weights — see
    :mod:`repro.serving.procscorer`); ``--workers`` is ignored for such
    models since the pool runs one proxy thread per process.
    ``gateway_shards`` > 1 runs that many selector loops accepting on
    one port via ``SO_REUSEPORT``.
    """
    checkpoint_dir = Path(checkpoint_dir)
    spec, taxonomy = load_environment(checkpoint_dir)
    registry = ModelRegistry()
    registered = registry.reload_from_directory(checkpoint_dir, spec, taxonomy)
    if not registered:
        raise FileNotFoundError(
            f"no ranking-model checkpoints found in {checkpoint_dir}")
    classifier = None
    classifier_path = find_classifier_checkpoint(checkpoint_dir)
    if classifier_path is not None:
        classifier = load_classifier_checkpoint(classifier_path)
    if default_model is None and len(registry.names()) == 1:
        default_model = registry.names()[0]
    result_cache = (ResultCache(max_entries=cache_entries, ttl_s=cache_ttl_s)
                    if cache_entries > 0 and cache_ttl_s > 0 else None)
    service = RankingService(registry, default_model=default_model,
                             classifier=classifier, taxonomy=taxonomy,
                             max_batch_rows=max_batch_rows,
                             num_workers=num_workers,
                             min_batch_rows=min_batch_rows,
                             max_backlog_rows=max_backlog_rows,
                             breaker_config=breaker_config or BreakerConfig(),
                             spec=spec,
                             fault_injector=FaultInjector()
                             if enable_fault_injection else None,
                             result_cache=result_cache,
                             scorer_processes=scorer_processes,
                             environment_dir=checkpoint_dir
                             if scorer_processes > 0 else None,
                             process_start_method=process_start_method)
    return ServingServer(service, host=host, port=port,
                         checkpoint_dir=checkpoint_dir, spec=spec,
                         taxonomy=taxonomy,
                         idle_timeout_s=idle_timeout_s,
                         dispatch_workers=dispatch_workers,
                         drain_deadline_s=drain_deadline_s,
                         gateway_shards=gateway_shards)


def _bootstrap_demo(checkpoint_dir: Path) -> None:
    """Populate an empty checkpoint directory with a quick demo deployment.

    Builds the CI-scale synthetic world, an untrained paper-architecture
    ranker, and a query classifier, and checkpoints all three artifacts —
    enough for the CI serving smoke job (and a first ``curl``) without a
    training run.  Imports training-side code, so it lives behind the
    ``--bootstrap-demo`` flag instead of the serving path proper.
    """
    from .. import nn
    from ..experiments.common import CI, build_environment, model_config
    from ..models import build_model
    from ..querycat import QueryCategoryClassifier, QueryClassifierConfig
    from .checkpoint import (save_checkpoint, save_classifier_checkpoint,
                             save_environment)

    env = build_environment(CI)
    # Build at the scale's dtype (float32), matching train_and_eval.
    with nn.default_dtype(CI.np_dtype):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            model_config(CI), train_dataset=env.train)
        classifier = QueryCategoryClassifier(
            env.log.queries.vocab_size, env.taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=12))
    save_environment(checkpoint_dir, env.dataset.spec, env.taxonomy)
    save_checkpoint(model, checkpoint_dir / "ranker", "adv-hsc-moe")
    save_classifier_checkpoint(classifier, checkpoint_dir / "querycat")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Serve ranking models over HTTP from a checkpoint directory.")
    parser.add_argument("--checkpoint-dir", required=True,
                        help="directory with environment.json + checkpoints")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000,
                        help="0 picks an ephemeral port")
    parser.add_argument("--workers", type=int, default=4,
                        help="scoring workers per model (ScorerPool size)")
    parser.add_argument("--scorer-processes", type=int, default=0,
                        help="score in this many worker processes per model "
                             "(each hydrates the checkpoint with mmap-shared "
                             "weights; 0 = in-process threads, the default). "
                             "Overrides --workers for checkpointed models")
    parser.add_argument("--gateway-shards", type=int, default=1,
                        help="run this many event loops "
                             "accepting on one port via SO_REUSEPORT "
                             "(dup()-shared acceptor fallback); hot reload "
                             "stays atomic across shards")
    parser.add_argument("--dispatch-workers", type=int, default=8,
                        help="threads for requests that may wait on a "
                             "scorer")
    parser.add_argument("--max-batch-rows", type=int, default=256,
                        help="upper clamp of the adaptive per-worker "
                             "micro-batch row cap")
    parser.add_argument("--min-batch-rows", type=int, default=8,
                        help="lower clamp of the adaptive micro-batch cap")
    parser.add_argument("--idle-timeout", type=float,
                        default=DEFAULT_IDLE_TIMEOUT_S,
                        help="close keep-alive connections idle this many "
                             "seconds")
    parser.add_argument("--max-backlog-rows", type=int, default=4096,
                        help="per-model admission bound in queued scoring "
                             "rows; past it requests are shed with 429 + "
                             "Retry-After (0 disables shedding)")
    parser.add_argument("--drain-deadline", type=float, default=10.0,
                        help="seconds a SIGTERM/SIGINT graceful drain may "
                             "spend answering in-flight requests before the "
                             "loop is forced down")
    parser.add_argument("--breaker-window", type=float, default=30.0,
                        help="circuit breaker: rolling window (seconds) the "
                             "failure ratio is computed over")
    parser.add_argument("--breaker-threshold", type=float, default=0.5,
                        help="circuit breaker: failure ratio that opens it "
                             "(model failures / requests over the window)")
    parser.add_argument("--breaker-min-requests", type=int, default=10,
                        help="circuit breaker: minimum windowed requests "
                             "before the ratio can open it")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        help="circuit breaker: seconds open before half-open "
                             "probes may test the model again")
    parser.add_argument("--cache-entries", type=int, default=4096,
                        help="result cache capacity in entries, keyed by "
                             "(model version, intent, candidate features) — "
                             "hot reload invalidates structurally "
                             "(0 disables the cache)")
    parser.add_argument("--cache-ttl-s", type=float, default=30.0,
                        help="result cache entry time-to-live in seconds "
                             "(0 disables the cache)")
    parser.add_argument("--enable-fault-injection", action="store_true",
                        help="route POST /faults to a live fault injector "
                             "(chaos testing only — injects scoring errors, "
                             "latency, worker kills, and torn checkpoint "
                             "writes on demand)")
    parser.add_argument("--default-model", default=None,
                        help="model name for unrouted traffic "
                             "(default: the sole registered name)")
    parser.add_argument("--bootstrap-demo", action="store_true",
                        help="if the directory has no environment.json, fill "
                             "it with a CI-scale demo deployment first")
    args = parser.parse_args(argv)

    checkpoint_dir = Path(args.checkpoint_dir)
    if args.bootstrap_demo and not (checkpoint_dir / "environment.json").exists():
        print(f"bootstrapping demo checkpoints into {checkpoint_dir} ...")
        _bootstrap_demo(checkpoint_dir)

    server = serve_from_directory(
        checkpoint_dir, host=args.host, port=args.port,
        num_workers=args.workers, max_batch_rows=args.max_batch_rows,
        default_model=args.default_model,
        min_batch_rows=args.min_batch_rows,
        idle_timeout_s=args.idle_timeout,
        dispatch_workers=args.dispatch_workers,
        max_backlog_rows=args.max_backlog_rows or None,
        drain_deadline_s=args.drain_deadline,
        breaker_config=BreakerConfig(
            window_s=args.breaker_window,
            failure_threshold=args.breaker_threshold,
            min_requests=args.breaker_min_requests,
            cooldown_s=args.breaker_cooldown),
        enable_fault_injection=args.enable_fault_injection,
        cache_entries=args.cache_entries,
        cache_ttl_s=args.cache_ttl_s,
        scorer_processes=args.scorer_processes,
        gateway_shards=args.gateway_shards)
    server.install_signal_handlers()
    names = ", ".join(server.service.registry.names())
    backlog = (f"shed past {args.max_backlog_rows} backlog rows"
               if args.max_backlog_rows else "no admission bound")
    cache = (f"result cache {args.cache_entries} entries/"
             f"{args.cache_ttl_s:g}s TTL"
             if args.cache_entries > 0 and args.cache_ttl_s > 0
             else "result cache off")
    faults = ", FAULT INJECTION ENABLED" if args.enable_fault_injection else ""
    scale = ""
    if args.scorer_processes > 0:
        scale += f", {args.scorer_processes} scorer processes"
    if args.gateway_shards > 1:
        scale += f", {args.gateway_shards} gateway shards"
    print(f"serving {names} on {server.url} "
          f"({args.workers} scoring workers{scale}, adaptive "
          f"≤{args.max_batch_rows} batch cap, {backlog}, {cache}, "
          f"breaker opens at {args.breaker_threshold:g} failure ratio{faults}; "
          f"GET /metrics for Prometheus, POST /reload to hot-reload)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # SIGTERM lands here too: the handler drains the transport, the
        # serve loop returns, and close() answers nothing is left before
        # shutting the scorer pools.
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
