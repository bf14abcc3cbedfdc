"""``repro.serving`` — the scoring side of the system.

Training produces models; this package serves them: checkpoint
persistence (``state_dict`` → ``.npz`` + JSON config, plus the
``environment.json`` bundle a checkpoint directory is served from), a
versioned :class:`ModelRegistry` with hot reload-from-directory, the
micro-batching N-worker :class:`ScorerPool` with its adaptive batch cap
(latency/throughput stats included), a :class:`RankingService` composing
querycat intent → model selection → pooled scoring → top-k, and a
three-layer wire stack: the connection transport
(:mod:`repro.serving.transport` — a selector event loop, optionally
sharded over several loops on one port), incremental HTTP/1.1 framing
(:mod:`repro.serving.protocol`), and transport-agnostic JSON dispatch
(:mod:`repro.serving.handlers`), composed by the :class:`ServingServer`
gateway (``python -m repro.serving.server``) with the
:class:`ServingClient` and a closed-loop load generator
(``python -m repro.serving.loadgen``) on the caller side.  All scoring
rides the compiled graph-free fast lane (:mod:`repro.nn.infer`).

The serving stack is fault-tolerant end to end: request deadlines
(``X-Deadline-Ms`` → structured 504s, expired work dropped from the
scoring queue), worker supervision (dead scoring workers respawn with
fresh compiled plans), a per-model :class:`CircuitBreaker` that degrades
to a model-free fallback instead of erroring, corruption-safe checkpoint
writes (atomic rename + checksum manifest) with quarantine on reload —
all proven by the :class:`FaultInjector` chaos harness
(``python -m repro.serving.loadgen --chaos``).

Repeat traffic rides the Zipfian fast path: a version-keyed
:class:`ResultCache` in front of the scorer pools (the model version
lives in the key, so hot reload invalidates structurally) answers
repeat ``(version, intent, candidates)`` requests bit-identically
without scoring.  ``python -m repro.serving.loadgen --zipf S``
generates the matching skewed workload and gates on the gateway's own
hit-rate counters.
"""

import importlib

from .breaker import BreakerConfig, CircuitBreaker
from .cache import ResultCache, canonical_key
from .checkpoint import (ENVIRONMENT_FILENAME, CheckpointCorrupted,
                         checksum_file, ensure_weight_store,
                         find_classifier_checkpoint, load_checkpoint,
                         load_classifier_checkpoint, load_environment,
                         load_model, load_model_shared, load_shared_state,
                         save_checkpoint, save_classifier_checkpoint,
                         save_environment)
from .client import ServingClient, ServingError
from .faults import FaultInjector, InjectedFault, WorkerKilled
from .handlers import ApiError, GatewayDispatcher
from .metrics import LatencyHistogram, log_spaced_buckets
from .procscorer import ProcessScorerError, ProcessScorerHost
from .protocol import ProtocolError, RequestParser
from .registry import ModelRegistry, RegisteredModel
from .scorer import (DeadlineExceeded, NonFiniteScores, PoolOverloaded,
                     ScorerPool, ScorerStats, concat_batches,
                     latency_percentile)
from .service import RankingResponse, RankingService, candidate_batch
from .transport import GatewayCounters, SelectorTransport, ShardedTransport

# The two entry modules load on first use (PEP 562).  ``python -m
# repro.serving.server`` (or ``.loadgen``) imports this package first; an
# eager import here would put the entry module in ``sys.modules`` before
# runpy executes it as ``__main__``, so it would run twice and the process
# would hold two copies of its classes.
_LAZY = {
    "ServingServer": "server",
    "serve_from_directory": "server",
    "LoadSummary": "loadgen",
    "run_chaos": "loadgen",
    "run_load": "loadgen",
    "run_sweep": "loadgen",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "save_classifier_checkpoint",
    "load_classifier_checkpoint",
    "save_environment",
    "load_environment",
    "find_classifier_checkpoint",
    "ENVIRONMENT_FILENAME",
    "ModelRegistry",
    "RegisteredModel",
    "ScorerPool",
    "ScorerStats",
    "PoolOverloaded",
    "DeadlineExceeded",
    "NonFiniteScores",
    "BreakerConfig",
    "CircuitBreaker",
    "ResultCache",
    "canonical_key",
    "FaultInjector",
    "InjectedFault",
    "WorkerKilled",
    "CheckpointCorrupted",
    "checksum_file",
    "concat_batches",
    "latency_percentile",
    "LatencyHistogram",
    "log_spaced_buckets",
    "RankingService",
    "RankingResponse",
    "candidate_batch",
    "ServingServer",
    "serve_from_directory",
    "ApiError",
    "GatewayDispatcher",
    "GatewayCounters",
    "SelectorTransport",
    "ShardedTransport",
    "ProcessScorerHost",
    "ProcessScorerError",
    "ensure_weight_store",
    "load_shared_state",
    "load_model_shared",
    "ProtocolError",
    "RequestParser",
    "ServingClient",
    "ServingError",
    "LoadSummary",
    "run_load",
    "run_sweep",
    "run_chaos",
]
