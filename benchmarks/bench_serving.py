"""Serving-layer benchmarks: single-request latency and micro-batched throughput.

Tracks the two numbers that matter for the production story:

* **single-request latency** — one candidate batch through ``model.score``
  (the compiled graph-free plan) vs the no_grad Tensor ``model.predict``
  reference, and end to end through :meth:`RankingService.rank` including
  querycat intent classification.
* **micro-batched throughput** — many concurrent single-session requests
  drained through a single-worker :class:`repro.serving.ScorerPool`,
  which coalesces them into a few model invocations (≈54 µs/row at batch
  1 vs ≈10 µs/row at batch 32 on the paper tower, f64).
* **over-the-wire multi-client throughput** — closed-loop clients hammering
  a real :class:`ServingServer` over HTTP, a single-worker pool
  (``num_workers=1``) vs a 4-worker :class:`ScorerPool`.  The pool
  overlaps the collection (and, on multi-core BLAS, the scoring) of
  concurrent micro-batches; the number to watch is the pool:single
  throughput ratio at batchable load.
* **connection scaling** — the same closed-loop load at 1 → 256 concurrent
  keep-alive sockets through the selector event loop, which holds
  hundreds of connections without a thread each, at zero errors.
* **micro-batch cap policy** — the adaptive backlog-driven cap draining a
  concurrent burst through a 4-worker pool.

Scale comes from ``REPRO_BENCH_SCALE`` (see conftest); models are built
untrained — scoring cost does not depend on the weight values.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.experiments.common import build_environment, model_config
from repro.models import build_model
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
from repro.serving import (ModelRegistry, RankingService, ResultCache,
                           ScorerPool, ServingClient, ServingError,
                           ServingServer, latency_percentile, run_load,
                           save_checkpoint, save_environment,
                           serve_from_directory)


@pytest.fixture(scope="module")
def served(scale):
    """(environment, ranking model, classifier) at the bench scale."""
    env = build_environment(scale)
    with nn.default_dtype(scale.np_dtype):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            model_config(scale), train_dataset=env.train)
        classifier = QueryCategoryClassifier(
            env.log.queries.vocab_size, env.taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=12))
    dataset = env.dataset.astype(scale.np_dtype)
    return env, dataset, model, classifier


def test_single_request_predict(benchmark, served):
    """Baseline: one 8-candidate session through the no_grad Tensor path."""
    _, dataset, model, _ = served
    batch = dataset.batch(np.arange(8))
    scores = benchmark(model.predict, batch)
    assert scores.shape == (8,)


def test_single_request_score(benchmark, served):
    """One 8-candidate session through the compiled scoring plan."""
    _, dataset, model, _ = served
    batch = dataset.batch(np.arange(8))
    scores = benchmark(model.score, batch)
    assert scores.shape == (8,)


def test_single_request_service_rank(benchmark, served):
    """End to end: intent classification + routing + scoring + top-k."""
    env, dataset, model, classifier = served
    registry = ModelRegistry()
    registry.register("ranker", model)
    batch = dataset.batch(np.arange(8))
    tokens = env.log.queries.tokens[0]
    lengths = env.log.queries.lengths[0]
    with RankingService(registry, default_model="ranker", classifier=classifier,
                        taxonomy=env.taxonomy) as service:
        response = benchmark(service.rank, batch, query_tokens=tokens,
                             query_lengths=lengths, top_k=5)
        benchmark.extra_info["stats"] = str(service.stats())
    assert len(response.indices) == 5


def test_microbatched_throughput(benchmark, served):
    """64 concurrent 4-row requests drained through a single-worker pool.

    The worker coalesces them into a handful of model invocations; the
    interesting number is rows/second versus the single-request bench.
    """
    _, dataset, model, _ = served
    requests = [dataset.batch(np.arange(i, i + 4)) for i in range(64)]

    with ScorerPool(lambda: model.score, num_workers=1,
                    max_batch_rows=256) as pool:
        def drain():
            futures = [pool.submit(batch) for batch in requests]
            return [future.result() for future in futures]

        results = benchmark(drain)
        stats = pool.stats()
        benchmark.extra_info["mean_batch_rows"] = stats.mean_batch_rows
        benchmark.extra_info["throughput_rows_per_s"] = stats.throughput_rows_per_s
    assert len(results) == 64
    assert stats.mean_batch_rows > 4.0  # coalescing happened


def test_sequential_scoring_throughput(benchmark, served):
    """The same 256 rows scored as one batch (upper bound, no queueing)."""
    _, dataset, model, _ = served
    batch = dataset.batch(np.arange(256))
    scores = benchmark(model.score, batch)
    assert scores.shape == (256,)


# ----------------------------------------------------------------------
# Over-the-wire: HTTP gateway under closed-loop multi-client load
# ----------------------------------------------------------------------
_WIRE_CLIENTS = 6
_WIRE_REQUESTS_EACH = 10
_WIRE_ROWS = 8


def _drain_over_wire(url: str, dataset, clients: int, requests_each: int,
                     rows: int):
    """Closed-loop drain: each client thread sends its requests back to
    back over HTTP.  Returns (elapsed_s, latencies, errors)."""
    batches = [dataset.batch(np.arange(i, i + rows)) for i in range(clients)]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors = [0] * clients

    def worker(index: int) -> None:
        client = ServingClient(url)
        batch = batches[index]
        for _ in range(requests_each):
            t0 = time.monotonic()
            try:
                client.rank(batch.numeric, batch.sparse, top_k=5)
            except Exception:
                errors[index] += 1
                continue
            latencies[index].append(time.monotonic() - t0)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return elapsed, [s for bucket in latencies for s in bucket], sum(errors)


def _bench_wire(benchmark, served, num_workers: int) -> None:
    """Boot a gateway with an N-worker pool and benchmark the full drain.

    ``num_workers=1`` is the single-worker pool; both configurations keep
    the default knobs, so the comparison isolates the pool (overlapped
    micro-batch windows), not a retuned knob.
    """
    _, dataset, model, _ = served
    registry = ModelRegistry()
    registry.register("ranker", model)
    service = RankingService(registry, default_model="ranker",
                             num_workers=num_workers)
    last = {}
    with ServingServer(service, port=0) as server:
        server.start()
        probe = ServingClient(server.url)
        probe.wait_ready(timeout_s=30)
        warmup = dataset.batch(np.arange(_WIRE_ROWS))
        probe.rank(warmup.numeric, warmup.sparse)   # compile plans off-clock

        def drain():
            elapsed, latencies, errors = _drain_over_wire(
                server.url, dataset, _WIRE_CLIENTS, _WIRE_REQUESTS_EACH,
                _WIRE_ROWS)
            assert errors == 0
            last["elapsed"] = elapsed
            last["latencies"] = latencies
            return latencies

        latencies = benchmark(drain)
        pool_stats = service.stats()["ranker:v1"]
    total_rows = _WIRE_CLIENTS * _WIRE_REQUESTS_EACH * _WIRE_ROWS
    samples = np.asarray(last["latencies"])
    benchmark.extra_info["num_workers"] = num_workers
    benchmark.extra_info["rows_per_s"] = total_rows / last["elapsed"]
    benchmark.extra_info["requests_per_s"] = len(samples) / last["elapsed"]
    benchmark.extra_info["p50_ms"] = latency_percentile(samples, 50) * 1000
    benchmark.extra_info["p95_ms"] = latency_percentile(samples, 95) * 1000
    benchmark.extra_info["mean_batch_rows"] = pool_stats.mean_batch_rows
    assert len(latencies) == _WIRE_CLIENTS * _WIRE_REQUESTS_EACH


def test_http_multiclient_single_worker(benchmark, served):
    """Baseline: the gateway scoring through one worker."""
    _bench_wire(benchmark, served, num_workers=1)


def test_http_multiclient_pool4(benchmark, served):
    """4-worker ScorerPool under the same closed-loop multi-client load.

    On a single-core host the win over the single worker is the pipeline
    (the collector's micro-batch assembly overlaps the other workers'
    scoring);
    the scoring compute itself cannot parallelize without more cores — see
    the ``parallel_scoring`` pair below for that axis.
    """
    _bench_wire(benchmark, served, num_workers=4)


class _ParallelScoringModel:
    """Stand-in for a model whose scoring runs outside the GIL.

    Real compiled scoring spends its time in BLAS matmuls, which release
    the GIL — on a multi-core host four workers' batches genuinely
    overlap.  The benchmark container is single-core, so this proxy makes
    the overlap measurable anyway: a per-row ``time.sleep`` occupies the
    scorer exactly like a matmul running on an otherwise-idle core would,
    sized to a production-scale tower (0.5 ms/row — large enough that
    scoring, not HTTP/JSON overhead, dominates the request cost, which is
    the regime where a scorer pool matters in the first place).
    """

    def __init__(self, delay_per_row_s: float = 0.0005):
        self._delay_per_row_s = delay_per_row_s

    def make_scorer(self):
        def score(batch):
            time.sleep(self._delay_per_row_s * len(batch))
            return np.zeros(len(batch))
        return score

    def score(self, batch):
        return self.make_scorer()(batch)


def _bench_wire_parallel_scoring(benchmark, served, num_workers: int) -> None:
    """Wire bench against the GIL-releasing proxy model.

    ``max_batch_rows=16`` caps micro-batches at two requests, so the
    closed-loop load forms several batches per round instead of one
    pool-starving mega-batch — with parallel scoring you split work
    across workers (per-device batch caps, as in GPU serving).  The
    simulated compute is proportional to rows, so the cap leaves the
    single worker's total scoring time unchanged: the pool's gain is
    overlap alone.
    """
    _, dataset, _, _ = served
    registry = ModelRegistry()
    registry.register("ranker", _ParallelScoringModel())
    service = RankingService(registry, default_model="ranker",
                             num_workers=num_workers, max_batch_rows=16)
    last = {}
    with ServingServer(service, port=0) as server:
        server.start()
        probe = ServingClient(server.url)
        probe.wait_ready(timeout_s=30)

        def drain():
            elapsed, latencies, errors = _drain_over_wire(
                server.url, dataset, _WIRE_CLIENTS, _WIRE_REQUESTS_EACH,
                _WIRE_ROWS)
            assert errors == 0
            last["elapsed"] = elapsed
            return latencies

        latencies = benchmark(drain)
    total_rows = _WIRE_CLIENTS * _WIRE_REQUESTS_EACH * _WIRE_ROWS
    benchmark.extra_info["num_workers"] = num_workers
    benchmark.extra_info["rows_per_s"] = total_rows / last["elapsed"]
    assert len(latencies) == _WIRE_CLIENTS * _WIRE_REQUESTS_EACH


def test_http_parallel_scoring_single_worker(benchmark, served):
    """GIL-releasing scorer (multi-core proxy), one worker."""
    _bench_wire_parallel_scoring(benchmark, served, num_workers=1)


def test_http_parallel_scoring_pool4(benchmark, served):
    """GIL-releasing scorer (multi-core proxy), 4-worker pool.

    This pair records the PR 4 acceptance ratio for hosts where scoring
    parallelizes: the pool keeps 4 micro-batches in flight, so throughput
    scales toward 4x the single worker."""
    _bench_wire_parallel_scoring(benchmark, served, num_workers=4)


# ----------------------------------------------------------------------
# Overload shedding: bounded admission keeps served latency flat
# ----------------------------------------------------------------------
def test_http_overload_shedding(benchmark, served):
    """Gateway driven past capacity with a tight admission bound.

    16 closed-loop clients against a single slow worker whose backlog is
    capped at 64 rows: most requests are shed with 429.  The measurement
    behind the self-protection claim — the latency of *served* requests
    stays near the unloaded service time (bounded queue → bounded wait),
    instead of growing with however much traffic arrives, and refusals
    cost the gateway almost nothing.  Shed count and served p99 are
    recorded as artifact data.
    """
    _, dataset, _, _ = served
    registry = ModelRegistry()
    registry.register("ranker", _ParallelScoringModel())
    service = RankingService(registry, default_model="ranker", num_workers=1,
                             max_batch_rows=16, max_backlog_rows=64)
    clients, requests_each, rows = 16, 12, 8
    last = {}
    with ServingServer(service, port=0) as server:
        server.start()
        probe = ServingClient(server.url)
        probe.wait_ready(timeout_s=30)

        def drain():
            batches = [dataset.batch(np.arange(i, i + rows))
                       for i in range(clients)]
            latencies: list[list[float]] = [[] for _ in range(clients)]
            sheds = [0] * clients

            def worker(index: int) -> None:
                client = ServingClient(server.url)
                for _ in range(requests_each):
                    t0 = time.monotonic()
                    try:
                        client.rank(batches[index].numeric,
                                    batches[index].sparse, top_k=5)
                    except ServingError as error:
                        assert error.status == 429  # only clean sheds
                        sheds[index] += 1
                        continue
                    latencies[index].append(time.monotonic() - t0)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(clients)]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            last["elapsed"] = time.monotonic() - started
            last["sheds"] = sum(sheds)
            return [s for bucket in latencies for s in bucket]

        latencies = benchmark.pedantic(drain, rounds=1, iterations=1,
                                       warmup_rounds=0)
    served_count = len(latencies)
    assert served_count + last["sheds"] == clients * requests_each
    assert served_count > 0
    samples = np.asarray(latencies)
    benchmark.extra_info["served"] = served_count
    benchmark.extra_info["shed"] = last["sheds"]
    benchmark.extra_info["shed_fraction"] = \
        last["sheds"] / (clients * requests_each)
    benchmark.extra_info["served_p99_ms"] = \
        latency_percentile(samples, 99) * 1000
    benchmark.extra_info["rps"] = served_count / last["elapsed"]


# ----------------------------------------------------------------------
# Result cache: hit vs miss latency, zipfian vs uniform throughput
# ----------------------------------------------------------------------
_CACHE_ROWS = 64        # candidate set size: a miss must pay real scoring


@pytest.fixture(scope="module")
def paper_served(scale):
    """Environment + a paper-sized (512x256 expert) ranker.

    The result cache matters in the regime where scoring dominates the
    request cost; the smoke-scale model underplays a miss (scoring a
    tiny tower costs about as much as the HTTP framing a hit still
    pays), so the cache benches score through the paper's largest
    configuration — 512x256 expert towers at the fig. 7 grid's 32
    experts — at every bench scale.
    """
    env = build_environment(scale)
    with nn.default_dtype(scale.np_dtype):
        model = build_model(
            "adv-hsc-moe", env.dataset.spec, env.taxonomy,
            model_config(scale).with_updates(hidden_sizes=(512, 256),
                                             num_experts=32),
            train_dataset=env.train)
    return env, env.dataset.astype(scale.np_dtype), model


def _cached_gateway(paper_served, cached: bool) -> ServingServer:
    env, _, model = paper_served
    registry = ModelRegistry()
    registry.register("ranker", model)
    service = RankingService(
        registry, default_model="ranker", num_workers=2,
        result_cache=ResultCache(max_entries=4096, ttl_s=None)
        if cached else None)
    return ServingServer(service, port=0, spec=env.dataset.spec)


def test_http_cache_hit_vs_miss_latency(benchmark, paper_served):
    """Over-the-wire p50 of a cache hit vs a scored (miss) request.

    The PR 8 acceptance measurement: a hit skips classification, the
    scorer pool, and the model entirely —
    HTTP framing, JSON, one dict lookup, one argsort.  The miss p50 is
    measured off-clock with per-request unique payloads (every request
    scores); the benchmarked drain is 30 repeats of one warm payload
    (every request hits).  Measured ≈1.7 ms hit vs ≈4.0 ms miss (ratio
    ≈0.41, ci scale, 2-vCPU container): with sparse top-K dispatch a miss
    runs 4 of the 32 towers, so a hit saves less than it did when every
    tower ran.
    """
    _, dataset, _ = paper_served
    repeats = 30
    with _cached_gateway(paper_served, cached=True) as server:
        server.start()
        client = ServingClient(server.url)
        client.wait_ready(timeout_s=30)
        warm = dataset.batch(np.arange(_CACHE_ROWS))
        client.rank(warm.numeric, warm.sparse)      # compile + fill the entry

        miss_latencies = []
        for i in range(repeats):
            unique = dataset.batch(np.arange(i + 1, i + 1 + _CACHE_ROWS))
            t0 = time.monotonic()
            client.rank(unique.numeric, unique.sparse, top_k=5)
            miss_latencies.append(time.monotonic() - t0)

        def drain_hits():
            latencies = []
            for _ in range(repeats):
                t0 = time.monotonic()
                result = client.rank(warm.numeric, warm.sparse, top_k=5)
                latencies.append(time.monotonic() - t0)
                assert result["cached"] is True
            return latencies

        hit_latencies = benchmark.pedantic(drain_hits, rounds=1,
                                           iterations=1, warmup_rounds=0)
    hit_p50 = latency_percentile(np.asarray(hit_latencies), 50)
    miss_p50 = latency_percentile(np.asarray(miss_latencies), 50)
    benchmark.extra_info["hit_p50_ms"] = hit_p50 * 1000
    benchmark.extra_info["miss_p50_ms"] = miss_p50 * 1000
    benchmark.extra_info["hit_to_miss_ratio"] = hit_p50 / miss_p50
    assert hit_p50 < 0.5 * miss_p50


def _zipf_throughput(paper_served, cached: bool) -> float:
    """Requests/s of a 3s zipfian (s=1.0, 64 keys) closed-loop run."""
    with _cached_gateway(paper_served, cached) as server:
        server.start()
        summary = run_load(server.url, duration_s=3.0, clients=6,
                           rows_per_request=_CACHE_ROWS, top_k=5,
                           zipf_s=1.0, zipf_universe=64)
        assert summary.errors == 0
        return summary.rps


def test_http_zipf_cached_vs_uncached_throughput(benchmark, paper_served):
    """Zipfian workload throughput, result cache on vs off.

    The skew-1.0 workload concentrates most requests on a handful of
    keys; with the cache on those answer without scoring, so the same
    gateway serves a multiple of the uncached request rate.  The PR 8
    acceptance ratio (target >= 2x at skew 1.0) is recorded as
    ``cached_to_uncached_ratio``; measured ≈2.6x (ci scale, 2-vCPU
    container, sparse top-K dispatch).
    """
    uncached_rps = _zipf_throughput(paper_served, cached=False)

    def cached_run():
        return _zipf_throughput(paper_served, cached=True)

    cached_rps = benchmark.pedantic(cached_run, rounds=1, iterations=1,
                                    warmup_rounds=0)
    benchmark.extra_info["cached_rps"] = cached_rps
    benchmark.extra_info["uncached_rps"] = uncached_rps
    benchmark.extra_info["cached_to_uncached_ratio"] = \
        cached_rps / uncached_rps
    assert cached_rps > 1.5 * uncached_rps


# ----------------------------------------------------------------------
# Connection scaling: 1 → 256 keep-alive sockets
# ----------------------------------------------------------------------
_SCALING_TOTAL_REQUESTS = 512           # fixed work per step, any concurrency


@pytest.mark.parametrize("clients", [1, 8, 64, 256])
def test_http_connection_scaling(benchmark, served, clients):
    """Closed-loop keep-alive clients at growing connection counts.

    The selector event loop must hold 256 concurrent sockets with zero
    errors, without a thread per connection.  The total request count is
    fixed, so each step's wall clock measures per-connection overhead,
    not extra work.
    """
    _, dataset, model, _ = served
    registry = ModelRegistry()
    registry.register("ranker", model)
    service = RankingService(registry, default_model="ranker", num_workers=4)
    requests_each = max(1, _SCALING_TOTAL_REQUESTS // clients)
    last = {}
    with ServingServer(service, port=0) as server:
        server.start()
        probe = ServingClient(server.url)
        probe.wait_ready(timeout_s=30)
        warmup = dataset.batch(np.arange(_WIRE_ROWS))
        probe.rank(warmup.numeric, warmup.sparse)   # compile plans off-clock

        def drain():
            elapsed, latencies, errors = _drain_over_wire(
                server.url, dataset, clients, requests_each, _WIRE_ROWS)
            last.update(elapsed=elapsed, latencies=latencies, errors=errors)
            return latencies

        # One timed round per step: a 256-thread drain is itself a long
        # operation, and the sweep's shape matters more than its noise.
        latencies = benchmark.pedantic(drain, rounds=1, iterations=1,
                                       warmup_rounds=0)
    # Zero errors at every connection count is the acceptance gate.
    assert last["errors"] == 0, f"{last['errors']} errors at {clients} clients"
    assert len(latencies) == clients * requests_each
    samples = np.asarray(last["latencies"])
    total_rows = clients * requests_each * _WIRE_ROWS
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["errors"] = last["errors"]
    benchmark.extra_info["rows_per_s"] = total_rows / last["elapsed"]
    benchmark.extra_info["p50_ms"] = latency_percentile(samples, 50) * 1000
    benchmark.extra_info["p95_ms"] = latency_percentile(samples, 95) * 1000


# ----------------------------------------------------------------------
# The adaptive micro-batch cap on the ScorerPool
# ----------------------------------------------------------------------
_CAP_REQUESTS = 96
_CAP_ROWS = 8
_CAP_SUBMITTERS = 4
_CAP_DELAY_PER_ROW_S = 0.00025


def test_pool_adaptive_cap(benchmark, served):
    """Drain a concurrent burst through a 4-worker pool under the
    adaptive cap with default clamps (no per-deployment tuning), with the
    GIL-releasing proxy scorer: the regime where the per-worker cap
    matters, because scoring parallelizes and how the backlog is split
    across workers decides the wall clock (per-device batch caps, as in
    GPU serving).
    """
    from concurrent.futures import ThreadPoolExecutor

    _, dataset, _, _ = served
    requests = [dataset.batch(np.arange(i % 64, i % 64 + _CAP_ROWS))
                for i in range(_CAP_REQUESTS)]
    proxy = _ParallelScoringModel(_CAP_DELAY_PER_ROW_S)
    with ScorerPool(proxy.make_scorer, num_workers=4,
                    max_batch_rows=256) as pool:
        def drain():
            with ThreadPoolExecutor(max_workers=_CAP_SUBMITTERS) as executor:
                futures = list(executor.map(pool.submit, requests))
            return [future.result(timeout=60) for future in futures]

        results = benchmark(drain)
        stats = pool.stats()
    assert len(results) == _CAP_REQUESTS
    benchmark.extra_info["mean_batch_rows"] = stats.mean_batch_rows
    benchmark.extra_info["throughput_rows_per_s"] = stats.throughput_rows_per_s


# ----------------------------------------------------------------------
# Multi-process scorer scaling (PR 9)
# ----------------------------------------------------------------------
_PROC_CLIENTS = 8
_PROC_REQUESTS_EACH = 4
_PROC_ROWS = 64


@pytest.fixture(scope="module")
def process_gateway_dir(paper_served, tmp_path_factory):
    """Checkpoint directory for the paper-sized ranker (the regime where
    scoring — BLAS, GIL-released — dominates the request cost)."""
    env, dataset, model = paper_served
    directory = tmp_path_factory.mktemp("proc-scaling-ckpts")
    save_environment(directory, dataset.spec, env.taxonomy)
    save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    return directory


def _bench_process_scaling(benchmark, paper_served, directory,
                           scorer_processes: int) -> None:
    """Closed-loop drain through ``--scorer-processes N``.

    ``scorer_processes=0`` is the in-process 2-worker pool baseline; with
    N > 0 the pool binds one worker thread per scorer process, so the
    sweep isolates the process boundary (frame codec + pipe hop + true
    multi-core scoring) against identical micro-batching.  The PR 9
    acceptance number is rows/s at 2 processes ≥ 1.7× the baseline on a
    multi-core host; single-core CI runs record the overhead instead.
    """
    _, dataset, _ = paper_served
    last = {}
    server = serve_from_directory(directory, port=0, num_workers=2,
                                  scorer_processes=scorer_processes)
    try:
        server.start()
        probe = ServingClient(server.url)
        probe.wait_ready(timeout_s=60)
        warmup = dataset.batch(np.arange(_PROC_ROWS))
        probe.rank(warmup.numeric, warmup.sparse)   # spawn children off-clock

        def drain():
            elapsed, latencies, errors = _drain_over_wire(
                server.url, dataset, _PROC_CLIENTS, _PROC_REQUESTS_EACH,
                _PROC_ROWS)
            assert errors == 0
            last["elapsed"] = elapsed
            last["latencies"] = latencies
            return latencies

        benchmark(drain)
        scorers = probe.stats()["scorers"]
    finally:
        server.close()
    total_rows = _PROC_CLIENTS * _PROC_REQUESTS_EACH * _PROC_ROWS
    samples = np.asarray(last["latencies"])
    pool = next(iter(scorers.values()))
    benchmark.extra_info["scorer_processes"] = scorer_processes
    benchmark.extra_info["rows_per_s"] = total_rows / last["elapsed"]
    benchmark.extra_info["requests_per_s"] = len(samples) / last["elapsed"]
    benchmark.extra_info["p50_ms"] = latency_percentile(samples, 50) * 1000
    benchmark.extra_info["p95_ms"] = latency_percentile(samples, 95) * 1000
    benchmark.extra_info["process_busy_seconds"] = pool["process_busy_seconds"]
    assert pool["processes"] == scorer_processes
    assert pool["process_restarts"] == 0


@pytest.mark.parametrize("processes", [0, 1, 2])
def test_http_process_scaling(benchmark, paper_served, process_gateway_dir,
                              processes):
    """rows/s at 0 (in-process baseline) → 1 → 2 scorer processes."""
    _bench_process_scaling(benchmark, paper_served, process_gateway_dir,
                           processes)

