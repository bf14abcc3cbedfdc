"""Tests for :class:`repro.serving.ScorerPool`: concurrency, hot reload, and
micro-batch assembly properties.

Covers the pool semantics:

* per-worker compiled plans (one factory call per worker, exclusive use),
* the single-worker pool around one score function
  (``ScorerPool(lambda: fn, num_workers=1)``): coalescing, error
  propagation, and non-finite scores failing only their own request,
* aggregate + per-worker stats with conserved row/request counts,
* the hot-reload soak: traffic through a :class:`RankingService` while a
  checkpoint directory reload swaps model versions mid-flight — every
  response must match the single-thread reference scores of whichever
  version served it,
* a hypothesis property test: for random request sizes and arrival
  patterns, pooled results equal per-request ``score()`` and no rows are
  lost or duplicated across workers.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, serving
from repro.models import build_model
from repro.serving import (ModelRegistry, NonFiniteScores, PoolOverloaded,
                           RankingService, ScorerPool, ScorerStats,
                           concat_batches, latency_percentile)


@pytest.fixture(scope="module")
def model(dataset, taxonomy, tiny_model_config):
    return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                       tiny_model_config, train_dataset=dataset)


class TestScorerPool:
    def test_pooled_scores_match_reference(self, model, dataset):
        batches = [dataset.batch(np.arange(i, i + 5)) for i in range(30)]
        expected = [model.score(b) for b in batches]
        with ScorerPool(model.make_scorer, num_workers=3,
                        max_batch_rows=32) as pool:
            futures = [pool.submit(b) for b in batches]
            for future, want in zip(futures, expected):
                np.testing.assert_allclose(future.result(timeout=10), want,
                                           atol=1e-12)

    def test_factory_called_once_per_worker(self, model):
        calls = []

        def factory():
            calls.append(threading.get_ident())
            return model.make_scorer()

        with ScorerPool(factory, num_workers=3) as pool:
            assert pool.num_workers == 3
        # Called on the constructing thread (compile failures surface to
        # the caller, not inside a daemon thread), once per worker.
        assert calls == [threading.get_ident()] * 3

    def test_factory_failure_raises_at_construction(self):
        def broken_factory():
            raise RuntimeError("compile exploded")

        with pytest.raises(RuntimeError, match="compile exploded"):
            ScorerPool(broken_factory, num_workers=2)

    def test_workers_run_concurrently(self, dataset):
        """With blocking score closures, a pool must overlap requests —
        wall clock proves more than one worker actually scored."""
        delay = 0.05

        def factory():
            def slow_score(batch):
                time.sleep(delay)
                return np.zeros(len(batch))
            return slow_score

        requests = [dataset.batch(np.arange(i, i + 2)) for i in range(4)]
        # max_batch_rows == one request's rows: every micro-batch is one
        # request, so the four requests need four worker slots to overlap.
        with ScorerPool(factory, num_workers=4, max_batch_rows=2) as pool:
            started = time.monotonic()
            futures = [pool.submit(b) for b in requests]
            for future in futures:
                future.result(timeout=10)
            elapsed = time.monotonic() - started
            per_worker = pool.worker_stats()
        assert elapsed < 4 * delay          # serial execution would be ≥ 4*delay
        assert sum(1 for s in per_worker if s.batches) >= 2

    def test_stats_aggregate_and_per_worker_conserved(self, model, dataset):
        sizes = [3, 5, 2, 7, 4, 6, 1, 8]
        with ScorerPool(model.make_scorer, num_workers=3,
                        max_batch_rows=16) as pool:
            futures = [pool.submit(dataset.batch(np.arange(s))) for s in sizes]
            for future in futures:
                future.result(timeout=10)
            stats = pool.stats()
            per_worker = pool.worker_stats()
        assert stats.workers == 3 and len(per_worker) == 3
        assert stats.requests == len(sizes)
        assert stats.rows == sum(sizes)
        # Conservation across workers: nothing lost, nothing double-counted.
        assert sum(s.requests for s in per_worker) == stats.requests
        assert sum(s.rows for s in per_worker) == stats.rows
        assert sum(s.batches for s in per_worker) == stats.batches
        assert stats.latency_samples == sum(s.latency_samples for s in per_worker)

    def test_submit_after_close_raises(self, model, dataset):
        pool = ScorerPool(model.make_scorer, num_workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(dataset.batch(np.arange(3)))

    def test_close_completes_pending(self, model, dataset):
        batch = dataset.batch(np.arange(6))
        pool = ScorerPool(model.make_scorer, num_workers=2)
        future = pool.submit(batch)
        pool.close()
        np.testing.assert_array_equal(future.result(timeout=10),
                                      model.score(batch))

    def test_invalid_num_workers_rejected(self, model):
        with pytest.raises(ValueError):
            ScorerPool(model.make_scorer, num_workers=0)


class TestSingleWorkerPool:
    """``ScorerPool(lambda: fn, num_workers=1)``: one worker around one
    score function, which only that worker ever calls (a compiled plan's
    scratch buffers are not thread-safe)."""

    def test_concurrent_requests_micro_batched(self, model, dataset):
        batches = [dataset.batch(np.arange(i, i + 5)) for i in range(40)]
        expected = [model.score(b) for b in batches]
        release = threading.Event()

        def gated(batch):
            release.wait(10)            # hold the worker while 40 queue up
            return model.score(batch)

        with ScorerPool(lambda: gated, num_workers=1,
                        max_batch_rows=64) as pool:
            futures = [pool.submit(b) for b in batches]
            release.set()
            for future, want in zip(futures, expected):
                np.testing.assert_allclose(future.result(timeout=10), want,
                                           atol=1e-12)
            stats = pool.stats()
        assert stats.requests == 40
        assert stats.rows == 200
        assert stats.batches < 40           # coalescing actually happened
        assert stats.mean_batch_rows > 5.0
        assert stats.throughput_rows_per_s > 0
        assert stats.max_latency_ms >= stats.mean_latency_ms > 0

    def test_close_completes_pending(self, model, dataset):
        batch = dataset.batch(np.arange(24))
        pool = ScorerPool(lambda: model.score, num_workers=1)
        future = pool.submit(batch)
        pool.close()
        np.testing.assert_array_equal(future.result(timeout=10),
                                      model.score(batch))

    def test_exception_propagates_to_future(self, dataset):
        def broken(_):
            raise RuntimeError("model exploded")
        with ScorerPool(lambda: broken, num_workers=1) as pool:
            future = pool.submit(dataset.batch(np.arange(4)))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=10)

    def test_worker_survives_bad_requests(self, model, dataset):
        """Merge failures and bad score shapes must fail the waiting
        futures, not kill the worker (which would hang later callers)."""
        batch = dataset.batch(np.arange(24))
        with ScorerPool(lambda: model.score, num_workers=1) as pool:
            malformed = dataset.batch(np.arange(4))
            malformed.sparse = {"only_key": np.zeros(4, dtype=np.int64)}
            with pytest.raises(Exception):
                pool.submit(malformed).result(timeout=10)
            # Worker still alive and scoring correctly afterwards.
            np.testing.assert_array_equal(pool.score(batch),
                                          model.score(batch))

    def test_worker_survives_scalar_score_fn(self, dataset):
        with ScorerPool(lambda: lambda b: np.float64(0.5),
                        num_workers=1) as pool:
            with pytest.raises(ValueError, match="shape"):
                pool.submit(dataset.batch(np.arange(4))).result(timeout=10)

    def test_non_finite_scores_fail_only_their_request(self, dataset):
        """Requests whose own rows score NaN or inf fail with
        NonFiniteScores; a finite request in the same micro-batch is
        still answered."""
        started, release = threading.Event(), threading.Event()

        def first_column(batch):
            started.set()
            release.wait(10)
            return np.asarray(batch.numeric[:, 0], dtype=np.float64)

        def poisoned(rows, value):
            batch = dataset.batch(rows)
            batch.numeric = np.array(batch.numeric, dtype=np.float64)
            batch.numeric[1, 0] = value
            return batch

        good = dataset.batch(np.arange(4))
        with ScorerPool(lambda: first_column, num_workers=1) as pool:
            blocker = pool.submit(dataset.batch(np.arange(2)))
            assert started.wait(10)     # the worker holds the blocker
            futures = [pool.submit(good),
                       pool.submit(poisoned(np.arange(4, 8), np.nan)),
                       pool.submit(poisoned(np.arange(8, 12), -np.inf))]
            release.set()
            blocker.result(timeout=10)
            np.testing.assert_array_equal(futures[0].result(timeout=10),
                                          good.numeric[:, 0])
            for future in futures[1:]:
                with pytest.raises(NonFiniteScores, match="1 of 4 rows"):
                    future.result(timeout=10)
            stats = pool.stats()
        assert stats.batches == 2           # the three shared one batch

    def test_concat_batches_round_trip(self, dataset):
        a, b = dataset.batch(np.arange(5)), dataset.batch(np.arange(5, 12))
        merged = concat_batches([a, b])
        assert len(merged) == 12
        np.testing.assert_array_equal(merged.numeric[:5], a.numeric)
        np.testing.assert_array_equal(merged.sparse["query_sc"][5:],
                                      b.sparse["query_sc"])

    def test_invalid_knobs_rejected(self, model):
        with pytest.raises(ValueError):
            ScorerPool(lambda: model.score, num_workers=1, max_batch_rows=0)


class TestAdmissionBound:
    """The pool's overload self-protection: a bounded backlog that sheds
    over-budget submissions with :class:`PoolOverloaded` instead of
    queueing without limit."""

    @staticmethod
    def _gated_factory(release):
        """Score closures that block until ``release`` is set — lets a
        test pin the backlog at a known size."""
        def factory():
            def gated_score(batch):
                release.wait(10)
                return np.zeros(len(batch))
            return gated_score
        return factory

    def test_over_bound_submit_sheds(self, dataset):
        release = threading.Event()
        with ScorerPool(self._gated_factory(release), num_workers=1,
                        max_batch_rows=4,
                        max_backlog_rows=8, name="bounded") as pool:
            # First submit is collected by the worker (blocks in score);
            # the next fills the backlog to the bound.
            first = pool.submit(dataset.batch(np.arange(4)))
            time.sleep(0.05)            # let the worker collect it
            second = pool.submit(dataset.batch(np.arange(8)))
            with pytest.raises(PoolOverloaded) as excinfo:
                pool.submit(dataset.batch(np.arange(4)))
            error = excinfo.value
            assert error.name == "bounded"
            assert error.backlog_rows == 8
            assert error.max_backlog_rows == 8
            assert error.retry_after_s > 0
            stats = pool.stats()
            assert stats.backlog_rows == 8
            assert stats.max_backlog_rows == 8
            assert stats.shed_requests == 1
            assert stats.shed_rows == 4
            release.set()
            # Shedding must not disturb admitted work.
            assert first.result(timeout=10).shape == (4,)
            assert second.result(timeout=10).shape == (8,)
        final = pool.stats()
        assert final.requests == 2 and final.rows == 12

    def test_idle_pool_admits_oversized_request(self, dataset):
        """An empty pool accepts a request larger than the whole bound:
        refusing it would make the request unservable forever, and an
        idle pool is by definition not overloaded."""
        def factory():
            return lambda batch: np.zeros(len(batch))

        with ScorerPool(factory, num_workers=1, max_batch_rows=64,
                        max_backlog_rows=8) as pool:
            future = pool.submit(dataset.batch(np.arange(32)))
            assert future.result(timeout=10).shape == (32,)
            assert pool.stats().shed_requests == 0

    def test_drain_rate_and_retry_after(self, dataset):
        def factory():
            return lambda batch: np.zeros(len(batch))

        with ScorerPool(factory, num_workers=1, max_batch_rows=64,
                        max_backlog_rows=100) as pool:
            for _ in range(5):
                pool.submit(dataset.batch(np.arange(10))).result(timeout=10)
            rate = pool.drain_rate_rows_per_s()
            assert rate > 0
            retry = pool.retry_after_s()
            assert 0.5 <= retry <= 30.0
        # A pool that never drained anything still gives a usable hint.
        fresh = ScorerPool(factory, num_workers=1, max_backlog_rows=10)
        try:
            assert fresh.retry_after_s() == pytest.approx(1.0)
        finally:
            fresh.close()

    def test_invalid_bound_rejected(self, model):
        with pytest.raises(ValueError):
            ScorerPool(model.make_scorer, num_workers=1, max_backlog_rows=0)

    def test_unbounded_pool_reports_none(self, model, dataset):
        with ScorerPool(model.make_scorer, num_workers=1) as pool:
            pool.submit(dataset.batch(np.arange(3))).result(timeout=10)
            stats = pool.stats()
        assert stats.max_backlog_rows is None
        assert stats.shed_requests == 0


class TestAdaptiveCap:
    """The adaptive micro-batch policy: cap = clamp(ceil(backlog /
    workers), min_batch_rows, max_batch_rows), recomputed at collect
    time (every worker rejoins within one batch, so the fair share is
    over the whole pool)."""

    def test_defaults(self, model):
        """Default clamps: an idle pool's cap is min_batch_rows=8, and no
        backlog widens it past max_batch_rows=256."""
        with ScorerPool(model.make_scorer, num_workers=2) as pool:
            assert pool.current_batch_cap() == 8
            assert pool._collect_cap(10_000) == 256

    def test_cap_formula(self, model):
        """White-box: the clamp arithmetic over the live backlog."""
        with ScorerPool(model.make_scorer, num_workers=4, max_batch_rows=64,
                        min_batch_rows=4) as pool:
            def cap_at(backlog, held=0):
                with pool._state_lock:
                    pool._backlog_rows = backlog
                try:
                    return pool._collect_cap(held)
                finally:
                    with pool._state_lock:
                        pool._backlog_rows = 0

            assert cap_at(0) == 4               # idle pool: min clamp
            assert cap_at(64) == 16             # 64 rows over 4 workers
            assert cap_at(100) == 25            # per-pool share, ceil'd up
            assert cap_at(101) == 26
            assert cap_at(10_000) == 64         # max clamp holds
            assert cap_at(18, held=6) == 6      # held rows count as backlog
            assert cap_at(0, held=40) == 10     # share of what's in hand

    def test_min_cap_clamped_to_max(self, model):
        with ScorerPool(model.make_scorer, num_workers=2, max_batch_rows=2,
                        min_batch_rows=8) as pool:
            assert pool.current_batch_cap() == 2

    def test_invalid_min_batch_rows_rejected(self, model):
        with pytest.raises(ValueError):
            ScorerPool(model.make_scorer, min_batch_rows=0)

    def test_idle_pool_scores_without_straggler_wait(self, model, dataset):
        """The latency half of the policy: with no backlog the cap
        collapses to min_batch_rows, so a request that already meets it
        is scored immediately."""
        batch = dataset.batch(np.arange(8))     # 8 rows ≥ min_batch_rows
        with ScorerPool(model.make_scorer, num_workers=2,
                        max_batch_rows=256, min_batch_rows=8) as pool:
            started = time.monotonic()
            pool.score(batch)
            elapsed = time.monotonic() - started
        assert elapsed < 0.2

    def test_lone_small_request_skips_straggler_wait(self, model, dataset):
        """A request below min_batch_rows into an idle pool is scored at
        once: with nothing queued there is no straggler to wait for."""
        batch = dataset.batch(np.arange(6))     # 6 rows < min_batch_rows
        with ScorerPool(model.make_scorer, num_workers=2,
                        max_batch_rows=256, min_batch_rows=8) as pool:
            started = time.monotonic()
            scores = pool.score(batch)
            elapsed = time.monotonic() - started
        np.testing.assert_array_equal(scores, model.score(batch))
        assert elapsed < 0.2

    def test_backlog_splits_across_workers(self, model, dataset):
        """The throughput half: a queued burst is coalesced into
        multi-request micro-batches bounded by the adaptive cap."""
        requests = [dataset.batch(np.arange(i % 8, i % 8 + 4))
                    for i in range(48)]
        expected = [model.score(b) for b in requests]
        release = threading.Event()

        def factory():
            plan = model.make_scorer()      # per-worker: plans aren't shared

            def gated(batch):
                release.wait(10)
                return plan(batch)
            return gated

        with ScorerPool(factory, num_workers=2, max_batch_rows=64,
                        min_batch_rows=4) as pool:
            futures = [pool.submit(b) for b in requests]
            release.set()
            results = [f.result(timeout=30) for f in futures]
            stats = pool.stats()
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)
        assert stats.rows == 48 * 4
        assert stats.mean_batch_rows > 4.0      # the backlog coalesced
        assert stats.batches < len(requests)


class TestScorerStatsWindow:
    """Empty/low-sample latency semantics are pinned, not numpy accidents."""

    def test_empty_window_is_all_zeros(self, model):
        with ScorerPool(lambda: model.score, num_workers=1) as pool:
            stats = pool.stats()
        assert stats.latency_samples == 0
        assert stats.mean_latency_ms == 0.0
        assert stats.p95_latency_ms == 0.0
        assert stats.max_latency_ms == 0.0
        assert stats.mean_batch_rows == 0.0
        assert stats.throughput_rows_per_s == 0.0

    def test_single_sample_percentile_is_that_sample(self, model, dataset):
        with ScorerPool(lambda: model.score, num_workers=1) as pool:
            pool.score(dataset.batch(np.arange(4)))
            stats = pool.stats()
        assert stats.latency_samples == 1
        assert stats.p95_latency_ms == stats.max_latency_ms > 0.0
        assert stats.mean_latency_ms == stats.max_latency_ms

    def test_percentile_never_interpolates_below_observations(self):
        samples = np.asarray([0.010, 0.020, 0.100])
        assert latency_percentile(samples, 95) == 0.100
        assert latency_percentile(samples, 50) == 0.020
        assert latency_percentile(np.asarray([]), 95) == 0.0

    def test_from_window_counts_samples(self):
        stats = ScorerStats.from_window(requests=3, rows=9, batches=2,
                                        busy_seconds=0.5,
                                        latencies=np.asarray([0.001, 0.003]))
        assert stats.latency_samples == 2
        assert stats.max_latency_ms == pytest.approx(3.0)


class TestHotReloadSoak:
    """M client threads × K models under a pool while checkpoints hot-swap.

    Every response must match the single-thread reference scores for
    whichever version served it — no torn reads, no stale-plan crashes —
    and the new version must actually take traffic mid-flight.
    """

    def test_soak_under_hot_reload(self, dataset, taxonomy, tiny_model_config,
                                   tmp_path):
        names = ["ranker_a", "ranker_b"]
        versions = {}                    # (name, version) -> reference scores
        batch = dataset.batch(np.arange(16))

        def make_version(seed):
            return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                               tiny_model_config.with_updates(seed=seed),
                               train_dataset=dataset)

        models = {name: make_version(seed)
                  for seed, name in enumerate(names)}
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        for name, m in models.items():
            serving.save_checkpoint(m, tmp_path / name, "adv-hsc-moe")
            versions[(name, 1)] = m.score(batch)

        registry = ModelRegistry()
        registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        failures = []
        observed_versions = set()
        stop = threading.Event()

        with RankingService(registry,
                            num_workers=3) as service:
            def client(index):
                name = names[index % len(names)]
                # Any escaping exception (e.g. a stale-pool crash during
                # the swap) must land in `failures`, not die with the
                # thread — the soak exists to assert no-crash under reload.
                try:
                    while not stop.is_set():
                        response = service.rank(batch, model=name,
                                                top_k=len(batch))
                        key = (name, response.model_version)
                        observed_versions.add(key)
                        reference = versions.get(key)
                        if reference is None:
                            failures.append(f"unknown version served: {key}")
                            return
                        if not np.allclose(reference[response.indices],
                                           response.scores, atol=1e-9):
                            failures.append(f"scores mismatch for {key}")
                            return
                except BaseException as error:
                    failures.append(f"client {index} crashed: {error!r}")

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            # Hot swap both models to fresh weights while traffic flows.
            time.sleep(0.05)
            for seed, name in enumerate(names):
                fresh = make_version(seed + 10)
                versions[(name, 2)] = fresh.score(batch)
                serving.save_checkpoint(fresh, tmp_path / name, "adv-hsc-moe")
            registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
            time.sleep(0.15)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        # The reload took effect under traffic for every model name.
        for name in names:
            assert (name, 2) in observed_versions
            assert registry.latest_version(name) == 2


class TestMicroBatchAssemblyProperties:
    """Property test: pooled micro-batch assembly is exact and conservative.

    For random request sizes, worker counts, and batching knobs, the
    concatenated pool results must equal per-request ``score()`` (within
    the parity suite's f64 tolerance — same compiled kernels, but BLAS may
    reassociate across batch sizes) and row/request counts must be
    conserved across workers.
    """

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=12),
                          min_size=1, max_size=16),
           num_workers=st.integers(min_value=1, max_value=4),
           max_batch_rows=st.integers(min_value=1, max_value=48),
           submitters=st.integers(min_value=1, max_value=4))
    def test_assembly_exact_and_conserved(self, model, dataset, sizes,
                                          num_workers, max_batch_rows,
                                          submitters):
        requests = [dataset.batch(np.arange(i % 8, i % 8 + size))
                    for i, size in enumerate(sizes)]
        expected = [model.score(b) for b in requests]
        with ScorerPool(model.make_scorer, num_workers=num_workers,
                        max_batch_rows=max_batch_rows) as pool:
            # Random-ish arrival: requests fan out over several submitter
            # threads, so enqueue order interleaves with worker collection.
            with ThreadPoolExecutor(max_workers=submitters) as executor:
                futures = list(executor.map(pool.submit, requests))
            results = [future.result(timeout=30) for future in futures]
            stats = pool.stats()
            per_worker = pool.worker_stats()
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)
        assert stats.requests == len(sizes)
        assert stats.rows == sum(sizes)
        assert sum(s.rows for s in per_worker) == stats.rows
        assert sum(s.requests for s in per_worker) == stats.requests

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=10),
                          min_size=1, max_size=10))
    def test_assembly_float32(self, dataset, taxonomy, tiny_model_config,
                              sizes, f32_model_and_dataset):
        model32, dataset32 = f32_model_and_dataset
        requests = [dataset32.batch(np.arange(size)) for size in sizes]
        expected = [model32.score(b) for b in requests]
        with ScorerPool(model32.make_scorer, num_workers=2,
                        max_batch_rows=24) as pool:
            futures = [pool.submit(b) for b in requests]
            results = [future.result(timeout=30) for future in futures]
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.fixture(scope="module")
def f32_model_and_dataset(dataset, taxonomy, tiny_model_config):
    with nn.default_dtype(np.float32):
        model32 = build_model("dnn", dataset.spec, taxonomy, tiny_model_config)
    return model32, dataset.astype(np.float32)
