"""Tests for the version-keyed result cache (:mod:`repro.serving.cache`).

Four layers: :func:`canonical_key` canonicalization, the
:class:`ResultCache` LRU/TTL mechanics (with an injected clock — no
sleeps), the service/gateway integration — cached answers must be
bit-identical to recomputation per model version, a hot reload must make
new-version answers immediately visible (the version lives in the key),
and degraded fallback answers must never be cached — and the gateway's
body-digest memo, which answers a repeated ``/rank`` body from its bytes.
"""

import json
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import serving
from repro.models import build_model
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
from repro.serving import (BreakerConfig, ModelRegistry, RankingService,
                           ResultCache, ServingClient, candidate_batch,
                           canonical_key)
from repro.serving import service as service_module
from repro.serving.handlers import GatewayDispatcher


# ----------------------------------------------------------------------
# canonical_key
# ----------------------------------------------------------------------
class TestCanonicalKey:
    def test_sparse_dict_order_independent(self):
        numeric = np.arange(6.0).reshape(2, 3)
        a = {"brand": np.array([1, 2]), "item_sc": np.array([3, 4])}
        b = {"item_sc": np.array([3, 4]), "brand": np.array([1, 2])}
        assert list(a) != list(b)       # genuinely different insertion order
        assert canonical_key(numeric, a) == canonical_key(numeric, b)

    def test_dtype_stable(self):
        # The same values arriving as f32/f64 or i32/i64 must collide:
        # clients serialize however their JSON decoder decided.
        f64 = np.array([[0.5, -1.25]], dtype=np.float64)
        f32 = np.array([[0.5, -1.25]], dtype=np.float32)
        assert canonical_key(f64) == canonical_key(f32)
        i64 = {"a": np.array([1, 2], dtype=np.int64)}
        i32 = {"a": np.array([1, 2], dtype=np.int32)}
        assert canonical_key(f64, i64) == canonical_key(f64, i32)

    def test_negative_zero_collapses(self):
        assert canonical_key(np.array([[0.0]])) == \
            canonical_key(np.array([[-0.0]]))

    def test_nan_bit_patterns_collapse(self):
        # -nan carries a different sign bit than the quiet nan; for
        # caching purposes all NaNs are the same (scoring treats them
        # identically), so the keys must match.
        quiet = np.array([[np.nan, 1.0]])
        negative = np.array([[-np.nan, 1.0]])
        assert np.signbit(negative[0, 0]) != np.signbit(quiet[0, 0])
        assert canonical_key(quiet) == canonical_key(negative)

    def test_values_and_names_change_the_key(self):
        numeric = np.ones((2, 2))
        base = canonical_key(numeric, {"a": np.array([1])})
        assert canonical_key(numeric + 1, {"a": np.array([1])}) != base
        assert canonical_key(numeric, {"a": np.array([2])}) != base
        assert canonical_key(numeric, {"b": np.array([1])}) != base

    def test_shape_is_part_of_the_digest(self):
        flat = np.arange(6.0)
        assert canonical_key(flat.reshape(2, 3)) != \
            canonical_key(flat.reshape(3, 2))

    def test_extra_scopes_the_key(self):
        numeric = np.zeros((1, 2))
        assert canonical_key(numeric, extra=("classify",)) != \
            canonical_key(numeric, extra=("rank",))

    def test_input_not_mutated(self):
        # NaN canonicalization happens on an internal copy.
        numeric = np.array([[-np.nan, -0.0]])
        before = numeric.copy()
        canonical_key(numeric)
        np.testing.assert_array_equal(
            numeric.view(np.int64), before.view(np.int64))


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestResultCache:
    def test_rejects_disabled_configurations(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0.0)

    def test_ttl_expiry_counts_and_drops(self):
        clock = _FakeClock()
        cache = ResultCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.put("k", "v")
        clock.now += 9.99
        assert cache.get("k") == "v"
        clock.now += 10.0               # stale relative to the original put
        assert cache.get("k") is None
        assert len(cache) == 0          # expired entries are removed
        snap = cache.snapshot()
        assert snap["expired"] == 1
        assert snap["misses"] == 1 and snap["hits"] == 1

    def test_put_refreshes_ttl(self):
        clock = _FakeClock()
        cache = ResultCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.put("k", "old")
        clock.now += 8.0
        cache.put("k", "new")
        clock.now += 8.0                # 16s after first put, 8s after second
        assert cache.get("k") == "new"

    def test_no_ttl_never_expires(self):
        clock = _FakeClock()
        cache = ResultCache(max_entries=4, ttl_s=None, clock=clock)
        cache.put("k", "v")
        clock.now += 1e9
        assert cache.get("k") == "v"

    def test_lru_eviction_respects_recency(self):
        cache = ResultCache(max_entries=2, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # touch: a is now most recent
        cache.put("c", 3)               # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.snapshot()["evictions"] == 1

    def test_peek_moves_no_counter_and_no_lru_order(self):
        clock = _FakeClock()
        cache = ResultCache(max_entries=2, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        before = cache.snapshot()
        assert cache.peek("a") == 1 and cache.peek("ghost") is None
        assert cache.snapshot() == before
        cache.put("c", 3)               # a stayed least recent: evicted
        assert cache.peek("a") is None and cache.peek("b") == 2
        clock.now += 10.0
        assert cache.peek("b") is None  # expired, but left for get to count
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.snapshot()["expired"] == 1

    def test_hit_rate(self):
        cache = ResultCache(max_entries=2, ttl_s=None)
        cache.put("a", 1)
        cache.get("a")
        cache.get("ghost")
        assert cache.snapshot()["hit_rate"] == pytest.approx(0.5)

    def test_clear(self):
        cache = ResultCache(max_entries=2, ttl_s=None)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model(dataset, taxonomy, tiny_model_config):
    return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                       tiny_model_config, train_dataset=dataset)


@pytest.fixture(scope="module")
def classifier(log, taxonomy):
    return QueryCategoryClassifier(
        log.queries.vocab_size, taxonomy.max_sc_id() + 1,
        QueryClassifierConfig(embedding_dim=8, hidden_size=10))


@pytest.fixture()
def batch(dataset):
    return dataset.batch(np.arange(16))


def _cached_service(registry, **kwargs):
    return RankingService(registry,
                          result_cache=ResultCache(max_entries=64,
                                                   ttl_s=None),
                          **kwargs)


class TestServiceCaching:
    def test_hit_is_bit_identical_to_compute(self, model, batch):
        registry = ModelRegistry()
        registry.register("ranker", model)
        with _cached_service(registry, default_model="ranker") as service:
            first = service.rank(batch, top_k=7)
            second = service.rank(batch, top_k=7)
        assert first.cached is False and second.cached is True
        # Bit-identical, not just allclose: the cache hands back the
        # array the compute path produced.
        np.testing.assert_array_equal(first.scores, second.scores)
        np.testing.assert_array_equal(first.indices, second.indices)
        assert second.model_version == first.model_version
        snap = service.result_cache.snapshot()
        assert snap["hits"] == 1

    def test_entries_are_pre_topk_so_topk_variants_share(self, model, batch):
        registry = ModelRegistry()
        registry.register("ranker", model)
        with _cached_service(registry, default_model="ranker") as service:
            service.rank(batch, top_k=3)
            wider = service.rank(batch, top_k=9)
        assert wider.cached is True
        assert wider.indices.shape == (9,)
        direct = model.score(batch)
        np.testing.assert_allclose(wider.scores,
                                   np.sort(direct)[::-1][:9], atol=1e-12)

    def test_version_in_key_isolates_reloads(self, model, dataset, taxonomy,
                                             tiny_model_config, batch):
        fresh = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                            tiny_model_config.with_updates(seed=77),
                            train_dataset=dataset)
        registry = ModelRegistry()
        registry.register("ranker", model)
        with _cached_service(registry, default_model="ranker") as service:
            v1 = service.rank(batch, top_k=5)
            assert service.rank(batch, top_k=5).cached is True
            registry.register("ranker", fresh)      # the hot reload
            v2 = service.rank(batch, top_k=5)
            # New version: structurally a miss, answered by the new model.
            assert v2.cached is False
            assert v2.model_version == 2
            np.testing.assert_allclose(
                v2.scores, np.sort(fresh.score(batch))[::-1][:5], atol=1e-12)
            assert service.rank(batch, top_k=5).cached is True
            # A caller pinning the old version still hits its own entry.
            pinned = service.rank(batch, top_k=5, version=1)
            assert pinned.cached is True
            assert pinned.model_version == 1
            np.testing.assert_array_equal(pinned.scores, v1.scores)

    def test_degraded_answers_never_cached(self, batch):
        class _Bomb:
            armed = True

            def score(self, b):
                if self.armed:
                    raise RuntimeError("model exploded")
                return np.zeros(len(b))

        registry = ModelRegistry()
        registry.register("m", _Bomb())
        with RankingService(
                registry, default_model="m",
                result_cache=ResultCache(max_entries=64, ttl_s=None),
                breaker_config=BreakerConfig(window_s=10.0,
                                             failure_threshold=0.5,
                                             min_requests=2,
                                             cooldown_s=60.0)) as service:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    service.rank(batch)
            degraded = service.rank(batch)
            assert degraded.degraded is True
            assert degraded.cached is False
            # Nothing was stored: a repeat is computed (degraded) again,
            # and the outage's prior can never shadow a healthy answer.
            assert len(service.result_cache) == 0
            repeat = service.rank(batch)
            assert repeat.degraded is True and repeat.cached is False
            assert len(service.result_cache) == 0

    def test_classify_memoized(self, model, classifier, taxonomy, log):
        registry = ModelRegistry()
        registry.register("ranker", model)
        queries = log.queries
        with _cached_service(registry, default_model="ranker",
                             classifier=classifier,
                             taxonomy=taxonomy) as service:
            first = service.classify_query(queries.tokens[0],
                                           queries.lengths[0])
            hits_before = service.result_cache.snapshot()["hits"]
            second = service.classify_query(queries.tokens[0],
                                            queries.lengths[0])
        assert second == first
        assert service.result_cache.snapshot()["hits"] == hits_before + 1

    def test_uncached_service_never_marks_cached(self, model, batch):
        registry = ModelRegistry()
        registry.register("ranker", model)
        with RankingService(registry, default_model="ranker") as service:
            assert service.rank(batch).cached is False
            assert service.rank(batch).cached is False
            assert service.result_cache is None
            assert service.cache_stats()["enabled"] is False


# ----------------------------------------------------------------------
# Over the wire
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checkpoint_dir(model, dataset, taxonomy, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cache-ckpts")
    serving.save_environment(directory, dataset.spec, taxonomy)
    serving.save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    return directory


@pytest.fixture(scope="module")
def wire(checkpoint_dir):
    server = serving.serve_from_directory(checkpoint_dir, port=0,
                                          num_workers=2)
    server.start()
    client = ServingClient(server.url)
    client.wait_ready(timeout_s=30)
    yield server, client
    server.close()


class TestCacheOverTheWire:
    def test_repeat_request_hits_and_matches(self, wire, batch):
        _, client = wire
        first = client.rank(batch.numeric, batch.sparse, top_k=6)
        second = client.rank(batch.numeric, batch.sparse, top_k=6)
        assert first["cached"] is False
        assert second["cached"] is True
        np.testing.assert_array_equal(second["scores"], first["scores"])
        np.testing.assert_array_equal(second["indices"], first["indices"])
        cache = client.stats()["cache"]
        assert cache["enabled"] is True
        assert cache["hits"] >= 1

    def test_reload_serves_new_version_immediately(self, wire, checkpoint_dir,
                                                   dataset, taxonomy,
                                                   tiny_model_config, batch):
        _, client = wire
        warm = client.rank(batch.numeric, batch.sparse, top_k=4)
        assert client.rank(batch.numeric, batch.sparse,
                           top_k=4)["cached"] is True
        fresh = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                            tiny_model_config.with_updates(seed=123),
                            train_dataset=dataset)
        serving.save_checkpoint(fresh, checkpoint_dir / "ranker",
                                "adv-hsc-moe")
        assert {"name": "ranker", "version": 2} in \
            client.reload()["registered"]
        served = client.rank(batch.numeric, batch.sparse, top_k=4)
        # The version lives in the key: no flush happened, yet the answer
        # is the new model's, immediately.
        assert served["cached"] is False
        assert served["model_version"] == 2
        assert not np.array_equal(served["scores"], warm["scores"])
        np.testing.assert_allclose(served["scores"],
                                   np.sort(fresh.score(batch))[::-1][:4],
                                   atol=1e-9)
        again = client.rank(batch.numeric, batch.sparse, top_k=4)
        assert again["cached"] is True and again["model_version"] == 2

    def test_metrics_expose_cache_families(self, wire):
        server, _ = wire
        response = urllib.request.urlopen(server.url + "/metrics", timeout=5)
        text = response.read().decode("utf-8")
        for family in ("result_cache_enabled", "result_cache_entries",
                       "result_cache_hits_total",
                       "result_cache_misses_total",
                       "result_cache_evictions_total",
                       "result_cache_expired_total"):
            assert family in text

    def test_cache_disabled_gateway(self, checkpoint_dir, batch):
        server = serving.serve_from_directory(checkpoint_dir, port=0,
                                              num_workers=1,
                                              cache_entries=0)
        server.start()
        try:
            client = ServingClient(server.url)
            client.wait_ready(timeout_s=30)
            assert client.rank(batch.numeric,
                               batch.sparse)["cached"] is False
            assert client.rank(batch.numeric,
                               batch.sparse)["cached"] is False
            assert client.stats()["cache"]["enabled"] is False
        finally:
            server.close()


# ----------------------------------------------------------------------
# Body-digest memo in front of the result cache
# ----------------------------------------------------------------------
def _rank_payload(batch, tokens=None, top_k=5) -> dict:
    payload = {"candidates": {
        "numeric": batch.numeric.tolist(),
        "sparse": {name: ids.tolist() for name, ids in batch.sparse.items()}},
        "top_k": top_k}
    if tokens is not None:
        payload["query_tokens"] = [int(t) for t in tokens]
    return payload


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _query(log, index: int) -> np.ndarray:
    """Query ``index``'s token ids, trimmed to its length."""
    return log.queries.tokens[index][:log.queries.lengths[index]]


class _Calls:
    """Counts calls through monkeypatched wrappers, by name."""

    def __init__(self):
        self.counts = {}

    def wrap(self, name, call):
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return call(*args, **kwargs)
        return counted


@pytest.fixture()
def memo_gateway(model, classifier, taxonomy, dataset):
    """A dispatcher over a cached service with the query classifier."""
    registry = ModelRegistry()
    registry.register("ranker", model)
    service = RankingService(registry, default_model="ranker",
                             classifier=classifier, taxonomy=taxonomy,
                             result_cache=ResultCache(max_entries=64,
                                                      ttl_s=None))
    yield GatewayDispatcher(service, spec=dataset.spec, taxonomy=taxonomy)
    service.close()


def _rank(dispatcher, body: bytes) -> tuple[int, dict]:
    status, payload, _ = dispatcher.dispatch("POST", "/rank", body)
    return status, payload


class TestBodyMemo:
    def test_repeat_body_skips_decode_hash_and_classifier(
            self, memo_gateway, classifier, batch, log, monkeypatch):
        body = _body(_rank_payload(batch, _query(log, 0)))
        status, first = _rank(memo_gateway, body)
        assert status == 200 and first["cached"] is False
        assert first["predicted_sc"] is not None
        calls = _Calls()
        monkeypatch.setattr(json, "loads", calls.wrap("loads", json.loads))
        monkeypatch.setattr(service_module, "canonical_key",
                            calls.wrap("canonical_key", canonical_key))
        monkeypatch.setattr(classifier, "predict_sc",
                            calls.wrap("predict_sc", classifier.predict_sc))
        monkeypatch.setattr(RankingService, "classify_query", calls.wrap(
            "classify_query", RankingService.classify_query))
        status, repeat = _rank(memo_gateway, body)
        assert status == 200
        assert calls.counts == {"loads": 0, "canonical_key": 0,
                                "predict_sc": 0, "classify_query": 0}
        assert repeat["cached"] is True
        np.testing.assert_array_equal(repeat["scores"], first["scores"])
        np.testing.assert_array_equal(repeat["indices"], first["indices"])
        for field in ("predicted_sc", "predicted_tc", "model_name",
                      "model_version"):
            assert repeat[field] == first[field]

    def test_each_memo_answer_makes_one_rank_call(self, memo_gateway, batch,
                                                  log, monkeypatch):
        body = _body(_rank_payload(batch, _query(log, 1)))
        assert _rank(memo_gateway, body)[0] == 200
        calls = _Calls()
        monkeypatch.setattr(RankingService, "rank",
                            calls.wrap("rank", RankingService.rank))
        for expected in (1, 2, 3):
            status, payload = _rank(memo_gateway, body)
            assert status == 200 and payload["cached"] is True
            assert calls.counts["rank"] == expected

    def test_reordered_or_respaced_body_misses_memo_but_hits_cache(
            self, memo_gateway, batch, monkeypatch):
        payload = _rank_payload(batch)
        status, first = _rank(memo_gateway, _body(payload))
        assert status == 200 and first["cached"] is False
        reordered = json.dumps(dict(reversed(list(payload.items())))).encode()
        respaced = json.dumps(payload, separators=(",", ":")).encode()
        for body in (reordered, respaced):
            calls = _Calls()
            monkeypatch.setattr(json, "loads", calls.wrap("loads", json.loads))
            status, served = _rank(memo_gateway, body)
            assert status == 200
            assert calls.counts["loads"] == 1        # decoded: a memo miss
            assert served["cached"] is True          # but a result-cache hit
            np.testing.assert_array_equal(served["scores"], first["scores"])

    def test_concurrent_repeats_keep_their_own_answers(self, memo_gateway,
                                                       dataset, log):
        """Eight threads race three bodies through cold and warm memo
        entries; a mixed-up or lost entry would answer one body with
        another's scores."""
        bodies = [_body(_rank_payload(dataset.batch(np.arange(i, i + 5)),
                                      _query(log, i)))
                  for i in range(3)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_rank, memo_gateway, bodies[i % 3])
                           for i in range(240)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert all(status == 200 for status, _ in results)
        for first, (_, payload) in zip(results[:3] * 80, results):
            np.testing.assert_array_equal(payload["scores"], first[1]["scores"])
            np.testing.assert_array_equal(payload["indices"],
                                          first[1]["indices"])
        assert len(memo_gateway._memo) == 3

    def test_reload_rescores_a_memoized_body(self, model, dataset, taxonomy,
                                             tiny_model_config, batch,
                                             tmp_path, monkeypatch):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        registry = ModelRegistry()
        registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        with RankingService(registry, default_model="ranker",
                            result_cache=ResultCache(max_entries=64,
                                                     ttl_s=None)) as service:
            dispatcher = GatewayDispatcher(service, spec=dataset.spec,
                                           taxonomy=taxonomy,
                                           checkpoint_dir=tmp_path)
            body = _body(_rank_payload(batch))
            _rank(dispatcher, body)
            status, old = _rank(dispatcher, body)
            assert status == 200 and old["cached"] is True
            assert old["model_version"] == 1
            fresh = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                                tiny_model_config.with_updates(seed=123),
                                train_dataset=dataset)
            serving.save_checkpoint(fresh, tmp_path / "ranker", "adv-hsc-moe")
            status, reloaded, _ = dispatcher.dispatch("POST", "/reload", b"")
            assert status == 200
            assert {"name": "ranker", "version": 2} in reloaded["registered"]
            status, served = _rank(dispatcher, body)
            assert status == 200
            assert served["cached"] is False and served["model_version"] == 2
            np.testing.assert_allclose(
                served["scores"], np.sort(fresh.score(batch))[::-1][:5],
                atol=1e-12)
            # The full path refreshed the memo: the next repeat is a memo
            # answer again, now from the new version's entry.
            calls = _Calls()
            monkeypatch.setattr(json, "loads", calls.wrap("loads", json.loads))
            status, again = _rank(dispatcher, body)
            assert calls.counts["loads"] == 0
            assert again["cached"] is True and again["model_version"] == 2
            np.testing.assert_array_equal(again["scores"], served["scores"])

    def test_degraded_answers_are_never_memoized(self, batch, dataset):
        class _Bomb:
            def score(self, b):
                raise RuntimeError("model exploded")

        registry = ModelRegistry()
        registry.register("m", _Bomb())
        with RankingService(
                registry, default_model="m",
                result_cache=ResultCache(max_entries=64, ttl_s=None),
                breaker_config=BreakerConfig(window_s=10.0,
                                             failure_threshold=0.5,
                                             min_requests=2,
                                             cooldown_s=60.0)) as service:
            dispatcher = GatewayDispatcher(service)
            body = _body(_rank_payload(batch))
            assert [_rank(dispatcher, body)[0] for _ in range(2)] == [500, 500]
            for _ in range(2):
                status, payload = _rank(dispatcher, body)
                assert status == 200 and payload["degraded"] is True
                assert payload["cached"] is False
            assert len(dispatcher._memo) == 0

    @pytest.mark.parametrize("change", [
        {"top_k": 0}, {"top_k": True}, {"model": "ghost"},
        {"query_tokens": []}, {"candidates": {"numeric": []}},
        "numeric-3d"])
    def test_refused_bodies_are_never_memoized(self, memo_gateway, batch,
                                               change):
        payload = _rank_payload(batch)
        if change == "numeric-3d":
            # Each value wrapped in a list: the row and column counts
            # match the schema, the number of dimensions does not.
            candidates = payload["candidates"]
            change = {"candidates": {**candidates, "numeric": [
                [[value] for value in row] for row in candidates["numeric"]]}}
        body = _body({**payload, **change})
        for _ in range(2):
            status, payload = _rank(memo_gateway, body)
            assert 400 <= status < 500, payload
        assert len(memo_gateway._memo) == 0

    def test_memo_bounds_follow_the_result_cache(self, model, dataset,
                                                 monkeypatch):
        clock = _FakeClock()
        registry = ModelRegistry()
        registry.register("ranker", model)
        with RankingService(registry, default_model="ranker",
                            result_cache=ResultCache(max_entries=2, ttl_s=10.0,
                                                     clock=clock)) as service:
            dispatcher = GatewayDispatcher(service, spec=dataset.spec)
            bodies = [_body(_rank_payload(dataset.batch(np.arange(i, i + 4))))
                      for i in range(3)]
            calls = _Calls()
            monkeypatch.setattr(json, "loads", calls.wrap("loads", json.loads))

            def decodes(body) -> int:
                before = calls.counts["loads"]
                assert _rank(dispatcher, body)[0] == 200
                return calls.counts["loads"] - before

            assert [decodes(b) for b in bodies[:2]] == [1, 1]
            assert decodes(bodies[0]) == 0      # memo hit; bodies[1] is LRU
            assert decodes(bodies[2]) == 1      # evicts bodies[1]
            assert len(dispatcher._memo) == 2
            assert decodes(bodies[1]) == 1      # evicted: decoded again
            assert decodes(bodies[1]) == 0
            clock.now += 10.0                   # past both caches' TTL
            assert decodes(bodies[1]) == 1
            assert dispatcher._memo.snapshot()["expired"] == 1

    def test_cache_off_builds_no_memo(self, checkpoint_dir, batch):
        server = serving.serve_from_directory(checkpoint_dir, port=0,
                                              num_workers=1, cache_entries=0)
        try:
            assert server.dispatcher._memo is None
            body = _body(_rank_payload(batch))
            for _ in range(2):
                status, payload = _rank(server.dispatcher, body)
                assert status == 200 and payload["cached"] is False
        finally:
            server.close()
