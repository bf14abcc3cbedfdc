"""End-to-end tests for the HTTP serving gateway.

A real :class:`ServingServer` is started on an ephemeral port from a
checkpoint directory, and every request goes over the wire through
:class:`ServingClient` (or raw urllib for malformed-payload cases).  The
/healthz and /stats response schemas are pinned: they are the monitoring
contract.

Every test runs against the selector transport, the gateway's one
connection front-end; the ``backend`` fixture names it in the test ids.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import serving
from repro.models import build_model
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
from repro.serving import ServingClient, ServingError


@pytest.fixture(scope="module", params=["selector"])
def backend(request):
    """Names the transport in the test ids."""
    return request.param


@pytest.fixture(scope="module")
def model(dataset, taxonomy, tiny_model_config):
    return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                       tiny_model_config, train_dataset=dataset)


@pytest.fixture(scope="module")
def checkpoint_dir(model, dataset, taxonomy, log, tmp_path_factory, backend):
    # Fresh directory per module: the hot-reload test mutates it.
    directory = tmp_path_factory.mktemp(f"gateway-ckpts-{backend}")
    serving.save_environment(directory, dataset.spec, taxonomy)
    serving.save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    classifier = QueryCategoryClassifier(
        log.queries.vocab_size, taxonomy.max_sc_id() + 1,
        QueryClassifierConfig(embedding_dim=8, hidden_size=10))
    serving.save_classifier_checkpoint(classifier, directory / "querycat")
    return directory


@pytest.fixture(scope="module")
def server(checkpoint_dir):
    server = serving.serve_from_directory(checkpoint_dir, port=0,
                                          num_workers=2)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def client(server):
    client = ServingClient(server.url)
    client.wait_ready(timeout_s=30)
    return client


@pytest.fixture()
def batch(dataset):
    return dataset.batch(np.arange(20))


def _raw_post(url, path, body: bytes, content_type="application/json"):
    request = urllib.request.Request(url + path, data=body,
                                     headers={"Content-Type": content_type})
    return urllib.request.urlopen(request, timeout=10)


def _refused_field(url, path, payload: dict) -> str:
    """POST ``payload`` as-is; return the 400 ``bad_request`` message."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _raw_post(url, path, json.dumps(payload).encode())
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert error["type"] == "bad_request"
    return error["message"]


@pytest.fixture()
def query(log):
    """One real query's token ids, trimmed to its length (2-6 tokens)."""
    length = int(log.queries.lengths[0])
    return [int(t) for t in log.queries.tokens[0][:length]]


class TestRankEndpoint:
    def test_rank_round_trip_matches_reference(self, client, model, batch):
        result = client.rank(batch.numeric, batch.sparse, top_k=6)
        reference = model.score(batch)
        assert result["model_name"] == "ranker"
        np.testing.assert_allclose(result["scores"],
                                   np.sort(reference)[::-1][:6], atol=1e-9)
        np.testing.assert_allclose(reference[result["indices"]],
                                   result["scores"], atol=1e-9)
        assert result["latency_ms"] > 0

    def test_rank_with_query_intent(self, client, log, batch, taxonomy):
        queries = log.queries
        result = client.rank(batch.numeric, batch.sparse,
                             query_tokens=queries.tokens[0],
                             query_lengths=int(queries.lengths[0]), top_k=3)
        assert result["predicted_sc"] is not None
        expected_tc = int(taxonomy.parents_of(
            np.asarray([result["predicted_sc"]]))[0])
        assert result["predicted_tc"] == expected_tc

    def test_unknown_model_is_structured_404(self, client, batch):
        with pytest.raises(ServingError) as excinfo:
            client.rank(batch.numeric, batch.sparse, model="ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_model"

    def test_unknown_version_is_structured_404(self, client, batch):
        with pytest.raises(ServingError) as excinfo:
            client.rank(batch.numeric, batch.sparse, model="ranker", version=99)
        assert excinfo.value.status == 404

    def test_malformed_json_is_structured_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_post(server.url, "/rank", b"{not json at all")
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["type"] == "bad_json"
        assert "message" in payload["error"]

    def test_missing_candidates_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_post(server.url, "/rank", json.dumps({"top_k": 3}).encode())
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == "bad_request"

    def test_mismatched_sparse_lengths_is_400(self, client, batch):
        bad_sparse = dict(batch.sparse)
        bad_sparse["brand"] = np.asarray(bad_sparse["brand"][:3])
        with pytest.raises(ServingError) as excinfo:
            client.rank(batch.numeric, bad_sparse)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_numeric_is_structured_400(self, client, batch, value):
        """One non-finite row is refused at the door: scoring it would
        answer 200 with a bare NaN token, which is not JSON."""
        numeric = batch.numeric.copy()
        numeric[3] = value
        with pytest.raises(ServingError) as excinfo:
            client.rank(numeric, batch.sparse)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "bad_request"

    def test_empty_candidate_list_is_400(self, client, model, dataset):
        """``numeric: []`` is refused with a message naming the empty
        list, with a schema (every sparse list empty too) and without one
        (no sparse features at all)."""
        empty_sparse = {name: [] for name in dataset.spec.sparse_names}
        registry = serving.ModelRegistry()
        registry.register("ranker", model)
        service = serving.RankingService(registry, default_model="ranker")
        with serving.ServingServer(service, port=0).start() as bare:
            bare_client = ServingClient(bare.url)
            bare_client.wait_ready(timeout_s=30)
            for target, sparse in ((client, empty_sparse), (bare_client, {})):
                with pytest.raises(ServingError) as excinfo:
                    target.rank([], sparse)
                assert excinfo.value.status == 400
                assert excinfo.value.kind == "bad_request"
                assert "candidates.numeric is an empty list" in str(
                    excinfo.value)

    def test_numeric_that_is_not_2d_is_400(self, server, client, model,
                                           batch):
        """A 3-D ``numeric`` (each value wrapped in a list) has the right
        row and column counts; it is refused at the door, with a schema
        and without one, before it can fail a co-batched micro-batch.  A
        flat single row is still one candidate."""
        payload = {"candidates": {
            "numeric": [[[value] for value in row]
                        for row in batch.numeric.tolist()],
            "sparse": {k: v.tolist() for k, v in batch.sparse.items()}}}
        registry = serving.ModelRegistry()
        registry.register("ranker", model)
        service = serving.RankingService(registry, default_model="ranker")
        with serving.ServingServer(service, port=0).start() as bare:
            ServingClient(bare.url).wait_ready(timeout_s=30)
            for url in (server.url, bare.url):
                assert "candidates.numeric" in _refused_field(url, "/rank",
                                                              payload)
        one = {k: v[:1] for k, v in batch.sparse.items()}
        result = client.rank(batch.numeric[0], one, top_k=1)
        assert result["indices"] == [0]
        row = serving.candidate_batch(batch.numeric[:1], one)
        np.testing.assert_allclose(result["scores"], model.score(row),
                                   atol=1e-9)

    def test_nan_scoring_model_is_structured_500(self, dataset):
        """A model that scores NaN never answers 200: the gateway sends a
        structured 500 that parses as strict JSON, and the model's
        breaker counts the failure."""
        class _NaNModel:
            def score(self, batch):
                return np.full(len(batch), np.nan)

        def strict_constant(token):
            raise ValueError(f"non-standard JSON token {token}")

        registry = serving.ModelRegistry()
        registry.register("nan", _NaNModel())
        service = serving.RankingService(
            registry, default_model="nan",
            breaker_config=serving.BreakerConfig())
        batch = dataset.batch(np.arange(6))
        body = json.dumps({"candidates": {
            "numeric": batch.numeric.tolist(),
            "sparse": {k: v.tolist() for k, v in batch.sparse.items()}}})
        with serving.ServingServer(service, port=0).start() as nan_server:
            nan_client = ServingClient(nan_server.url)
            nan_client.wait_ready(timeout_s=30)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _raw_post(nan_server.url, "/rank", body.encode())
            raw = excinfo.value.read()
            breaker = nan_client.stats()["breakers"]["nan"]
        assert excinfo.value.code == 500
        payload = json.loads(raw, parse_constant=strict_constant)
        assert payload["error"]["type"] == "internal"
        assert "non-finite scores" in payload["error"]["message"]
        assert breaker["window_failures"] == 1

    def test_bad_top_k_is_400(self, client, batch):
        with pytest.raises(ServingError) as excinfo:
            client.rank(batch.numeric, batch.sparse, top_k=0)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("field, value", [
        ("top_k", True),                # was served as top 1
        ("version", True),              # was served as version 1
        ("query_tokens", []),           # was an empty scan: sc 0 / tc 0
        ("query_tokens", "2-D"),        # was the first row's intent
        ("query_lengths", 0),           # was sc 0
        ("query_lengths", 99),          # was clipped to the tokens sent
    ], ids=["top_k-bool", "version-bool", "tokens-empty", "tokens-2d",
            "lengths-0", "lengths-past-tokens"])
    def test_malformed_query_field_is_400(self, server, batch, query, field,
                                          value):
        payload = {"candidates": {
            "numeric": batch.numeric.tolist(),
            "sparse": {k: v.tolist() for k, v in batch.sparse.items()}},
            "top_k": 3, "model": "ranker", "query_tokens": query}
        payload[field] = [query, query] if value == "2-D" else value
        assert repr(field) in _refused_field(server.url, "/rank", payload)

    def test_worker_survives_bad_requests(self, client, model, batch):
        """A stream of malformed requests must never wedge the gateway:
        scoring keeps working afterwards."""
        for _ in range(3):
            with pytest.raises(ServingError):
                client.rank(batch.numeric, {"brand": np.zeros(3, dtype=int)})
        result = client.rank(batch.numeric, batch.sparse, top_k=4)
        np.testing.assert_allclose(result["scores"],
                                   np.sort(model.score(batch))[::-1][:4],
                                   atol=1e-9)


class TestClassifyEndpoint:
    def test_classify_round_trip(self, client, checkpoint_dir, log, taxonomy):
        classifier = serving.load_classifier_checkpoint(
            checkpoint_dir / "querycat")
        queries = log.queries
        length = int(queries.lengths[0])
        tokens = queries.tokens[0][:length]
        result = client.classify(tokens, lengths=length)
        expected_sc = int(classifier.predict_sc(
            tokens[None, :], np.asarray([length]))[0])
        assert result["sc"] == expected_sc
        assert result["tc"] == int(taxonomy.parents_of(
            np.asarray([expected_sc]))[0])

    def test_classify_with_probs(self, client, log):
        queries = log.queries
        length = int(queries.lengths[0])
        result = client.classify(queries.tokens[0][:length], lengths=length,
                                 probs=True)
        assert result["probs"].ndim == 1
        assert result["probs"].sum() == pytest.approx(1.0)

    def test_classify_requires_tokens(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_post(server.url, "/classify", b"{}")
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("field, value", [
        ("tokens", []), ("lengths", 0), ("lengths", 99),
    ], ids=["tokens-empty", "lengths-0", "lengths-past-tokens"])
    def test_malformed_query_field_is_400(self, server, query, field, value):
        payload = {"tokens": query, field: value}
        assert repr(field) in _refused_field(server.url, "/classify", payload)


class TestOperationalEndpoints:
    def test_healthz_schema_pinned(self, client):
        payload = client.healthz()
        assert set(payload) == {"status", "uptime_s", "models", "workers",
                                "requests", "errors"}
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert "ranker" in payload["models"]
        assert payload["uptime_s"] > 0

    def test_stats_schema_pinned(self, client, batch):
        client.rank(batch.numeric, batch.sparse)
        payload = client.stats()
        assert set(payload) == {"server", "scorers", "endpoints",
                                "breakers", "quarantined", "cache"}
        assert set(payload["server"]) == {"requests", "errors",
                                          "shed_requests",
                                          "deadline_exceeded",
                                          "degraded_responses", "uptime_s",
                                          "connections"}
        assert payload["server"]["requests"] > 0
        assert payload["server"]["shed_requests"] == 0
        assert payload["server"]["deadline_exceeded"] == 0
        assert payload["quarantined"] == {}
        assert set(payload["cache"]) == {"enabled", "entries", "max_entries",
                                         "ttl_s", "hits", "misses",
                                         "evictions", "expired", "hit_rate"}
        # A directory-booted gateway always serves with a breaker.
        assert payload["breakers"]
        for snapshot in payload["breakers"].values():
            assert snapshot["state"] == "closed"
        scorer_keys = {"requests", "rows", "batches", "busy_seconds",
                       "latency_samples", "mean_latency_ms", "p95_latency_ms",
                       "max_latency_ms", "workers", "mean_batch_rows",
                       "throughput_rows_per_s", "backlog_rows",
                       "max_backlog_rows", "shed_requests", "shed_rows",
                       "drain_rate_rows_per_s", "worker_restarts",
                       "expired_requests", "expired_rows",
                       "lost_resolutions", "averted_respawns", "processes",
                       "process_restarts", "process_busy_seconds"}
        assert payload["scorers"], "at least one scorer pool must report"
        for stats in payload["scorers"].values():
            assert set(stats) == scorer_keys
            assert stats["workers"] == 2

    def test_stats_endpoint_histograms(self, client, batch):
        """Per-endpoint latency histograms ride /stats: every known route
        reports, observed routes accumulate, quantiles are ordered."""
        client.rank(batch.numeric, batch.sparse)
        endpoints = client.stats()["endpoints"]
        assert "/rank" in endpoints and "/healthz" in endpoints
        rank = endpoints["/rank"]
        assert set(rank) == {"count", "sum_ms", "p50_ms", "p95_ms",
                             "p99_ms", "buckets"}
        assert rank["count"] >= 1
        assert rank["sum_ms"] > 0
        assert rank["p50_ms"] <= rank["p95_ms"] <= rank["p99_ms"]
        # Buckets are (bound_ms, cumulative count) with increasing bounds.
        bounds = [bound for bound, _ in rank["buckets"]]
        counts = [count for _, count in rank["buckets"]]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)

    def test_metrics_prometheus_exposition(self, server, client, batch):
        """GET /metrics serves the Prometheus text format: versioned
        content type, HELP/TYPE framing, and counters that agree with
        /stats."""
        client.rank(batch.numeric, batch.sparse)
        stats = client.stats()
        response = urllib.request.urlopen(server.url + "/metrics", timeout=5)
        assert response.headers["Content-Type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        text = response.read().decode("utf-8")
        assert "# HELP gateway_requests_total" in text
        assert "# TYPE gateway_request_duration_seconds histogram" in text
        samples = {}
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
        # /metrics itself dispatched after the /stats read, so >=.
        assert samples["gateway_requests_total"] \
            >= stats["server"]["requests"]
        assert samples["gateway_shed_requests_total"] == 0
        rank_count = samples[
            'gateway_request_duration_seconds_count{endpoint="/rank"}']
        assert rank_count >= 1
        # Scorer gauges are labeled per pool.
        assert any(name.startswith('scorer_requests_total{pool="')
                   for name in samples)

    def test_stats_connection_counters_pinned(self, client, batch):
        """Gateway-level connection counters: schema and keep-alive
        accounting are part of the monitoring contract."""
        before = client.stats()["server"]["connections"]
        assert set(before) == {"open", "accepted", "requests",
                               "keepalive_reuses", "in_flight"}
        client.rank(batch.numeric, batch.sparse)
        after = client.stats()["server"]["connections"]
        # This client holds one persistent connection: both requests rode
        # it, so served count advances and so does keep-alive reuse.
        assert after["open"] >= 1
        assert after["accepted"] >= 1
        assert after["requests"] >= before["requests"] + 2
        assert after["keepalive_reuses"] >= before["keepalive_reuses"] + 2
        assert after["accepted"] >= after["open"]

    def test_models_lists_registry_and_spec(self, client, dataset):
        payload = client.models()
        names = [(entry["name"], entry["version"])
                 for entry in payload["models"]]
        assert ("ranker", 1) in names
        assert payload["spec"]["numeric"] == dataset.spec.numeric_names
        assert payload["spec"]["sparse"] == {
            f.name: f.cardinality for f in dataset.spec.sparse}

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "not_found"

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/rank")
        assert excinfo.value.status == 405
        assert excinfo.value.kind == "method_not_allowed"

    def test_error_responses_counted(self, client):
        before = client.healthz()["errors"]
        with pytest.raises(ServingError):
            client._request("GET", "/nope")
        assert client.healthz()["errors"] == before + 1


class TestHotReload:
    def test_reload_registers_new_version_and_serves_it(
            self, client, checkpoint_dir, dataset, taxonomy,
            tiny_model_config, batch):
        fresh = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                            tiny_model_config.with_updates(seed=99),
                            train_dataset=dataset)
        serving.save_checkpoint(fresh, checkpoint_dir / "ranker",
                                "adv-hsc-moe")
        result = client.reload()
        assert {"name": "ranker", "version": 2} in result["registered"]
        served = client.rank(batch.numeric, batch.sparse, top_k=5)
        assert served["model_version"] == 2
        np.testing.assert_allclose(served["scores"],
                                   np.sort(fresh.score(batch))[::-1][:5],
                                   atol=1e-9)
        # Idempotent: a second reload with unchanged files registers nothing.
        assert client.reload()["registered"] == []

    def test_close_without_start_does_not_hang(self, model, backend):
        registry = serving.ModelRegistry()
        registry.register("ranker", model)
        service = serving.RankingService(registry, default_model="ranker")
        server = serving.ServingServer(service, port=0)
        server.close()                  # bound but never served: must return

    def test_reload_without_checkpoint_dir_is_400(self, model, dataset, backend):
        registry = serving.ModelRegistry()
        registry.register("ranker", model)
        service = serving.RankingService(registry, default_model="ranker")
        with serving.ServingServer(service, port=0).start() as bare:
            bare_client = ServingClient(bare.url)
            bare_client.wait_ready(timeout_s=30)
            with pytest.raises(ServingError) as excinfo:
                bare_client.reload()
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "no_checkpoint_dir"
