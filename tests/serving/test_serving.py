"""Tests for the ``repro.serving`` subsystem."""

import numpy as np
import pytest

from repro import nn, serving
from repro.models import build_model
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
from repro.serving import ModelRegistry, RankingService, candidate_batch


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
    return dataset.batch(np.arange(24))


class TestCheckpoints:
    def test_ranking_round_trip(self, model, dataset, taxonomy, batch, tmp_path):
        path = tmp_path / "ranker"
        serving.save_checkpoint(model, path, "adv-hsc-moe")
        reloaded = serving.load_model(path, dataset.spec, taxonomy)
        np.testing.assert_allclose(reloaded.score(batch), model.score(batch),
                                   atol=1e-12)

    def test_ranking_round_trip_preserves_f32(self, dataset, taxonomy,
                                              tiny_model_config, tmp_path):
        with nn.default_dtype(np.float32):
            model32 = build_model("dnn", dataset.spec, taxonomy, tiny_model_config)
        path = tmp_path / "f32"
        serving.save_checkpoint(model32, path, "dnn")
        reloaded = serving.load_model(path, dataset.spec, taxonomy)
        assert all(p.dtype == np.float32 for p in reloaded.parameters())
        batch32 = dataset.astype(np.float32).batch(np.arange(16))
        np.testing.assert_array_equal(reloaded.score(batch32),
                                      model32.score(batch32))

    def test_classifier_round_trip(self, classifier, log, tmp_path):
        path = tmp_path / "clf"
        serving.save_classifier_checkpoint(classifier, path, extra={"note": "t"})
        reloaded = serving.load_classifier_checkpoint(path)
        tokens, lengths = log.queries.tokens[:16], log.queries.lengths[:16]
        np.testing.assert_array_equal(
            reloaded.predict_proba(tokens, lengths),
            classifier.predict_proba(tokens, lengths))

    def test_classifier_checkpoint_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            serving.load_classifier_checkpoint(tmp_path / "nope")

    def test_classifier_checkpoint_rejects_ranking_meta(self, model, tmp_path):
        path = tmp_path / "ranker"
        serving.save_checkpoint(model, path, "adv-hsc-moe")
        with pytest.raises(ValueError):
            serving.load_classifier_checkpoint(path)

    def test_environment_bundle_round_trip(self, dataset, taxonomy, tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        spec, tax = serving.load_environment(tmp_path)
        assert spec.to_dict() == dataset.spec.to_dict()
        assert tax.to_dict() == taxonomy.to_dict()
        np.testing.assert_array_equal(tax.parents_of(np.arange(10)),
                                      taxonomy.parents_of(np.arange(10)))

    def test_environment_bundle_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            serving.load_environment(tmp_path)

    def test_find_classifier_checkpoint(self, model, classifier, tmp_path):
        assert serving.find_classifier_checkpoint(tmp_path) is None
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        serving.save_classifier_checkpoint(classifier, tmp_path / "clf")
        found = serving.find_classifier_checkpoint(tmp_path)
        assert found == tmp_path / "clf"


class TestModelRegistry:
    def test_register_and_get(self, model):
        registry = ModelRegistry()
        entry = registry.register("ranker", model, metadata={"auc": 0.7})
        assert entry.version == 1 and entry.metadata["auc"] == 0.7
        assert registry.get("ranker") is model
        assert "ranker" in registry and len(registry) == 1

    def test_versions_auto_increment_and_latest_wins(self, model):
        registry = ModelRegistry()
        registry.register("ranker", "v1-model")
        registry.register("ranker", "v2-model")
        assert registry.versions("ranker") == [1, 2]
        assert registry.latest_version("ranker") == 2
        assert registry.get("ranker") == "v2-model"
        assert registry.get("ranker", version=1) == "v1-model"

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.register("m", object(), version=3)
        with pytest.raises(ValueError):
            registry.register("m", object(), version=3)

    def test_unknown_lookups_raise(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.get("ghost")
        registry.register("m", object())
        with pytest.raises(KeyError):
            registry.get("m", version=9)

    def test_register_checkpoint(self, model, dataset, taxonomy, batch, tmp_path):
        path = tmp_path / "ckpt"
        serving.save_checkpoint(model, path, "adv-hsc-moe")
        registry = ModelRegistry()
        entry = registry.register_checkpoint("ranker", path, dataset.spec, taxonomy)
        assert entry.metadata["checkpoint"] == str(path)
        np.testing.assert_allclose(entry.model.score(batch), model.score(batch),
                                   atol=1e-12)

    def test_entries_ordered(self, model):
        registry = ModelRegistry()
        registry.register("b", model)
        registry.register("a", model)
        registry.register("a", model)
        assert [(e.name, e.version) for e in registry.entries()] == \
            [("a", 1), ("a", 2), ("b", 1)]

    def test_reload_from_directory_registers_and_skips(self, model, dataset,
                                                       taxonomy, batch,
                                                       tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        registry = ModelRegistry()
        first = registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        assert [(e.name, e.version) for e in first] == [("ranker", 1)]
        np.testing.assert_allclose(first[0].model.score(batch),
                                   model.score(batch), atol=1e-12)
        # Unchanged weights: a re-scan is a no-op (fingerprint match).
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        # Rewriting the *same* bytes is still a no-op: the fingerprint
        # is a content checksum, not mtime+size.
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        # Changed weights: registered as the next version.
        state = model.state_dict()
        key = next(iter(state))
        state[key] = state[key] + 0.25
        model.load_state_dict(state)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        second = registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        assert [(e.name, e.version) for e in second] == [("ranker", 2)]

    def test_reload_from_directory_missing_dir(self, dataset, taxonomy,
                                               tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelRegistry().reload_from_directory(tmp_path / "nope",
                                                  dataset.spec, taxonomy)


class TestRankingService:
    @pytest.fixture()
    def registry(self, model):
        registry = ModelRegistry()
        registry.register("ranker", model)
        return registry

    def test_rank_returns_topk_best_first(self, registry, model, batch):
        with RankingService(registry, default_model="ranker") as service:
            response = service.rank(batch, top_k=5)
        direct = model.score(batch)
        assert response.indices.shape == (5,)
        np.testing.assert_allclose(response.scores,
                                   np.sort(direct)[::-1][:5], atol=1e-12)
        np.testing.assert_allclose(direct[response.indices], response.scores)
        assert response.model_name == "ranker" and response.model_version == 1
        assert response.latency_ms > 0

    def test_query_intent_populated(self, registry, classifier, taxonomy,
                                    log, batch):
        queries = log.queries
        with RankingService(registry, default_model="ranker",
                            classifier=classifier,
                            taxonomy=taxonomy) as service:
            response = service.rank(batch, query_tokens=queries.tokens[0],
                                    query_lengths=queries.lengths[0], top_k=3)
        assert response.predicted_sc is not None
        expected_tc = int(taxonomy.parents_of(
            np.asarray([response.predicted_sc]))[0])
        assert response.predicted_tc == expected_tc

    def test_category_routing_selects_dedicated_model(self, model, classifier,
                                                      taxonomy, log, batch):
        registry = ModelRegistry()
        registry.register("general", model)
        registry.register("dedicated", model)
        queries = log.queries
        sc, tc = None, None
        with RankingService(registry, default_model="general",
                            classifier=classifier, taxonomy=taxonomy) as probe:
            sc, tc = probe.classify_query(queries.tokens[0], queries.lengths[0])
        with RankingService(registry, default_model="general",
                            classifier=classifier, taxonomy=taxonomy,
                            routing={tc: "dedicated"}) as service:
            routed = service.rank(batch, query_tokens=queries.tokens[0],
                                  query_lengths=queries.lengths[0])
            unrouted = service.rank(batch)
        assert routed.model_name == "dedicated"
        assert unrouted.model_name == "general"

    def test_single_registered_model_is_implicit_default(self, registry, batch):
        with RankingService(registry) as service:
            assert service.rank(batch).model_name == "ranker"

    def test_ambiguous_routing_raises(self, model, batch):
        registry = ModelRegistry()
        registry.register("a", model)
        registry.register("b", model)
        with RankingService(registry) as service:
            with pytest.raises(ValueError):
                service.rank(batch)

    def test_closed_service_refuses_scoring(self, registry, batch):
        """close() must be terminal: a late caller would otherwise rebuild
        a scorer pool whose worker threads nothing ever stops."""
        service = RankingService(registry, default_model="ranker")
        service.rank(batch)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.score(batch)
        service.close()                 # idempotent

    def test_rank_rides_out_retired_pool(self, registry, model, batch):
        """A caller can resolve a pool and lose the race with a hot swap
        retiring it; the service must transparently re-resolve instead of
        surfacing 'ScorerPool is closed'."""
        with RankingService(registry, default_model="ranker") as service:
            scorer, _ = service._scorer_for("ranker", None)
            with service._scorers_lock:
                service._scorers.pop(("ranker", 1))
            scorer.close()              # simulate the losing side of the race
            np.testing.assert_allclose(service.score(batch),
                                       model.score(batch), atol=1e-12)

    def test_hot_swap_retires_old_version_scorer(self, model, batch):
        """Registering a new version must not leak the old version's
        worker thread / model reference once traffic moves over."""
        registry = ModelRegistry()
        registry.register("ranker", model)
        with RankingService(registry, default_model="ranker") as service:
            first = service.rank(batch)
            assert first.model_version == 1
            registry.register("ranker", model)  # hot swap to v2
            second = service.rank(batch)
            assert second.model_version == 2
            assert list(service.stats()) == ["ranker:v2"]  # v1 retired
            # Pinning the old version still works (fresh scorer on demand).
            assert service.rank(batch, version=1).model_version == 1

    def test_stats_exposed_per_model(self, registry, batch):
        with RankingService(registry) as service:
            service.rank(batch)
            stats = service.stats()
        assert "ranker:v1" in stats
        assert stats["ranker:v1"].requests == 1

    def test_pooled_service_matches_reference(self, registry, model, batch):
        with RankingService(registry, default_model="ranker",
                            num_workers=3) as service:
            response = service.rank(batch, top_k=4)
            stats = service.stats()
        np.testing.assert_allclose(response.scores,
                                   np.sort(model.score(batch))[::-1][:4],
                                   atol=1e-12)
        assert stats["ranker:v1"].workers == 3

    def test_invalid_num_workers_rejected(self, registry):
        with pytest.raises(ValueError):
            RankingService(registry, num_workers=0)

    def test_candidate_batch_shapes(self, dataset):
        raw = dataset.batch(np.arange(6))
        built = candidate_batch(raw.numeric, raw.sparse)
        assert len(built) == 6
        assert built.labels.sum() == 0
        np.testing.assert_array_equal(built.numeric, raw.numeric)

    def test_checkpoint_to_service_end_to_end(self, model, classifier, dataset,
                                              taxonomy, log, tmp_path):
        """The quickstart path: save -> register from disk -> rank."""
        path = tmp_path / "ranker"
        serving.save_checkpoint(model, path, "adv-hsc-moe")
        clf_path = tmp_path / "clf"
        serving.save_classifier_checkpoint(classifier, clf_path)
        registry = ModelRegistry()
        registry.register_checkpoint("ranker", path, dataset.spec, taxonomy)
        batch = dataset.batch(np.arange(24))
        with RankingService(registry, default_model="ranker",
                            classifier=serving.load_classifier_checkpoint(clf_path),
                            taxonomy=taxonomy) as service:
            response = service.rank(batch, query_tokens=log.queries.tokens[0],
                                    query_lengths=log.queries.lengths[0], top_k=4)
        np.testing.assert_allclose(response.scores,
                                   np.sort(model.score(batch))[::-1][:4],
                                   atol=1e-12)
