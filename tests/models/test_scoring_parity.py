"""Compiled-vs-Tensor scoring parity for every buildable model config.

The serving fast lane (``model.score``) must be numerically interchangeable
with the autograd reference path (``model.predict``): ≤1e-12 in float64,
≤1e-6 in float32, for every factory model and the BiGRU query classifier.
MoE scoring dispatches rows to their top-K expert towers only, so its
work and scratch are pinned here as well.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.models.factory import MODEL_NAMES
from repro.nn.infer import CompiledPlan, softmax_array
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig

MOE_NAMES = ("moe", "adv-moe", "hsc-moe", "adv-hsc-moe")


@pytest.fixture(scope="module")
def batch(dataset):
    return dataset.batch(np.arange(96))


def _build(name, dataset, taxonomy, tiny_model_config, dtype):
    with nn.default_dtype(dtype):
        return build_model(name, dataset.spec, taxonomy, tiny_model_config,
                           train_dataset=dataset)


def _routing_rows(dataset) -> dict[str, np.ndarray]:
    """Row sets for the gate's routing shapes: rows spread over many
    ``query_sc`` values, rows sharing one (one real request), one row."""
    sc = dataset.sparse["query_sc"]
    return {
        "mixed": np.random.default_rng(5).choice(len(dataset), size=96,
                                                  replace=False),
        "shared": np.flatnonzero(sc == sc[0])[:48],
        "single": np.array([7]),
    }


def _record_tower_calls(monkeypatch) -> list[tuple]:
    """Record ``(plan, rows fed)`` for every compiled-plan call."""
    calls = []
    call = CompiledPlan.__call__

    def recording(plan, x, *args, **kwargs):
        calls.append((plan, np.asarray(x).shape[0]))
        return call(plan, x, *args, **kwargs)
    monkeypatch.setattr(CompiledPlan, "__call__", recording)
    return calls


class TestFactorySweep:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_f64_parity(self, name, dataset, taxonomy, tiny_model_config, batch):
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float64)
        routed = [dataset.batch(r) for r in _routing_rows(dataset).values()]
        for case in [batch, *routed]:
            reference = model.predict(case)
            fast = model.score(case)
            assert fast.shape == reference.shape
            np.testing.assert_allclose(fast, reference, atol=1e-12)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_f32_parity(self, name, dataset, taxonomy, tiny_model_config, batch):
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float32)
        ds32 = dataset.astype(np.float32)
        rows = [np.arange(96), *_routing_rows(dataset).values()]
        for batch32 in (ds32.batch(r) for r in rows):
            reference = model.predict(batch32)
            fast = model.score(batch32)
            assert fast.dtype == np.float32
            np.testing.assert_allclose(fast, reference, atol=1e-6)

    def test_score_tracks_training(self, dataset, taxonomy, tiny_model_config, batch):
        """The cached scorer must see post-compile weight updates."""
        model = _build("dnn", dataset, taxonomy, tiny_model_config, np.float64)
        before = model.score(batch).copy()
        for param in model.parameters():
            param.data = param.data + 0.05
        after = model.score(batch)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, model.predict(batch), atol=1e-12)

    def test_predict_proba_aliases_score(self, dataset, taxonomy,
                                         tiny_model_config, batch):
        model = _build("moe", dataset, taxonomy, tiny_model_config, np.float64)
        np.testing.assert_array_equal(model.predict_proba(batch),
                                      model.score(batch))

    def test_negative_sparse_id_raises_like_predict(self, dataset, taxonomy,
                                                    tiny_model_config):
        """A corrupt serving request must fail, not silently wrap to the
        last embedding row (the Tensor path raises IndexError too)."""
        model = _build("dnn", dataset, taxonomy, tiny_model_config, np.float64)
        bad = dataset.batch(np.arange(4))
        bad.sparse["query_sc"] = bad.sparse["query_sc"].copy()
        bad.sparse["query_sc"][0] = -1
        with pytest.raises(IndexError):
            model.predict(bad)
        with pytest.raises(IndexError):
            model.score(bad)

    def test_concurrent_score_is_serialized(self, dataset, taxonomy,
                                            tiny_model_config):
        """One model object may sit behind several serving routes; its
        shared plan buffers must survive concurrent score() callers."""
        model = _build("moe", dataset, taxonomy, tiny_model_config, np.float64)
        batches = [dataset.batch(np.arange(i, i + 16)) for i in range(24)]
        expected = [model.score(b).copy() for b in batches]
        results: dict[int, np.ndarray] = {}

        def worker(i):
            results[i] = model.score(batches[i])
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(24):
            np.testing.assert_array_equal(results[i], expected[i])


class TestSparseDispatch:
    """MoE scoring runs each selected expert tower once, on only the rows
    whose gate selected it; ``predict`` stays the dense reference."""

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12),
                                            (np.float32, 1e-6)])
    @pytest.mark.parametrize("name", MOE_NAMES)
    def test_parity_when_every_expert_is_selected(
            self, name, dtype, atol, dataset, taxonomy, tiny_model_config):
        config = dataclasses.replace(
            tiny_model_config, top_k=tiny_model_config.num_experts,
            num_disagreeing=0)
        model = _build(name, dataset, taxonomy, config, dtype)
        data = dataset.astype(dtype)
        for rows in _routing_rows(dataset).values():
            batch = data.batch(rows)
            np.testing.assert_allclose(model.score(batch),
                                       model.predict(batch), atol=atol)

    @pytest.mark.parametrize("shape", ["mixed", "shared", "single"])
    def test_towers_are_fed_exactly_k_rows_per_row(
            self, shape, monkeypatch, dataset, taxonomy, tiny_model_config):
        model = _build("adv-hsc-moe", dataset, taxonomy, tiny_model_config,
                       np.float64)
        batch = dataset.batch(_routing_rows(dataset)[shape])
        calls = _record_tower_calls(monkeypatch)
        model.score(batch)
        experts = [plan.module for plan, _ in calls]
        assert all(any(e is m for m in model.experts) for e in experts)
        assert len({id(e) for e in experts}) == len(experts)  # once each
        assert sum(rows for _, rows in calls) == \
            tiny_model_config.top_k * len(batch)
        if shape == "mixed":        # many top-K sets: more than K towers
            assert len(calls) > tiny_model_config.top_k
        else:                       # one top-K set: K towers, all rows
            assert [rows for _, rows in calls] == \
                [len(batch)] * tiny_model_config.top_k

    def test_tower_scratch_is_one_bounded_pool(self, monkeypatch, dataset,
                                               taxonomy, tiny_model_config):
        model = _build("adv-hsc-moe", dataset, taxonomy, tiny_model_config,
                       np.float64)
        calls = _record_tower_calls(monkeypatch)
        rng = np.random.default_rng(11)
        for size in range(1, 257):
            model.score(dataset.batch(rng.choice(len(dataset), size=size,
                                                 replace=False)))
        pools = {id(plan.pool): plan.pool for plan, _ in calls}
        assert len(pools) == 1
        (pool,) = pools.values()
        steps = len(tiny_model_config.hidden_sizes) + 1     # one per Linear
        assert len(pool) <= steps * 9       # capacities 1, 2, 4, ..., 256

    def test_scores_survive_the_next_call(self, dataset, taxonomy,
                                          tiny_model_config):
        model = _build("adv-hsc-moe", dataset, taxonomy, tiny_model_config,
                       np.float64)
        rows = _routing_rows(dataset)
        for scorer in (model.score, model.make_scorer()):
            first = scorer(dataset.batch(rows["shared"]))
            kept = first.copy()
            for later in (rows["mixed"], rows["single"], rows["shared"][:5]):
                scorer(dataset.batch(later))
            np.testing.assert_array_equal(first, kept)


class TestClassifierParity:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_proba_matches_tensor_softmax(self, log, taxonomy, dtype, atol):
        queries = log.queries
        with nn.default_dtype(dtype):
            model = QueryCategoryClassifier(
                queries.vocab_size, taxonomy.max_sc_id() + 1,
                QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        tokens, lengths = queries.tokens[:48], queries.lengths[:48]
        with nn.no_grad():
            logits = model(tokens, lengths).data
        probs = model.predict_proba(tokens, lengths)
        np.testing.assert_allclose(probs, softmax_array(logits, axis=1), atol=atol)
        assert probs.shape == (48, taxonomy.max_sc_id() + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_predict_sc_matches_tensor_argmax(self, log, taxonomy):
        queries = log.queries
        model = QueryCategoryClassifier(
            queries.vocab_size, taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        tokens, lengths = queries.tokens[:48], queries.lengths[:48]
        with nn.no_grad():
            reference = model(tokens, lengths).data.argmax(axis=1)
        np.testing.assert_array_equal(model.predict_sc(tokens, lengths), reference)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_sc_on_single_queries_matches_tensor_argmax(self, log, taxonomy,
                                                                dtype):
        """The serving shape: one query of uniform length per call."""
        queries = log.queries
        with nn.default_dtype(dtype):
            model = QueryCategoryClassifier(
                queries.vocab_size, taxonomy.max_sc_id() + 1,
                QueryClassifierConfig(embedding_dim=8, hidden_size=12))
        for i in range(40):
            length = int(queries.lengths[i])
            tokens = queries.tokens[i:i + 1, :length]
            lengths = queries.lengths[i:i + 1]
            with nn.no_grad():
                reference = model(tokens, lengths).data.argmax(axis=1)
            np.testing.assert_array_equal(model.predict_sc(tokens, lengths),
                                          reference)

    def test_concurrent_predict_sc_is_serialized(self, log, taxonomy):
        """Concurrent intent classification (RankingService.rank callers)
        must not corrupt the shared plan scratch buffers."""
        queries = log.queries
        model = QueryCategoryClassifier(
            queries.vocab_size, taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        slices = [(queries.tokens[i:i + 8], queries.lengths[i:i + 8])
                  for i in range(16)]
        expected = [model.predict_sc(t, l) for t, l in slices]
        results: dict[int, np.ndarray] = {}

        def worker(i):
            t, l = slices[i]
            results[i] = model.predict_sc(t, l)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(16):
            np.testing.assert_array_equal(results[i], expected[i])
