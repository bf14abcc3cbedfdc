"""End-to-end float32 pipeline verification.

``nn.set_default_dtype(np.float32)`` must hold through *whole* training
runs — querycat (embedding → BiGRU → head → cross-entropy) and the ranking
models (FeatureEmbedder → towers/gates → BCE) — with no tensor in the loss
graph silently promoted to float64.  The workhorse here is
:func:`_graph_dtypes`, which walks the autograd DAG from a loss and
collects every node's dtype; a single float64 leak (a hardcoded mask, an
un-cast noise draw, raw float64 numeric features) fails the test.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.sessions import QueryTable
from repro.hierarchy import default_taxonomy
from repro.models import build_model
from repro.models.base import FeatureEmbedder
from repro.querycat import (QueryCategoryClassifier, QueryClassifierConfig,
                            train_classifier)
from repro.training import TrainConfig, Trainer


def _graph_dtypes(root: nn.Tensor) -> set:
    """Every dtype reachable from ``root`` through the autograd graph."""
    seen: set[int] = set()
    stack = [root]
    dtypes = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        dtypes.add(node.data.dtype)
        stack.extend(node._prev)
    return dtypes


def _tiny_query_table(num_queries=96, vocab=40, num_sc=6, max_len=5, seed=0):
    rng = np.random.default_rng(seed)
    sc_ids = rng.integers(0, num_sc, size=num_queries)
    lengths = rng.integers(1, max_len + 1, size=num_queries)
    tokens = np.zeros((num_queries, max_len), dtype=np.int64)
    for i, length in enumerate(lengths):
        tokens[i, :length] = rng.integers(1, vocab, size=length)
    return QueryTable(sc_ids=sc_ids, tc_ids=sc_ids // 2,
                      buckets=rng.integers(0, 8, size=num_queries),
                      tokens=tokens, lengths=lengths, vocab_size=vocab)


class _ToyTaxonomy:
    """parents_of is all train_classifier needs from the taxonomy."""

    def parents_of(self, sc_ids):
        return np.asarray(sc_ids) // 2


class TestQuerycatFloat32:
    def test_loss_graph_is_pure_float32(self):
        queries = _tiny_query_table()
        with nn.default_dtype(np.float32):
            model = QueryCategoryClassifier(
                queries.vocab_size, 6,
                QueryClassifierConfig(embedding_dim=6, hidden_size=5, seed=0))
            logits = model(queries.tokens[:16], queries.lengths[:16])
            loss = nn.losses.cross_entropy(logits, queries.sc_ids[:16])
            # Walk before backward(), which releases the graph.
            dtypes = _graph_dtypes(loss)
            loss.backward()
        assert dtypes == {np.dtype(np.float32)}, (
            "float64 tensor leaked into the float32 querycat loss graph")
        assert all(p.grad.dtype == np.float32 for p in model.parameters())

    def test_full_training_run_stays_float32(self):
        """A complete train_classifier run in f32 mode: parameters stay
        float32 through every optimizer step and accuracy is computable."""
        queries = _tiny_query_table()
        with nn.default_dtype(np.float32):
            model = QueryCategoryClassifier(
                queries.vocab_size, 6,
                QueryClassifierConfig(embedding_dim=6, hidden_size=5, epochs=2,
                                      batch_size=32, seed=0))
            result = train_classifier(model, queries, _ToyTaxonomy())
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(result.history).all()
        assert 0.0 <= result.sc_accuracy <= 1.0


class TestRankingFloat32:
    @pytest.mark.parametrize("name", ["dnn", "moe", "adv-hsc-moe", "4-mmoe"])
    def test_model_loss_graph_is_pure_float32(self, name, train_dataset,
                                              tiny_model_config):
        taxonomy = default_taxonomy()
        small = train_dataset.subset(np.arange(256)).astype(np.float32)
        with nn.default_dtype(np.float32):
            model = build_model(name, small.spec, taxonomy, tiny_model_config,
                                train_dataset=small)
            loss, _ = model.loss(small.batch(np.arange(128)),
                                 rng=np.random.default_rng(0))
            # Walk before backward(), which releases the graph.
            dtypes = _graph_dtypes(loss)
            loss.backward()
        assert dtypes == {np.dtype(np.float32)}, (
            f"float64 tensor leaked into the float32 {name} loss graph")
        assert all(p.grad.dtype == np.float32 for p in model.parameters()
                   if p.grad is not None)

    def test_trainer_casts_dataset_once(self, train_dataset, test_dataset,
                                        tiny_model_config):
        """Trainer.fit casts numeric features to the model dtype at entry,
        so a float64 dataset trains a float32 model without per-batch
        promotion (and without mutating the caller's dataset)."""
        taxonomy = default_taxonomy()
        small = train_dataset.subset(np.arange(512))
        assert small.numeric.dtype == np.float64
        with nn.default_dtype(np.float32):
            model = build_model("dnn", small.spec, taxonomy, tiny_model_config)
            trainer = Trainer(model, TrainConfig(epochs=1, batch_size=256,
                                                 eval_every_epoch=False))
            result = trainer.fit(small, eval_dataset=None)
        assert small.numeric.dtype == np.float64  # caller's copy untouched
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(result.history[0].train_loss)


class TestDatasetAstype:
    def test_cast_and_noop(self, dataset):
        f32 = dataset.astype(np.float32)
        assert f32.numeric.dtype == np.float32
        assert f32.astype(np.float32) is f32          # idempotent no-op
        assert dataset.numeric.dtype == np.float64    # original untouched
        assert f32.sparse is dataset.sparse           # ids shared, not copied
        np.testing.assert_allclose(f32.numeric, dataset.numeric, atol=1e-6)

    def test_model_input_matches_embedder_dtype(self, dataset):
        """FeatureEmbedder coerces un-cast float64 numeric to its own dtype
        instead of letting it upcast the concatenated input."""
        with nn.default_dtype(np.float32):
            embedder = FeatureEmbedder(dataset.spec, embedding_dim=4,
                                       rng=np.random.default_rng(0))
        assert embedder.dtype == np.float32
        batch = dataset.batch(np.arange(32))          # float64 numeric
        assert embedder.model_input(batch).dtype == np.float32
        assert embedder.gate_input(batch, ("query_sc",),
                                   include_numeric=True).dtype == np.float32
