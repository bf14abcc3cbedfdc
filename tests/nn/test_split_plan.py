"""Tests for the split compiled plan (:class:`SplitMLP` / :class:`PrefixMemo`).

The split plan factors an MLP's first layer across a column partition so
the query-independent (item-side) contribution can be memoized per item.
The contract under test: split scores match the unsplit compiled plan to
float rounding (the summation order changes, so bit-identity is *not*
promised — that is the result cache's job), the first layer's weights
are snapshotted at construction, and the memo returns the same rows
whether they were computed or recalled.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn.infer import PrefixMemo, SplitMLP


@pytest.fixture()
def mlp(rng):
    return nn.MLP(10, [8, 4], 1, rng=rng)


def _partition(width, rng):
    """An arbitrary unordered partition of ``width`` columns."""
    columns = rng.permutation(width)
    return columns[: width // 2], columns[width // 2:]


class TestSplitMLP:
    def test_matches_compiled_plan(self, mlp, rng):
        static, dynamic = _partition(10, rng)
        split = SplitMLP(mlp, static, dynamic)
        x = rng.standard_normal((6, 10))
        expected = mlp.compiled()(x)
        prefix = split.prefix(x[:, static])
        result = split(prefix, x[:, dynamic])
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_no_hidden_layers(self, rng):
        # A pure Linear "MLP" has no fused relu on its first (only) layer.
        linear_only = nn.MLP(6, [], 1, rng=rng)
        static, dynamic = np.arange(3), np.arange(3, 6)
        split = SplitMLP(linear_only, static, dynamic)
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            split(split.prefix(x[:, static]), x[:, dynamic]),
            linear_only.compiled()(x), atol=1e-10)

    def test_prefix_width_and_dtype(self, mlp, rng):
        static, dynamic = _partition(10, rng)
        split = SplitMLP(mlp, static, dynamic)
        assert split.prefix_width == 8          # first hidden layer
        assert split.dtype == np.float64
        assert split.prefix(rng.standard_normal((3, len(static)))).shape \
            == (3, 8)

    def test_partition_must_be_exact(self, mlp):
        with pytest.raises(ValueError):         # column 0 claimed twice
            SplitMLP(mlp, np.arange(5), np.arange(5, 10).tolist() + [0])
        with pytest.raises(ValueError):         # column 9 unclaimed
            SplitMLP(mlp, np.arange(5), np.arange(5, 9))

    def test_weights_snapshotted_at_construction(self, mlp, rng):
        static, dynamic = _partition(10, rng)
        split = SplitMLP(mlp, static, dynamic)
        x = rng.standard_normal((5, 10))
        before = np.array(split(split.prefix(x[:, static]), x[:, dynamic]))
        first = mlp._plan[0][1]
        first.weight.data += 1.0                # "training" after the split
        after = split(split.prefix(x[:, static]), x[:, dynamic])
        # The split plan pins the first layer (memoized prefixes are only
        # valid against it); the live compiled plan sees the new weights.
        np.testing.assert_array_equal(after, before)
        assert not np.allclose(mlp.compiled()(x), before)

    def test_batch_reuse_owned_buffers(self, mlp, rng):
        static, dynamic = _partition(10, rng)
        split = SplitMLP(mlp, static, dynamic)
        x1 = rng.standard_normal((4, 10))
        x2 = rng.standard_normal((4, 10))
        out1 = np.array(split(split.prefix(x1[:, static]), x1[:, dynamic]))
        out2 = split(split.prefix(x2[:, static]), x2[:, dynamic])
        np.testing.assert_allclose(out1, mlp.compiled()(x1), atol=1e-10)
        np.testing.assert_allclose(out2, mlp.compiled()(x2), atol=1e-10)


class TestPrefixMemo:
    def test_computes_misses_then_hits(self):
        memo = PrefixMemo(max_items=8)
        calls = []

        def compute(positions):
            calls.append(np.array(positions))
            return np.asarray([[float(p), float(p) + 0.5]
                               for p in positions])

        first = memo.lookup([b"a", b"b"], compute)
        np.testing.assert_array_equal(first, [[0.0, 0.5], [1.0, 1.5]])
        second = memo.lookup([b"b", b"a"], compute)
        np.testing.assert_array_equal(second, [[1.0, 1.5], [0.0, 0.5]])
        assert len(calls) == 1                  # second lookup: all hits
        snap = memo.snapshot()
        assert snap["hits"] == 2 and snap["misses"] == 2

    def test_partial_hit_computes_only_missing(self):
        memo = PrefixMemo(max_items=8)
        memo.lookup([b"a"], lambda p: np.zeros((len(p), 2)))

        def compute(positions):
            np.testing.assert_array_equal(positions, [1])
            return np.ones((1, 2))

        rows = memo.lookup([b"a", b"new"], compute)
        np.testing.assert_array_equal(rows, [[0.0, 0.0], [1.0, 1.0]])

    def test_lru_eviction(self):
        memo = PrefixMemo(max_items=2)
        compute = lambda p: np.zeros((len(p), 1))  # noqa: E731
        memo.lookup([b"a", b"b"], compute)
        memo.lookup([b"a"], compute)            # a is most recent
        memo.lookup([b"c"], compute)            # evicts b
        assert len(memo) == 2
        assert memo.snapshot()["evictions"] == 1
        memo.lookup([b"b"], compute)            # b must be recomputed
        assert memo.snapshot()["misses"] == 4

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PrefixMemo(max_items=0)


# ----------------------------------------------------------------------
# Model-level split scorers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def split_batch(dataset):
    return dataset.batch(np.arange(24))


# MoERanker offers no split scorer (``make_split_scorer`` returns None):
# its default scorer runs only each row's K selected towers, which beat a
# split plan that runs every tower on every row.
@pytest.mark.parametrize("arch", ["dnn"])
class TestModelSplitScorers:
    @pytest.fixture()
    def ranker(self, arch, dataset, taxonomy, tiny_model_config):
        return build_model(arch, dataset.spec, taxonomy, tiny_model_config,
                           train_dataset=dataset)

    def test_split_scorer_matches_score(self, ranker, split_batch):
        score = ranker.make_split_scorer()
        assert score is not None
        np.testing.assert_allclose(score(split_batch),
                                   ranker.score(split_batch), atol=1e-10)

    def test_memo_reused_across_requests(self, ranker, split_batch):
        memo = PrefixMemo()
        score = ranker.make_split_scorer(prefix_memo=memo)
        first = np.array(score(split_batch))
        misses = memo.snapshot()["misses"]
        assert misses > 0
        second = score(split_batch)
        snap = memo.snapshot()
        # Same items again: every row recalled, nothing recomputed.
        assert snap["misses"] == misses
        assert snap["hits"] >= len(split_batch)
        np.testing.assert_allclose(second, first, atol=1e-12)

    def test_memo_shared_across_scorer_instances(self, ranker, split_batch):
        # The service hands every pool worker its own split plan but one
        # shared memo; a second worker must ride the first's prefixes.
        memo = PrefixMemo()
        first = ranker.make_split_scorer(prefix_memo=memo)
        second = ranker.make_split_scorer(prefix_memo=memo)
        expected = np.array(first(split_batch))
        misses = memo.snapshot()["misses"]
        np.testing.assert_allclose(second(split_batch), expected, atol=1e-12)
        assert memo.snapshot()["misses"] == misses
