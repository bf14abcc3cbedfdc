"""Tests for the graph-free inference engine (``repro.nn.infer``)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import infer


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestCompiledMLP:
    def test_matches_tensor_forward_f64(self, rng):
        tower = nn.MLP(12, [16, 8], 1, rng=rng)
        x = rng.normal(size=(32, 12))
        with nn.no_grad():
            reference = tower(nn.Tensor(x)).data
        np.testing.assert_allclose(tower.compiled()(x), reference, atol=1e-12)

    def test_matches_tensor_forward_f32(self, rng):
        tower = nn.MLP(12, [16, 8], 1, rng=rng).astype(np.float32)
        x = rng.normal(size=(32, 12)).astype(np.float32)
        with nn.no_grad():
            reference = tower(nn.Tensor(x)).data
        out = tower.compiled()(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, atol=1e-6)

    def test_dropout_is_identity_in_inference(self, rng):
        tower = nn.MLP(6, [8], 1, dropout=0.5, rng=rng)
        tower.eval()
        x = rng.normal(size=(16, 6))
        with nn.no_grad():
            reference = tower(nn.Tensor(x)).data
        np.testing.assert_allclose(tower.compiled()(x), reference, atol=1e-12)

    def test_float64_input_cast_to_plan_dtype(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng).astype(np.float32)
        out = tower.compiled()(rng.normal(size=(4, 6)))  # f64 feed
        assert out.dtype == np.float32

    def test_tensor_input_accepted(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        x = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(tower.compiled()(nn.Tensor(x)),
                                      tower.compiled()(x))

    def test_no_graph_is_built(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        out = tower.compiled()(rng.normal(size=(4, 6)))
        assert isinstance(out, np.ndarray)

    def test_buffers_reused_across_calls(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        plan = tower.compiled()
        x = rng.normal(size=(4, 6))
        first = plan(x)
        buffers_after_first = len(plan.pool)
        second = plan(x)
        assert len(plan.pool) == buffers_after_first
        assert second is first  # same output buffer, overwritten in place

    def test_new_batch_size_allocates_new_buffers(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        plan = tower.compiled()
        plan(rng.normal(size=(4, 6)))
        count = len(plan.pool)
        plan(rng.normal(size=(9, 6)))
        assert len(plan.pool) > count

    def test_parameter_updates_picked_up_without_recompile(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        plan = tower.compiled()
        x = rng.normal(size=(4, 6))
        before = plan(x).copy()
        for param in tower.parameters():
            param.data = param.data + 0.1
        after = plan(x)
        assert not np.allclose(before, after)
        with nn.no_grad():
            reference = tower(nn.Tensor(x)).data
        np.testing.assert_allclose(after, reference, atol=1e-12)


class TestCompiledLayers:
    def test_linear(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        x = rng.normal(size=(7, 5))
        with nn.no_grad():
            reference = layer(nn.Tensor(x)).data
        np.testing.assert_allclose(layer.compiled()(x), reference, atol=1e-12)

    def test_linear_no_bias(self, rng):
        layer = nn.Linear(5, 3, bias=False, rng=rng)
        x = rng.normal(size=(7, 5))
        with nn.no_grad():
            reference = layer(nn.Tensor(x)).data
        np.testing.assert_allclose(layer.compiled()(x), reference, atol=1e-12)

    def test_sequential_with_activations(self, rng):
        model = nn.Sequential(nn.Linear(5, 4, rng=rng), nn.Tanh(),
                              nn.Linear(4, 2, rng=rng), nn.Sigmoid())
        x = rng.normal(size=(6, 5))
        with nn.no_grad():
            reference = model(nn.Tensor(x)).data
        np.testing.assert_allclose(model.compiled()(x), reference, atol=1e-12)

    def test_embedding(self, rng):
        table = nn.Embedding(20, 4, rng=rng)
        ids = rng.integers(0, 20, size=11)
        with nn.no_grad():
            reference = table(ids).data
        np.testing.assert_array_equal(table.compiled()(ids), reference)

    def test_embedding_out_of_range_raises(self, rng):
        table = nn.Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            table.compiled()(np.array([3, 10]))

    def test_embedding_negative_id_raises(self, rng):
        """np.take would wrap -1 to the last row; the plan must not."""
        table = nn.Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            table.compiled()(np.array([3, -1]))

    def test_buffer_pool_is_lru_bounded(self, rng):
        pool = infer.BufferPool(max_buffers=3)
        step = pool.reserve()
        for rows in (1, 2, 3, 4, 5):
            pool.get(step, (rows, 2), np.float64)
        assert len(pool) == 3
        # Most recent sizes survive; re-getting one is still a cache hit.
        survivor = pool.get(step, (5, 2), np.float64)
        assert pool.get(step, (5, 2), np.float64) is survivor

    def test_row_pool_hands_out_leading_rows_of_pow2_capacity(self):
        pool = infer.RowBufferPool()
        step = pool.reserve()
        view = pool.get(step, (5, 3), np.float32)
        assert view.shape == (5, 3) and view.flags.c_contiguous
        assert view.base.shape == (8, 3)
        # Sizes within one capacity share its buffer.
        assert pool.get(step, (7, 3), np.float32).base is view.base
        for rows in range(1, 257):
            pool.get(step, (rows, 3), np.float32)
        assert len(pool) == 9               # capacities 1, 2, 4, ..., 256

    def test_plans_sharing_a_pool_share_step_buffers(self, rng):
        pool = infer.RowBufferPool()
        towers = [nn.MLP(6, [8], 1, rng=rng) for _ in range(3)]
        plans = [infer.compile_module(t, pool) for t in towers]
        x = rng.normal(size=(5, 6))
        for plan, tower in zip(plans, towers):
            assert plan.pool is pool
            np.testing.assert_allclose(plan(x), tower.compiled()(x),
                                       atol=1e-12)
        assert len(pool) == 2               # two steps, shared by all three

    def test_generic_fallback_for_custom_module(self, rng):
        class Scale2(nn.Module):
            def forward(self, x):
                return nn.as_tensor(x) * 2.0

        module = Scale2()
        x = rng.normal(size=(3, 2))
        np.testing.assert_allclose(module.compiled()(x), 2.0 * x)

    def test_astype_after_compiling_casts_inputs(self, rng):
        """The plan's dtype is read live: a cast after compiling still
        lands float64 feeds on the new parameter dtype."""
        class Gain(nn.Module):
            def __init__(self):
                super().__init__()
                self.gain = nn.Parameter(np.full(2, 3.0))

            def forward(self, x):
                # x * gain follows numpy promotion, so an uncast float64
                # feed would come out float64.
                return nn.as_tensor(x) * self.gain

        module = Gain()
        plan = module.compiled()
        x = rng.normal(size=(3, 2))
        assert plan(x).dtype == np.float64
        module.astype(np.float32)
        assert plan.dtype == np.float32
        out = plan(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, 3.0 * x, rtol=1e-6)


class TestCompiledRecurrent:
    @pytest.mark.parametrize("lengths", [None, "ragged"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_final_state_matches(self, rng, lengths, reverse):
        gru = nn.GRU(5, 7, rng=rng, reverse=reverse)
        x = rng.normal(size=(6, 9, 5))
        lens = rng.integers(1, 10, size=6) if lengths else None
        with nn.no_grad():
            _, final = gru(nn.Tensor(x), lengths=lens)
        np.testing.assert_allclose(gru.compiled()(x, lengths=lens),
                                   final.data, atol=1e-12)

    def test_bigru_matches(self, rng):
        gru = nn.BiGRU(5, 7, rng=rng)
        x = rng.normal(size=(6, 9, 5))
        lens = rng.integers(1, 10, size=6)
        with nn.no_grad():
            reference = gru(nn.Tensor(x), lengths=lens).data
        np.testing.assert_allclose(gru.compiled()(x, lengths=lens),
                                   reference, atol=1e-12)

    def test_bigru_f32(self, rng):
        gru = nn.BiGRU(5, 7, rng=rng).astype(np.float32)
        x = rng.normal(size=(6, 9, 5)).astype(np.float32)
        lens = rng.integers(1, 10, size=6)
        with nn.no_grad():
            reference = gru(nn.Tensor(x), lengths=lens).data
        out = gru.compiled()(x, lengths=lens)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, atol=1e-6)

    @staticmethod
    def _scan_pair(kind, rng, dtype, packed=True):
        """A recurrent module and its Tensor-path final state function."""
        if kind == "bigru":
            module = nn.BiGRU(5, 7, rng=rng, packed=packed)
        else:
            module = nn.GRU(5, 7, rng=rng, reverse=kind == "gru_reverse",
                            packed=packed)
        module.astype(dtype)

        def reference(x, lengths):
            with nn.no_grad():
                out = module(nn.Tensor(x), lengths=lengths)
            return (out if kind == "bigru" else out[1]).data
        return module, reference

    KINDS = ["bigru", "gru", "gru_reverse"]
    DTYPES = [(np.float64, 1e-12), (np.float32, 1e-6)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype,atol", DTYPES)
    @pytest.mark.parametrize("lengths", ["none", "full"])
    def test_uniform_batch_matches_tensor(self, rng, kind, dtype, atol, lengths):
        module, reference = self._scan_pair(kind, rng, dtype)
        x = rng.normal(size=(6, 9, 5)).astype(dtype)
        lens = None if lengths == "none" else np.full(6, 9)
        out = module.compiled()(x, lengths=lens)
        assert out.dtype == dtype
        np.testing.assert_allclose(out, reference(x, lens), atol=atol)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype,atol", DTYPES)
    def test_single_query_at_every_length_matches_tensor(self, rng, kind,
                                                         dtype, atol):
        """The serving shape: batch 1, uniform length, lengths given."""
        module, reference = self._scan_pair(kind, rng, dtype)
        plan = module.compiled()
        for time in range(1, 9):
            x = rng.normal(size=(1, time, 5)).astype(dtype)
            lens = np.array([time])
            np.testing.assert_allclose(plan(x, lengths=lens),
                                       reference(x, lens), atol=atol)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype,atol", DTYPES)
    def test_ragged_masked_scan_matches_tensor(self, rng, kind, dtype, atol):
        """``packed=False``: the stacked loop masks every direction."""
        from repro.nn import functional as F
        module, reference = self._scan_pair(kind, rng, dtype, packed=False)
        x = rng.normal(size=(6, 9, 5)).astype(dtype)
        lens = np.array([9, 1, 4, 9, 6, 2])
        F.reset_packed_scan_counters()
        out = module.compiled()(x, lengths=lens)
        assert F.packed_scan_counters["calls"] == 0
        np.testing.assert_allclose(out, reference(x, lens), atol=atol)

    @pytest.mark.parametrize("kind,directions", [("gru", 1), ("gru_reverse", 1),
                                                 ("bigru", 2)])
    def test_uniform_scan_makes_one_sigmoid_call_per_step(self, rng, monkeypatch,
                                                          kind, directions):
        module, _ = self._scan_pair(kind, rng, np.float64)
        plan = module.compiled()
        calls = []
        sigmoid = infer._stable_sigmoid

        def counting(x):
            calls.append(x.shape)
            return sigmoid(x)
        monkeypatch.setattr(infer, "_stable_sigmoid", counting)
        for time in (1, 4, 7):
            for lengths in (None, np.full(3, time)):
                calls.clear()
                plan(rng.normal(size=(3, time, 5)), lengths=lengths)
                # One call per step, over [r | z] of every direction.
                assert calls == [(directions, 3, 14)] * time

    @pytest.mark.parametrize("kind,directions", [("gru", 1), ("bigru", 2)])
    def test_packed_scan_chosen_only_by_a_short_row(self, rng, kind, directions):
        from repro.nn import functional as F
        module, reference = self._scan_pair(kind, rng, np.float64)
        plan = module.compiled()
        x = rng.normal(size=(4, 6, 5))
        for lens, packed_calls in (([6, 6, 6, 6], 0), ([9, 7, 6, 8], 0),
                                   ([6, 6, 5, 6], directions)):
            F.reset_packed_scan_counters()
            out = plan(x, lengths=np.array(lens))
            assert F.packed_scan_counters["calls"] == packed_calls
            np.testing.assert_allclose(out, reference(x, np.array(lens)),
                                       atol=1e-12)

    def test_gru_cell_step(self, rng):
        cell = nn.GRUCell(4, 6, rng=rng)
        x = rng.normal(size=(3, 4))
        h = rng.normal(size=(3, 6))
        with nn.no_grad():
            reference = cell(nn.Tensor(x), nn.Tensor(h)).data
        np.testing.assert_allclose(cell.compiled()(x, h), reference, atol=1e-12)


class TestArrayHelpers:
    def test_softmax_array_matches_functional(self, rng):
        from repro.nn import functional as F
        x = rng.normal(size=(5, 7))
        np.testing.assert_allclose(infer.softmax_array(x, axis=1),
                                   F.softmax(nn.Tensor(x), axis=1).data,
                                   atol=1e-15)

    def test_masked_softmax_array_matches_functional(self, rng):
        from repro.nn import functional as F
        x = rng.normal(size=(5, 7))
        mask = rng.random((5, 7)) > 0.4
        mask[:, 0] = True  # no all-masked rows
        np.testing.assert_allclose(
            infer.masked_softmax_array(x, mask, axis=1),
            F.masked_softmax(nn.Tensor(x), mask, axis=1).data, atol=1e-15)

    def test_sigmoid_array_is_stable(self):
        out = infer.sigmoid_array(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_plan_repr_and_dtype(self, rng):
        tower = nn.MLP(6, [8], 1, rng=rng)
        plan = tower.compiled()
        assert plan.dtype == np.float64
        assert "CompiledPlan" in repr(plan)
