"""Tests for repro.nn.quantize — the int8 per-channel weight kernel family.

Covers the quantization math (round-trip error bound, the f32-accumulation
identity the blocked kernel relies on), eligibility scoping (only Linear
weights inside MLP towers), hydration semantics (NaN-poisoned placeholders,
inference-only models), and the compiled-plan quantized lane's parity with
a dequantized full-precision plan.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.quantize import (QMAX, QuantizedWeight, hydrate_quantized,
                               is_quantized_serving, quantizable_weights,
                               quantize_module, quantize_weight)

RNG = np.random.default_rng


class TestQuantizeWeight:
    def test_round_trip_error_bounded_by_half_step(self):
        w = RNG(0).normal(size=(64, 32)).astype(np.float32)
        qw = quantize_weight(w)
        # Symmetric rounding: |W - dequant(W)| <= scale/2 per channel.
        err = np.abs(qw.dequantize() - w)
        assert np.all(err <= qw.scales[None, :] / 2 + 1e-7)

    def test_layout_is_transposed_contiguous_int8(self):
        qw = quantize_weight(RNG(0).normal(size=(48, 16)).astype(np.float32))
        assert qw.q.shape == (16, 48)           # (out, in)
        assert qw.q.dtype == np.int8
        assert qw.q.flags["C_CONTIGUOUS"]
        assert qw.shape == (48, 16)             # logical (in, out)
        assert qw.scales.dtype == np.float32
        assert np.abs(qw.q).max() <= QMAX

    def test_zero_channel_round_trips_exactly(self):
        w = RNG(0).normal(size=(8, 4)).astype(np.float32)
        w[:, 2] = 0.0
        qw = quantize_weight(w)
        assert qw.scales[2] == 1.0              # no divide-by-zero
        np.testing.assert_array_equal(qw.dequantize()[:, 2], 0.0)

    def test_matmul_into_matches_dequantized_matmul(self):
        """The blocked int8 kernel computes (x @ q.T) * s — identical to
        x @ dequant(W) up to f32 summation order."""
        w = RNG(0).normal(size=(200, 70)).astype(np.float32)
        qw = quantize_weight(w)
        x = RNG(1).normal(size=(5, 200)).astype(np.float32)
        out = np.empty((5, 70), dtype=np.float32)
        scratch = np.empty(qw.scratch_shape(), dtype=np.float32)
        qw.matmul_into(x, out, scratch)
        np.testing.assert_allclose(out, x @ qw.dequantize(), rtol=1e-5,
                                   atol=1e-5)

    def test_blocked_kernel_spans_multiple_blocks(self):
        """Force block_rows < out_features so the block loop iterates."""
        w = RNG(0).normal(size=(16, 40)).astype(np.float32)
        qw = quantize_weight(w)
        qw.block_rows = 16                      # 3 blocks over 40 channels
        x = RNG(1).normal(size=(3, 16)).astype(np.float32)
        out = np.empty((3, 40), dtype=np.float32)
        scratch = np.empty(qw.scratch_shape(), dtype=np.float32)
        qw.matmul_into(x, out, scratch)
        np.testing.assert_allclose(out, x @ qw.dequantize(), rtol=1e-5,
                                   atol=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            quantize_weight(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            QuantizedWeight(np.zeros((2, 3), dtype=np.float32),
                            np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError):
            QuantizedWeight(np.zeros((2, 3), dtype=np.int8),
                            np.ones(3, dtype=np.float32))


class TestEligibility:
    def test_bare_mlp_linears_eligible(self):
        tower = nn.MLP(6, [8, 4], 1, rng=RNG(0)).astype(np.float32)
        assert set(quantizable_weights(tower)) \
            == {"0.weight", "2.weight", "4.weight"}

    def test_gates_embeddings_and_grus_excluded(self):
        """Only MLP-resident Linears quantize; everything whose scorer
        reads weight.data directly stays f32."""

        class Model(nn.Module):
            def __init__(self):
                super().__init__()
                self.tower = nn.MLP(6, [8], 1, rng=RNG(0))
                self.gate = nn.Linear(6, 4, rng=RNG(1))      # bare Linear
                self.table = nn.Embedding(10, 4, rng=RNG(2))
                self.encoder = nn.BiGRU(4, 3, rng=RNG(3))

        eligible = quantizable_weights(Model())
        assert set(eligible) == {"tower.0.weight", "tower.2.weight"}

    def test_quantize_module_requires_float32(self):
        tower = nn.MLP(4, [6], 1, rng=RNG(0))   # float64 default
        with pytest.raises(ValueError, match="float32"):
            quantize_module(tower)


class TestHydration:
    def _tower(self):
        return nn.MLP(5, [8], 2, rng=RNG(0)).astype(np.float32)

    def _split(self, model):
        quantized = quantize_module(model)
        state = {name: param.data.copy()
                 for name, param in model.named_parameters()
                 if name not in quantized}
        return state, quantized

    def test_hydrated_model_is_inference_only(self):
        source = self._tower()
        state, quantized = self._split(source)
        target = self._tower()
        hydrate_quantized(target, state, quantized)
        assert is_quantized_serving(target)
        assert not target.training
        # Replaced weights are zero-memory NaN broadcasts: any bypass path
        # poisons its output instead of serving garbage.
        for name in quantized:
            module = quantizable_weights(target)[name]
            assert np.isnan(module.weight.data).all()
            assert module.weight.data.base is not None
        # Passthrough params (biases) carried over exactly.
        assert all(not np.isnan(p.data).any()
                   for n, p in target.named_parameters() if n not in quantized)

    def test_compiled_plan_matches_dequantized_reference(self):
        """The quantized compiled plan must match a full-precision plan
        over the *dequantized* weights to f32 summation tolerance."""
        source = self._tower()
        state, quantized = self._split(source)
        target = self._tower()
        hydrate_quantized(target, state, quantized)
        # Build the dequantized reference in the source architecture.
        reference = self._tower()
        ref_state = dict(state)
        for name, qw in quantized.items():
            ref_state[name] = qw.dequantize()
        reference.load_state_dict(ref_state)
        x = RNG(5).normal(size=(7, 5)).astype(np.float32)
        got = target.compiled()(x)
        want = reference.compiled()(x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_mismatched_quantized_names_rejected(self):
        source = self._tower()
        state, quantized = self._split(source)
        quantized["nope.weight"] = quantized.pop(next(iter(quantized)))
        with pytest.raises(KeyError, match="architecture"):
            hydrate_quantized(self._tower(), state, quantized)

    def test_missing_passthrough_rejected(self):
        source = self._tower()
        state, quantized = self._split(source)
        state.pop(next(iter(state)))
        with pytest.raises(KeyError, match="missing"):
            hydrate_quantized(self._tower(), state, quantized)

    def test_shape_mismatch_rejected(self):
        source = self._tower()
        state, quantized = self._split(source)
        wrong = nn.MLP(5, [16], 2, rng=RNG(1)).astype(np.float32)
        with pytest.raises((ValueError, KeyError)):
            hydrate_quantized(wrong, state, quantized)
