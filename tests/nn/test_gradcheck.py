"""Tests for the repro.nn.gradcheck subsystem itself, plus the exhaustive
per-op sweep: every op exported by repro.nn.functional must either appear in
the gradcheck case table below or be explicitly listed as non-differentiable.
New functional exports therefore cannot land unchecked — this module fails
collection-time (`test_every_functional_export_is_covered`) until a case is
added.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.gradcheck import (GradcheckError, check_grad, gradcheck,
                                gradcheck_module, numeric_grad)
from repro.nn.tensor import Tensor

RNG = np.random.default_rng


def _dropout_fixed(t):
    # A freshly seeded rng per call makes the stochastic mask deterministic,
    # which finite differences require.
    return F.dropout(t, 0.3, training=True, rng=RNG(7))


_LINRELU_W = Tensor(RNG(1).normal(size=(4, 3)))
_LINRELU_B = Tensor(RNG(2).normal(size=3))
_MASK = np.array([[True, True, False, True], [True, False, True, True],
                  [False, True, True, True]])
_GATHER_IDX = np.array([[0, 2], [1, 1], [3, 0]])
_CLASS_TARGETS = np.array([0, 2, 1])
_BCE_TARGETS = np.array([[0.0, 1.0, 0.5, 1.0], [1.0, 0.0, 0.25, 0.0],
                         [0.5, 0.5, 1.0, 0.0]])
# GRU kernel fixtures: hidden size 3, input size 2, batch 4, 3 timesteps.
# The mask / ragged lengths exercise the in-kernel masked state update.
_GRU_WHH = Tensor(RNG(3).normal(size=(3, 9)) * 0.5)
_GRU_BHH = Tensor(RNG(4).normal(size=9) * 0.1)
_GRU_H0 = Tensor(RNG(5).normal(size=(4, 3)))
_GRU_WIH = Tensor(RNG(6).normal(size=(2, 9)) * 0.5)
_GRU_BIH = Tensor(RNG(7).normal(size=9) * 0.1)
_GRU_MASK = np.array([[1.0], [1.0], [0.0], [1.0]])
_SEQ_LENGTHS = np.array([3, 1, 2, 3])
# Expert dispatch fixtures: 3 rows, each routed to 2 of 4 experts; expert 1
# gets no row.
_DISPATCH_ROWS = np.array([0, 2, 0, 1, 2, 1])
_DISPATCH_BOUNDS = np.array([0, 2, 2, 5, 6])
_COMBINE_WEIGHTS = Tensor(RNG(8).normal(size=(3, 4)))


def _dispatch_scaled(t):
    # A distinct scale per expert makes a slice landing in the wrong
    # expert's rows show in the gradient.
    parts = F.dispatch_rows(t, _DISPATCH_ROWS, _DISPATCH_BOUNDS)
    return nn.concatenate([part * float(index + 1)
                           for index, part in enumerate(parts)], axis=0) ** 2


def _combine_split(t):
    parts = [t[start:stop] for start, stop in
             zip(_DISPATCH_BOUNDS[:-1], _DISPATCH_BOUNDS[1:])]
    return F.combine_rows(parts, _DISPATCH_ROWS, 3) * _COMBINE_WEIGHTS

# name -> (fn, input) pairs; inputs avoid non-differentiable points (e.g.
# relu kinks at 0) so central differences are well-defined.
GRADCHECK_CASES = {
    "relu": (lambda t: F.relu(t), RNG(0).normal(size=(3, 4)) + 0.05),
    "sigmoid": (lambda t: F.sigmoid(t), RNG(0).normal(size=(3, 4))),
    "tanh": (lambda t: F.tanh(t), RNG(0).normal(size=(3, 4))),
    "softmax": (lambda t: F.softmax(t, axis=1) * Tensor(RNG(1).normal(size=(3, 4))),
                RNG(0).normal(size=(3, 4))),
    "log_softmax": (lambda t: F.log_softmax(t, axis=1)[:, :2],
                    RNG(0).normal(size=(3, 4))),
    "masked_softmax": (lambda t: F.masked_softmax(t, _MASK, axis=1) ** 2,
                       RNG(0).normal(size=(3, 4))),
    "dropout": (_dropout_fixed, RNG(0).normal(size=(3, 4))),
    "take_along_axis": (lambda t: F.take_along_axis(t, _GATHER_IDX, axis=1) ** 2,
                        RNG(0).normal(size=(3, 4))),
    "linear_relu": (lambda t: F.linear_relu(t, _LINRELU_W, _LINRELU_B),
                    RNG(0).normal(size=(3, 4))),
    "softmax_cross_entropy": (lambda t: F.softmax_cross_entropy(t, _CLASS_TARGETS,
                                                                reduction="sum"),
                              RNG(0).normal(size=(3, 4))),
    "bce_with_logits_fused": (lambda t: F.bce_with_logits_fused(t, _BCE_TARGETS,
                                                                reduction="sum"),
                              RNG(0).normal(size=(3, 4))),
    "gru_cell_fused": (lambda t: F.gru_cell_fused(t, _GRU_H0, _GRU_WHH,
                                                  _GRU_BHH, mask=_GRU_MASK),
                       RNG(0).normal(size=(4, 9))),
    "gru_sequence": (lambda t: F.gru_sequence(t, _GRU_WIH, _GRU_WHH, _GRU_BIH,
                                              _GRU_BHH, lengths=_SEQ_LENGTHS,
                                              reverse=True)[1],
                     RNG(0).normal(size=(4, 3, 2))),
    # Unsorted ragged lengths force the packed scan's argsort + unsort lane.
    "gru_sequence_packed": (lambda t: F.gru_sequence_packed(
                                t, _GRU_WIH, _GRU_WHH, _GRU_BIH, _GRU_BHH,
                                lengths=_SEQ_LENGTHS, reverse=True)[1],
                            RNG(0).normal(size=(4, 3, 2))),
    "dispatch_rows": (_dispatch_scaled, RNG(0).normal(size=(3, 4))),
    "combine_rows": (_combine_split, RNG(0).normal(size=(6, 1))),
}

# Exports that intentionally have no gradient path: plain-numpy helpers for
# routing masks and labels.
NON_DIFFERENTIABLE = {"scatter_topk_mask", "one_hot"}


def test_every_functional_export_is_covered():
    """The sweep is exhaustive: a new export must be classified here."""
    covered = set(GRADCHECK_CASES) | NON_DIFFERENTIABLE
    assert set(F.__all__) == covered, (
        "repro.nn.functional exports changed; add a gradcheck case (or list "
        f"the op as non-differentiable): {set(F.__all__) ^ covered}")


@pytest.mark.parametrize("name", sorted(GRADCHECK_CASES))
def test_op_matches_finite_differences(name):
    fn, x = GRADCHECK_CASES[name]
    check_grad(fn, x)


class TestGRUKernelGradients:
    """The sweep checks the fused GRU kernels wrt their first argument;
    these cover every other differentiable input (hidden state, recurrent
    weights, biases, and the hoisted input projection)."""

    _XG = Tensor(RNG(8).normal(size=(4, 9)))
    _XSEQ = RNG(9).normal(size=(4, 3, 2))

    def test_cell_hidden_state(self):
        check_grad(lambda t: F.gru_cell_fused(self._XG, t, _GRU_WHH, _GRU_BHH,
                                              mask=_GRU_MASK), _GRU_H0.data)

    def test_cell_weight_hh(self):
        check_grad(lambda t: F.gru_cell_fused(self._XG, _GRU_H0, t, _GRU_BHH),
                   _GRU_WHH.data)

    def test_cell_bias_hh(self):
        check_grad(lambda t: F.gru_cell_fused(self._XG, _GRU_H0, _GRU_WHH, t,
                                              mask=_GRU_MASK), _GRU_BHH.data)

    def test_sequence_weight_ih(self):
        check_grad(lambda t: F.gru_sequence(self._XSEQ, t, _GRU_WHH, _GRU_BIH,
                                            _GRU_BHH, lengths=_SEQ_LENGTHS)[1],
                   _GRU_WIH.data)

    def test_sequence_weight_hh(self):
        check_grad(lambda t: F.gru_sequence(self._XSEQ, _GRU_WIH, t, _GRU_BIH,
                                            _GRU_BHH, lengths=_SEQ_LENGTHS)[1],
                   _GRU_WHH.data)

    def test_sequence_biases(self):
        check_grad(lambda t: F.gru_sequence(self._XSEQ, _GRU_WIH, _GRU_WHH, t,
                                            _GRU_BHH)[1], _GRU_BIH.data)
        check_grad(lambda t: F.gru_sequence(self._XSEQ, _GRU_WIH, _GRU_WHH,
                                            _GRU_BIH, t)[1], _GRU_BHH.data)

    def test_packed_sequence_weights(self):
        """The packed scan's shared-buffer weight accumulation (prefix steps
        write partial-batch gradients) must match finite differences."""
        check_grad(lambda t: F.gru_sequence_packed(
            self._XSEQ, t, _GRU_WHH, _GRU_BIH, _GRU_BHH,
            lengths=_SEQ_LENGTHS)[1], _GRU_WIH.data)
        check_grad(lambda t: F.gru_sequence_packed(
            self._XSEQ, _GRU_WIH, t, _GRU_BIH, _GRU_BHH,
            lengths=_SEQ_LENGTHS)[1], _GRU_WHH.data)

    def test_packed_sequence_all_step_outputs(self):
        """Gradients through every unsorted per-step output — each
        _permute_rows/_row_slice backward must land in the right rows."""
        def through_all_steps(t):
            outputs, _ = F.gru_sequence_packed(t, _GRU_WIH, _GRU_WHH,
                                               _GRU_BIH, _GRU_BHH,
                                               lengths=_SEQ_LENGTHS,
                                               reverse=True)
            total = outputs[0]
            for step in outputs[1:]:
                total = total + step
            return total
        check_grad(through_all_steps, self._XSEQ)

    def test_sequence_all_step_outputs(self):
        """Gradients through intermediate step outputs (not just the final
        state) — every per-step time_slice backward must land correctly."""
        def through_all_steps(t):
            outputs, _ = F.gru_sequence(t, _GRU_WIH, _GRU_WHH, _GRU_BIH,
                                        _GRU_BHH, lengths=_SEQ_LENGTHS)
            total = outputs[0]
            for step in outputs[1:]:
                total = total + step
            return total
        check_grad(through_all_steps, self._XSEQ)


class TestCheckGrad:
    def test_passes_on_correct_gradient(self):
        check_grad(lambda t: t * 3.0, RNG(0).normal(size=(2, 3)))

    def test_catches_wrong_gradient(self):
        def broken(t):
            # Forward is x^2 but the registered backward claims d/dx = x.
            out = t._make_child(t.data ** 2, (t,), "broken")
            if out.requires_grad:
                out._backward = lambda: t._accumulate(out.grad * t.data)
            return out

        with pytest.raises(GradcheckError):
            check_grad(broken, RNG(0).normal(size=(2, 2)))

    def test_catches_missing_gradient(self):
        with pytest.raises(GradcheckError):
            check_grad(lambda t: Tensor(t.data * 2.0, requires_grad=True),
                       np.ones(3))

    def test_runs_in_float64_even_in_float32_mode(self):
        with nn.default_dtype(np.float32):
            # 1e-6 finite-difference steps vanish in f32; passing proves the
            # checker forced f64 internally.
            check_grad(lambda t: t.exp(), RNG(0).normal(size=(2, 3)))

    def test_configurable_eps(self):
        check_grad(lambda t: t ** 3, RNG(0).normal(size=4), eps=1e-5, tol=1e-6)


class TestNumericGrad:
    def test_linear_function_exact(self):
        c = np.array([1.0, -2.0, 3.0])
        grad = numeric_grad(lambda t: t * Tensor(c), np.zeros(3))
        np.testing.assert_allclose(grad, c, atol=1e-9)

    def test_matches_analytic_for_quadratic(self):
        x = RNG(0).normal(size=(2, 2))
        np.testing.assert_allclose(numeric_grad(lambda t: t ** 2, x), 2 * x,
                                   atol=1e-6)


class TestGradcheckBoolean:
    def test_true_on_correct(self):
        assert gradcheck(lambda t: t.tanh(), RNG(0).normal(size=3))

    def test_false_on_wrong(self):
        def broken(t):
            out = t._make_child(np.sin(t.data), (t,), "broken")
            if out.requires_grad:
                out._backward = lambda: t._accumulate(out.grad)
            return out

        assert not gradcheck(broken, RNG(0).normal(size=3))


class TestGradcheckModule:
    def test_linear_layer(self):
        layer = nn.Linear(4, 3, rng=RNG(0))
        gradcheck_module(layer, Tensor(RNG(1).normal(size=(5, 4))))

    def test_mlp_tower(self):
        tower = nn.MLP(4, [6], 1, rng=RNG(0))
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(3, 4))))

    def test_mlp_with_custom_loss(self):
        tower = nn.MLP(3, [4], 2, rng=RNG(0))
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(2, 3))),
                         loss_fn=lambda out: (out ** 2).mean())

    def test_embedding(self):
        table = nn.Embedding(6, 3, rng=RNG(0))
        gradcheck_module(table, np.array([0, 2, 2, 5]))

    def test_catches_corrupted_parameter_gradient(self):
        layer = nn.Linear(3, 2, rng=RNG(0))
        x = Tensor(RNG(1).normal(size=(4, 3)))

        class Broken(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = layer

            def forward(self, t):
                out = self.inner(t)
                # Detach half the weight's contribution from the graph: the
                # analytic grad is now wrong for inner.weight.
                return out + Tensor(0.5 * (t.data @ self.inner.weight.data))

        with pytest.raises(GradcheckError):
            gradcheck_module(Broken(), x)

    def test_restores_parameter_dtype(self):
        """A float32 model gradchecks in float64 but comes back float32."""
        tower = nn.MLP(3, [4], 1, rng=RNG(0)).astype(np.float32)
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(2, 3))))
        assert all(p.dtype == np.float32 for p in tower.parameters())

    def test_skips_frozen_parameters(self):
        """Frozen params (e.g. freeze_embedder in the transfer workflow)
        affect the forward pass but must not be flagged as wrong gradients."""
        layer = nn.Linear(3, 2, rng=RNG(0))
        layer.weight.requires_grad = False
        gradcheck_module(layer, Tensor(RNG(1).normal(size=(4, 3))))

    def test_clears_gradients_on_exit(self):
        """The check's own sum-loss gradients must not leak into a later
        optimizer.step()."""
        tower = nn.MLP(3, [4], 1, rng=RNG(0))
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(2, 3))))
        assert all(p.grad is None for p in tower.parameters())

    def test_restores_training_mode(self):
        tower = nn.MLP(3, [4], 1, dropout=0.4, rng=RNG(0))
        tower.train()
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(2, 3))))
        assert tower.training

    def test_sampled_entries(self):
        tower = nn.MLP(5, [8], 1, rng=RNG(0))
        gradcheck_module(tower, Tensor(RNG(1).normal(size=(3, 5))),
                         max_entries_per_param=4, rng=RNG(2))

    @pytest.mark.parametrize("fused", [True, False])
    def test_gru_cell(self, fused):
        """GRUCell.forward takes (x, h); adapt through a closure module.
        Both the fused kernel and the per-op reference path must pass."""
        cell = nn.GRUCell(3, 4, rng=RNG(0), fused=fused)
        x = Tensor(RNG(1).normal(size=(2, 3)))
        h = Tensor(RNG(2).normal(size=(2, 4)))

        class Wrapped(nn.Module):
            def __init__(self):
                super().__init__()
                self.cell = cell

            def forward(self, inp):
                return self.cell(inp, h)

        gradcheck_module(Wrapped(), x)


class TestInputHygiene:
    def test_non_contiguous_input(self):
        """Transposed (non-contiguous) inputs must gradcheck correctly."""
        x = (np.arange(12.0).reshape(3, 4).T + 0.1)
        assert not x.flags["C_CONTIGUOUS"]
        check_grad(lambda t: t.exp(), x)

    def test_caller_array_never_mutated(self):
        x = RNG(0).normal(size=(2, 3))
        original = x.copy()
        check_grad(lambda t: t * 2.0, x)
        np.testing.assert_array_equal(x, original)
