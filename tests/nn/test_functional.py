"""Tests for repro.nn.functional: softmax variants, dropout, gathers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn import functional as F
from repro.nn.gradcheck import check_grad
from repro.nn.tensor import Tensor


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        probs = F.softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_invariant_to_shift(self):
        x = np.random.default_rng(0).normal(size=(2, 4))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        c = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        check_grad(lambda t: F.softmax(t, axis=1) * c,
                   np.random.default_rng(0).normal(size=(3, 4)))

    def test_neg_inf_gets_zero_probability(self):
        x = np.array([[0.0, -np.inf, 1.0]])
        probs = F.softmax(Tensor(x), axis=1).data
        assert probs[0, 1] == 0.0
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_huge_logits_stable(self):
        probs = F.softmax(Tensor([[1000.0, 999.0]]), axis=1).data
        assert np.all(np.isfinite(probs))

    def test_axis_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        probs = F.softmax(Tensor(x), axis=0).data
        np.testing.assert_allclose(probs.sum(axis=0), np.ones(2))


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(F.log_softmax(Tensor(x), axis=1).data,
                                   np.log(F.softmax(Tensor(x), axis=1).data),
                                   atol=1e-12)

    def test_gradient(self):
        check_grad(lambda t: F.log_softmax(t, axis=1)[:, :2],
                   np.random.default_rng(0).normal(size=(3, 4)))

    def test_stable_for_large_inputs(self):
        out = F.log_softmax(Tensor([[1000.0, 0.0]]), axis=1).data
        assert np.all(np.isfinite(out))


class TestMaskedSoftmax:
    def test_masked_entries_zero(self):
        x = np.random.default_rng(0).normal(size=(2, 4))
        mask = np.array([[True, False, True, False], [False, True, True, False]])
        probs = F.masked_softmax(Tensor(x), mask, axis=1).data
        assert np.all(probs[~mask] == 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(2))

    def test_gradient_only_through_unmasked(self):
        x = np.random.default_rng(0).normal(size=(2, 4))
        mask = np.array([[True, True, False, False], [True, False, True, False]])
        check_grad(lambda t: F.masked_softmax(t, mask, axis=1) ** 2, x)

    def test_masked_positions_get_zero_gradient(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4)), requires_grad=True)
        mask = np.array([[True, True, False, False]])
        (F.masked_softmax(x, mask, axis=1) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad[0, 2:], [0.0, 0.0])


class TestScatterTopkMask:
    def test_basic(self):
        logits = np.array([[1.0, 3.0, 2.0], [5.0, 0.0, -1.0]])
        mask = F.scatter_topk_mask(logits, 2)
        np.testing.assert_array_equal(mask, [[False, True, True], [True, True, False]])

    def test_k_equals_n(self):
        mask = F.scatter_topk_mask(np.zeros((2, 3)), 3)
        assert mask.all()

    def test_exactly_k_per_row(self):
        logits = np.random.default_rng(0).normal(size=(10, 8))
        for k in (1, 3, 8):
            assert (F.scatter_topk_mask(logits, k).sum(axis=1) == k).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            F.scatter_topk_mask(np.zeros((2, 3)), 0)
        with pytest.raises(ValueError):
            F.scatter_topk_mask(np.zeros((2, 3)), 4)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            F.scatter_topk_mask(np.zeros(3), 1)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (5, 6), elements=st.floats(-10, 10)),
           st.integers(1, 6))
    def test_property_mask_selects_largest(self, logits, k):
        mask = F.scatter_topk_mask(logits, k)
        for row, row_mask in zip(logits, mask):
            selected_min = row[row_mask].min()
            unselected = row[~row_mask]
            if unselected.size:
                assert selected_min >= unselected.max() - 1e-12


class TestTakeAlongAxis:
    def test_forward_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        idx = np.array([[0, 2], [1, 1], [4, 0]])
        out = F.take_along_axis(Tensor(x), idx, axis=1)
        np.testing.assert_allclose(out.data, np.take_along_axis(x, idx, axis=1))

    def test_gradient_scatter_adds_duplicates(self):
        x = Tensor(np.zeros((1, 3)), requires_grad=True)
        idx = np.array([[1, 1]])
        F.take_along_axis(x, idx, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 2.0, 0.0]])

    def test_gradient_numeric(self):
        idx = np.array([[0, 2], [1, 1]])
        check_grad(lambda t: F.take_along_axis(t, idx, axis=1) ** 2,
                   np.random.default_rng(0).normal(size=(2, 3)))

    def test_3d_axis1(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        idx = np.zeros((2, 1, 4), dtype=np.int64)
        out = F.take_along_axis(Tensor(x), idx, axis=1)
        np.testing.assert_allclose(out.data, x[:, :1, :])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_p_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_preserves_leading_shape(self):
        out = F.one_hot(np.zeros((2, 3), dtype=int), 4)
        assert out.shape == (2, 3, 4)


class TestLinearRelu:
    def test_matches_unfused(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        fused = F.linear_relu(Tensor(x), Tensor(w), Tensor(b)).data
        unfused = np.maximum(x @ w + b, 0.0)
        np.testing.assert_allclose(fused, unfused, atol=0)

    def test_no_bias(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(2, 4)), rng.normal(size=(4, 3))
        np.testing.assert_allclose(F.linear_relu(Tensor(x), Tensor(w)).data,
                                   np.maximum(x @ w, 0.0))

    def test_all_three_gradients(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        wt, bt = Tensor(w), Tensor(b)
        check_grad(lambda t: F.linear_relu(t, wt, bt), x)
        check_grad(lambda t: F.linear_relu(Tensor(x), t, bt), w)
        check_grad(lambda t: F.linear_relu(Tensor(x), wt, t), b)

    def test_single_graph_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.linear_relu(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
        assert out._op == "linear_relu"
        assert x in out._prev

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.linear_relu(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            F.linear_relu(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_float32_stays_float32(self):
        out = F.linear_relu(Tensor(np.ones((2, 3), dtype=np.float32)),
                            Tensor(np.ones((3, 2), dtype=np.float32)),
                            Tensor(np.zeros(2, dtype=np.float32)))
        assert out.dtype == np.float32


class TestSoftmaxCrossEntropy:
    def test_matches_unfused_composition(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        fused = F.softmax_cross_entropy(Tensor(logits), targets, reduction="none").data
        log_probs = F.log_softmax(Tensor(logits), axis=1).data
        expected = -log_probs[np.arange(5), targets]
        np.testing.assert_allclose(fused, expected, atol=1e-12)

    def test_gradient_all_reductions(self):
        targets = np.array([0, 2, 1])
        for reduction in ("mean", "sum", "none"):
            check_grad(lambda t, r=reduction: F.softmax_cross_entropy(t, targets, reduction=r),
                       np.random.default_rng(0).normal(size=(3, 4)))

    def test_stable_for_huge_logits(self):
        loss = F.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss.item()) and loss.item() < 1e-10

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            F.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            F.softmax_cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), reduction="bogus")


class TestBCEWithLogitsFused:
    def test_matches_reference_formula(self):
        logits = np.array([-2.0, 0.0, 3.0])
        targets = np.array([0.0, 1.0, 1.0])
        sigma = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(sigma) + (1 - targets) * np.log(1 - sigma))
        loss = F.bce_with_logits_fused(Tensor(logits), targets, reduction="none")
        np.testing.assert_allclose(loss.data, expected, atol=1e-10)

    def test_stable_for_extreme_logits(self):
        loss = F.bce_with_logits_fused(Tensor([-500.0, 500.0]), np.array([1.0, 0.0]),
                                       reduction="none")
        np.testing.assert_allclose(loss.data, [500.0, 500.0])

    def test_gradient_all_reductions(self):
        targets = np.array([0.0, 1.0, 0.5])
        for reduction in ("mean", "sum", "none"):
            check_grad(lambda t, r=reduction: F.bce_with_logits_fused(t, targets, reduction=r),
                       np.random.default_rng(0).normal(size=3))

    def test_target_gradient(self):
        logits = Tensor(np.array([0.3, -0.2, 1.0]))
        check_grad(lambda t: F.bce_with_logits_fused(logits, t, reduction="sum"),
                   np.array([0.0, 1.0, 0.5]))

    def test_broadcast_scalar_target(self):
        check_grad(lambda t: F.bce_with_logits_fused(t, 0.5, reduction="sum"),
                   np.random.default_rng(0).normal(size=(2, 3)))


    def test_empty_batch_mean_is_nan_not_crash(self):
        """Size-0 batches degrade to nan (like the unfused path), not a
        ZeroDivisionError at graph-construction time."""
        logits = Tensor(np.empty((0, 1)), requires_grad=True)
        with np.errstate(invalid="ignore"):
            with pytest.warns(RuntimeWarning):
                loss = F.bce_with_logits_fused(logits, np.empty((0, 1)))
        assert np.isnan(loss.data)


    def test_tensor_targets_cast_to_logits_dtype(self):
        """A float64 Tensor target must not upcast a float32 fused loss."""
        loss = F.bce_with_logits_fused(Tensor(np.zeros(3, dtype=np.float32)),
                                       Tensor(np.ones(3, dtype=np.float64)))
        assert loss.dtype == np.float32


class TestExpertDispatch:
    # 3 rows, each routed to 2 of 4 experts; expert 1 gets no row.
    ROWS = np.array([0, 2, 0, 1, 2, 1])
    BOUNDS = np.array([0, 2, 2, 5, 6])

    def test_each_expert_gets_its_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        parts = F.dispatch_rows(x, self.ROWS, self.BOUNDS)
        assert [part.shape for part in parts] == [(2, 2), (0, 2), (3, 2), (1, 2)]
        np.testing.assert_array_equal(parts[2].data, x.data[[0, 1, 2]])

    def test_combine_places_outputs_and_zeros_elsewhere(self):
        values = np.arange(1.0, 7.0).reshape(6, 1)
        parts = [Tensor(values[start:stop]) for start, stop in
                 zip(self.BOUNDS[:-1], self.BOUNDS[1:])]
        out = F.combine_rows(parts, self.ROWS, 3)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0, 3.0, 0.0],
                                                 [0.0, 0.0, 4.0, 6.0],
                                                 [2.0, 0.0, 5.0, 0.0]])

    def test_round_trip_gradient_sums_each_rows_copies(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        parts = F.dispatch_rows(x, self.ROWS, self.BOUNDS)
        out = F.combine_rows([part.sum(axis=1, keepdims=True) for part in parts],
                             self.ROWS, 3)
        (out * Tensor(np.arange(12.0).reshape(3, 4))).sum().backward()
        # Row r's gradient is the sum of the weights at its routed cells.
        np.testing.assert_array_equal(x.grad[:, 0], [0 + 2, 6 + 7, 8 + 10])

    def test_unequal_routing_rejected(self):
        with pytest.raises(ValueError, match="equally often"):
            F.dispatch_rows(Tensor(np.ones((3, 2))), np.array([0, 0, 1, 2]),
                            np.array([0, 4]))

    def test_bounds_must_cover_rows(self):
        with pytest.raises(ValueError, match="bounds"):
            F.dispatch_rows(Tensor(np.ones((3, 2))), self.ROWS, np.array([0, 4]))

    def test_combine_rejects_a_repeated_or_stray_row(self):
        for rows in ([1, 1], [0, 3]):
            with pytest.raises(ValueError, match="distinct within each expert"):
                F.combine_rows([Tensor(np.ones((2, 1)))], np.array(rows), 3)

    def test_combine_rejects_a_count_mismatch(self):
        with pytest.raises(ValueError, match="routed rows"):
            F.combine_rows([Tensor(np.ones((2, 1)))], np.array([0, 1, 2]), 3)
