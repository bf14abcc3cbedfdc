"""Autograd engine tests: op semantics + finite-difference gradient checks."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn.gradcheck import check_grad
from repro.nn.tensor import (Tensor, _stable_sigmoid, _unbroadcast, as_tensor,
                              concatenate, stack)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_scalar(self):
        assert as_tensor(2.5).data == 2.5

    def test_item(self):
        assert Tensor([3.0]).item() == 3.0

    def test_detach_breaks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_grad_flag(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward(np.ones(3))

    def test_grad_accumulates(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_disables_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_restores(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_parameter_requires_grad_inside_no_grad(self):
        with nn.no_grad():
            p = nn.Parameter(np.ones(3))
        assert p.requires_grad

    def test_repr(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
        assert "Parameter(shape=(2,))" == repr(nn.Parameter(np.ones(2)))


class TestUnbroadcast:
    def test_no_op_when_shapes_match(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axis(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sums_stretched_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, ()), 6.0)

    def test_scalar_to_matrix_roundtrip(self):
        """scalar (op) matrix: the scalar's gradient is the full sum."""
        s = Tensor(2.0, requires_grad=True)
        (s * Tensor(np.arange(6.0).reshape(2, 3))).sum().backward()
        np.testing.assert_allclose(s.grad, 15.0)
        assert s.grad.shape == ()

    def test_middle_size1_axis(self):
        g = np.ones((2, 4, 3))
        out = _unbroadcast(g, (2, 1, 3))
        assert out.shape == (2, 1, 3)
        np.testing.assert_allclose(out, np.full((2, 1, 3), 4.0))

    def test_multiple_size1_axes(self):
        g = np.arange(24.0).reshape(2, 3, 4)
        out = _unbroadcast(g, (1, 3, 1))
        assert out.shape == (1, 3, 1)
        np.testing.assert_allclose(out, g.sum(axis=(0, 2), keepdims=True))

    def test_prepended_and_stretched_combined(self):
        g = np.ones((5, 2, 3))
        out = _unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out, np.full((1, 3), 10.0))

    def test_prepended_size1_dim_not_stretched(self):
        """A (1, 3) target whose size-1 axis was never stretched stays intact."""
        g = np.ones((1, 3))
        np.testing.assert_allclose(_unbroadcast(g, (1, 3)), np.ones((1, 3)))

    def test_column_vs_row_broadcast_gradients(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((1, 4)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_gradcheck_scalar_broadcast(self):
        check_grad(lambda t: t * Tensor(np.random.default_rng(3).normal(size=(2, 3))),
                   np.array(1.5))


class TestDtype:
    def test_default_is_float64(self):
        assert nn.get_default_dtype() == np.float64
        assert Tensor([1, 2]).dtype == np.float64

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype(np.int64)

    def test_default_dtype_context(self):
        with nn.default_dtype(np.float32):
            assert nn.get_default_dtype() == np.float32
            assert Tensor([1.0]).dtype == np.float32
            assert nn.Parameter(np.zeros(2)).dtype == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_float_arrays_keep_their_dtype(self):
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_explicit_dtype_wins(self):
        assert Tensor(np.zeros(2), dtype=np.float32).dtype == np.float32
        assert as_tensor([1.0], dtype=np.float32).dtype == np.float32

    def test_scalar_operand_does_not_promote_float32(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t * 2.0).dtype == np.float32
        assert (1.0 + t).dtype == np.float32
        assert (t / 3.0).dtype == np.float32
        assert (5.0 - t).dtype == np.float32

    def test_tensor_tensor_promotes_to_float64(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        assert (a + b).dtype == np.float64
        assert (a @ b).dtype == np.float64

    def test_float32_graph_stays_float32(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = (t * 2.0).relu().exp().sum()
        assert out.dtype == np.float32
        out.backward()
        assert t.grad.dtype == np.float32

    def test_astype_is_differentiable(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        cast = t.astype(np.float64)
        assert cast.dtype == np.float64
        (cast * 2.0).sum().backward()
        assert t.grad.dtype == np.float32
        np.testing.assert_allclose(t.grad, [2.0, 2.0, 2.0])

    def test_astype_noop_returns_self(self):
        t = Tensor(np.ones(3))
        assert t.astype(np.float64) is t

    def test_module_astype_roundtrip(self):
        tower = nn.MLP(4, [8], 1, rng=np.random.default_rng(0))
        tower.astype(np.float32)
        assert all(p.dtype == np.float32 for p in tower.parameters())
        out = tower(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.dtype == np.float32
        tower.astype(np.float64)
        assert all(p.dtype == np.float64 for p in tower.parameters())

    def test_backward_seed_grad_cast_to_tensor_dtype(self):
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (t * 1.0).backward(np.ones(2, dtype=np.float64))
        assert t.grad.dtype == np.float32


class TestArithmeticGradients:
    def test_add(self):
        check_grad(lambda t: t + 3.0, np.random.default_rng(0).normal(size=(3, 4)))

    def test_add_broadcast(self):
        b = Tensor(np.random.default_rng(1).normal(size=(4,)))
        check_grad(lambda t: (t + b) ** 2, np.random.default_rng(0).normal(size=(3, 4)))

    def test_sub(self):
        check_grad(lambda t: (5.0 - t) * t, np.random.default_rng(0).normal(size=(2, 3)))

    def test_mul(self):
        c = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        check_grad(lambda t: t * c * t, np.random.default_rng(0).normal(size=(2, 3)))

    def test_div(self):
        denominator = Tensor(np.random.default_rng(1).normal(size=(2, 3)) + 3.0)
        check_grad(lambda t: t / denominator, np.random.default_rng(0).normal(size=(2, 3)))

    def test_rdiv(self):
        check_grad(lambda t: 2.0 / t, np.abs(np.random.default_rng(0).normal(size=(2, 3))) + 1.0)

    def test_neg(self):
        check_grad(lambda t: -t * 2.0, np.random.default_rng(0).normal(size=(3,)))

    def test_pow(self):
        check_grad(lambda t: t ** 3, np.random.default_rng(0).normal(size=(2, 2)))

    def test_pow_non_scalar_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_both_sides_get_grads(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a * b).backward()
        assert a.grad[0] == 3.0 and b.grad[0] == 2.0


class TestMatmulGradients:
    def test_2d_2d(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        check_grad(lambda t: t @ w, np.random.default_rng(0).normal(size=(3, 4)))

    def test_weight_side(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        check_grad(lambda w: Tensor(x) @ w, np.random.default_rng(1).normal(size=(4, 5)))

    def test_1d_2d(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        check_grad(lambda t: t @ w, np.random.default_rng(0).normal(size=(4,)))

    def test_2d_1d(self):
        v = Tensor(np.random.default_rng(1).normal(size=(4,)))
        check_grad(lambda t: t @ v, np.random.default_rng(0).normal(size=(3, 4)))

    def test_matmul_value(self):
        a = np.random.default_rng(0).normal(size=(2, 3))
        b = np.random.default_rng(1).normal(size=(3, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestElementwiseGradients:
    def test_exp(self):
        check_grad(lambda t: t.exp(), np.random.default_rng(0).normal(size=(2, 3)))

    def test_log(self):
        check_grad(lambda t: t.log(), np.abs(np.random.default_rng(0).normal(size=(2, 3))) + 0.5)

    def test_sqrt(self):
        check_grad(lambda t: t.sqrt(), np.abs(np.random.default_rng(0).normal(size=(5,))) + 1.0)

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), np.random.default_rng(0).normal(size=(2, 3)))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), np.random.default_rng(0).normal(size=(2, 3)))

    def test_sigmoid_extreme_values_stable(self):
        out = Tensor([-800.0, 800.0]).sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_relu(self):
        check_grad(lambda t: t.relu(), np.random.default_rng(0).normal(size=(3, 3)) + 0.05)

    def test_relu_zero_gradient_in_negative_region(self):
        t = Tensor([-1.0, 2.0], requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_abs(self):
        check_grad(lambda t: t.abs(), np.random.default_rng(0).normal(size=(4,)) + 0.1)

    def test_clip_values(self):
        t = Tensor([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(t.clip(0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_clip_gradient_masked(self):
        t = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda t: t.sum() * 2.0, np.random.default_rng(0).normal(size=(2, 3)))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=1) ** 2, np.random.default_rng(0).normal(size=(2, 3)))

    def test_sum_axis_keepdims(self):
        check_grad(lambda t: t.sum(axis=0, keepdims=True) * t,
                   np.random.default_rng(0).normal(size=(2, 3)))

    def test_sum_tuple_axis(self):
        check_grad(lambda t: t.sum(axis=(1, 2)), np.random.default_rng(0).normal(size=(2, 3, 4)))

    def test_mean(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert np.isclose(Tensor(x).mean().item(), x.mean())
        check_grad(lambda t: t.mean(axis=1), x)

    def test_max_all(self):
        check_grad(lambda t: t.max(), np.array([[1.0, 5.0], [2.0, 3.0]]))

    def test_max_axis(self):
        check_grad(lambda t: t.max(axis=1), np.array([[1.0, 5.0], [7.0, 3.0]]))

    def test_max_splits_grad_among_ties(self):
        t = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])

    def test_min(self):
        x = np.array([[1.0, 5.0], [7.0, 3.0]])
        np.testing.assert_allclose(Tensor(x).min(axis=1).data, [1.0, 3.0])


class TestShapeOps:
    def test_reshape(self):
        check_grad(lambda t: t.reshape(6) * Tensor(np.arange(6.0)),
                   np.random.default_rng(0).normal(size=(2, 3)))

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_transpose(self):
        check_grad(lambda t: t.T @ Tensor(np.random.default_rng(1).normal(size=(2, 2))),
                   np.random.default_rng(0).normal(size=(2, 3)))

    def test_transpose_axes(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        check_grad(lambda t: t.transpose((2, 0, 1)).sum(axis=0), x)

    def test_getitem_slice(self):
        check_grad(lambda t: t[:, 1:3] ** 2, np.random.default_rng(0).normal(size=(3, 4)))

    def test_getitem_int_row(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t[0].sum().backward()
        np.testing.assert_allclose(t.grad, [[1, 1, 1], [0, 0, 0]])

    def test_take_rows_gather(self):
        t = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = t.take_rows(np.array([1, 1, 3]))
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_concatenate(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestComparisons:
    def test_gt_returns_numpy(self):
        result = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(result, np.ndarray)
        np.testing.assert_array_equal(result, [False, True])

    def test_comparison_with_tensor(self):
        np.testing.assert_array_equal(Tensor([1.0]) <= Tensor([1.0]), [True])


class TestDeepGraph:
    def test_long_chain_does_not_recurse(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert t.grad is not None and np.isfinite(t.grad).all()

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor([2.0], requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).backward()
        np.testing.assert_allclose(t.grad, [7.0])


def _two_branch_sigmoid(x):
    """The earlier two-branch stable sigmoid, kept as the reference."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))


class TestStableSigmoid:
    @pytest.mark.parametrize("dtype,edge", [(np.float32, 80.0), (np.float64, 700.0)])
    def test_bit_identical_to_two_branch_form(self, dtype, edge):
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, edge, -edge,
                   1e-30, -1e-30, np.finfo(dtype).tiny, -np.finfo(dtype).tiny,
                   np.finfo(dtype).max, -np.finfo(dtype).max]
        x = np.concatenate([np.array(special),
                            np.linspace(-edge, edge, 4001),
                            *(rng.normal(scale=s, size=2000) for s in (0.1, 1.0, 10.0, 100.0))]
                           ).astype(dtype)
        got = _stable_sigmoid(x)
        want = _two_branch_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        uint = np.uint32 if dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(got[~nan].view(uint), want[~nan].view(uint))

    @pytest.mark.parametrize("dtype,edge", [(np.float32, 80.0), (np.float64, 700.0)])
    def test_both_tails_keep_relative_precision(self, dtype, edge):
        x = np.array([-edge, edge], dtype=dtype)
        out = _stable_sigmoid(x)
        assert out.dtype == dtype
        # sigmoid(-a) = exp(-a) / (1 + exp(-a)) ~ exp(-a): tiny but not 0.
        np.testing.assert_allclose(out[0], np.exp(x[0]), rtol=1e-6)
        assert out[1] == 1.0

    def test_shape_and_0d_input(self):
        assert _stable_sigmoid(np.zeros((2, 0, 3))).shape == (2, 0, 3)
        assert _stable_sigmoid(np.float32(0.0)) == np.float32(0.5)


class TestGradientBuffers:
    def test_add_parents_get_independent_buffers(self):
        """``__add__`` hands one ``out.grad`` to both parents: each must get
        its own buffer, and the caller's seed gradient must stay its own."""
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        seed = np.arange(3.0)
        (a + b).backward(seed)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, seed)
        a.grad += 10.0
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(seed, [0.0, 1.0, 2.0])

    def test_float64_gradient_lands_as_float32(self):
        leaf = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        weights = Tensor(np.full(3, 0.5))                 # float64
        (leaf * weights).sum().backward()                 # promotes to f64
        assert leaf.grad.dtype == np.float32
        np.testing.assert_array_equal(leaf.grad, [0.5, 0.5, 0.5])

    def test_owned_gradient_of_another_dtype_or_shape_is_copied(self):
        leaf = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        row = np.ones((1, 3))                             # f64, broadcast
        leaf._accumulate(row, owned=True)
        assert leaf.grad.dtype == np.float32 and leaf.grad.shape == (2, 3)
        assert not np.shares_memory(leaf.grad, row)
        leaf._accumulate(row, owned=True)                 # later writes add
        np.testing.assert_array_equal(leaf.grad, np.full((2, 3), 2.0))

    def test_owned_gradient_is_adopted(self):
        leaf = Tensor(np.zeros(4), requires_grad=True)
        grad = np.arange(4.0)
        leaf._accumulate(grad, owned=True)
        assert leaf.grad is grad

    @staticmethod
    def _spy_first_gradients(monkeypatch) -> dict:
        """Record the first array each tensor's ``_accumulate`` receives."""
        first = {}
        accumulate = Tensor._accumulate

        def spy(self, grad, owned=False):
            first.setdefault(id(self), grad)
            accumulate(self, grad, owned=owned)
        monkeypatch.setattr(Tensor, "_accumulate", spy)
        return first

    def test_matmul_gradients_are_adopted(self, monkeypatch):
        """matmul's backward allocates a fresh gradient for each parent;
        each becomes that parent's buffer instead of being copied."""
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        first = self._spy_first_gradients(monkeypatch)
        seed = rng.normal(size=(5, 3))
        (a @ b).backward(seed)
        assert a.grad is first[id(a)] and b.grad is first[id(b)]
        np.testing.assert_allclose(a.grad, seed @ b.data.T, rtol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ seed, rtol=1e-14)

    def test_matmul_with_itself_sums_both_gradients(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        first = self._spy_first_gradients(monkeypatch)
        seed = rng.normal(size=(3, 3))
        (x @ x).backward(seed)
        assert x.grad is first[id(x)]       # the second was added into it
        np.testing.assert_allclose(x.grad, seed @ x.data.T + x.data.T @ seed,
                                   rtol=1e-14)

    def test_linear_relu_gradients_accumulate_across_backwards(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        weight = nn.Parameter(rng.normal(size=(4, 3)))
        bias = nn.Parameter(rng.normal(size=(3,)))
        nn.functional.linear_relu(x, weight, bias).sum().backward()
        first = [t.grad.copy() for t in (x, weight, bias)]
        assert len({id(t.grad) for t in (x, weight, bias)}) == 3
        nn.functional.linear_relu(x, weight, bias).sum().backward()
        for t, g in zip((x, weight, bias), first):
            np.testing.assert_allclose(t.grad, 2.0 * g, rtol=1e-15)


class TestGraphRelease:
    def test_activations_die_with_the_loss_after_backward(self):
        """Every backward closure holds its own output, so a graph kept
        after backward() is a reference cycle that only the cyclic
        collector frees.  backward() releases it: with the collector off,
        an intermediate activation dies once the loss is dropped."""
        rng = np.random.default_rng(0)
        weight = nn.Parameter(rng.normal(size=(4, 3)))
        gc.disable()
        try:
            hidden = nn.functional.linear_relu(
                Tensor(rng.normal(size=(5, 4))), weight)
            activation = weakref.ref(hidden.data)
            loss = (hidden * hidden).sum()
            del hidden
            loss.backward()
            assert weight.grad is not None
            del loss
            assert activation() is None
        finally:
            gc.enable()

    def test_backward_leaves_no_graph_behind(self):
        t = Tensor([2.0], requires_grad=True)
        hidden = t * 3.0
        loss = (hidden * hidden).sum()
        loss.backward()
        np.testing.assert_allclose(t.grad, [36.0])
        for node in (loss, hidden):
            assert node._prev == () and node._backward is None


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                  elements=st.floats(-3, 3)))
def test_property_sigmoid_tanh_identity(x):
    """sigmoid(2x) == (tanh(x) + 1) / 2 for all finite inputs."""
    left = Tensor(x * 2).sigmoid().data
    right = (np.tanh(x) + 1.0) / 2.0
    np.testing.assert_allclose(left, right, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-5, 5)))
def test_property_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2, allow_nan=False)),
       hnp.arrays(np.float64, (4, 2), elements=st.floats(-2, 2, allow_nan=False)))
def test_property_matmul_grad_matches_numeric(a, b):
    bt = Tensor(b)
    check_grad(lambda t: t @ bt, a, tol=1e-6)
