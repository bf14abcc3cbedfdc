"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small but
complete autograd engine in the style of PyTorch's eager autograd.  Every
operation used by the paper's models (MLP expert towers, embedding lookups,
noisy top-k gating, softmax distributions, GRU query classifier) is defined
here or in :mod:`repro.nn.functional`.

Design notes
------------
* Tensors wrap ``numpy.ndarray`` data.  ``float64`` is the default dtype so
  that finite-difference gradient checks in the test suite are tight; a
  ``float32`` fast mode is available via :func:`set_default_dtype` (or by
  passing ``dtype=`` per Tensor).  Promotion rules: Tensor-Tensor ops follow
  numpy promotion (f32 op f64 -> f64); Tensor-scalar/array ops adopt the
  Tensor's dtype so float32 graphs are not silently upcast by constants.
  :mod:`repro.nn.gradcheck` always forces float64 regardless of the mode.
* Gradients propagate through a dynamically built DAG.  Each differentiable
  op registers a backward closure on the output tensor; :meth:`Tensor.backward`
  runs them in reverse topological order, then releases the graph it ran.
* All binary ops are broadcasting-aware: gradients are "unbroadcast" (summed)
  back to each input's original shape.
* ``no_grad`` disables graph construction, used during evaluation.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "as_tensor",
           "get_default_dtype", "set_default_dtype", "default_dtype"]

_STATE = threading.local()

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_FLOAT64 = np.dtype(np.float64)


def get_default_dtype() -> np.dtype:
    """The dtype new tensors get when built from non-float data."""
    return getattr(_STATE, "default_dtype", _FLOAT64)


def set_default_dtype(dtype) -> None:
    """Set the default floating dtype (float32 or float64) for this thread.

    float32 roughly halves memory traffic on the numpy hot paths; float64
    stays the default so gradient checks remain tight.  The setting is
    thread-local (like grad mode) so a gradcheck forcing float64 in one
    thread cannot flip a training run in another.
    """
    dtype = np.dtype(dtype)
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _STATE.default_dtype = dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` to a block."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def is_grad_enabled() -> bool:
    """Return True when autograd graph construction is enabled."""
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction."""
    previous = is_grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    numpy broadcasting aligns trailing dimensions; leading dimensions that
    were added are summed away, and dimensions of size 1 that were stretched
    are summed with ``keepdims``.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum stretched size-1 dimensions.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array: exact for large |x| in
    both directions.  Shared by :meth:`Tensor.sigmoid` and the fused BCE
    kernel so the stability numerics live in exactly one place.

    One ``exp`` of a never-positive argument serves both branches:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below, with
    ``e = exp(-|x|)`` — bit for bit the two-branch form
    ``where(x >= 0, 1 / (1 + exp(-x)), exp(x) / (1 + exp(x)))``, and
    the dtype of ``x`` is kept."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def as_tensor(value, dtype=None) -> "Tensor":
    """Coerce ``value`` (Tensor, array, or scalar) to a :class:`Tensor`.

    Existing tensors pass through untouched (``dtype`` is ignored for them);
    everything else is wrapped, landing on ``dtype`` when given, the value's
    own float dtype when it already is a float array, or the default dtype.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor that records operations for autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(self, data, requires_grad: bool = False, _prev: Sequence["Tensor"] = (), _op: str = "",
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        elif isinstance(data, np.generic):
            # 0-d results (e.g. 1-D dot products) keep their float dtype.
            data = np.asarray(data)
        if dtype is not None:
            data = np.asarray(data, dtype=dtype)
        elif not (isinstance(data, np.ndarray) and data.dtype in _SUPPORTED_DTYPES):
            data = np.asarray(data, dtype=get_default_dtype())
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[], None] | None = None
        self._prev: tuple = tuple(_prev) if is_grad_enabled() else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast; gradients are cast back on the way down."""
        dtype = np.dtype(dtype)
        if dtype == self.data.dtype:
            return self
        out = self._make_child(self.data.astype(dtype), (self,), "astype")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad.astype(self.data.dtype))
            out._backward = _backward
        return out

    def _coerce(self, other) -> "Tensor":
        """Wrap a binary-op operand, adopting this tensor's dtype for raw
        scalars/arrays so constants don't upcast a float32 graph."""
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else (), _op=op)
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Accumulate ``grad`` into ``self.grad``.

        The first gradient is written once, never added into a zero-filled
        buffer.  ``owned=True`` says the calling op allocated ``grad`` and
        hands it to no other tensor; such an array becomes the gradient
        buffer itself when its dtype and shape already match.  Any other
        first gradient is copied at this tensor's dtype and shape, so a
        later in-place add can never write into an array another node
        still reads.  Later gradients are added in place.
        """
        if self.grad is not None:
            self.grad += grad
        elif owned and grad.dtype == self.data.dtype and grad.shape == self.data.shape:
            self.grad = grad
        else:
            self.grad = np.array(np.broadcast_to(grad, self.data.shape),
                                 dtype=self.data.dtype, order="C")

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The graph is released as it runs: afterwards no node reachable from
        this tensor keeps its backward closure or its parents, so a second
        ``backward()`` through the same graph reaches no leaf.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones (so scalar losses can call
            ``loss.backward()`` directly).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS to avoid recursion limits on deep graphs (e.g. GRUs).
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Each node's backward closure holds its own output tensor, so the
        # graph is a reference cycle: release each node once it has run, or
        # every step's activations wait for a full garbage collection.
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
            node._backward = None
            node._prev = ()

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))
            out._backward = _backward
        return out

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,), "neg")
        if out.requires_grad:
            def _backward():
                self._accumulate(-out.grad)
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data - other.data, (self, other), "sub")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-out.grad, other.shape))
            out._backward = _backward
        return out

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))
            out._backward = _backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data / other.data, (self, other), "div")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-out.grad * self.data / (other.data ** 2), other.shape))
            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))
            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            def _backward():
                a, b, g = self.data, other.data, out.grad
                if self.requires_grad:
                    if b.ndim == 1:
                        grad_a = np.outer(g, b) if a.ndim == 2 else g * b
                    else:
                        grad_a = g @ np.swapaxes(b, -1, -2)
                    if a.ndim == 1 and grad_a.ndim > 1:
                        grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                    self._accumulate(_unbroadcast(grad_a, a.shape), owned=True)
                if other.requires_grad:
                    if a.ndim == 1:
                        grad_b = np.outer(a, g) if b.ndim == 2 else a * g
                    else:
                        grad_b = np.swapaxes(a, -1, -2) @ g
                    if b.ndim == 1 and grad_b.ndim > 1:
                        grad_b = grad_b.sum(axis=tuple(range(grad_b.ndim - 1)))
                    other._accumulate(_unbroadcast(grad_b, b.shape), owned=True)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise transcendental ops
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = self._make_child(np.exp(self.data), (self,), "exp")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * out.data)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,), "log")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad / self.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out = self._make_child(np.tanh(self.data), (self,), "tanh")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * (1.0 - out.data ** 2))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out = self._make_child(_stable_sigmoid(self.data), (self,), "sigmoid")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * out.data * (1.0 - out.data))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make_child(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            mask = self.data > 0
            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make_child(np.abs(self.data), (self,), "abs")
        if out.requires_grad:
            sign = np.sign(self.data)
            def _backward():
                self._accumulate(out.grad * sign)
            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to [low, high]; gradient passes only inside the range."""
        out = self._make_child(np.clip(self.data, low, high), (self,), "clip")
        if out.requires_grad:
            mask = (self.data >= low) & (self.data <= high)
            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            def _backward():
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate(np.broadcast_to(g, self.shape).copy())
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(out_data, (self,), "max")
        if out.requires_grad:
            def _backward():
                g = out.grad
                o = out.data
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                    o = np.expand_dims(o, axis=axis)
                mask = (self.data == o).astype(self.data.dtype)
                # Split gradient among ties to keep the op well-defined.
                denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask / denom * g)
            out._backward = _backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad.reshape(self.shape))
            out._backward = _backward
        return out

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out = self._make_child(np.transpose(self.data, axes), (self,), "transpose")
        if out.requires_grad:
            inverse = None if axes is None else tuple(np.argsort(axes))
            def _backward():
                self._accumulate(np.transpose(out.grad, inverse))
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")
        if out.requires_grad:
            def _backward():
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)
            out._backward = _backward
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): out[i] = self[indices[i]].

        Gradients are scatter-added back into the source rows, which is the
        standard sparse embedding backward.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make_child(self.data[indices], (self,), "take_rows")
        if out.requires_grad:
            def _backward():
                grad = np.zeros_like(self.data)
                np.add.at(grad, indices, out.grad)
                self._accumulate(grad)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Comparison (returns plain numpy bool arrays — not differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


class Parameter(Tensor):
    """A trainable tensor — always requires grad, registered by Modules."""

    __slots__ = ()

    def __init__(self, data, dtype=None):
        # Parameters always land on the default dtype (unless overridden) so
        # that set_default_dtype(float32) makes whole models compute in f32.
        super().__init__(data, requires_grad=True,
                         dtype=dtype if dtype is not None else get_default_dtype())
        # Parameters must stay trainable even if created inside no_grad().
        self.requires_grad = True

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else (), _op="concat")
    if requires:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _backward():
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(out.grad[tuple(slicer)])
        out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else (), _op="stack")
    if requires:
        def _backward():
            grads = np.split(out.grad, len(tensors), axis=axis)
            for tensor, g in zip(tensors, grads):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(g, axis=axis))
        out._backward = _backward
    return out
