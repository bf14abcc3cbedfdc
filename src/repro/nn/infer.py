"""Graph-free inference engine: compile modules into plain-numpy plans.

Training rides the autograd :class:`~repro.nn.tensor.Tensor` graph, but a
prediction has no use for the node closures that graph allocates — they are
built and immediately thrown away.  This module compiles a
:class:`~repro.nn.module.Module` tree into a flat plan of plain-numpy
closures that reuse the fused kernels' *forward* math (``linear_relu``'s
matmul+bias+relu collapse, ``gru_sequence``'s hoisted input projection and
in-loop masking) with no Tensor wrappers, no graph bookkeeping, and
preallocated per-batch-size scratch buffers:

>>> plan = model.compiled()          # Module.compiled() -> CompiledPlan
>>> probs = plan(x)                  # plain ndarray in, plain ndarray out

Semantics
---------
* Plans always run in **inference mode**: Dropout compiles to the identity
  and recurrent scans use the parameters' dtype throughout.  Modules whose
  eval-mode forward differs from their train-mode forward get eval-mode
  behaviour.
* Plans read parameters through the live :class:`Parameter` objects at call
  time, so an optimizer step, ``load_state_dict`` or ``astype`` is picked up
  without recompiling.  (Buffers are keyed by shape *and* dtype, so a dtype
  flip simply allocates a fresh set.)
* Returned arrays are **owned by the plan** and overwritten by the next
  call with the same batch size — ``.copy()`` them to retain results.
* Plans are **not thread-safe** (the scratch buffers are shared state):
  a :class:`repro.serving.ScorerPool` hands each worker its own plan.
* :class:`~repro.nn.rnn.GRU` compiles to its serving-relevant output — the
  final hidden state ``(batch, hidden)`` — rather than the per-step output
  list the Tensor path returns.  ``BiGRU`` returns the same concatenated
  final states as its Tensor forward.
* Unknown module types fall back to the module's Tensor forward under
  ``no_grad`` so custom models still compile; only the types registered
  here get the fast closures.
* **Direction-stacked scans**: a compiled GRU is a stack of one
  direction and a BiGRU a stack of two.  The masked scan advances every
  direction in the same numpy calls — a ``(D, B, H)`` state, ``(D, H, 3H)``
  stacked recurrent weights, and an input projection whose reverse
  directions have their time axis flipped — with one sigmoid call per
  step over the reset and update gates of all directions.  A single
  query therefore costs one short scan of ``T`` steps.
* **Packed ragged scans**: a compiled GRU/BiGRU whose cells have
  ``packed=True`` (the default) automatically routes ragged batches
  (``lengths.min() < time``) through a sort-by-length packed scan per
  direction (the serving mirror of ``gru_sequence_packed``) — each
  timestep only computes the still-valid prefix.  Uniform batches keep
  the stacked masked scan.

Numerics match the Tensor path operation for operation (same kernels, same
evaluation order), so compiled scoring is bit-comparable to ``no_grad``
evaluation — the parity suite pins ≤1e-12 in float64 and ≤1e-6 in float32.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .functional import _packed_order
from .layers import (MLP, Dropout, Embedding, Linear, ReLU, Sigmoid, Tanh,
                     check_embedding_ids)
from .module import Module, Sequential
from .rnn import GRU, BiGRU, GRUCell
from .tensor import Tensor, _stable_sigmoid, no_grad

__all__ = ["CompiledPlan", "BufferPool", "RowBufferPool", "compile_module",
           "register_compiler",
           "softmax_array", "masked_softmax_array", "sigmoid_array"]


# ----------------------------------------------------------------------
# Plain-numpy math shared with the serving scorers
# ----------------------------------------------------------------------
def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Stable logistic on a raw array (same numerics as Tensor.sigmoid)."""
    return _stable_sigmoid(x)


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy softmax mirroring :func:`repro.nn.functional.softmax`.

    Keeps the exact forward numerics (max-shift, zero-total guard) so
    compiled scores match the Tensor path to float rounding.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        exps = np.exp(shifted)
    total = exps.sum(axis=axis, keepdims=True)
    return np.where(total > 0, exps / np.where(total == 0, 1.0, total), 0.0)


def masked_softmax_array(x: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy masked softmax mirroring ``functional.masked_softmax``."""
    mask = np.asarray(mask, dtype=bool)
    return softmax_array(np.where(mask, x, -np.inf), axis=axis)


# ----------------------------------------------------------------------
# Buffer pool
# ----------------------------------------------------------------------
class BufferPool:
    """Preallocated scratch arrays keyed by (step id, shape, dtype).

    Each compiled step reserves an id at compile time and fetches its
    output buffer per call; the first call at a given batch size allocates,
    every later call reuses.  The pool is LRU-bounded (``max_buffers``):
    a long-running service whose micro-batches arrive in many distinct
    sizes evicts cold entries instead of growing without bound.  ``nbytes``
    reports the pool's footprint.
    """

    def __init__(self, max_buffers: int = 512):
        if max_buffers <= 0:
            raise ValueError("max_buffers must be positive")
        self._buffers: dict[tuple, np.ndarray] = {}
        self._max_buffers = max_buffers
        self._next_id = 0

    def reserve(self) -> int:
        """Hand out the next step id."""
        self._next_id += 1
        return self._next_id

    def rewind(self) -> None:
        """Restart step ids: the next plan compiled against this pool
        reuses the previous plans' step buffers (see ``compile_module``)."""
        self._next_id = 0

    def get(self, step: int, shape: tuple, dtype) -> np.ndarray:
        key = (step, shape, np.dtype(dtype))
        buffer = self._buffers.pop(key, None)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            if len(self._buffers) >= self._max_buffers:
                # dicts preserve insertion order; re-inserting on every hit
                # (the pop above) makes the first key the least recent.
                self._buffers.pop(next(iter(self._buffers)))
        self._buffers[key] = buffer
        return buffer

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


class RowBufferPool(BufferPool):
    """A :class:`BufferPool` that allocates rows at power-of-two capacity.

    ``get`` rounds the leading (batch-row) dimension up to the next power
    of two and hands out the leading-row view, so batches of any size up
    to ``2**j`` rows need at most ``j + 1`` buffers per step instead of one
    per distinct size.  A view is overwritten by the next call at any size
    with the same capacity, so callers copy results out before the next
    call.
    """

    def get(self, step: int, shape: tuple, dtype) -> np.ndarray:
        rows = shape[0]
        capacity = 1 << max(rows - 1, 0).bit_length()
        return super().get(step, (capacity, *shape[1:]), dtype)[:rows]


# ----------------------------------------------------------------------
# Compiler registry
# ----------------------------------------------------------------------
_COMPILERS: dict[type, Callable] = {}


def register_compiler(module_type: type):
    """Decorator registering a compile function for a Module subclass.

    The compile function receives ``(module, pool)`` and returns the step
    closure.  Lookup walks the module's MRO, so subclasses inherit their
    parent's compiler unless they register their own.
    """
    def decorate(fn):
        _COMPILERS[module_type] = fn
        return fn
    return decorate


def _compile(module: Module, pool: BufferPool) -> Callable:
    for cls in type(module).__mro__:
        compiler = _COMPILERS.get(cls)
        if compiler is not None:
            return compiler(module, pool)
    return _compile_generic(module, pool)


def _compile_generic(module: Module, pool: BufferPool) -> Callable:
    """Fallback for unregistered types: Tensor forward under no_grad."""
    def run(*args, **kwargs):
        with no_grad():
            out = module(*args, **kwargs)
        return out.data if isinstance(out, Tensor) else out
    return run


class CompiledPlan:
    """A compiled, graph-free forward for one module tree.

    Call it like the module; inputs may be plain arrays or Tensors (the
    data is used).  Float inputs are cast once at entry to the plan's
    parameter dtype, so a float64 feed into a float32 model does not
    silently promote the whole plan.
    """

    def __init__(self, module: Module, fn: Callable, pool: BufferPool):
        self.module = module
        self.pool = pool
        self._fn = fn
        # ``astype`` and ``load_state_dict`` swap ``.data`` on the same
        # Parameter objects, so holding the first one keeps ``dtype`` live
        # without walking the module tree on every call.
        self._first_param = next(iter(module.parameters()), None)

    @property
    def dtype(self) -> np.dtype | None:
        """The parameter dtype the plan computes in (None if parameterless)."""
        param = self._first_param
        return None if param is None else param.data.dtype

    def __call__(self, x, *args, **kwargs):
        if isinstance(x, Tensor):
            x = x.data
        x = np.asarray(x)
        dtype = self.dtype
        if dtype is not None and x.dtype.kind == "f" and x.dtype != dtype:
            x = x.astype(dtype)
        return self._fn(x, *args, **kwargs)

    def __repr__(self) -> str:
        return (f"CompiledPlan({type(self.module).__name__}, "
                f"buffers={len(self.pool)}, nbytes={self.pool.nbytes})")


def compile_module(module: Module, pool: BufferPool | None = None
                   ) -> CompiledPlan:
    """Compile ``module`` into a :class:`CompiledPlan` (see module docs).

    Each plan gets a fresh :class:`BufferPool` unless ``pool`` is given.
    Every plan compiled against a shared pool numbers its steps from the
    start, so step *i* of each plan reuses one buffer per shape and dtype:
    share a pool only between plans that run one at a time, each output
    copied out before another plan of the set runs.
    """
    if pool is None:
        pool = BufferPool()
    pool.rewind()
    return CompiledPlan(module, _compile(module, pool), pool)


# ----------------------------------------------------------------------
# Layer compilers
# ----------------------------------------------------------------------
def _linear_step(module: Linear, pool: BufferPool, relu: bool) -> Callable:
    """matmul + bias, plus the fused kernel's in-place relu when ``relu``."""
    step = pool.reserve()
    weight, bias = module.weight, module.bias

    def run(x):
        w = weight.data
        out = pool.get(step, (x.shape[0], w.shape[1]), w.dtype)
        np.matmul(x, w, out=out)
        if bias is not None:
            out += bias.data
        if relu:
            np.maximum(out, 0.0, out=out)
        return out
    return run


@register_compiler(Linear)
def _compile_linear(module: Linear, pool: BufferPool) -> Callable:
    return _linear_step(module, pool, relu=False)


@register_compiler(ReLU)
def _compile_relu(module: ReLU, pool: BufferPool) -> Callable:
    step = pool.reserve()

    def run(x):
        out = pool.get(step, x.shape, x.dtype)
        np.maximum(x, 0.0, out=out)
        return out
    return run


@register_compiler(Sigmoid)
def _compile_sigmoid(module: Sigmoid, pool: BufferPool) -> Callable:
    def run(x):
        return _stable_sigmoid(x)
    return run


@register_compiler(Tanh)
def _compile_tanh(module: Tanh, pool: BufferPool) -> Callable:
    step = pool.reserve()

    def run(x):
        out = pool.get(step, x.shape, x.dtype)
        np.tanh(x, out=out)
        return out
    return run


@register_compiler(Dropout)
def _compile_dropout(module: Dropout, pool: BufferPool) -> Callable:
    # Inference mode: inverted dropout is the identity in eval.
    def run(x):
        return x
    return run


@register_compiler(Sequential)
def _compile_sequential(module: Sequential, pool: BufferPool) -> Callable:
    steps = [_compile(child, pool) for child in module]

    def run(x):
        for step in steps:
            x = step(x)
        return x
    return run


@register_compiler(MLP)
def _compile_mlp(module: MLP, pool: BufferPool) -> Callable:
    # Mirror the module's fast-path plan: adjacent Linear+ReLU pairs become
    # one fused step (matching F.linear_relu's forward exactly).
    steps = []
    for kind, sub in module._plan:
        if kind == "linear_relu":
            steps.append(_linear_step(sub, pool, relu=True))
        else:
            steps.append(_compile(sub, pool))

    def run(x):
        for step in steps:
            x = step(x)
        return x
    return run


@register_compiler(Embedding)
def _compile_embedding(module: Embedding, pool: BufferPool) -> Callable:
    step = pool.reserve()
    weight = module.weight

    def run(ids):
        w = weight.data
        ids = check_embedding_ids(ids, w.shape[0])
        out = pool.get(step, ids.shape + (w.shape[1],), w.dtype)
        np.take(w, ids, axis=0, out=out)
        return out
    return run


# ----------------------------------------------------------------------
# Recurrent compilers — gru_sequence's forward math, no graph
# ----------------------------------------------------------------------
def _gru_packed_scan(cell: GRUCell, pool: BufferPool, reverse: bool) -> Callable:
    """Compile one direction's packed ragged scan to plain numpy.

    The serving mirror of :func:`repro.nn.functional.gru_sequence_packed`:
    sort rows by length once (``_packed_order``'s early-exits apply),
    project only the valid (example, step) positions, update only the
    still-valid prefix at each step, and unsort the final state.
    """
    step_proj = pool.reserve()
    step_gates = pool.reserve()
    step_pack = pool.reserve()
    step_out = pool.reserve()

    def run(x, lens):
        w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data
        b_ih, b_hh = cell.bias_ih.data, cell.bias_hh.data
        batch, time, features = x.shape
        hs = w_hh.shape[0]
        order = _packed_order(lens)
        sorted_lens = lens if order is None else lens[order]
        batch_sizes = (sorted_lens[:, None] > np.arange(time)[None, :]).sum(axis=0)
        offsets = np.zeros(time + 1, dtype=np.int64)
        np.cumsum(batch_sizes, out=offsets[1:])
        total = int(offsets[-1])
        ord_rows = order if order is not None else np.arange(batch, dtype=np.int64)
        flat_index = np.empty(total, dtype=np.int64)
        for t in range(time):
            nt = int(batch_sizes[t])
            if nt:
                flat_index[offsets[t]:offsets[t + 1]] = ord_rows[:nt] * time + t
        # Hoisted projection over the valid rows only.
        packed = pool.get(step_pack, (total, features), x.dtype)
        np.take(x.reshape(batch * time, features), flat_index, axis=0,
                out=packed)
        proj = pool.get(step_proj, (total, 3 * hs), w_ih.dtype)
        np.matmul(packed, w_ih, out=proj)
        proj += b_ih
        h = pool.get(step_out, (batch, hs), w_hh.dtype)
        h[:] = 0.0
        gates_buf = pool.get(step_gates, (batch, 3 * hs), w_hh.dtype)
        steps = range(time - 1, -1, -1) if reverse else range(time)
        for t in steps:
            nt = int(batch_sizes[t])
            if nt == 0:
                continue
            hp = h[:nt]
            gates = gates_buf[:nt]
            np.matmul(hp, w_hh, out=gates)
            gates += b_hh
            xg = proj[offsets[t]:offsets[t + 1]]
            rz = _stable_sigmoid(xg[:, :2 * hs] + gates[:, :2 * hs])
            r, z = rz[:, :hs], rz[:, hs:]
            n = np.tanh(xg[:, 2 * hs:] + r * gates[:, 2 * hs:])
            h[:nt] = (1.0 - z) * n + z * hp
        if order is None:
            return h
        inverse = np.empty(batch, dtype=np.int64)
        inverse[order] = np.arange(batch, dtype=np.int64)
        return h[inverse]
    return run


def _gru_scan(grus: list[GRU], pool: BufferPool) -> Callable:
    """Compile a stack of GRU directions to one plain-numpy scan.

    ``GRU`` compiles with one direction and ``BiGRU`` with two; the scan
    returns the directions' final hidden states side by side,
    ``(batch, D·hidden)``.  It follows
    :func:`repro.nn.functional.gru_sequence` step for step, but advances
    every direction in the same numpy calls: the state is ``(D, B, H)``,
    the recurrent weights are stacked to ``(D, H, 3H)``, and the hoisted
    input projection (one (B·T, 3H) matmul per direction) has the time
    axis of each reverse direction flipped.  So step ``i`` advances a
    forward direction at ``t = i`` and a reverse one at ``t = T-1-i``.
    Each step makes one sigmoid call, over the reset and update gate
    columns ``[:2H]`` of every direction.  Ragged ``lengths`` mask the
    update (``h' = m*h_new + (1-m)*h``) with each direction's mask in
    its own time order; steps where every row of every direction is
    valid skip the mask.

    When the batch is ragged (``lengths.min() < time``) and every cell
    has ``packed`` set (the default), each direction runs its own packed
    scan instead (:func:`_gru_packed_scan`).  A uniform batch — such as
    one query — always takes the stacked loop.
    """
    cells = [gru.cell for gru in grus]
    flips = [gru.reverse for gru in grus]
    directions = len(grus)
    packed_scans = [_gru_packed_scan(gru.cell, pool, gru.reverse) for gru in grus]
    step_proj = pool.reserve()
    step_gates = pool.reserve()
    step_w_hh = pool.reserve()
    step_b_hh = pool.reserve()

    def run(x, lengths=None):
        batch, time, features = x.shape
        ragged = None
        if lengths is not None:
            lens = np.asarray(lengths)
            # Same dispatch rule as nn.rnn.GRU: packing only pays for
            # itself when there are padded positions to skip.
            if lens.size and lens.min() < time:
                if all(cell.packed for cell in cells):
                    lens = np.clip(lens, 0, time)
                    finals = [scan(x, lens) for scan in packed_scans]
                    return finals[0] if directions == 1 else np.concatenate(finals, axis=1)
                ragged = lens
        dtype = cells[0].weight_hh.data.dtype
        hs = cells[0].hidden_size
        # Parameters are read live, so the stacks are refilled per call.
        w_hh = pool.get(step_w_hh, (directions, hs, 3 * hs), dtype)
        b_hh = pool.get(step_b_hh, (directions, 1, 3 * hs), dtype)
        proj = pool.get(step_proj, (directions, batch, time, 3 * hs), dtype)
        x_flat = x.reshape(batch * time, features)
        for d, cell in enumerate(cells):
            w_hh[d] = cell.weight_hh.data
            b_hh[d, 0] = cell.bias_hh.data
            proj_d = proj[d].reshape(batch * time, 3 * hs)
            np.matmul(x_flat, cell.weight_ih.data, out=proj_d)
            proj_d += cell.bias_ih.data
            if flips[d]:
                proj[d] = proj[d, :, ::-1]
        masks = None
        if ragged is not None:
            valid = ragged.reshape(-1, 1) > np.arange(time)[None, :]
            valid = np.stack([valid[:, ::-1] if flip else valid for flip in flips])
            masks = valid.astype(dtype)[..., None]      # (D, B, T, 1)
            full_steps = valid.all(axis=(0, 1))         # steps needing no mask
        h = np.zeros((directions, batch, hs), dtype=dtype)
        gates = pool.get(step_gates, (directions, batch, 3 * hs), dtype)
        # Gate-column views, sliced once: [r | z] and n.
        proj_rz, proj_n = proj[..., :2 * hs], proj[..., 2 * hs:]
        gates_rz, gates_n = gates[..., :2 * hs], gates[..., 2 * hs:]
        for i in range(time):
            np.matmul(h, w_hh, out=gates)
            gates += b_hh
            rz = _stable_sigmoid(proj_rz[:, :, i] + gates_rz)
            r, z = rz[..., :hs], rz[..., hs:]
            n = np.tanh(proj_n[:, :, i] + r * gates_n)
            h_new = (1.0 - z) * n + z * h
            if masks is not None and not full_steps[i]:
                m = masks[:, :, i]
                h_new = m * h_new + (1.0 - m) * h
            h = h_new
        return h.transpose(1, 0, 2).reshape(batch, directions * hs)
    return run


@register_compiler(GRUCell)
def _compile_gru_cell(module: GRUCell, pool: BufferPool) -> Callable:
    def run(x, h):
        w_ih, w_hh = module.weight_ih.data, module.weight_hh.data
        hs = module.hidden_size
        if isinstance(h, Tensor):
            h = h.data
        x_gates = x @ w_ih + module.bias_ih.data
        gates_h = h @ w_hh + module.bias_hh.data
        rz = _stable_sigmoid(x_gates[:, :2 * hs] + gates_h[:, :2 * hs])
        r, z = rz[:, :hs], rz[:, hs:]
        n = np.tanh(x_gates[:, 2 * hs:] + r * gates_h[:, 2 * hs:])
        return (1.0 - z) * n + z * h
    return run


@register_compiler(GRU)
def _compile_gru(module: GRU, pool: BufferPool) -> Callable:
    # Serving output: the final hidden state (B, H) — not the per-step list.
    return _gru_scan([module], pool)


@register_compiler(BiGRU)
def _compile_bigru(module: BiGRU, pool: BufferPool) -> Callable:
    # The concatenated final states (B, 2H), as the Tensor forward returns.
    return _gru_scan([module.forward_gru, module.backward_gru], pool)
