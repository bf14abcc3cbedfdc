"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

These cover everything the paper's models need: stable (masked) softmax for
the noisy top-k gate, log-softmax/cross-entropy for the query classifier,
dropout, and axis-wise gathers used to pick top-K expert weights per example.

Fused fast-path kernels
-----------------------
``linear_relu``, ``softmax_cross_entropy`` and ``bce_with_logits_fused``
collapse what would be a 3-5 node autograd chain into one graph node with a
single analytic backward closure.  That removes per-node Python dispatch,
intermediate array allocations, and redundant mask/exp recomputation — the
dominant costs of the pure-numpy engine on MLP towers and losses.  Every op
here must pass :func:`repro.nn.gradcheck.check_grad` in float64 (the test
suite sweeps ``__all__``).

Fused recurrent kernels
-----------------------
``gru_cell_fused`` is one graph node per GRU timestep: the backward closure
computes every gate gradient analytically from cached forward activations
(``r``, ``z``, ``n``, the hidden gate pre-activations), and the optional
length mask is applied *inside* the kernel instead of via four extra
mul/add nodes.  ``gru_sequence`` drives a whole (batch, time, features)
scan: the input projection ``x @ W_ih + b_ih`` is hoisted out of the time
loop into a single (B·T, 3H) matmul, sliced per step through lightweight
view nodes whose backwards write into one shared gradient buffer.  Weight
gradients accumulate across steps into the parameter's single ``.grad``
buffer (allocated once on the first step's backward).

Packed ragged scans
-------------------
``gru_sequence_packed`` removes the *wasted FLOPs* the masked scan still
pays on ragged batches: examples are sorted by length once (descending,
stable — with an early exit when the batch arrives already sorted either
way, as the querycat length-bucketed loader produces), the input
projection runs over only the valid (example, step) pairs, and each
timestep updates only the still-valid prefix of the sorted batch — the
cuDNN/PackedSequence trick.  The fused backward accumulates into the same
shared gradient buffers as the masked path, so the two are numerically
interchangeable (pinned in f64 by the parity tests).

Sparse expert dispatch
----------------------
``dispatch_rows`` and ``combine_rows`` run each expert tower on only the
rows routed to it (the sparsely-gated MoE dispatch of Shazeer et al.
2017).  ``dispatch_rows`` gathers the routed rows once, expert-major, and
hands each expert a contiguous slice; since every row feeds the same
number of experts, its backward is a permutation plus a reshape-sum, not
a scatter-add.  ``combine_rows`` places each expert's outputs back in a
``(rows, experts)`` matrix that is zero outside the routed cells.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, _stable_sigmoid, _unbroadcast, as_tensor, is_grad_enabled

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "dropout",
    "take_along_axis",
    "scatter_topk_mask",
    "one_hot",
    "linear_relu",
    "softmax_cross_entropy",
    "bce_with_logits_fused",
    "gru_cell_fused",
    "gru_sequence",
    "gru_sequence_packed",
    "dispatch_rows",
    "combine_rows",
]

def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Implemented as a primitive with the analytic Jacobian-vector product
    ``dx = y * (g - sum(g * y, axis))`` which is both faster and more stable
    than composing exp/sum ops.  Entries equal to ``-inf`` receive probability
    exactly 0 and zero gradient, which the top-K gate relies on (eq. 6-7).
    """
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    # exp(-inf - max) -> exp(-inf) = 0 handled naturally; guard NaN from
    # all -inf rows by treating them as uniform-zero.
    with np.errstate(invalid="ignore"):
        exps = np.exp(shifted)
    total = exps.sum(axis=axis, keepdims=True)
    probs = np.where(total > 0, exps / np.where(total == 0, 1.0, total), 0.0)
    out = x._make_child(probs, (x,), "softmax")
    if out.requires_grad:
        def _backward():
            g = out.grad
            y = out.data
            dot = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate(y * (g - dot))
        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = x._make_child(value, (x,), "log_softmax")
    if out.requires_grad:
        def _backward():
            g = out.grad
            softmax_vals = np.exp(out.data)
            x._accumulate(g - softmax_vals * g.sum(axis=axis, keepdims=True))
        out._backward = _backward
    return out


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is True; masked entries get 0.

    This is the paper's eq. (6)-(7): non-top-K gate logits are set to
    :math:`-\\infty` before the softmax so only the selected experts receive
    positive probability (and gradient).
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    neg_inf = np.full_like(x.data, -np.inf)
    masked_data = np.where(mask, x.data, neg_inf)
    masked = x._make_child(masked_data, (x,), "mask_fill")
    if masked.requires_grad:
        def _backward():
            x._accumulate(masked.grad * mask)
        masked._backward = _backward
    return softmax(masked, axis=axis)


def dropout(x: Tensor, p: float, training: bool = True, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(1.0 - p, dtype=x.dtype)
    return x * Tensor(mask)


def take_along_axis(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis`` (gather along an axis).

    Used to pull out per-example top-K gate values or expert predictions.
    """
    x = as_tensor(x)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take_along_axis(x.data, indices, axis=axis)
    out = x._make_child(out_data, (x,), "take_along_axis")
    if out.requires_grad:
        def _backward():
            grad = np.zeros_like(x.data)
            # np.put_along_axis overwrites on duplicate indices; use explicit
            # scatter-add to stay correct when an index repeats.
            expanded = np.indices(indices.shape)
            idx = list(expanded)
            idx[axis] = indices
            np.add.at(grad, tuple(idx), out.grad)
            x._accumulate(grad)
        out._backward = _backward
    return out


def linear_relu(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``relu(x @ W + b)`` — one graph node instead of three.

    The backward closure computes all input gradients from the shared
    post-activation mask: ``gh = g * (y > 0)``, then ``gx = gh Wᵀ``,
    ``gW = xᵀ gh``, ``gb = Σ gh``.  Only 2-D ``x`` (batch, features) is
    supported; callers with exotic shapes should compose the unfused ops.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError("linear_relu expects 2-D x and weight")
    if x.shape[1] != weight.shape[0]:
        raise ValueError(f"linear_relu shape mismatch: x has {x.shape[1]} features, "
                         f"weight expects {weight.shape[0]}")
    h = x.data @ weight.data
    if bias is not None:
        h += bias.data
    np.maximum(h, 0.0, out=h)
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(h, parents, "linear_relu")
    if out.requires_grad:
        def _backward():
            gh = out.grad * (out.data > 0)
            # Each gradient below is a fresh array for one parent only.
            if x.requires_grad:
                x._accumulate(gh @ weight.data.T, owned=True)
            if weight.requires_grad:
                weight._accumulate(x.data.T @ gh, owned=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(gh.sum(axis=0), owned=True)
        out._backward = _backward
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          reduction: str = "mean") -> Tensor:
    """Fused log-softmax + negative log likelihood from integer targets.

    Replaces the log_softmax -> take_along_axis -> neg -> mean chain with a
    single node whose backward is the classic ``(softmax - onehot) * g``.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("softmax_cross_entropy expects 2-D logits (batch, classes)")
    if targets.shape != (logits.shape[0],):
        raise ValueError("targets must be a 1-D array of class indices matching the batch")
    z = logits.data
    n = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    nll = np.log(total[:, 0]) - shifted[rows, targets]
    if reduction == "mean":
        value = nll.mean()
    elif reduction == "sum":
        value = nll.sum()
    elif reduction == "none":
        value = nll
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    out = logits._make_child(np.asarray(value), (logits,), "softmax_xent")
    if out.requires_grad:
        probs = exps / total
        def _backward():
            if reduction == "none":
                per_row = out.grad
            elif reduction == "mean":
                per_row = np.broadcast_to(out.grad / n, (n,))
            else:
                per_row = np.broadcast_to(out.grad, (n,))
            grad = probs * per_row[:, None]
            grad[rows, targets] -= per_row
            logits._accumulate(grad)
        out._backward = _backward
    return out


def bce_with_logits_fused(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Fused stable binary cross entropy on raw logits.

    Forward uses ``max(x, 0) - x*y + log1p(exp(-|x|))`` (never overflows);
    backward is the closed form ``gx = g * (sigmoid(x) - y)``, ``gy = -g * x``
    — one node instead of the 8-node relu/abs/exp/log chain.
    """
    logits = as_tensor(logits)
    # Targets follow the logits dtype (the documented contract): raw arrays
    # are wrapped at that dtype, and Tensor targets — which as_tensor passes
    # through untouched — get a differentiable cast.
    targets = as_tensor(targets, dtype=logits.dtype).astype(logits.dtype)
    x = logits.data
    y = targets.data
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    if reduction == "mean":
        value = loss.mean()
    elif reduction == "sum":
        value = loss.sum()
    elif reduction == "none":
        value = loss
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    out = logits._make_child(np.asarray(value), (logits, targets), "bce_logits")
    if out.requires_grad:
        # Guard size 0: mean of an empty batch is nan (as the unfused path
        # produced) rather than a ZeroDivisionError at node creation.
        scale = 1.0 / loss.size if reduction == "mean" and loss.size else 1.0
        def _backward():
            g = out.grad if reduction == "none" else out.grad * scale
            if logits.requires_grad:
                gx = g * (_stable_sigmoid(x) - y)
                logits._accumulate(_unbroadcast(np.broadcast_to(gx, loss.shape), x.shape))
            if targets.requires_grad:
                gy = g * (-x)
                targets._accumulate(_unbroadcast(np.broadcast_to(gy, loss.shape), y.shape))
        out._backward = _backward
    return out


def gru_cell_fused(x_gates: Tensor, h: Tensor, weight_hh: Tensor,
                   bias_hh: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Fused GRU step (Cho et al. 2014) — one graph node per timestep.

    Parameters
    ----------
    x_gates:
        Precomputed input projection ``x @ W_ih + b_ih`` of shape (B, 3H),
        gate columns ordered ``[r | z | n]``.  Hoisting this matmul out of
        the kernel lets :func:`gru_sequence` batch it over all timesteps.
    h:
        Previous hidden state, shape (B, H).
    weight_hh, bias_hh:
        Recurrent weights (H, 3H) and bias (3H,).
    mask:
        Optional plain-numpy (B, 1) float mask.  Rows with mask 0 keep
        their previous state (``h' = m*h_new + (1-m)*h``) — the masked
        update runs *inside* the kernel, replacing the per-op path's four
        extra mul/add graph nodes per step.  Not differentiated.

    Replaces the ~10-node per-op chain (two matmuls, three slices, two
    sigmoids, tanh, and the convex state blend) with a single node whose
    backward computes all gate gradients analytically from the cached
    forward activations ``r``, ``z``, ``n`` and the hidden gate
    pre-activations.
    """
    x_gates = as_tensor(x_gates)
    h = as_tensor(h)
    weight_hh = as_tensor(weight_hh)
    bias_hh = as_tensor(bias_hh)
    if x_gates.ndim != 2 or h.ndim != 2:
        raise ValueError("gru_cell_fused expects 2-D x_gates and h")
    hs = h.shape[1]
    if x_gates.shape != (h.shape[0], 3 * hs) or weight_hh.shape != (hs, 3 * hs):
        raise ValueError(
            f"gru_cell_fused shape mismatch: h {h.shape}, x_gates {x_gates.shape}, "
            f"weight_hh {weight_hh.shape}")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (h.shape[0], 1):
            raise ValueError(f"mask must have shape ({h.shape[0]}, 1), got {mask.shape}")
        if mask.dtype != h.dtype:
            mask = mask.astype(h.dtype)

    gates_h = h.data @ weight_hh.data + bias_hh.data
    r = _stable_sigmoid(x_gates.data[:, :hs] + gates_h[:, :hs])
    z = _stable_sigmoid(x_gates.data[:, hs:2 * hs] + gates_h[:, hs:2 * hs])
    hn = gates_h[:, 2 * hs:]
    n = np.tanh(x_gates.data[:, 2 * hs:] + r * hn)
    h_new = (1.0 - z) * n + z * h.data
    if mask is not None:
        h_new = mask * h_new + (1.0 - mask) * h.data

    out = h._make_child(h_new, (x_gates, h, weight_hh, bias_hh), "gru_cell")
    if out.requires_grad:
        h_prev = h.data
        def _backward():
            g = out.grad if mask is None else out.grad * mask
            dn = g * (1.0 - z)
            dz = g * (h_prev - n)
            dn_pre = dn * (1.0 - n * n)
            dz_pre = dz * (z * (1.0 - z))
            dr = dn_pre * hn
            dr_pre = dr * (r * (1.0 - r))
            # Gate-preactivation gradients, columns [r | z | n]: the input
            # and hidden branches share dr_pre/dz_pre, but the n column
            # differs (the reset gate multiplies only the hidden branch).
            d_gates_h = np.concatenate([dr_pre, dz_pre, dn_pre * r], axis=1)
            if x_gates.requires_grad:
                x_gates._accumulate(np.concatenate([dr_pre, dz_pre, dn_pre], axis=1))
            if weight_hh.requires_grad:
                weight_hh._accumulate(h_prev.T @ d_gates_h)
            if bias_hh.requires_grad:
                bias_hh._accumulate(d_gates_h.sum(axis=0))
            if h.requires_grad:
                dh = d_gates_h @ weight_hh.data.T
                dh += g * z
                if mask is not None:
                    dh += out.grad * (1.0 - mask)
                h._accumulate(dh)
        out._backward = _backward
    return out


def _time_slice(x_proj: Tensor, t: int) -> Tensor:
    """Internal: slice timestep ``t`` from a (B, T, C) tensor.

    Unlike ``Tensor.__getitem__`` (whose backward allocates a full-size
    zeros array and ``np.add.at``s into it — O(B·T·C) per step), this
    node's backward writes directly into the parent's shared gradient
    buffer at O(B·C) per step.
    """
    out = x_proj._make_child(x_proj.data[:, t, :], (x_proj,), "time_slice")
    if out.requires_grad:
        def _backward():
            if x_proj.grad is None:
                x_proj.grad = np.zeros_like(x_proj.data)
            x_proj.grad[:, t, :] += out.grad
        out._backward = _backward
    return out


def gru_sequence(x: Tensor, weight_ih: Tensor, weight_hh: Tensor,
                 bias_ih: Tensor, bias_hh: Tensor, h0: Tensor | None = None,
                 lengths: np.ndarray | None = None, reverse: bool = False
                 ) -> tuple[list[Tensor], Tensor]:
    """Fused GRU scan over a (batch, time, features) sequence.

    The input projection for *every* timestep is computed as one
    (B·T, 3H) matmul before the time loop; each step then runs a single
    :func:`gru_cell_fused` node on a cheap per-step view.  With ``lengths``
    the validity mask is precomputed for all steps and applied in-kernel
    (steps where every example is valid skip the mask entirely).

    Returns ``(outputs, final_state)`` in original time order, matching
    :meth:`repro.nn.GRU.forward`.
    """
    x = as_tensor(x)
    weight_ih = as_tensor(weight_ih)
    weight_hh = as_tensor(weight_hh)
    bias_ih = as_tensor(bias_ih)
    bias_hh = as_tensor(bias_hh)
    if x.ndim != 3:
        raise ValueError("gru_sequence expects (batch, time, features) input")
    batch, time, features = x.shape
    hs = weight_hh.shape[0]
    if weight_ih.shape != (features, 3 * hs):
        raise ValueError(f"weight_ih shape {weight_ih.shape} does not match "
                         f"input features {features} / hidden size {hs}")

    # Hoisted input projection: one matmul for the whole sequence.
    x_proj = (x.reshape(batch * time, features) @ weight_ih + bias_ih) \
        .reshape(batch, time, 3 * hs)

    if lengths is not None:
        valid = np.asarray(lengths).reshape(-1, 1) > np.arange(time)[None, :]
        masks = valid.astype(x_proj.dtype)          # (B, T), plain numpy
        full_steps = valid.all(axis=0)              # steps needing no mask
    h = h0 if h0 is not None else Tensor(np.zeros((batch, hs), dtype=x_proj.dtype))
    steps = range(time - 1, -1, -1) if reverse else range(time)
    outputs: list[Tensor] = [None] * time  # type: ignore[list-item]
    for t in steps:
        mask = None
        if lengths is not None and not full_steps[t]:
            mask = masks[:, t:t + 1]
        h = gru_cell_fused(_time_slice(x_proj, t), h, weight_hh, bias_hh, mask=mask)
        outputs[t] = h
    return outputs, h


# Introspection counters for the packed scan (read by the regression tests
# and the benchmark harness; not part of the functional API).  ``presorted``
# counts calls that skipped the argsort because the batch arrived sorted by
# length in either direction — the querycat length-bucketed loader produces
# ascending batches, which must hit this fast path.
packed_scan_counters = {"calls": 0, "argsort": 0, "presorted": 0}


def reset_packed_scan_counters() -> None:
    for key in packed_scan_counters:
        packed_scan_counters[key] = 0


def _packed_order(lengths: np.ndarray) -> np.ndarray | None:
    """Row order making ``lengths`` non-increasing; ``None`` for identity.

    Early-exits on already-sorted input: a non-increasing batch needs no
    reorder at all, and a non-decreasing one (length-bucketed loaders sort
    ascending) just reverses — neither pays the O(B log B) argsort.
    """
    packed_scan_counters["calls"] += 1
    diffs = np.diff(lengths)
    if not (diffs > 0).any():               # already non-increasing
        packed_scan_counters["presorted"] += 1
        return None
    if not (diffs < 0).any():               # non-decreasing: reverse it
        packed_scan_counters["presorted"] += 1
        return np.arange(lengths.shape[0] - 1, -1, -1, dtype=np.int64)
    packed_scan_counters["argsort"] += 1
    # Stable descending sort: ties keep their original relative order, so
    # the packing is deterministic for a given batch.
    return np.argsort(-lengths, kind="stable")


def _permute_rows(x: Tensor, index: np.ndarray, inverse: np.ndarray,
                  op: str = "permute_rows") -> Tensor:
    """Row permutation ``out[j] = x[index[j]]`` with O(B) backward.

    ``inverse`` must be the inverse permutation of ``index`` — the backward
    is then a plain gather ``dx = g[inverse]`` instead of a scatter-add.
    """
    out = x._make_child(x.data[index], (x,), op)
    if out.requires_grad:
        def _backward():
            x._accumulate(out.grad[inverse])
        out._backward = _backward
    return out


def _pack_rows(x: Tensor, flat_index: np.ndarray, time: int) -> Tensor:
    """Gather valid (example, step) rows of a (B, T, F) tensor.

    ``flat_index`` holds *unique* flattened ``(b, t)`` positions, so the
    backward can write straight into the parent's shared gradient buffer
    with a fancy-indexed ``+=`` — no ``np.add.at`` scatter needed.
    """
    batch, _, features = x.shape
    flat = x.data.reshape(batch * time, features)
    out = x._make_child(flat[flat_index], (x,), "pack_rows")
    if out.requires_grad:
        def _backward():
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            grad_flat = x.grad.reshape(batch * time, features)
            grad_flat[flat_index] += out.grad
        out._backward = _backward
    return out


def _row_slice(packed: Tensor, start: int, stop: int) -> Tensor:
    """Slice rows [start, stop) of a packed (total, C) tensor.

    Like :func:`_time_slice`, the backward writes into the parent's shared
    gradient buffer at O(rows·C) instead of allocating a full-size scatter
    target per step.
    """
    out = packed._make_child(packed.data[start:stop], (packed,), "row_slice")
    if out.requires_grad:
        def _backward():
            if packed.grad is None:
                packed.grad = np.zeros_like(packed.data)
            packed.grad[start:stop] += out.grad
        out._backward = _backward
    return out


def _gru_cell_prefix(x_gates: Tensor, h: Tensor, weight_hh: Tensor,
                     bias_hh: Tensor, active: int) -> Tensor:
    """Fused GRU step over the first ``active`` rows of ``h``.

    Rows past ``active`` (examples already finished at this timestep, in
    length-sorted order) are carried through untouched — forward copies
    them, backward passes their gradient straight through.  The gate math
    and the analytic backward are exactly :func:`gru_cell_fused`, just on
    the prefix, so the per-step FLOPs shrink with the surviving batch.
    """
    hs = h.shape[1]
    h_prev = h.data
    hp = h_prev[:active]
    gates_h = hp @ weight_hh.data + bias_hh.data
    r = _stable_sigmoid(x_gates.data[:, :hs] + gates_h[:, :hs])
    z = _stable_sigmoid(x_gates.data[:, hs:2 * hs] + gates_h[:, hs:2 * hs])
    hn = gates_h[:, 2 * hs:]
    n = np.tanh(x_gates.data[:, 2 * hs:] + r * hn)
    h_new = h_prev.copy()
    h_new[:active] = (1.0 - z) * n + z * hp
    out = h._make_child(h_new, (x_gates, h, weight_hh, bias_hh), "gru_cell_prefix")
    if out.requires_grad:
        def _backward():
            g = out.grad[:active]
            dn = g * (1.0 - z)
            dz = g * (hp - n)
            dn_pre = dn * (1.0 - n * n)
            dz_pre = dz * (z * (1.0 - z))
            dr = dn_pre * hn
            dr_pre = dr * (r * (1.0 - r))
            d_gates_h = np.concatenate([dr_pre, dz_pre, dn_pre * r], axis=1)
            if x_gates.requires_grad:
                x_gates._accumulate(np.concatenate([dr_pre, dz_pre, dn_pre], axis=1))
            if weight_hh.requires_grad:
                weight_hh._accumulate(hp.T @ d_gates_h)
            if bias_hh.requires_grad:
                bias_hh._accumulate(d_gates_h.sum(axis=0))
            if h.requires_grad:
                dh = np.empty_like(out.grad)
                dh[:active] = d_gates_h @ weight_hh.data.T
                dh[:active] += g * z
                dh[active:] = out.grad[active:]
                h._accumulate(dh)
        out._backward = _backward
    return out


def gru_sequence_packed(x: Tensor, weight_ih: Tensor, weight_hh: Tensor,
                        bias_ih: Tensor, bias_hh: Tensor,
                        h0: Tensor | None = None,
                        lengths: np.ndarray | None = None,
                        reverse: bool = False) -> tuple[list[Tensor], Tensor]:
    """Packed ragged GRU scan — :func:`gru_sequence` minus the wasted FLOPs.

    Examples are sorted by length once (descending, stable; identity /
    reversal fast paths for already-sorted batches), the hoisted input
    projection runs over only the valid (example, step) rows, and each
    timestep updates only the still-valid prefix of the sorted batch.
    Outputs and the final state are unsorted back to the original row
    order, so the returned values are drop-in interchangeable with the
    masked scan (parity pinned in f64 by the equivalence tests).

    With uniform full lengths the packing degenerates to the masked path
    plus gather overhead — callers (``GRU.forward``, the compiled scan)
    only select it when lengths are actually ragged.
    """
    x = as_tensor(x)
    weight_ih = as_tensor(weight_ih)
    weight_hh = as_tensor(weight_hh)
    bias_ih = as_tensor(bias_ih)
    bias_hh = as_tensor(bias_hh)
    if x.ndim != 3:
        raise ValueError("gru_sequence_packed expects (batch, time, features) input")
    batch, time, features = x.shape
    hs = weight_hh.shape[0]
    if weight_ih.shape != (features, 3 * hs):
        raise ValueError(f"weight_ih shape {weight_ih.shape} does not match "
                         f"input features {features} / hidden size {hs}")
    if lengths is None:
        lens = np.full(batch, time, dtype=np.int64)
    else:
        lens = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if lens.shape[0] != batch:
            raise ValueError(f"lengths must have one entry per example "
                             f"({batch}), got {lens.shape[0]}")
        lens = np.clip(lens, 0, time)

    order = _packed_order(lens)
    if order is None:
        sorted_lens = lens
        inverse = None
    else:
        sorted_lens = lens[order]
        inverse = np.empty(batch, dtype=np.int64)
        inverse[order] = np.arange(batch, dtype=np.int64)

    # batch_sizes[t] = number of examples still valid at step t; in sorted
    # order those are exactly the first batch_sizes[t] rows.
    batch_sizes = (sorted_lens[:, None] > np.arange(time)[None, :]).sum(axis=0)
    offsets = np.zeros(time + 1, dtype=np.int64)
    np.cumsum(batch_sizes, out=offsets[1:])
    ord_rows = order if order is not None else np.arange(batch, dtype=np.int64)
    flat_index = np.empty(int(offsets[-1]), dtype=np.int64)
    for t in range(time):
        nt = int(batch_sizes[t])
        if nt:
            flat_index[offsets[t]:offsets[t + 1]] = ord_rows[:nt] * time + t

    # Hoisted input projection over valid rows only: one (total, 3H) matmul.
    packed_x = _pack_rows(x, flat_index, time)
    x_proj = packed_x @ weight_ih + bias_ih

    h0t = as_tensor(h0) if h0 is not None \
        else Tensor(np.zeros((batch, hs), dtype=x_proj.dtype))
    h = h0t if order is None else _permute_rows(h0t, order, inverse,
                                                op="sort_rows")

    steps = range(time - 1, -1, -1) if reverse else range(time)
    outputs: list[Tensor] = [None] * time  # type: ignore[list-item]
    # Steps with no surviving example (possible at the start of a reverse
    # scan when every length < time) emit the untouched initial state.
    unsorted = h0t
    for t in steps:
        nt = int(batch_sizes[t])
        if nt:
            x_gates = _row_slice(x_proj, int(offsets[t]), int(offsets[t + 1]))
            if nt == batch:
                h = gru_cell_fused(x_gates, h, weight_hh, bias_hh)
            else:
                h = _gru_cell_prefix(x_gates, h, weight_hh, bias_hh, nt)
            unsorted = h if order is None else \
                _permute_rows(h, inverse, order, op="unsort_rows")
        outputs[t] = unsorted
    return outputs, unsorted


def dispatch_rows(x: Tensor, rows: np.ndarray, bounds: np.ndarray) -> list[Tensor]:
    """Split the rows of a 2-D ``x`` among experts, one slice per expert.

    Expert ``e`` gets ``x[rows[bounds[e]:bounds[e + 1]]]``; ``bounds``
    rises from 0 to ``len(rows)``, and an expert whose bounds are equal
    gets a 0-row input.  ``rows`` must use every row of ``x`` equally
    often, as a training batch does: each example feeds its K selected
    and D disagreeing experts.  The routed rows are gathered once; each
    slice's backward writes into that gather's one gradient buffer, and
    the gather's backward groups the buffer by source row with one
    permutation and sums each row's copies.
    """
    x = as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    if x.ndim != 2 or rows.ndim != 1:
        raise ValueError("dispatch_rows expects a 2-D x and a 1-D rows index")
    count, features = x.shape
    fan_out = rows.size // count if count else 0
    if rows.size != count * fan_out or \
            (count and (np.bincount(rows, minlength=count) != fan_out).any()):
        raise ValueError("dispatch_rows needs every row of x routed equally often")
    if bounds.ndim != 1 or bounds.size == 0 or bounds[0] != 0 \
            or bounds[-1] != rows.size or (np.diff(bounds) < 0).any():
        raise ValueError("bounds must rise from 0 to len(rows)")
    gathered = x._make_child(np.take(x.data, rows, axis=0), (x,), "dispatch_rows")
    if gathered.requires_grad:
        def _backward():
            by_row = np.take(gathered.grad, np.argsort(rows, kind="stable"), axis=0)
            x._accumulate(by_row.reshape(count, fan_out, features).sum(axis=1))
        gathered._backward = _backward
    return [_row_slice(gathered, int(start), int(stop))
            for start, stop in zip(bounds[:-1], bounds[1:])]


def combine_rows(parts: Sequence[Tensor], rows: np.ndarray,
                 num_rows: int) -> Tensor:
    """Place per-expert outputs back in a ``(num_rows, len(parts))`` matrix.

    ``parts[e]`` has shape ``(n_e, 1)``: expert ``e``'s outputs for the
    next ``n_e`` entries of ``rows``, laid out as :func:`dispatch_rows`
    dispatched them.  ``out[r, e]`` is expert ``e``'s output for row
    ``r``.  Every cell no expert computed holds a constant 0 and passes
    no gradient.  A row may appear at most once per expert.
    """
    parts = [as_tensor(part) for part in parts]
    rows = np.asarray(rows, dtype=np.int64)
    sizes = [part.shape[0] for part in parts]
    if not parts or any(part.shape != (size, 1) for part, size in zip(parts, sizes)):
        raise ValueError("combine_rows expects one (n, 1) output per expert")
    columns = np.repeat(np.arange(len(parts)), sizes)
    if rows.shape != columns.shape:
        raise ValueError(f"combine_rows got {columns.size} outputs for "
                         f"{rows.size} routed rows")
    cells = rows * len(parts) + columns
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows
                      or np.bincount(cells).max() > 1):
        raise ValueError(f"routed rows must lie in [0, {num_rows}) and be "
                         f"distinct within each expert")
    values = np.concatenate([part.data.reshape(-1) for part in parts])
    data = np.zeros(num_rows * len(parts), dtype=values.dtype)
    data[cells] = values
    out = parts[0]._make_child(data.reshape(num_rows, len(parts)), parts,
                               "combine_rows")
    if out.requires_grad:
        offsets = np.cumsum([0, *sizes])
        def _backward():
            grad = out.grad.reshape(-1)[cells]
            for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
                if part.requires_grad:
                    part._accumulate(grad[start:stop].reshape(part.shape))
        out._backward = _backward
    return out


def scatter_topk_mask(logits: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the top-``k`` entries per row of a 2-D array.

    Ties are broken by index order (``argpartition`` semantics), matching the
    behaviour of a "keep the K largest gate values" rule.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ValueError("scatter_topk_mask expects a 2-D array")
    n = logits.shape[1]
    if not 0 < k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return np.ones_like(logits, dtype=bool)
    idx = np.argpartition(-logits, k - 1, axis=1)[:, :k]
    mask = np.zeros_like(logits, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain numpy one-hot encoding (labels are never differentiated)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.min(initial=0) < 0 or (indices.size and indices.max() >= num_classes):
        raise ValueError("index out of range for one_hot")
    out = np.zeros((indices.size, num_classes), dtype=np.float64)
    out[np.arange(indices.size), indices.reshape(-1)] = 1.0
    return out.reshape(*indices.shape, num_classes)
