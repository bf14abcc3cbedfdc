"""Per-output-channel symmetric int8 weight quantization for serving plans.

The weight-streaming cost of single-request scoring is reading every
weight byte of every tower per request; int8 weights cut that traffic 4x.
The scheme is the standard inference recipe:

* **Per-output-channel symmetric**: each output column ``j`` of a Linear
  weight gets one float32 scale ``s[j] = max|W[:, j]| / 127``; the stored
  tensor is ``q = round(W / s)`` clipped to [-127, 127] as int8.
* **float32 accumulation**: the matmul runs in float32 via the identity
  ``x @ (q * s) == (x @ q) * s`` — activations are never quantized, so the
  only error source is the weight rounding.
* **Only Linear weights inside MLP towers quantize.**  Embeddings, GRU
  weights, gate weights, and every bias stay float32: they are small,
  their consumers read ``weight.data`` directly, and recurrent error
  compounds across timesteps.

Kernel layout
-------------
numpy has no int8 GEMM, so the compiled plan's quantized matmul casts the
weights to a float32 scratch **in cache-sized blocks** and feeds BLAS from
there.  Two details make this faster than full-precision in the
weight-streaming regime instead of slower:

* ``q`` is stored **transposed** ``(out, in)`` C-contiguous, so each block
  of output channels is one contiguous int8 read (a column block of the
  ``(in, out)`` layout is a strided read that wrecks the cast).
  ``np.matmul(x, block.T)`` hands BLAS the transpose flag for free.
* The scratch block is bounded (:data:`BLOCK_BYTES`) so it stays resident
  in L2 across the cast and the matmul; DRAM traffic is the int8 read
  only, a quarter of the float32 plan's.
"""

from __future__ import annotations

import numpy as np

from .layers import MLP, Linear
from .module import Module

__all__ = ["QuantizedWeight", "quantize_weight", "quantizable_weights",
           "quantize_module", "hydrate_quantized", "is_quantized_serving"]

# Upper bound on the float32 cast scratch (bytes) — small enough to stay
# L2-resident next to the activations, big enough to amortize the per-block
# Python dispatch.  Measured on the serving towers: 128K blocks leave ~10%
# on the table, >1M stops helping.
BLOCK_BYTES = 512 * 1024

QMAX = 127  # symmetric int8 range [-127, 127]; -128 is never produced


class QuantizedWeight:
    """A Linear weight as int8 + per-output-channel float32 scales.

    ``q`` is stored transposed, shape ``(out_features, in_features)``
    C-contiguous (see module docs); ``scales`` has shape ``(out_features,)``.
    Instances are read-only shareable: scorer workers and forked/spawned
    scorer processes may call :meth:`matmul_into` concurrently as long as
    each caller owns its ``out``/``scratch`` buffers (the compiled plans'
    buffer pools provide exactly that).
    """

    __slots__ = ("q", "scales", "block_rows")

    def __init__(self, q: np.ndarray, scales: np.ndarray):
        q = np.asarray(q)
        scales = np.asarray(scales, dtype=np.float32)
        if q.dtype != np.int8 or q.ndim != 2:
            raise ValueError("q must be a 2-D int8 array (out, in)")
        if scales.shape != (q.shape[0],):
            raise ValueError(f"scales shape {scales.shape} does not match "
                             f"{q.shape[0]} output channels")
        self.q = q
        self.scales = scales
        self.block_rows = min(q.shape[0],
                              max(16, BLOCK_BYTES // (4 * max(q.shape[1], 1))))

    @property
    def in_features(self) -> int:
        return self.q.shape[1]

    @property
    def out_features(self) -> int:
        return self.q.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (in, out) shape of the Linear weight this replaces."""
        return (self.q.shape[1], self.q.shape[0])

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + self.scales.nbytes

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float32 ``(in, out)`` weight (tests/fallbacks)."""
        return np.ascontiguousarray(
            (self.q.astype(np.float32) * self.scales[:, None]).T)

    def scratch_shape(self) -> tuple[int, int]:
        """Shape of the cast scratch one :meth:`matmul_into` call needs."""
        return (self.block_rows, self.q.shape[1])

    def matmul_into(self, x: np.ndarray, out: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
        """``out[:] = (x @ q.T) * scales`` with float32 accumulation.

        ``scratch`` must be float32 of :meth:`scratch_shape` (a plan scratch
        buffer); ``out`` must be float32 ``(x.shape[0], out_features)``.
        """
        q = self.q
        cout = q.shape[0]
        blk = self.block_rows
        for j0 in range(0, cout, blk):
            j1 = min(j0 + blk, cout)
            block = scratch[:j1 - j0]
            np.copyto(block, q[j0:j1], casting="unsafe")   # int8 -> f32
            np.matmul(x, block.T, out=out[:, j0:j1])
        out *= self.scales
        return out


def quantize_weight(weight: np.ndarray) -> QuantizedWeight:
    """Quantize one ``(in, out)`` Linear weight (see module docs).

    All-zero output channels get scale 1.0 so dequantization round-trips
    zeros exactly instead of dividing by zero.
    """
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ValueError("quantize_weight expects a 2-D (in, out) weight")
    scales = (np.abs(weight).max(axis=0) / QMAX).astype(np.float32)
    scales[scales == 0.0] = 1.0
    q = np.clip(np.rint(weight / scales), -QMAX, QMAX).astype(np.int8)
    return QuantizedWeight(np.ascontiguousarray(q.T), scales)


def quantizable_weights(model: Module) -> dict[str, Linear]:
    """Map ``state_dict`` weight names -> Linear modules eligible for int8.

    Eligible means: a :class:`Linear` living inside an :class:`MLP` tower —
    exactly the layers the compiled Linear / fused linear+relu steps serve.
    Gate Linears, embeddings and GRU cells are excluded by construction
    (their scorers read ``weight.data`` directly).
    """
    eligible: dict[str, Linear] = {}
    for mlp_name, module in model.named_modules():
        if not isinstance(module, MLP):
            continue
        for name, sub in module.named_modules(prefix=mlp_name):
            if isinstance(sub, Linear):
                eligible[f"{name}.weight"] = sub
    return eligible


def quantize_module(model: Module) -> dict[str, QuantizedWeight]:
    """Quantize every eligible weight of ``model`` (non-mutating).

    Returns ``state_dict``-keyed :class:`QuantizedWeight` values — the
    payload :func:`repro.utils.serialization.save_checkpoint` persists in
    the ``.quant.npz`` sidecar.
    """
    if any(np.issubdtype(p.data.dtype, np.floating) and p.data.dtype != np.float32
           for p in model.parameters()):
        raise ValueError("int8 quantization requires a float32 model "
                         "(cast with model.astype(np.float32) first)")
    return {name: quantize_weight(linear.weight.data)
            for name, linear in quantizable_weights(model).items()}


def hydrate_quantized(model: Module, state: dict[str, np.ndarray],
                      quantized: dict[str, QuantizedWeight]) -> Module:
    """Attach a quantized checkpoint to a freshly built ``model``.

    ``state`` carries the full-precision passthrough parameters (possibly
    read-only memmap views — attached without copying, like
    ``load_state_dict(copy=False)``); ``quantized`` carries the int8
    tensors for the eligible Linear weights.  Together they must cover the
    model's parameters exactly.

    The replaced float32 weights are **not resident** afterwards: each
    quantized Linear's ``weight.data`` becomes a zero-memory broadcast of
    NaN, so any code path that bypasses the quantized kernels (the Tensor
    forward) poisons its output instead of silently serving garbage.  The
    model is inference-only from here.
    """
    linears = quantizable_weights(model)
    missing_q = set(quantized) - set(linears)
    if missing_q:
        raise KeyError(f"quantized tensors do not match this architecture: "
                       f"{sorted(missing_q)}")
    own = dict(model.named_parameters())
    expected_state = set(own) - set(quantized)
    if set(state) != expected_state:
        raise KeyError(
            f"quantized state mismatch: "
            f"missing={sorted(expected_state - set(state))}, "
            f"unexpected={sorted(set(state) - expected_state)}")
    for name, param in own.items():
        if name in quantized:
            continue
        value = np.asarray(state[name], dtype=param.data.dtype)
        if value.shape != param.shape:
            raise ValueError(f"shape mismatch for {name}: "
                             f"{value.shape} vs {param.shape}")
        param.data = value
    nan = np.float32(np.nan)
    for name, qw in quantized.items():
        linear = linears[name]
        if qw.shape != linear.weight.shape:
            raise ValueError(f"shape mismatch for {name}: "
                             f"{qw.shape} vs {linear.weight.shape}")
        linear.quantized = qw
        linear.weight.data = np.broadcast_to(nan, linear.weight.shape)
    object.__setattr__(model, "_quantized_serving", True)
    model.eval()
    return model


def is_quantized_serving(model: Module) -> bool:
    """True when ``model`` was hydrated by :func:`hydrate_quantized`."""
    return bool(getattr(model, "_quantized_serving", False))
