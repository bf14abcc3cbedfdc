"""Module system: parameter registration, train/eval mode, state dicts.

A lightweight analogue of ``torch.nn.Module``: attributes that are
:class:`~repro.nn.tensor.Parameter` or :class:`Module` instances are
registered automatically, so ``parameters()`` walks the full model tree.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["Module", "ModuleList", "Sequential"]


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters in this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (qualified_name, parameter) pairs across the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout and gate noise)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def reseed(self, seed: "int | np.random.SeedSequence") -> "Module":
        """Re-derive every RNG held anywhere in the module tree from ``seed``.

        Walks ``modules()`` in deterministic registration order and hands
        each RNG-holding module (one exposing ``reseed(rng)`` or a plain
        ``_rng`` attribute) an independent generator spawned from one
        ``np.random.SeedSequence``.  This is the fork-safety seam for
        multi-process serving: a child process inherits (fork) or rebuilds
        (spawn) the parent's generators, so without an explicit per-child
        reseed every "independent" worker would draw the same noise stream.
        Same seed → same streams; different seeds → provably independent
        spawn keys.
        """
        sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

        def _custom_reseed(module):
            # An RNG-holding module may expose its own ``reseed(rng)``
            # (e.g. NoisyTopKGate); the inherited Module.reseed takes a
            # *seed*, so only an override counts.
            if type(module).reseed is Module.reseed:
                return None
            return module.reseed

        holders = [module for module in self.modules()
                   if module is not self
                   and (hasattr(module, "_rng")
                        or _custom_reseed(module) is not None)]
        if hasattr(self, "_rng"):
            holders.insert(0, self)
        for module, child_seq in zip(holders, sequence.spawn(max(len(holders), 1))):
            rng = np.random.default_rng(child_seq)
            reseed = _custom_reseed(module) if module is not self else None
            if reseed is not None:
                reseed(rng)
            else:
                object.__setattr__(module, "_rng", rng)
        return self

    def astype(self, dtype) -> "Module":
        """Cast every parameter (and pending grad) in place to ``dtype``.

        This is how an already-built model enters float32 fast mode (or back
        to float64 for gradchecking).  Optimizer state does not follow —
        build the optimizer after casting.
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            param.data = np.ascontiguousarray(param.data, dtype=dtype)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name → array copy of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], copy: bool = True) -> None:
        """Load parameter values from :meth:`state_dict` output.

        With ``copy=False`` the provided arrays are attached directly when
        their dtype already matches (``np.asarray`` is then a no-op view).
        Multi-process serving uses this to back every parameter with a
        read-only ``np.load(..., mmap_mode="r")`` memmap: N processes map
        the same ``.npy`` files and the OS page cache keeps one physical
        copy of the weights.  Such a model is inference-only — optimizer
        steps would need writable buffers.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            param.data = value.copy() if copy else value

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def compiled(self):
        """Compile this module into a graph-free inference plan.

        Returns a :class:`repro.nn.infer.CompiledPlan` — a callable that
        runs the forward pass as plain-numpy closures (eval-mode semantics,
        preallocated scratch buffers, no autograd graph).  Parameters are
        read live, so optimizer steps and ``load_state_dict`` are picked up
        without recompiling.
        """
        from . import infer
        return infer.compile_module(self)


class ModuleList(Module):
    """Hold an ordered list of sub-modules, registering each one."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self.add_module(str(index), module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Chain modules, feeding each output to the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for index, module in enumerate(self._items):
            self.add_module(str(index), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
