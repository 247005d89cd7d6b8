"""Module system: Parameter, Module base class, Sequential container.

A deliberately small layer-graph framework (no tape autograd): every
module implements ``forward`` (caching what it needs) and ``backward``
(consuming the cache, accumulating parameter gradients, returning the
input gradient).  This is sufficient for the feed-forward CNNs the
paper evaluates and keeps every gradient formula explicit and testable
against finite differences (:mod:`repro.nn.gradcheck`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient buffer.

    The buffer is allocated on first use, so a model that is only
    decomposed, compiled and served never holds one.
    """

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self._grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the buffer (no-op if grads are disabled)."""
        if self.requires_grad:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses register parameters by assigning :class:`Parameter`
    instances and submodules by assigning :class:`Module` instances as
    attributes; registration happens automatically in ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a submodule under a dynamic name (used by lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ---------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, mod in self._modules.items():
            yield from mod.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def n_params(self) -> int:
        """Total number of trainable scalars in the module tree."""
        return int(sum(p.size for p in self.parameters()))

    # -- mode / grads ------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", True)
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", False)
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict --------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays plus registered buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for mod_name, mod in self.named_modules():
            for buf_name, buf in getattr(mod, "_buffers", {}).items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict shapes)."""
        params = dict(self.named_parameters())
        buffers: Dict[str, Tuple[Module, str]] = {}
        for mod_name, mod in self.named_modules():
            for buf_name in getattr(mod, "_buffers", {}):
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffers[key] = (mod, buf_name)
        for key, value in state.items():
            if key in params:
                if params[key].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: "
                        f"{params[key].data.shape} vs {value.shape}"
                    )
                params[key].data[...] = value
            elif key in buffers:
                mod, buf_name = buffers[key]
                mod._buffers[buf_name][...] = value
            else:
                raise KeyError(f"unexpected key in state dict: {key}")

    # -- compute -----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Feed-forward chain of modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, mod in enumerate(modules):
            name = f"layer{i}"
            self.register_module(name, mod)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"layer{len(self._order)}"
        self.register_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[self._order[idx]]

    def layers(self) -> List[Module]:
        return [self._modules[name] for name in self._order]

    def replace(self, idx: int, module: Module) -> None:
        """Swap the layer at position ``idx`` (used when a Conv2d is
        replaced by its Tucker-format equivalent)."""
        name = self._order[idx]
        self.register_module(name, module)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name].forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for name in reversed(self._order):
            grad = self._modules[name].backward(grad)
        return grad


class Identity(Module):
    """No-op module (placeholder for skipped shortcut projections)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad
