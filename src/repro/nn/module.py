"""Module/Parameter system: the stateful layer abstraction.

Mirrors the shape of ``torch.nn.Module`` at the scale this project needs:
automatic parameter and sub-module registration via ``__setattr__``,
``parameters()`` / ``named_parameters()`` traversal, train/eval mode, and
flat ``state_dict`` save/load for checkpointing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor; registered automatically when set on a Module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must require grad regardless of any enclosing no_grad().
        self.requires_grad = True


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # mode & gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def parameter_vector(self) -> np.ndarray:
        """All parameters concatenated into one flat array, in the
        deterministic :meth:`named_parameters` order."""
        parameters = self.parameters()
        if not parameters:
            raise ValueError("module has no parameters")
        return np.concatenate([param.data.reshape(-1) for param in parameters])

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            param.data[...] = value

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """Holds sub-modules in a list; registers them for parameter traversal."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Chains modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
