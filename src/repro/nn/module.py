"""Module base class: parameter registration, traversal, state dicts.

Every layer call goes through :meth:`Module.__call__`, which is also
the one interception point of the repo: inside a :func:`routed` block a
module found in the block's ``module → callable`` map runs that callable
in place of its ``forward``.  Integer executors, profiling hooks and
calibration observers all run this way, so no model is ever mutated to
swap a layer's implementation, and the swap is local to the thread (or
task) that opened the block.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Sequential", "Parameter", "routed"]

#: ``module → callable`` run in place of ``module.forward`` (see routed)
_ROUTES: ContextVar[dict | None] = ContextVar("layer_routes", default=None)


@contextmanager
def routed(routes: dict["Module", Callable]):
    """Run ``routes[module](*args)`` for each routed module called inside.

    The map is context-local: other threads (and other contexts) keep
    running the plain forwards while the block is open.  A nested block
    lays its map over the outer one; the outer map is back on exit,
    also when the block raises.
    """
    outer = _ROUTES.get()
    token = _ROUTES.set(routes if outer is None else {**outer, **routes})
    try:
        yield
    finally:
        _ROUTES.reset(token)


class Parameter(Tensor):
    """A Tensor that is registered as a learnable parameter of a Module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and ``Module`` attributes in
    ``__init__``; they are auto-registered so that traversal
    (``named_parameters``, ``named_modules``), ``state_dict`` IO and
    train/eval mode switching all work without bookkeeping in subclasses.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable array saved in the state dict."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    # ------------------------------------------------------------------
    # State dict IO
    # ------------------------------------------------------------------
    def state_dict(self) -> OrderedDict:
        state = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for mod_name, module in self.named_modules():
            for buf_name, buf in module._buffers.items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        own_params = dict(self.named_parameters())
        buffers = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffers[key] = (module, buf_name)
        for key, value in state.items():
            if key in own_params:
                param = own_params[key]
                if param.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: "
                        f"{param.data.shape} vs {value.shape}")
                param.data = value.astype(np.float32).copy()
            elif key in buffers:
                module, buf_name = buffers[key]
                module._update_buffer(buf_name, value.copy())
            else:
                raise KeyError(f"unexpected state key: {key}")

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        routes = _ROUTES.get()
        if routes is not None:
            route = routes.get(self)
            if route is not None:
                return route(*args, **kwargs)
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x
