"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

This module is the foundation of the ``repro`` deep-learning substrate.  It
provides a small, numpy-backed tensor library with a dynamic autograd graph
(very much in the spirit of PyTorch's eager mode, which is the framework the
HFTA paper extends).  Every differentiable operation records a backward
closure on the output tensor; calling :meth:`Tensor.backward` performs a
reverse topological traversal and accumulates gradients into ``.grad``.

Design notes
------------
* Data is always stored as a ``numpy.ndarray`` (``float32`` by default for
  floating point data; integer tensors are used for indices/labels).
* Broadcasting follows numpy semantics.  Gradients flowing into a broadcast
  operand are reduced (summed) over the broadcast axes so that
  ``grad.shape == data.shape`` always holds.
* A module-level ``no_grad`` context manager disables graph construction,
  which both optimizers and inference paths use.
* :meth:`Tensor.backward` consumes the graph it traverses: each node drops
  its closure and its parents once its closure has run, so activations
  are freed during backward.
* The op-level tracer hook (:mod:`repro.nn.tracer`) is invoked from the
  functional layer, not from this module, so that the tensor core stays free
  of instrumentation concerns.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import arena

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones",
           "randn", "rand", "arange", "full", "stack", "cat"]

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return ``True`` if autograd graph construction is currently enabled."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad()``.  Operations executed inside the context do
    not record backward closures and their outputs have
    ``requires_grad=False``.
    """
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64 and not isinstance(data, np.ndarray):
        # Python floats / lists default to float32 (the framework's working
        # precision), but explicitly float64 numpy arrays are preserved so
        # that finite-difference gradient checks can run in high precision.
        arr = arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` (undo numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph.

    Parameters
    ----------
    data:
        Array-like payload.  Floating point data is stored as ``float32``.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")
    __array_priority__ = 1000  # ensure Tensor.__r*__ wins over ndarray ops

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None):
        # Fast path: every op output wraps a freshly computed ndarray, and
        # ``_as_array`` is a no-op for those (ndarray in, same object out
        # when no dtype is forced) — skip the call on the hot path.
        if dtype is None and type(data) is np.ndarray:
            self.data: np.ndarray = data
        else:
            self.data = _as_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        t = Tensor(self.data)
        return t

    def clone(self) -> "Tensor":
        out = _make_out(self.data.copy(), (self,), "clone")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g)
            out._backward = _bw
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_str = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_str})"

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------ #
    # Autograd engine
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The traversal consumes the graph: each node drops its backward
        closure and its parents as soon as its closure has run, so an
        activation is freed (and its arena buffer reusable) during backward,
        once nothing downstream needs it.  A node keeps its ``data``; a
        second backward through a consumed node raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  If
            omitted, the tensor must be a scalar and a gradient of ``1.0`` is
            used.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not "
                               "require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar "
                                   "tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad).astype(self.data.dtype, copy=False)

        # Topological ordering of the graph reachable from `self`.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise RuntimeError(_CONSUMED)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # The closures call `_accumulate(parent, grad)`, which routes each
        # gradient through this traversal's `grads` dict: one sink, pushed
        # once for the whole traversal.  Popping `topo` drops the
        # traversal's own reference to each node once it is done.
        grads = {id(self): grad}
        with gradient_sink(grads):
            while topo:
                node = topo.pop()
                g = grads.pop(id(node), None)
                backward = node._backward
                if backward is not None:
                    node._backward, node._prev = _consumed, ()
                    if g is not None:
                        backward(g)
                    backward = None
                elif g is not None and node.requires_grad:
                    # Leaf tensor: accumulate into .grad
                    if node.grad is None:
                        node.grad = arena.copy(g)
                    else:
                        node.grad = node.grad + g

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = _make_out(self.data + other_t.data, (self, other_t), "add")
        if out.requires_grad:
            a, b = self, other_t

            def _bw(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g, a.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(g, b.shape))
            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _make_out(-self.data, (self,), "neg")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, -g)
            out._backward = _bw
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = _make_out(self.data - other_t.data, (self, other_t), "sub")
        if out.requires_grad:
            a, b = self, other_t

            def _bw(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g, a.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(-g, b.shape))
            out._backward = _bw
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = _make_out(self.data * other_t.data, (self, other_t), "mul")
        if out.requires_grad:
            a, b = self, other_t

            def _bw(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g * b.data, a.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(g * a.data, b.shape))
            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = _make_out(self.data / other_t.data, (self, other_t), "div")
        if out.requires_grad:
            a, b = self, other_t

            def _bw(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g / b.data, a.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(-g * a.data / (b.data ** 2),
                                                b.shape))
            out._backward = _bw
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out = _make_out(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g * exponent * self.data ** (exponent - 1))
            out._backward = _bw
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix multiply with numpy batch-matmul semantics."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = _make_out(self.data @ other_t.data, (self, other_t), "matmul")
        if out.requires_grad:
            a, b = self, other_t

            def _bw(g):
                if a.requires_grad:
                    if b.data.ndim == 1:
                        ga = np.outer(g, b.data) if a.data.ndim == 2 else g[..., None] * b.data
                    else:
                        ga = g @ np.swapaxes(b.data, -1, -2)
                    _accumulate(a, _unbroadcast(ga, a.shape))
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.outer(a.data, g)
                    else:
                        gb = np.swapaxes(a.data, -1, -2) @ g
                    _accumulate(b, _unbroadcast(gb, b.shape))
            out._backward = _bw
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _make_out(self.data.sum(axis=axis, keepdims=keepdims),
                        (self,), "sum")
        if out.requires_grad:
            in_shape = self.shape

            def _bw(g):
                g = np.asarray(g)
                if axis is None:
                    grad = np.broadcast_to(g, in_shape)
                else:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % len(in_shape) for a in axes)
                    if not keepdims:
                        for a in sorted(axes):
                            g = np.expand_dims(g, a)
                    grad = np.broadcast_to(g, in_shape)
                _accumulate(self, grad.astype(self.data.dtype, copy=False))
            out._backward = _bw
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False, unbiased: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        sq = (self - mean) ** 2
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        denom = count - 1 if unbiased else count
        return sq.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; tied maxima share the gradient equally.

        Along a non-leading axis, the result comes from the arena.
        """
        data = self.data
        out_buffer = None
        if isinstance(axis, int) and axis % data.ndim:
            shape = list(data.shape)
            if keepdims:
                shape[axis] = 1
            else:
                del shape[axis]
            out_buffer = arena.empty(tuple(shape), data.dtype)
        out_data = data.max(axis=axis, keepdims=keepdims, out=out_buffer)
        out = _make_out(out_data, (self,), "max")
        if out.requires_grad:
            def _bw(g):
                g = np.asarray(g)
                top = out_data
                if axis is not None and not keepdims:
                    top, g = np.expand_dims(top, axis), np.expand_dims(g, axis)
                mask = np.equal(data, top,
                                out=arena.empty(data.shape, arena.BOOL))
                # one maximum in every row (a NaN row matches nothing, so it
                # could hide a tie elsewhere): the share is g / 1, exactly
                if (np.count_nonzero(mask) == top.size
                        and not np.isnan(top).any()):
                    share = g.astype(data.dtype, copy=False)
                else:
                    ties = np.count_nonzero(mask, axis=axis, keepdims=True)
                    share = (g / ties).astype(data.dtype, copy=False)
                _accumulate(self, np.multiply(
                    mask, share, out=arena.empty(data.shape, data.dtype)))
            out._backward = _bw
        return out

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make_out(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            in_shape = self.shape

            def _bw(g):
                _accumulate(self, g.reshape(in_shape))
            out._backward = _bw
        return out

    def view(self, *shape) -> "Tensor":
        return self.reshape(*shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[dim0], axes[dim1] = axes[dim1], axes[dim0]
        return self.permute(*axes)

    def permute(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = _make_out(self.data.transpose(axes), (self,), "permute")
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _bw(g):
                _accumulate(self, g.transpose(inverse))
            out._backward = _bw
        return out

    @property
    def T(self) -> "Tensor":
        return self.permute(*reversed(range(self.ndim)))

    def unsqueeze(self, dim: int) -> "Tensor":
        shape = list(self.shape)
        if dim < 0:
            dim = self.ndim + 1 + dim
        shape.insert(dim, 1)
        return self.reshape(*shape)

    def squeeze(self, dim: Optional[int] = None) -> "Tensor":
        if dim is None:
            shape = tuple(s for s in self.shape if s != 1)
        else:
            shape = list(self.shape)
            if shape[dim] != 1:
                return self
            shape.pop(dim)
            shape = tuple(shape)
        return self.reshape(*shape)

    def expand(self, *sizes) -> "Tensor":
        if len(sizes) == 1 and isinstance(sizes[0], (tuple, list)):
            sizes = tuple(sizes[0])
        sizes = tuple(self.shape[i] if s == -1 else s for i, s in enumerate(sizes))
        out = _make_out(np.broadcast_to(self.data, sizes).copy(), (self,),
                        "expand")
        if out.requires_grad:
            in_shape = self.shape

            def _bw(g):
                _accumulate(self, _unbroadcast(g, in_shape))
            out._backward = _bw
        return out

    def repeat(self, *repeats) -> "Tensor":
        if len(repeats) == 1 and isinstance(repeats[0], (tuple, list)):
            repeats = tuple(repeats[0])
        out = _make_out(np.tile(self.data, repeats), (self,), "repeat")
        if out.requires_grad:
            in_shape = self.shape

            def _bw(g):
                # Fold the tiled axes back and sum.
                reshaped = []
                for r, s in zip(repeats, in_shape):
                    reshaped.extend([r, s])
                g2 = g.reshape(reshaped)
                g2 = g2.sum(axis=tuple(range(0, 2 * len(in_shape), 2)))
                _accumulate(self, g2)
            out._backward = _bw
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = _make_out(self.data[idx], (self,), "getitem")
        if out.requires_grad:
            def _bw(g):
                grad = np.zeros_like(self.data)
                np.add.at(grad, idx, g)
                _accumulate(self, grad)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------ #
    # Elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = _make_out(out_data, (self,), "exp")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g * out_data)
            out._backward = _bw
        return out

    def log(self) -> "Tensor":
        out = _make_out(np.log(self.data), (self,), "log")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g / self.data)
            out._backward = _bw
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = _make_out(out_data, (self,), "tanh")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g * (1.0 - out_data ** 2))
            out._backward = _bw
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        out = _make_out(out_data, (self,), "sigmoid")
        if out.requires_grad:
            def _bw(g):
                _accumulate(self, g * out_data * (1.0 - out_data))
            out._backward = _bw
        return out

    def relu(self) -> "Tensor":
        data = self.data
        out_data = np.maximum(data, 0.0,
                              out=arena.empty(data.shape, data.dtype))
        out = _make_out(out_data, (self,), "relu")
        if out.requires_grad:
            mask = np.greater(data, 0, out=arena.empty(data.shape, arena.BOOL))

            def _bw(g):
                _accumulate(self, np.multiply(
                    g, mask, out=arena.empty(g.shape, g.dtype)))
            out._backward = _bw
        return out

    def clamp(self, min_value=None, max_value=None) -> "Tensor":
        out_data = np.clip(self.data, min_value, max_value)
        out = _make_out(out_data, (self,), "clamp")
        if out.requires_grad:
            mask = np.ones_like(self.data, dtype=bool)
            if min_value is not None:
                mask &= self.data >= min_value
            if max_value is not None:
                mask &= self.data <= max_value

            def _bw(g):
                _accumulate(self, g * mask)
            out._backward = _bw
        return out

    def abs(self) -> "Tensor":
        out = _make_out(np.abs(self.data), (self,), "abs")
        if out.requires_grad:
            sign = np.sign(self.data)

            def _bw(g):
                _accumulate(self, g * sign)
            out._backward = _bw
        return out

    # Comparison operators (non-differentiable, return plain Tensors).
    def __gt__(self, other) -> "Tensor":
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other) -> "Tensor":
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other) -> "Tensor":
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other) -> "Tensor":
        return Tensor(self.data <= _as_array(other))


_CONSUMED = "backward() through a graph an earlier backward() consumed"


def _consumed(grad: np.ndarray) -> None:
    """The backward of a node whose graph a ``backward()`` consumed."""
    raise RuntimeError(_CONSUMED)


# ---------------------------------------------------------------------- #
# Gradient sink plumbing
# ---------------------------------------------------------------------- #
_sink_state = threading.local()


@contextlib.contextmanager
def gradient_sink(grads: dict):
    """Route every :func:`_accumulate` on this thread into ``grads`` (keyed
    by tensor id) inside the block, instead of into ``.grad``."""
    stack = getattr(_sink_state, "stack", None)
    if stack is None:
        stack = _sink_state.stack = []
    stack.append(grads)
    try:
        yield
    finally:
        stack.pop()


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    """Route ``grad`` for ``tensor`` into the active backward traversal.

    Backward closures call this for each parent.  During a ``backward()``
    traversal the gradients are staged in a dictionary keyed by tensor id so
    that a node's backward runs only once with its fully accumulated
    gradient.
    """
    if not (tensor.requires_grad or tensor._backward is not None):
        return
    stack = getattr(_sink_state, "stack", None)
    grad = np.asarray(grad, dtype=tensor.data.dtype)
    if stack:
        grads = stack[-1]
        key = id(tensor)
        if key in grads:
            # both have the tensor's shape and dtype (module docstring)
            grads[key] = np.add(grads[key], grad,
                                out=arena.empty(grad.shape, grad.dtype))
        else:
            grads[key] = grad
    else:  # direct call outside a traversal (rare; e.g. manual grad injection)
        if tensor.grad is None:
            tensor.grad = grad.copy()
        else:
            tensor.grad = tensor.grad + grad


def _make_out(data: np.ndarray, parents: Tuple[Tensor, ...], op: str) -> Tensor:
    requires = is_grad_enabled() and any(
        p.requires_grad or p._backward is not None for p in parents)
    out = Tensor(data)
    out.requires_grad = requires
    if requires:
        out._prev = parents
        out._op = op
    return out


# ---------------------------------------------------------------------- #
# Constructors
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def full(shape, fill_value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=np.float32),
                  requires_grad=requires_grad)


def randn(*shape, requires_grad: bool = False,
          generator: Optional[np.random.Generator] = None) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = generator if generator is not None else np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=requires_grad)


def rand(*shape, requires_grad: bool = False,
         generator: Optional[np.random.Generator] = None) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = generator if generator is not None else np.random.default_rng()
    return Tensor(rng.random(shape).astype(np.float32),
                  requires_grad=requires_grad)


def arange(*args, dtype=np.int64) -> Tensor:
    return Tensor(np.arange(*args), dtype=dtype)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    out = _make_out(data, tuple(tensors), "stack")
    if out.requires_grad:
        def _bw(g):
            pieces = np.split(g, len(tensors), axis=axis)
            for t, piece in zip(tensors, pieces):
                _accumulate(t, np.squeeze(piece, axis=axis))
        out._backward = _bw
    return out


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis (differentiable)."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make_out(data, tuple(tensors), "cat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def _bw(g):
            pieces = np.split(g, splits, axis=axis)
            for t, piece in zip(tensors, pieces):
                _accumulate(t, piece)
        out._backward = _bw
    return out
