"""Reverse-mode automatic differentiation over numpy arrays.

A recorded-tape engine sized for small transformer stacks: every op returns a
new immutable ``Tensor`` whose closure knows how to push gradients back to its
parents. The op vocabulary holds only what the library runs: ``add``,
``mul``, ``tabs``, ``square`` and ``gelu``; ``reshape``, ``concat``,
``take_slice`` and ``take_rows``; ``tsum``, ``tmean``, ``l1_loss`` and
``l2_loss``; ``stop_gradient`` and a straight-through combinator for
non-differentiable quantizers. Three fused primitives, ``linear``
(x @ w + b), ``layer_norm`` and ``attention`` (head split, scale, bias,
mask, softmax, weighted sum and head merge), each record one tape node with
a closed-form backward, so a transformer layer costs a handful of nodes
instead of dozens; they keep the finite checks that the composed ops made.
``attention`` owns the multi-head layout: its inputs and output keep the
heads side by side in the last axis, and it splits and merges them in numpy,
so no layout node reaches the tape. A finite-difference checker ships with
the engine so every op and every composed loss graph can be verified against
central differences.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .fileio import DataError


class NonFiniteError(ArithmeticError):
    """Raised when an op would produce NaN or Inf values."""


_tape_enabled = True


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        global _tape_enabled
        self._prev = _tape_enabled
        _tape_enabled = False
        return self

    def __exit__(self, *exc):
        global _tape_enabled
        _tape_enabled = self._prev
        return False


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    return arr


class Tensor:
    """Immutable dense array with an optional backward closure.

    ``data`` is float64 by default (float32 is accepted for inference mode).
    Gradients accumulate into ``grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None,
                 _op: str = "leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, _op)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    # -- basic protocol -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse sweep from a scalar; accumulates into reachable ``grad``s."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return take_slice(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _node(value: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    if _tape_enabled and any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, _parents=tuple(parents),
                      _backward=backward, _op=op)
    return Tensor(value, _op=op)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along broadcast axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise ops ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), backward, "mul")


def tabs(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.sign(a.data))

    return _node(out, (a,), backward, "abs")


def square(a) -> Tensor:
    a = as_tensor(a)
    out = a.data * a.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * a.data)

    return _node(out, (a,), backward, "square")


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))
    out = x * cdf

    def backward(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            a._accumulate(g * (cdf + x * pdf))

    return _node(out, (a,), backward, "gelu")


# -- shape ops ----------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _node(out, (a,), backward, "reshape")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                part._accumulate(g[tuple(index)])

    return _node(out, tuple(parts), backward, "concat")


def take_slice(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] = g
            a._accumulate(full)

    return _node(out, (a,), backward, "slice")


def take_rows(table, indices) -> Tensor:
    """Embedding lookup: gather rows of ``table`` at integer ``indices``."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("take_rows needs integer indices")
    out = table.data[idx]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            table._accumulate(gt)

    return _node(out, (table,), backward, "take_rows")


# -- reductions and losses -----------------------------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _node(out, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def l1_loss(a, b) -> Tensor:
    """Mean absolute difference."""
    return tmean(tabs(add(as_tensor(a), mul(as_tensor(b), -1.0))))


def l2_loss(a, b) -> Tensor:
    """Mean squared difference."""
    return tmean(square(add(as_tensor(a), mul(as_tensor(b), -1.0))))


# -- structural ops --------------------------------------------------------------

def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``.

    ``b`` may broadcast ``x @ w`` to a larger shape, e.g. a (B, n) product
    against a (S, 1, n) bias. An ``x`` of rank above 2 is folded into one 2-D
    product, which numpy computes several times faster than a stacked one.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ValueError("linear expects x of rank >= 2 and a 2-D weight")
    lead = x.data.shape[:-1]
    if x.data.ndim == 2:
        out = x.data @ w.data + b.data
    else:
        out = (x.data.reshape(-1, x.data.shape[-1]) @ w.data).reshape(
            lead + w.data.shape[1:]) + b.data

    def backward(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))
        g = _unbroadcast(g, lead + g.shape[-1:])   # sum what b broadcast x along
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape))

    return _node(out, (x, w, b), backward, "linear")


def _softmax(x: np.ndarray, mask) -> np.ndarray:
    """Masked softmax over the last axis; masked positions get exactly 0."""
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    if not m.any(axis=-1).all():
        raise ValueError("degenerate attention row")
    z = np.where(m, x, -np.inf)
    e = np.where(m, np.exp(z - z.max(axis=-1, keepdims=True)), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the softmax at output ``weights``."""
    return weights * (g - (g * weights).sum(axis=-1, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, heads * d) -> (..., heads, L, d), as a view."""
    split = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return np.swapaxes(split, -2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, L, d) -> (..., L, heads * d); inverse of ``_split_heads``."""
    x = np.swapaxes(x, -2, -3)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def attention(q, k, v, bias=None, mask=None, heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention with optional bias and mask.

    Shapes: q (..., L_q, heads*d), k (..., L_k, heads*d), v (..., L_k, heads*d_v),
    heads side by side in the last axis; the result is (..., L_q, heads*d_v).
    Head k attends with its own slice of width d, scaled by 1/sqrt(d). bias
    broadcasts against the (..., heads, L_q, L_k) score tensor, so a per-head
    bias is (heads, L_q, L_k); mask is boolean with the same broadcast rule.
    Masked keys receive exactly zero weight. The biased scores are checked for
    finiteness before the mask can hide a non-finite entry.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ValueError("query/key width mismatch")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("key/value length mismatch")
    if q.data.shape[-1] % heads or v.data.shape[-1] % heads:
        raise ValueError("query and value widths must be divisible by heads")
    qs, ks, vs = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qs.shape[-1])
    scores = (qs @ np.swapaxes(ks, -1, -2)) * scale
    parents = (q, k, v)
    if bias is not None:
        bias = as_tensor(bias)
        scores = scores + bias.data
        parents = (q, k, v, bias)
    _check_finite(scores, "attention scores")
    weights = _softmax(scores, mask)
    out = _merge_heads(weights @ vs)

    def backward(g):
        g = _split_heads(g, heads)
        if v.requires_grad:
            gv = np.swapaxes(weights, -1, -2) @ g
            v._accumulate(_merge_heads(_unbroadcast(gv, vs.shape)))
        gs = _softmax_grad(weights, g @ np.swapaxes(vs, -1, -2))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(gs, bias.data.shape))
        gs = gs * scale
        if q.requires_grad:
            q._accumulate(_merge_heads(_unbroadcast(gs @ ks, qs.shape)))
        if k.requires_grad:
            gk = np.swapaxes(gs, -1, -2) @ qs
            k._accumulate(_merge_heads(_unbroadcast(gk, ks.shape)))

    return _node(out, parents, backward, "attention")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The variance is checked for finiteness: an overflowing one would turn the
    normalized row into silent zeros.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    width = x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / width)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / width)
    _check_finite(var, "layer_norm variance")
    inv = (var + eps) ** -0.5
    normed = centered * inv
    out = normed * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gn = g * gain.data
            x._accumulate(inv * (gn - gn.mean(axis=-1, keepdims=True)
                                 - normed * (gn * normed).mean(axis=-1, keepdims=True)))

    return _node(out, (x, gain, bias), backward, "layer_norm")


def stop_gradient(a) -> Tensor:
    """Identity with zero partial derivatives."""
    a = as_tensor(a)
    return Tensor(a.data.copy(), _op="stop_gradient")


def straight_through(grad_path: Tensor, value: np.ndarray) -> Tensor:
    """Forward ``value`` exactly; route gradients unchanged into ``grad_path``.

    The straight-through rule for quantizers: the output carries the quantized
    values bit-for-bit while the backward pass treats the op as identity.
    """
    grad_path = as_tensor(grad_path)
    value = np.asarray(value)
    if value.shape != grad_path.data.shape:
        raise ValueError("straight_through shapes must match")

    def backward(g):
        if grad_path.requires_grad:
            grad_path._accumulate(g)

    return _node(value.copy(), (grad_path,), backward, "straight_through")


# -- parameters -----------------------------------------------------------------

class ParamStore:
    """Named parameter registry with per-parameter gradient accumulators."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        t = Tensor(np.array(array), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return [self._params[n] for n in self.names()]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {n: self._params[n].data.copy() for n in self.names()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter's values with the same-named array of
        ``state``, all or none.

        The whole state is checked before any parameter is written: a missing
        or unexpected name, or a non-finite array, raises ``DataError``, and a
        shape mismatch raises ``ValueError``. On any error the store is left
        unchanged.
        """
        missing = sorted(set(self._params) - set(state))
        unexpected = sorted(set(state) - set(self._params))
        if missing or unexpected:
            raise DataError(f"state does not match the parameters: missing "
                            f"{missing}, unexpected {unexpected}")
        loaded = {}
        for name, tensor in self._params.items():
            arr = np.asarray(state[name])
            if arr.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for '{name}': "
                                 f"{arr.shape} vs {tensor.data.shape}")
            arr = arr.astype(tensor.data.dtype)
            if not np.isfinite(arr).all():
                raise DataError(f"non-finite values in parameter '{name}'")
            loaded[name] = arr
        for name, arr in loaded.items():
            self._params[name].data = arr


# -- verification -----------------------------------------------------------------

def finite_diff_check(fn: Callable[[Tensor], Tensor], point: np.ndarray,
                      eps: float = 1e-5) -> float:
    """Compare the tape gradient of ``fn`` at ``point`` with central differences.

    Returns max over coordinates of |analytic - central| / max(1, |central|).
    ``fn`` must map a Tensor to a scalar Tensor and be deterministic.
    """
    point = np.asarray(point, dtype=np.float64)
    leaf = Tensor(point.copy(), requires_grad=True)
    out = fn(leaf)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued fn")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(point)

    flat = point.ravel()
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += eps
            f_plus = fn(Tensor(bumped.reshape(point.shape))).item()
            bumped[i] -= 2.0 * eps
            f_minus = fn(Tensor(bumped.reshape(point.shape))).item()
            central = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(analytic.ravel()[i] - central) / max(1.0, abs(central))
            worst = max(worst, rel)
    return worst
