"""Reverse-mode automatic differentiation over numpy arrays.

A recorded-tape engine sized for small transformer stacks: every op returns a
new immutable ``Tensor`` whose closure knows how to push gradients back to its
parents. The op vocabulary holds only what the library runs: ``add`` and
``mul``; ``reshape``, ``concat``, ``take_slice`` and ``take_rows``; a
straight-through combinator for non-differentiable quantizers; and the two
training losses, ``l1_loss`` and ``l2_loss``, each one node that takes the
mean of |a - b| or (a - b)^2 over equal shapes. A stop-gradient needs no
op: the loss takes the tensor's array, a constant. Four fused primitives,
``linear`` (x @ w + b), ``feed_forward`` (linear, exact GELU, linear),
``layer_norm`` and ``attention`` (head split, scale, mask, softmax, weighted
sum and head merge), each record one tape node with a closed-form backward,
so a transformer layer costs a handful of nodes instead of dozens.
``Tensor()`` builds leaves and checks them for finiteness; ``ParamStore``
registers a model's parameters as leaves and takes ownership of each
writeable float array it is handed, so a parameter is the very array its
initialiser drew (a view stays a view) and building a model copies no
weights; any other input is converted or copied. ``_node`` builds
every op output and checks it only when it records. Off the tape (under
``no_grad``, or when no input needs a gradient) an op output is a bare,
unchecked node with no parents or closure (``bare_node``): the ops pass a
non-finite value on to their outputs, so each model call checks its own
result once with ``checked``. The model calls are the predictor's forward,
the codec's ``encode``, ``encode_quantized`` and ``decode``, and the
sampler: ``ddim_sample`` checks the unit it returns, once for all its
steps, since each DDIM update carries a non-finite prediction into the
next step's input.
Only leaves keep a ``grad`` after ``backward``; an op node frees its own.
``attention`` owns the multi-head layout: its inputs and output keep the
heads side by side in the last axis, and it splits and merges them in numpy,
so no layout node reaches the tape. ``attention`` scales, masks and
normalises its scores in one buffer. Its mask is one additive constant that
the caller builds once: a finite entry admits a key and shifts its score
(0, or a distance penalty such as ALiBi's), -inf masks it, so a call adds
one array and does no boolean work. Its backward works one cache-sized block
of heads at a time, building each block's score gradient in one buffer and
taking the softmax row term from the (L_q, d) output instead of an
(L_q, L_k) product. A gradient's first write is one
pass, ``g + 0.0``: the values, dtype and signed zeros of ``zeros + g``. An
op hands over an array it built for one parent, which then keeps it and
writes that pass in place; whatever may be a view of another gradient is
copied. A node owns the upstream gradient its backward receives and drops
it afterwards, so ``add`` hands that array to the last parent that takes it
whole. The finite check, softmax, ``layer_norm`` and the attention row sums
call the ufuncs' ``reduce`` directly: the ``ndarray`` methods run the same
reductions behind a Python frame, a cost that shows on the many small arrays
of a unit. GELU's ``erf`` is scipy's ufunc, loaded from its one extension
module: importing the ``scipy.special`` package for it would double the
memory of ``import facestream`` (about 29 against 54 MB peak RSS).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .fileio import DataError, check_count


def _load_erf():
    """scipy's ``erf`` ufunc, without running the ``scipy.special`` package.

    The package's ``__init__`` imports some 300 modules, and with them about
    25 MB of peak RSS; the ufunc lives in one extension module,
    ``scipy.special._special_ufuncs``, which loads on its own. It is
    registered under that name, so a later ``import scipy.special`` reuses it
    and ``scipy.special.erf`` is this very object; an already loaded one is
    reused here. A scipy whose layout differs, without that file or without
    its ``erf``, takes the public import.
    """
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    path = _special_ufuncs_path() if module is None else None
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        sys.modules[name] = module
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _special_ufuncs_path() -> str | None:
    """The extension file of ``scipy.special._special_ufuncs``, or None.
    ``find_spec`` of the top-level package locates it and runs none of it."""
    spec = importlib.util.find_spec("scipy")
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "special", "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                return path
    return None


_erf = _load_erf()

LAYER_NORM_EPS = 1e-5   # added to the variance before the inverse square root
# Attention's backward works on as many heads at a time as fit one score
# block of this size: the block's softmax weights and its score gradient
# together then fill half of a 2 MiB per-core L2 cache.
_SCORE_BLOCK_BYTES = 512 * 1024
_SQRT2 = math.sqrt(2.0)   # feed_forward's GELU divides its pre-activation by it


class NonFiniteError(ArithmeticError):
    """Raised when an op would produce NaN or Inf values."""


_tape_enabled = True


class no_grad:
    """Context manager that disables tape recording (inference mode).

    Off the tape the ops do not check their outputs: a non-finite value
    flows on to the model call's ``checked``, which raises
    ``NonFiniteError``. On the way numpy may emit ``RuntimeWarning``s for
    overflow (``over``) and for ``inf - inf`` or ``inf * 0`` (``invalid``).
    A caller that turns warnings into errors must ignore those two, for
    example under ``np.errstate(over="ignore", invalid="ignore")``, to see
    ``NonFiniteError``.
    """

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
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError(f"non-finite values produced by '{op}'")
    return arr


def _float_array(data) -> np.ndarray:
    """``data`` as an array, cast to float64 unless float32 or float64 already."""
    arr = np.asarray(data)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


class Tensor:
    """Immutable dense array with an optional backward closure.

    The constructor builds leaves: ``data`` is float64 by default (float32
    is accepted for inference mode). Gradients accumulate into ``grad``
    during :meth:`backward`, and only a leaf's survives it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _check_finite(_float_array(data), "leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- basic protocol -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    def _accumulate(self, g: np.ndarray, own: bool = False) -> None:
        """Add ``g`` into ``grad``. The first write is ``g + 0.0``: the
        values, dtype and signed zeros of ``zeros + g``. An op that built
        ``g`` for this tensor alone hands it over with ``own=True``; a first
        ``g`` of this tensor's shape and dtype is then written in place and
        kept instead of copied. Anything that may be a view of another
        gradient, such as the upstream one an identity passes on, is copied,
        and so is a numpy scalar, which has no buffer to write in place.
        """
        if self.grad is not None:
            self.grad += g
        elif own and type(g) is np.ndarray and g.shape == self.data.shape \
                and g.dtype == self.data.dtype:
            self.grad = np.add(g, 0.0, out=g)
        else:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))

    def backward(self) -> None:
        """Reverse sweep from a scalar; accumulates into reachable leaves' ``grad``s."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

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


def recording(tensors: Iterable[Tensor]) -> bool:
    """Whether an op over ``tensors`` goes on the tape: recording is on
    and one of them requires a gradient."""
    return _tape_enabled and any(t.requires_grad for t in tensors)


def bare_node(value: np.ndarray) -> Tensor:
    """``value``, an array, as a node off the tape: no parents, no closure,
    no gradient and, unlike a ``Tensor()`` leaf, no finite check. Every op
    output off the tape is one (``_node``). A caller may wrap data in one
    when an op reads it and passes its non-finite values on to a check the
    caller makes anyway: ``DiffusionHead.denoise`` wraps the noisy unit,
    which reaches the unit that ``ddim_sample`` checks."""
    node = Tensor.__new__(Tensor)
    node.data = value
    node.grad = None
    node.requires_grad = False
    node._parents = ()
    node._backward = None
    return node


def _node(value: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    """Op ``op``'s output as a tensor: on the tape when recording and some
    parent requires a gradient, else a ``bare_node``.

    ``value`` is a float array computed from tensors' data, so the node
    skips the leaf coercions; numpy returns a 0-d result as a scalar, which
    is wrapped back into an array. A taped node is checked for finiteness,
    so a diverging training step names the op. A bare node is not: every op
    passes a NaN or ±inf in its inputs on to its output (a product or sum
    with one is non-finite, and ``0 * inf`` is NaN), and where the library
    calls ``take_slice`` and ``take_rows`` they drop only rows that no
    output reads. So a model call that checks its result once (``checked``)
    catches every non-finite value made on the way. What could hide one
    keeps its own check on both paths: the leaf check of ``Tensor()``, the
    attention scores before the mask, and the ``layer_norm`` variance, whose
    overflow would give finite zeros.
    """
    if type(value) is not np.ndarray:
        value = np.asarray(value)
    if not recording(parents):
        return bare_node(value)
    node = bare_node(_check_finite(value, op))
    node.requires_grad = True
    node._parents = tuple(parents)
    node._backward = backward
    return node


def checked(t, where: str):
    """``t``, a tensor or an array, with its array checked for finiteness;
    ``NonFiniteError`` names ``where``. A tensor on the tape is not checked
    again: ``_node`` checked it as it recorded it.

    Off the tape, the ops that made ``t`` may already have emitted numpy's
    ``RuntimeWarning``s (``over``, ``invalid``) for the non-finite value this
    check reports. Under warnings turned into errors, ignore both to get
    ``NonFiniteError`` (see ``no_grad``).
    """
    if not isinstance(t, Tensor):
        return _check_finite(t, where)
    if not t.requires_grad:
        _check_finite(t.data, where)
    return t


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
    """``a + b``. The backward hands ``g``, which the node owns, to the last
    parent that takes it unreduced; a parent's reduced copy is its own."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, own=ga is not g or not b.requires_grad)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape), own=True)

    return _node(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), own=True)

    return _node(out, (a, b), backward, "mul")


# -- shape ops ----------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape), own=True)

    return _node(out, (a,), backward, "reshape")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = [0, *itertools.accumulate(p.data.shape[axis] for p in parts)]

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
            a._accumulate(full, own=True)

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
            table._accumulate(gt, own=True)

    return _node(out, (table,), backward, "take_rows")


# -- losses ----------------------------------------------------------------------

def _mean_loss(a, b, value, slope, op: str) -> Tensor:
    """The mean of ``value(a - b)`` over equal-shaped ``a`` and ``b`` as one
    node; ``slope(s, d)`` is the gradient of ``s * value(d)`` in ``d``.

    ``a - b`` is ``a + (-1 * b)`` exactly, and the mean is the sum times
    ``1 / size``, so for float64 operands the value and both gradients
    equal those of the composed add, mul, abs or squaring, sum and mean ops
    bit for bit.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op} needs equal shapes, got {a.data.shape} "
                         f"and {b.data.shape}")
    d = a.data - b.data
    scale = 1.0 / d.size

    def backward(g):
        gd = slope(g * scale, d)
        gb = -gd if b.requires_grad else None   # before ``a`` may take gd
        if a.requires_grad:
            a._accumulate(gd, own=True)
        if gb is not None:
            b._accumulate(gb, own=True)

    return _node(value(d).sum() * scale, (a, b), backward, op)


def l1_loss(a, b) -> Tensor:
    """Mean absolute difference of equal-shaped ``a`` and ``b``."""
    return _mean_loss(a, b, np.abs, lambda s, d: s * np.sign(d), "l1_loss")


def l2_loss(a, b) -> Tensor:
    """Mean squared difference of equal-shaped ``a`` and ``b``."""
    return _mean_loss(a, b, lambda d: d * d, lambda s, d: (s * 2.0) * d, "l2_loss")


# -- structural ops --------------------------------------------------------------

def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the last axis of ``x``. An ``x`` of rank above 2 is
    folded into one 2-D product, which numpy computes several times faster
    than a stacked one."""
    if x.ndim == 2:
        return x @ w + b
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:]) + b


def _affine_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor,
                     wants_x: bool) -> np.ndarray | None:
    """Accumulate the gradients of ``_affine(x, w.data, b.data)`` under the
    upstream ``g`` into ``w`` and ``b``; return the gradient of ``x`` if
    ``wants_x``, a new array the caller may hand over. ``w``'s product is
    handed over; ``b``'s may be ``g`` itself, so it is not."""
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))
    g = _unbroadcast(g, x.shape[:-1] + g.shape[-1:])   # sum what b broadcast x along
    gx = g @ w.data.T if wants_x else None
    if w.requires_grad:
        w._accumulate(_unbroadcast(np.swapaxes(x, -1, -2) @ g, w.data.shape), own=True)
    return gx


def _check_affine(op: str, x: Tensor, *weights: Tensor) -> None:
    ranked = x.data.ndim >= 2
    for w in weights:
        ranked = ranked and w.data.ndim == 2
    if not ranked:
        raise ValueError(f"{op} expects x of rank >= 2 and 2-D weights")


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``.

    ``b`` may broadcast ``x @ w`` to a larger shape, e.g. a (B, n) product
    against a (S, 1, n) bias. An ``x`` of rank above 2 is folded into one 2-D
    product.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_affine("linear", x, w)
    out = _affine(x.data, w.data, b.data)

    def backward(g):
        gx = _affine_backward(g, x.data, w, b, x.requires_grad)
        if gx is not None:
            x._accumulate(gx, own=True)

    return _node(out, (x, w, b), backward, "linear")


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one node, with the exact
    GELU x * Phi(x) and its Gaussian CDF.

    Both products are ``linear``'s, ``x`` of rank >= 2 folded the same way
    and ``b1`` broadcasting like its bias, and the GELU and its derivative
    are the same expressions, so the output and every gradient equal the
    three composed ops' bit for bit. On the tape the hidden pre-activation
    and the output are checked for finiteness; GELU maps finite inputs to
    finite outputs, so that is every check the composed ops made. Off the
    tape neither is: a non-finite pre-activation gives a non-finite hidden
    value (GELU(inf) = inf, GELU(-inf) = -inf * 0 = NaN) and so output.

    ``erf`` is ``scipy.special.erf`` itself, the same ufunc object, taken
    from its extension module by ``_load_erf`` so that the library never
    runs the ``scipy.special`` package, which costs about 25 MB of peak RSS.
    """
    x, w1, b1 = as_tensor(x), as_tensor(w1), as_tensor(b1)
    w2, b2 = as_tensor(w2), as_tensor(b2)
    _check_affine("feed_forward", x, w1, w2)
    parents = (x, w1, b1, w2, b2)
    pre = _affine(x.data, w1.data, b1.data)
    if recording(parents):
        _check_finite(pre, "feed_forward hidden")
    cdf = pre / _SQRT2   # Phi(pre) = 0.5 * (1 + erf(pre / sqrt 2))
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    hidden = pre * cdf
    out = _affine(hidden, w2.data, b2.data)

    def backward(g):
        first = x.requires_grad or w1.requires_grad or b1.requires_grad
        g = _affine_backward(g, hidden, w2, b2, first)
        if first:
            pdf = np.exp(-0.5 * pre * pre) / math.sqrt(2.0 * math.pi)
            gx = _affine_backward(g * (cdf + pre * pdf), x.data, w1, b1,
                                  x.requires_grad)
            if gx is not None:
                x._accumulate(gx, own=True)

    return _node(out, parents, backward, "feed_forward")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over ``x`` and returned. An entry
    of -inf, a masked key, gets weight exactly exp(-inf) = 0; a row of -inf
    alone, whose maximum is -inf, raises ``ValueError``. A NaN row maximum
    passes on as NaN weights."""
    top = np.maximum.reduce(x, axis=-1, keepdims=True)
    if np.minimum.reduce(top, axis=None, initial=np.inf) == -np.inf:
        raise ValueError("degenerate attention row")
    x -= top
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, heads * d) -> (..., heads, L, d), as a view."""
    split = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return np.swapaxes(split, -2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, L, d) -> (..., L, heads * d); inverse of ``_split_heads``."""
    x = np.swapaxes(x, -2, -3)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def attention(q, k, v, mask=None, heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention with an optional additive mask.

    Shapes: q (..., L_q, heads*d), k (..., L_k, heads*d), v (..., L_k, heads*d_v),
    heads side by side in the last axis; the result is (..., L_q, heads*d_v).
    Head k attends with its own slice of width d, scaled by 1/sqrt(d).

    ``mask`` is one constant float array that gets no gradient, added to the
    scaled scores and broadcast into the (..., heads, L_q, L_k) score
    tensor: per head, (heads, L_q, L_k), or shared by the heads, (L_q, L_k).
    A finite entry admits its key and shifts its score, such as ALiBi's
    distance penalty or 0; -inf gives the key exactly zero weight. A caller
    builds it once and passes it to every call. A mask of any other dtype, a
    boolean one included, raises ``ValueError``, since adding it would shift
    the scores instead of masking them.

    The scaled scores are checked for finiteness before the mask is added,
    so a non-finite score raises ``NonFiniteError`` even where the mask
    would hide it. A query row that admits no key has a row maximum of -inf,
    which the softmax sees and reports as ``ValueError('degenerate attention
    row')``. A NaN in the mask gives NaN weights, which the tape's check of
    the output, or the model call's ``checked``, reports as
    ``NonFiniteError``.

    The backward keeps the softmax weights W and the output O = W V. The
    softmax's row term sum_j dW_ij W_ij equals sum_d dO_id O_id (the
    identity FlashAttention uses), so the score gradient W * (dO Vᵀ - rowsum)
    is built in place in the one array dO Vᵀ, and 1/sqrt(d) scales the
    (L, d) query and key products instead of it. The backward runs over
    groups of heads, as many as fit one (..., group, L_q, L_k) score block
    of ``_SCORE_BLOCK_BYTES``: each group's value gradient, score gradient
    and query and key gradients are made while its weights are in cache,
    into (..., heads, L, d) arrays that are handed over to q, k and v.
    Heads are independent, so the gradients equal those of all heads at
    once bit for bit, and no (..., heads, L_q, L_k) score gradient is
    made. No score gradient is made when neither q nor k needs one.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ValueError("query/key width mismatch")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("key/value length mismatch")
    check_count(heads, "heads")
    if q.data.shape[-1] % heads or v.data.shape[-1] % heads:
        raise ValueError("query and value widths must be divisible by heads")
    if mask is not None and np.asarray(mask).dtype.kind != "f":
        raise ValueError("attention mask must be an additive float array: "
                         "0 admits a key, -inf masks it")
    qs, ks, vs = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qs.shape[-1])
    scores = qs @ np.swapaxes(ks, -1, -2)
    scores *= scale
    _check_finite(scores, "attention scores")
    if mask is not None:
        scores += mask
    weights = _softmax(scores)
    out = _merge_heads(weights @ vs)

    def backward(g):
        gh = _split_heads(g, heads)
        batch, dtype = gh.shape[:-3], np.result_type(gh, weights, vs)
        q_len, k_len = weights.shape[-2:]

        def grad_array(wanted, rows, width):
            return np.empty(batch + (heads, rows, width), dtype) if wanted else None

        gv = grad_array(v.requires_grad, k_len, vs.shape[-1])
        gq = grad_array(q.requires_grad, q_len, qs.shape[-1])
        gk = grad_array(k.requires_grad, k_len, ks.shape[-1])
        head_bytes = math.prod(batch) * q_len * k_len * dtype.itemsize
        group = max(1, _SCORE_BLOCK_BYTES // max(head_bytes, 1))
        gs = None
        if gq is not None or gk is not None:
            gs = np.empty(batch + (min(group, heads), q_len, k_len), dtype)
            # the softmax row term comes from the output's array (its tensor
            # would make a reference cycle) in the heads' layout
            row = np.add.reduce(_split_heads(g * out, heads), axis=-1, keepdims=True)
        for start in range(0, heads, group):
            h = np.s_[..., start:start + group, :, :]
            w = weights[h]
            if gv is not None:
                np.matmul(np.swapaxes(w, -1, -2), gh[h], out=gv[h])
            if gs is None:
                continue
            s = gs[..., :w.shape[-3], :, :]
            np.matmul(gh[h], np.swapaxes(vs[h], -1, -2), out=s)
            s -= row[h]
            s *= w
            if gq is not None:
                np.matmul(s, ks[h], out=gq[h])
            if gk is not None:
                np.matmul(np.swapaxes(s, -1, -2), qs[h], out=gk[h])
        if gv is not None:
            v._accumulate(_merge_heads(_unbroadcast(gv, vs.shape)), own=True)
        if gq is not None:
            gq = _unbroadcast(gq, qs.shape)
            gq *= scale
            q._accumulate(_merge_heads(gq), own=True)
        if gk is not None:
            gk = _unbroadcast(gk, ks.shape)
            gk *= scale
            k._accumulate(_merge_heads(gk), own=True)

    return _node(out, (q, k, v), backward, "attention")


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The variance is checked for finiteness: an overflowing one would turn the
    normalized row into silent zeros.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    width = x.data.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) * (1.0 / width)
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * (1.0 / width)
    _check_finite(var, "layer_norm variance")
    inv = (var + LAYER_NORM_EPS) ** -0.5
    normed = centered * inv
    out = normed * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gn = g * gain.data
            mean_gn = np.add.reduce(gn, axis=-1, keepdims=True) / width
            mean_gnn = np.add.reduce(gn * normed, axis=-1, keepdims=True) / width
            x._accumulate(inv * (gn - mean_gn - normed * mean_gnn), own=True)

    return _node(out, (x, gain, bias), backward, "layer_norm")


def straight_through(grad_path: Tensor, value: np.ndarray) -> Tensor:
    """Forward ``value`` exactly; route gradients unchanged into ``grad_path``.

    The straight-through rule for quantizers: the output carries the quantized
    values bit-for-bit while the backward pass treats the op as identity.
    """
    grad_path = as_tensor(grad_path)
    value = _float_array(value)
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
        """Register ``array`` as the parameter ``name``, a leaf that requires
        a gradient; a taken name raises ``ValueError``.

        The store takes ownership of a writeable float32 or float64 array:
        the parameter is that very array, not a copy, so ``AdamW`` steps it
        in place and the caller must not keep writing it. A view is kept as
        a view, so row blocks of one drawn matrix stay blocks of it. A list
        or another dtype is converted to a new float64 array, and a
        read-only array is copied, so the store alone holds either.
        """
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        data = _float_array(array)
        t = Tensor(data if data.flags.writeable else data.copy(), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

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
        """Write the same-named array of ``state`` into every parameter's
        own array, all or none.

        The whole state is checked before any parameter is written: a missing
        or unexpected name, or a non-finite array, raises ``DataError``, and a
        shape mismatch raises ``ValueError``. On any error the store is left
        unchanged. The values are copied in place, so each parameter keeps its
        buffer: blocks of one drawn matrix stay blocks of it, and a weight
        drawn onto a cache line stays on it.
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
            np.copyto(self._params[name].data, arr)
