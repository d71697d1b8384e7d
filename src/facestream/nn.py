"""Transformer building blocks on top of the tape engine.

One pre-norm residual block (self-attention, optional cross-attention,
feed-forward) that the codec and the condition predictor both stack,
multi-head attention with one additive mask, sinusoidal positions, and the
ALiBi slopes and causal ALiBi mask used by the condition predictor. A mask
is the constant float array ``attention`` adds to its scores, built once
when a model is built: a finite entry admits a key and shifts its score,
-inf hides it. The initialisers draw numpy's numbers into arrays that start
on a cache line, and a model keeps them as its parameters.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fileio import check_count
from .tensor import (
    ParamStore,
    Tensor,
    add,
    attention,
    feed_forward,
    layer_norm,
    linear,
)

INIT_STD = 0.02   # std of the normal initialisation of embeddings and codebooks
CACHE_LINE = 64   # bytes; every drawn weight array starts on one
_NO_BIAS = Tensor(0.0)   # zero bias of the key projections, built once, not per call


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` that starts on a cache
    line. numpy aligns a buffer to 16 bytes only, and a model keeps the
    arrays its initialisers draw, so without this a weight's offset in its
    cache line would follow the heap: on a 2-core AVX-512 Xeon VM with
    OpenBLAS, an 8-row product with a 256 x 256 weight measured 7% slower
    at 32 bytes past a line than on one."""
    n = math.prod(shape)
    buf = np.empty(n + CACHE_LINE // 8)
    start = (-buf.ctypes.data % CACHE_LINE) // 8
    return buf[start:start + n].reshape(shape)


def glorot_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """The numbers of ``rng.uniform(-limit, limit, (d_in, d_out))``, which
    is ``-limit + 2 limit u`` for ``u`` from ``rng.random``, drawn into a
    cache-line-aligned array."""
    limit = math.sqrt(6.0 / (d_in + d_out))
    w = rng.random(out=_aligned_empty((d_in, d_out)))
    w *= 2.0 * limit
    w -= limit
    return w


def normal_init(rng: np.random.Generator, shape) -> np.ndarray:
    """The numbers of ``rng.normal(0.0, INIT_STD, shape)``, drawn into a
    cache-line-aligned array."""
    w = rng.standard_normal(out=_aligned_empty(shape))
    w *= INIT_STD
    w += 0.0   # as rng.normal adds its mean: a -0.0 becomes 0.0
    return w


@functools.lru_cache(maxsize=None)
def _sinusoid_rates(width: int) -> np.ndarray:
    """The (width // 2,) pair frequencies 1/10000^(2k/width), read-only and
    built once per width."""
    k = np.arange(width // 2)
    rates = 1.0 / np.power(10000.0, 2.0 * k / width)
    rates.setflags(write=False)
    return rates


def sinusoid_table(positions: np.ndarray, width: int) -> np.ndarray:
    """Interleaved (sin, cos) pairs: pair k oscillates at 1/10000^(2k/width)."""
    if width % 2 != 0:
        raise ValueError("sinusoid width must be even")
    positions = np.asarray(positions, dtype=np.float64)
    angles = positions[:, None] * _sinusoid_rates(width)[None, :]
    table = np.empty((positions.shape[0], width))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def alibi_slopes(num_heads: int) -> np.ndarray:
    """Geometric head slopes m_k = 2^(-8(k+1)/num_heads)."""
    check_count(num_heads, "num_heads")
    k = np.arange(1, num_heads + 1)
    return np.power(2.0, -8.0 * k / num_heads)


def alibi_mask(length: int, num_heads: int) -> np.ndarray:
    """Causal ALiBi mask, (num_heads, length, length): mask[k][i, j] =
    -m_k * (i - j) where j <= i, and -inf above the diagonal. Every query
    admits its own key, so no row is degenerate."""
    slopes = alibi_slopes(num_heads)
    i = np.arange(length)[:, None]
    j = np.arange(length)[None, :]
    distance = (i - j).astype(np.float64)
    return np.where(j <= i, -slopes[:, None, None] * distance, -np.inf)


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.w = store.create(f"{name}.w", glorot_uniform(rng, d_in, d_out))
        self.b = store.create(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, width: int):
        self.gain = store.create(f"{name}.gain", np.ones(width))
        self.bias = store.create(f"{name}.bias", np.zeros(width))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    """Multi-head attention over (..., L, d) inputs; optionally cross-modal.

    ``mask`` is the constant that ``attention`` adds to the scores, built
    once by the caller: per head, (heads, L_q, L_k), such as ``alibi_mask``,
    or shared across heads, (L_q, L_k). The projections keep the heads side
    by side in the last axis, and ``attention`` splits and merges them. Keys
    take no bias: softmax cancels the shift q·b_k it adds to a score row.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, num_heads: int,
                 rng: np.random.Generator):
        check_count(num_heads, "num_heads")
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.num_heads = num_heads
        self.wq = Linear(store, f"{name}.wq", d_model, d_model, rng)
        self.wk = store.create(f"{name}.wk.w", glorot_uniform(rng, d_model, d_model))
        self.wv = Linear(store, f"{name}.wv", d_model, d_model, rng)
        self.wo = Linear(store, f"{name}.wo", d_model, d_model, rng)

    def __call__(self, x_q: Tensor, x_kv: Tensor, mask=None) -> Tensor:
        out = attention(self.wq(x_q), linear(x_kv, self.wk, _NO_BIAS), self.wv(x_kv),
                        mask=mask, heads=self.num_heads)
        return self.wo(out)


class FeedForward:
    """Two affine layers with an exact GELU between them, run as the one
    fused ``feed_forward`` node."""

    def __init__(self, store: ParamStore, name: str, d_model: int, d_hidden: int,
                 rng: np.random.Generator):
        self.lin1 = Linear(store, f"{name}.lin1", d_model, d_hidden, rng)
        self.lin2 = Linear(store, f"{name}.lin2", d_hidden, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.lin1.w, self.lin1.b, self.lin2.w, self.lin2.b)


class Block:
    """Pre-norm residual block: self-attention, then cross-attention over
    ``memory`` when built with ``cross``, then feed-forward.

    ``mask`` and ``cross_mask`` are the masks of the self- and
    cross-attention, built once by the caller (see ``MultiHeadAttention``).

    ``rows``, a slice of the query rows, computes only those output rows:
    self-attention keys and values still come from every row of ``x``, and
    ``mask`` must be given; the block takes its rows, ``mask[..., rows, :]``.
    The caller restricts ``memory`` and ``cross_mask`` to what the selected
    rows read. A stack can pass it to its last block when only some rows
    are read.

    Parameter names follow the sublayers: the norms are ``ln1``, ``ln2``, …
    in sublayer order, and the self-attention is ``attn`` in a block with one
    attention and ``self_attn`` next to ``cross_attn``.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, num_heads: int,
                 d_ff: int, rng: np.random.Generator, cross: bool = False):
        self.ln1 = LayerNorm(store, f"{name}.ln1", d_model)
        self.self_attn = MultiHeadAttention(
            store, f"{name}.{'self_attn' if cross else 'attn'}", d_model, num_heads, rng)
        self.cross_attn = None
        if cross:
            self.ln_cross = LayerNorm(store, f"{name}.ln2", d_model)
            self.cross_attn = MultiHeadAttention(store, f"{name}.cross_attn", d_model,
                                                 num_heads, rng)
        self.ln_ff = LayerNorm(store, f"{name}.ln{3 if cross else 2}", d_model)
        self.ff = FeedForward(store, f"{name}.ff", d_model, d_ff, rng)

    def __call__(self, x: Tensor, mask=None, memory: Tensor | None = None,
                 cross_mask=None, rows: slice | None = None) -> Tensor:
        q = h = self.ln1(x)
        if rows is not None:
            q, x, mask = h[rows], x[rows], mask[..., rows, :]
        x = add(x, self.self_attn(q, h, mask=mask))
        if self.cross_attn is not None:
            x = add(x, self.cross_attn(self.ln_cross(x), memory, mask=cross_mask))
        return add(x, self.ff(self.ln_ff(x)))
