"""Tape ops that only the tests compose: references for the fused primitives.

``linear``, ``feed_forward``, ``attention``, ``layer_norm``, ``l1_loss`` and
``l2_loss`` each record one fused node; the tests check them against the same
maths built from these smaller ops, which the library itself never runs.
"""

import math

import numpy as np
from scipy.special import erf

from facestream.tensor import (
    Tensor,
    _node,
    _softmax,
    _unbroadcast,
    add,
    as_tensor,
    mul,
)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects arrays of rank >= 2")
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _node(out, (a, b), backward, "matmul")


def masked_softmax(scores, mask=None) -> Tensor:
    """Softmax over the last axis; positions where the boolean ``mask`` is
    False get weight 0.

    This is the boolean-mask reference for ``attention``'s additive mask: it
    broadcasts the mask, checks each row for an admitted key itself and
    fills the masked scores with -inf, where ``attention`` adds a 0/-inf
    array. A query row with no admissible key raises
    ``ValueError('degenerate attention row')``.
    """
    scores = as_tensor(scores)
    out = _softmax(fill_masked(scores.data.copy(), mask))   # both write in place

    def backward(g):
        if scores.requires_grad:
            scores._accumulate(out * (g - (g * out).sum(axis=-1, keepdims=True)))

    return _node(out, (scores,), backward, "masked_softmax")


def fill_masked(x: np.ndarray, mask) -> np.ndarray:
    """``x`` with -inf written over the positions where the boolean ``mask``,
    broadcast to ``x``'s shape, is False; ``ValueError('degenerate attention
    row')`` if a row keeps no position."""
    if mask is not None:
        admits = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not admits.any(axis=-1).all():
            raise ValueError("degenerate attention row")
        np.copyto(x, -np.inf, where=~admits)
    return x


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, ax1, ax2))

    return _node(out, (a,), backward, "swapaxes")


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    out = a.data ** p

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * p * a.data ** (p - 1.0))

    return _node(out, (a,), backward, "power")


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    out = x * cdf

    def backward(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            a._accumulate(g * (cdf + x * pdf))

    return _node(out, (a,), backward, "gelu")


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


def composed_l1_loss(a, b) -> Tensor:
    """Mean absolute difference from the small ops."""
    return tmean(tabs(add(as_tensor(a), mul(as_tensor(b), -1.0))))


def composed_l2_loss(a, b) -> Tensor:
    """Mean squared difference from the small ops."""
    return tmean(square(add(as_tensor(a), mul(as_tensor(b), -1.0))))
