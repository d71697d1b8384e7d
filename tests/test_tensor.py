"""Tape engine tests: gradients against central differences, attention laws."""

import importlib.machinery
import math
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from composed_ops import (
    composed_l1_loss,
    composed_l2_loss,
    fill_masked,
    gelu,
    masked_softmax,
    matmul,
    power,
    square,
    swapaxes,
    tmean,
    tsum,
)
from facestream import tensor as T
from facestream.codec import CodecConfig, MotionCodec
from facestream.diffusion import DiffusionHead
from facestream.fileio import DataError
from facestream.nn import (
    CACHE_LINE,
    INIT_STD,
    FeedForward,
    MultiHeadAttention,
    alibi_mask,
    glorot_uniform,
    normal_init,
)
from facestream.predictor import ConditionPredictor, PredictorConfig
from facestream.tensor import (
    NonFiniteError,
    ParamStore,
    Tensor,
    add,
    attention,
    checked,
    concat,
    feed_forward,
    layer_norm,
    linear,
    l1_loss,
    l2_loss,
    mul,
    no_grad,
    reshape,
    straight_through,
    take_rows,
    take_slice,
)
from finite_diff import finite_diff_check


def rng(seed=0):
    return np.random.default_rng(seed)


def additive(admits):
    """The 0/-inf mask of a boolean layout: 0 admits a key, -inf hides it."""
    return np.where(admits, 0.0, -np.inf)


class TestBackwardBasics:
    def test_quadratic_grad(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tsum(square(w))
        loss.backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            square(w).backward()

    def test_grad_accumulates_over_reuse(self):
        # y = w*w via two separate references: dy/dw = 2w
        w = Tensor(np.array([3.0]), requires_grad=True)
        loss = tsum(w * w)
        loss.backward()
        np.testing.assert_allclose(w.grad, [6.0])

    def test_non_finite_raises(self):
        w = Tensor(np.array([1e200]), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            square(w)

    def test_layer_norm_overflowing_variance_raises(self):
        # the squared deviations overflow; a fused norm must not return zeros
        x = Tensor(np.array([[1e200, -1e200, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_attention_non_finite_score_raises_even_if_masked(self):
        # the overflowing score sits at a masked key, whose weight would be 0
        q = Tensor(np.array([[1e200, 1.0]]))
        k = Tensor(np.array([[1.0, 0.0], [1e200, 0.0]]))
        v = Tensor(np.ones((2, 3)))
        mask = np.array([[0.0, -np.inf]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            attention(q, k, v, mask=mask)

    def test_negative_zero_first_gradient_lands_as_positive_zero(self):
        # the first write is g + 0.0, which has the signs of zeros + g
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        tsum(mul(w, -0.0)).backward()
        assert w.grad.tobytes() == np.zeros(2).tobytes()

    def test_first_gradient_is_a_fresh_array_of_the_leaf_dtype(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        g = np.array([0.1, -0.0, 3.0])
        w._accumulate(g)
        assert w.grad.dtype == np.float32 and not np.shares_memory(w.grad, g)
        zeros = np.zeros(3, dtype=np.float32)
        zeros += g
        assert w.grad.tobytes() == zeros.tobytes()

    def test_only_leaves_keep_their_gradients(self):
        """Each op node frees its gradient once its parents have it: after
        the sweep, every leaf that requires a gradient holds one and no
        other node does."""
        r = rng(3)
        x = Tensor(r.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(r.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(r.normal(size=6))
        gain = Tensor(np.ones(6), requires_grad=True)
        h = layer_norm(linear(x, w, b), gain, Tensor(np.zeros(6)))
        loss = tsum(square(attention(h, Tensor(h.data), h, heads=2)))
        loss.backward()
        nodes = T._topo_order(loss)
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) == 5 and all(n.grad is None for n in interior)
        leaves = [n for n in nodes if n._backward is None]
        assert [n.grad is not None for n in leaves] == [n.requires_grad for n in leaves]
        assert sum(n.requires_grad for n in leaves) == 3


class TestFiniteDiffChecker:
    def test_square_scalar(self):
        err = finite_diff_check(lambda x: tsum(square(x)), np.array([3.0]))
        assert err < 1e-9

    def test_sum_of_sines(self):
        # analytic grad cos(x) vs central differences, 64-bit
        def sin(x):
            def backward(g):
                x._accumulate(g * np.cos(x.data))
            return T._node(np.sin(x.data), (x,), backward, "sin")

        point = rng(1).normal(size=5)
        err = finite_diff_check(lambda x: tsum(sin(x)), point)
        assert err < 1e-6

    def test_detects_wrong_gradient(self):
        # op whose backward is deliberately scaled by 2: checker must report ~1
        def double_grad_square(x):
            def bad_backward(g):
                x._accumulate(g * 4.0 * x.data)  # correct would be 2x
            return T._node(x.data * x.data, (x,), bad_backward, "bad_square")

        err = finite_diff_check(lambda x: tsum(double_grad_square(x)),
                                np.array([1.5]))
        assert err == pytest.approx(1.0, rel=0.05)


def _random_case(op_name, seed):
    r = rng(seed)
    if op_name == "linear":
        x = r.normal(size=(3, 4))
        w = r.normal(size=(4, 2))
        return x, lambda t: tsum(square(matmul(t, Tensor(w))))
    if op_name == "bias_add":
        x = r.normal(size=(3,))
        y = r.normal(size=(2, 3))
        return x, lambda t: tsum(square(Tensor(y) + t))
    if op_name in ("linear_x", "linear_w", "linear_b"):
        args = {"x": r.normal(size=(2, 3, 4)), "w": r.normal(size=(4, 2)),
                "b": r.normal(size=2)}
        return _differentiate(args, op_name[-1], linear)
    if op_name in ATTENTION_CASES:
        # two heads side by side and a per-head mask, a finite bias where a
        # query reads a key, as the predictor passes it; every query keeps a
        # key. A batched q (2, 3, 8) reads shared keys and values, so their
        # gradients sum over the batch
        admits = r.random((1, 3, 5)) > 0.4
        admits[..., 0] = True
        batch = (2,) if op_name.startswith("batched") else ()
        args = {"q": r.normal(size=batch + (3, 8)), "k": r.normal(size=(5, 8)),
                "v": r.normal(size=(5, 6))}
        mask = r.normal(size=(2, 3, 5)) + additive(admits)
        return _differentiate(args, op_name.rsplit("_", 1)[1],
                              lambda q, k, v: attention(q, k, v, mask, heads=2))
    if op_name in ("layer_norm_gain", "layer_norm_bias"):
        args = {"x": r.normal(size=(2, 5)), "gain": r.normal(size=5),
                "bias": r.normal(size=5)}
        return _differentiate(args, op_name.split("_")[-1], layer_norm)
    if op_name == "attention":
        x = r.normal(size=(3, 2))
        k = r.normal(size=(4, 2))
        v = r.normal(size=(4, 3))
        b = r.normal(size=(3, 4))   # a finite mask shifts every score
        return x, lambda t: tsum(square(attention(t, Tensor(k), Tensor(v), b)))
    if op_name == "layer_norm":
        x = r.normal(size=(2, 5))
        g = r.normal(size=5)
        b = r.normal(size=5)
        return x, lambda t: tsum(square(layer_norm(t, Tensor(g), Tensor(b))))
    if op_name == "gelu":
        x = r.normal(size=(6,))
        return x, lambda t: tsum(square(gelu(t)))
    if op_name == "embedding":
        table = r.normal(size=(5, 3))
        idx = r.integers(0, 5, size=7)
        return table, lambda t: tsum(square(take_rows(t, idx)))
    if op_name == "reshape":
        x = r.normal(size=(2, 6))
        return x, lambda t: tsum(square(swapaxes(reshape(t, (3, 4)), 0, 1)))
    if op_name == "mean_sum":
        x = r.normal(size=(3, 4))
        return x, lambda t: tsum(square(tmean(t, axis=0))) + square(tsum(t))
    if op_name == "l1":
        x = r.normal(size=(4, 2))
        y = r.normal(size=(4, 2))
        return x, lambda t: l1_loss(t, Tensor(y))
    if op_name == "l2":
        x = r.normal(size=(4, 2))
        y = r.normal(size=(4, 2))
        return x, lambda t: l2_loss(t, Tensor(y))
    if op_name == "softmax":
        x = r.normal(size=(3, 5))
        m = np.ones((3, 5), dtype=bool)
        m[:, -1] = False
        return x, lambda t: tsum(square(masked_softmax(t, m)))
    raise AssertionError(op_name)


def _differentiate(args, name, op):
    """(point, fn) that differentiates ``op(**args)`` in argument ``name``."""
    def fn(t):
        tensors = {k: t if k == name else Tensor(a) for k, a in args.items()}
        return tsum(square(op(**tensors)))
    return args[name], fn


ATTENTION_CASES = [f"{batched}attention_{name}" for batched in ("", "batched_")
                   for name in ("q", "k", "v")]
OP_CLASSES = ["linear", "bias_add", "attention", "layer_norm", "gelu",
              "embedding", "reshape", "mean_sum", "l1", "l2", "softmax",
              "linear_x", "linear_w", "linear_b", *ATTENTION_CASES,
              "layer_norm_gain", "layer_norm_bias"]


class TestOpGradients:
    @pytest.mark.parametrize("op_name", OP_CLASSES)
    def test_matches_central_differences(self, op_name):
        # 10 random small instances per op class
        for seed in range(10):
            point, fn = _random_case(op_name, seed)
            assert finite_diff_check(fn, point, eps=1e-5) < 1e-4, (op_name, seed)

    def test_three_layer_composite(self):
        r = rng(42)
        w1 = Tensor(r.normal(size=(4, 4)))
        gain = Tensor(r.normal(size=4))
        bias = Tensor(r.normal(size=4))
        k = Tensor(r.normal(size=(3, 4)))
        v = Tensor(r.normal(size=(3, 4)))

        def composite(t):
            h = matmul(t, w1)
            h = layer_norm(h, gain, bias)
            h = attention(h, k, v)
            h = masked_softmax(h)
            return tsum(square(h))

        point = r.normal(size=(2, 4))
        assert finite_diff_check(composite, point, eps=1e-5) < 1e-4


class TestAttention:
    def test_single_key_returns_value(self):
        q = Tensor(rng(0).normal(size=(3, 2)))
        k = Tensor(rng(1).normal(size=(1, 2)))
        v = Tensor(np.array([[7.0, -1.0]]))
        out = attention(q, k, v)
        np.testing.assert_allclose(out.data, np.tile([7.0, -1.0], (3, 1)))

    def test_forced_winner_under_mask(self):
        r = rng(3)
        q, k = Tensor(r.normal(size=(2, 4))), Tensor(r.normal(size=(5, 4)))
        v = Tensor(r.normal(size=(5, 3)))
        mask = np.full((2, 5), -np.inf)
        mask[0, 3], mask[1, 1] = r.normal(size=2)
        out = attention(q, k, v, mask=mask)
        np.testing.assert_allclose(out.data[0], v.data[3])
        np.testing.assert_allclose(out.data[1], v.data[1])

    def test_two_by_two_against_scalar_softmax(self):
        # independent oracle: scalar softmax over the 2x2 logit matrix
        q = np.array([[1.0], [2.0]])
        k = np.array([[1.0], [0.0]])
        v = np.array([[10.0], [20.0]])
        out = attention(Tensor(q), Tensor(k), Tensor(v)).data

        expected = np.zeros((2, 1))
        for i in range(2):
            logits = [q[i, 0] * k[j, 0] / math.sqrt(1.0) for j in range(2)]
            m = max(logits)
            weights = [math.exp(z - m) for z in logits]
            total = sum(weights)
            expected[i, 0] = sum(w / total * v[j, 0] for j, w in enumerate(weights))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        r = rng(9)
        scores = Tensor(r.normal(size=(6, 8)) * 5)
        mask = r.random((6, 8)) > 0.3
        mask[:, 0] = True
        s = masked_softmax(scores, mask)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), atol=1e-12)

    def test_degenerate_row_raises(self):
        scores = Tensor(np.zeros((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValueError, match="degenerate attention row"):
            masked_softmax(scores, mask)

    @pytest.mark.parametrize("masked", [False, True])
    def test_leaves_its_inputs_and_upstream_gradient_alone(self, masked):
        """The scores are worked on in place; no input may be among them."""
        r = rng(13)
        q, k, v = (Tensor(r.normal(size=(2, 3, 4)), requires_grad=True),
                   Tensor(r.normal(size=(2, 5, 4)), requires_grad=True),
                   Tensor(r.normal(size=(2, 5, 6)), requires_grad=True))
        mask = r.normal(size=(2, 3, 5))
        if masked:
            admits = r.random((3, 5)) > 0.4
            admits[:, 0] = True
            mask = mask + additive(admits)
        g = r.normal(size=(2, 3, 6))
        inputs = (q, k, v)
        consts = [mask]
        before = [a.tobytes() for a in [t.data for t in inputs] + consts + [g]]
        out = attention(q, k, v, mask=mask, heads=2)
        assert [a.tobytes() for a in [t.data for t in inputs] + consts] == before[:-1]
        out._backward(g)
        assert [a.tobytes() for a in [t.data for t in inputs] + consts + [g]] == before
        assert all(t.grad is not None for t in inputs)

    def test_permutation_equivariance_over_keys(self):
        r = rng(11)
        q = Tensor(r.normal(size=(3, 8)))
        k = r.normal(size=(5, 8))
        v = r.normal(size=(5, 4))
        bias = r.normal(size=(2, 3, 5))
        admits = r.random((3, 5)) > 0.2
        admits[:, 2] = True
        mask = bias + additive(admits)
        perm = r.permutation(5)
        out = attention(Tensor(q.data), Tensor(k), Tensor(v), mask, heads=2).data
        out_p = attention(Tensor(q.data), Tensor(k[perm]), Tensor(v[perm]),
                          mask[..., perm], heads=2).data
        np.testing.assert_allclose(out, out_p, atol=1e-12)


class TestAdditiveMask:
    """``attention``'s mask is one additive float array that the caller
    builds once: a finite entry admits a key and shifts its score, -inf
    hides it."""

    @staticmethod
    def inputs(seed, requires_grad=False):
        r = rng(seed)
        return [Tensor(r.normal(size=shape), requires_grad=requires_grad)
                for shape in ((3, 8), (5, 8), (5, 4))]

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_non_float_mask_rejected(self, dtype):
        """A boolean or integer mask would shift the scores by its 1s."""
        admits = np.ones((3, 5), dtype=dtype)
        with pytest.raises(ValueError, match="additive float array"):
            attention(*self.inputs(0), mask=admits, heads=2)

    @pytest.mark.parametrize("heads, error", [(0, ">= 1"), (-2, ">= 1"),
                                              (2.0, "an integer"), (True, "an integer")])
    def test_bad_head_count_rejected(self, heads, error):
        """``heads=0`` leaked ``ZeroDivisionError``, and ``heads=True`` ran
        as one head."""
        with pytest.raises(ValueError, match=f"heads must be {error}"):
            attention(*self.inputs(0), heads=heads)

    @pytest.mark.parametrize("taped", [False, True])
    def test_all_masked_row_raises(self, taped):
        mask = np.zeros((3, 5))
        mask[1] = -np.inf
        with pytest.raises(ValueError, match="degenerate attention row"):
            attention(*self.inputs(1, taped), mask=mask, heads=2)

    @pytest.mark.parametrize("taped", [False, True])
    def test_nan_mask_entry_ends_in_non_finite_error(self, taped):
        """On the tape the output check names ``attention``; off it, the
        model call's check raises."""
        mask = np.zeros((3, 5))
        mask[2, 3] = np.nan
        q, k, v = self.inputs(2, taped)
        if taped:
            with pytest.raises(NonFiniteError, match="'attention'"):
                attention(q, k, v, mask=mask, heads=2)
        else:
            out = attention(q, k, v, mask=mask, heads=2)
            with pytest.raises(NonFiniteError, match="'model call'"):
                checked(out, "model call")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", ["causal", "random"])
    def test_equals_the_boolean_fill_bit_for_bit(self, seed, layout, monkeypatch):
        """Adding a per-head bias where the layout admits a key and -inf
        where it does not gives the output and the q, k and v gradients,
        byte for byte, of the same fused op that adds the finite bias and
        whose softmax fills the boolean layout's hidden scores with -inf
        (``fill_masked``), for a batch of two and two heads."""
        r = rng(seed)
        if layout == "causal":
            admits = np.tri(6, dtype=bool)
        else:
            admits = r.random((6, 6)) > 0.5
            admits[:, 4] = True
        arrays = [r.normal(size=(2, 6, 16)), r.normal(size=(2, 6, 16)),
                  r.normal(size=(2, 6, 10))]
        bias = r.normal(size=(2, 6, 6))
        weight = r.normal(size=(2, 6, 10))
        additive = _value_and_grads(
            lambda q, k, v: attention(q, k, v, np.where(admits, bias, -np.inf), heads=2),
            arrays, weight)
        softmax = T._softmax
        monkeypatch.setattr(T, "_softmax", lambda x: softmax(fill_masked(x, admits)))
        filled = _value_and_grads(lambda q, k, v: attention(q, k, v, bias, heads=2),
                                  arrays, weight)
        assert additive[0].tobytes() == filled[0].tobytes()
        for got, want in zip(additive[1], filled[1]):
            assert got.tobytes() == want.tobytes()


class TestAttentionBackward:
    """The backward's score gradient: one-key rows and the memory one call
    may take."""

    def test_row_that_admits_one_key(self):
        """Row 1 reads key 2 alone: its weight is exactly one, so its output
        is that value row and its query row gets no gradient."""
        r = rng(21)
        mask = np.zeros((4, 5))
        mask[1] = -np.inf
        mask[1, 2] = 0.0
        args = {"q": r.normal(size=(4, 8)), "k": r.normal(size=(5, 8)),
                "v": r.normal(size=(5, 6))}
        mask = mask + r.normal(size=(2, 4, 5))
        for name in args:
            point, fn = _differentiate(
                args, name, lambda q, k, v: attention(q, k, v, mask, heads=2))
            assert finite_diff_check(fn, point, eps=1e-5) < 1e-4, name
        leaves = {n: Tensor(a, requires_grad=True) for n, a in args.items()}
        out = attention(**leaves, mask=mask, heads=2)
        weight = r.normal(size=out.shape)
        tsum(out * weight).backward()
        scale = max(np.abs(t.grad).max() for t in leaves.values())
        assert np.abs(leaves["q"].grad[1]).max() <= 1e-12 * scale
        np.testing.assert_allclose(out.data[1], args["v"][2], rtol=1e-12)

    def test_backward_holds_the_output_array_not_its_tensor(self):
        """A closure that held its own output tensor would make a reference
        cycle, which only the cyclic collector frees."""
        r = rng(24)
        q = Tensor(r.normal(size=(4, 8)), requires_grad=True)
        out = attention(q, Tensor(r.normal(size=(5, 8))), Tensor(r.normal(size=(5, 8))),
                        heads=2)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(obj is out for obj in held)
        assert any(obj is out.data for obj in held)

    @pytest.mark.parametrize("needs, budget", [("qkv", 2.0), ("v", 0.5)])
    def test_backward_memory_budget(self, needs, budget):
        """One backward at L=96, d_model=32 and 4 heads allocates at most
        ``budget`` score-sized (4, 96, 96) arrays at its peak, the leaves'
        new gradients included: one score gradient, none when only v needs
        a gradient."""
        r = rng(23)
        length, width, heads = 96, 32, 4
        q, k, v = (Tensor(r.normal(size=(length, width)), requires_grad=n in needs)
                   for n in "qkv")
        out = attention(q, k, v, alibi_mask(length, heads), heads=heads)
        g = r.normal(size=out.shape)
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * heads * length * length * 8
        assert all((t.grad is not None) == (n in needs) for n, t in zip("qkv", (q, k, v)))


class TestAttentionHeadGroups:
    """The backward runs over groups of heads that fit one score block of
    ``_SCORE_BLOCK_BYTES``. A 4-head call whose scores span several groups
    gives the output and gradients of four 1-head calls on the heads' column
    slices, bit for bit."""

    HEADS, WIDTH = 4, 8

    # batch 2: at L = 200 each group holds one head; at L = 100, three, then
    # the last head alone in a part of the score buffer
    @pytest.mark.parametrize("length", [200, 100])
    @pytest.mark.parametrize("shared_kv", [False, True])
    def test_grouped_equals_per_head(self, length, shared_kv):
        """``shared_kv`` gives k and v no batch axis, so their gradients
        are summed over the batch after the loop."""
        heads, d = self.HEADS, self.WIDTH
        assert 2 * length * length * 8 * heads > T._SCORE_BLOCK_BYTES
        r = rng(31)
        kv_shape = (length, heads * d) if shared_kv else (2, length, heads * d)
        arrays = {"q": r.normal(size=(2, length, heads * d)),
                  "k": r.normal(size=kv_shape), "v": r.normal(size=kv_shape)}
        mask = r.normal(size=(heads, length, length)) + additive(np.tri(length, dtype=bool))
        g = r.normal(size=(2, length, heads * d))
        leaves = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
        out = attention(**leaves, mask=mask, heads=heads)
        out._backward(g)
        outs, grads = [], {n: [] for n in arrays}
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            part = {n: Tensor(a[..., cols], requires_grad=True) for n, a in arrays.items()}
            out_h = attention(**part, mask=mask[h], heads=1)
            out_h._backward(g[..., cols])
            outs.append(out_h.data)
            for n, t in part.items():
                grads[n].append(t.grad)
        assert out.data.tobytes() == np.concatenate(outs, axis=-1).tobytes()
        for n, t in leaves.items():
            want = np.concatenate(grads[n], axis=-1)
            assert t.grad.shape == want.shape and t.grad.tobytes() == want.tobytes(), n

    def test_no_query_rows(self):
        """An empty query makes an empty score block, and the keys and
        values get zero gradients."""
        q, k, v = (Tensor(np.ones(shape), requires_grad=True)
                   for shape in ((0, 8), (5, 8), (5, 8)))
        out = attention(q, k, v, heads=2)
        out._backward(np.ones(out.shape))
        assert q.grad.shape == (0, 8)
        assert not k.grad.any() and not v.grad.any()

    def test_non_finite_score_in_the_last_group_raises(self):
        """The scores are checked whole in the forward: a score of the last
        head that overflows, at a masked position, still raises."""
        heads, d, length = self.HEADS, self.WIDTH, 200
        r = rng(32)
        q, k, v = (r.normal(size=(2, length, heads * d)) for _ in range(3))
        q[0, 0, -d:] = k[0, -1, -d:] = 1e200   # query 0 may not read key -1
        q, k, v = (Tensor(a, requires_grad=True) for a in (q, k, v))
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="attention scores"):
            attention(q, k, v, alibi_mask(length, heads), heads=heads)


class TestGradientHandOver:
    """Ops hand the gradient arrays they build over to ``_accumulate``, and
    copy what may be a view of the upstream gradient. Each graph below
    reaches a tensor twice or sends one upstream gradient to two tensors,
    with signed zeros in the upstream arrays. Its gradients equal, bit for
    bit, those of a reference that copies every first gradient or is built
    from composed ops, and no two leaves' gradients share memory."""

    @staticmethod
    def upstream(shape, seed):
        w = rng(seed).normal(size=shape)
        w.flat[::3] = -0.0
        return w

    @staticmethod
    def grads(graph, arrays):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        graph(*leaves).backward()
        for i, t in enumerate(leaves):
            assert not any(np.shares_memory(t.grad, o.grad) for o in leaves[i + 1:])
            assert not any(np.shares_memory(t.grad, o.data) for o in leaves)
        return [t.grad for t in leaves]

    def check(self, graph, reference, arrays, monkeypatch):
        got = self.grads(graph, arrays)
        if reference is None:   # the same graph, every hand-over refused
            accumulate = Tensor._accumulate
            monkeypatch.setattr(Tensor, "_accumulate",
                                lambda self, g, own=False: accumulate(self, g))
            reference = graph
        want = self.grads(reference, arrays)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_adopts_only_an_array_of_the_tensors_shape_and_dtype(self):
        """A handed-over first gradient is kept and written in place with
        the first write's signed-zero rule; one of another dtype or shape is
        copied into a fresh array of the tensor's."""
        w = Tensor(np.ones(3), requires_grad=True)
        g = np.array([0.5, -0.0, 2.0])
        w._accumulate(g, own=True)
        assert w.grad is g and g.tobytes() == np.array([0.5, 0.0, 2.0]).tobytes()
        for data, g in ((np.ones(3, dtype=np.float32), np.ones(3)),
                        (np.ones((1, 3)), np.ones(3))):
            w = Tensor(data, requires_grad=True)
            w._accumulate(g, own=True)
            assert w.grad.dtype == data.dtype and w.grad.shape == data.shape
            assert not np.shares_memory(w.grad, g)

    @pytest.mark.parametrize("x_and_y_first", [False, True])
    def test_add_of_a_tensor_to_itself(self, x_and_y_first, monkeypatch):
        """Whichever add's backward runs first: an ``add(x, y)`` that handed
        one array to both would leave ``x`` and ``y`` one gradient."""
        w, u = self.upstream((2, 3, 4), 1)

        def graph(x, y):
            terms = [tsum(mul(add(x, x), w)), tsum(mul(add(x, y), u))]
            return terms[1] + terms[0] if x_and_y_first else terms[0] + terms[1]

        self.check(graph, None, rng(2).normal(size=(2, 3, 4)), monkeypatch)

    def test_concat_of_a_tensor_with_itself(self, monkeypatch):
        w, u = self.upstream((2, 12, 4), 3)
        self.check(lambda x, y: (tsum(mul(concat([x, x]), w))
                                 + tsum(mul(concat([x, y]), u))),
                   None, rng(4).normal(size=(2, 6, 4)), monkeypatch)

    def test_two_slices_of_one_tensor(self, monkeypatch):
        w, u = self.upstream((2, 4, 3), 5)
        self.check(lambda x: tsum(mul(take_slice(x, slice(0, 4)), w))
                   + tsum(mul(take_slice(x, slice(2, 6)), u)),
                   None, rng(6).normal(size=(1, 6, 3)), monkeypatch)

    @pytest.mark.parametrize("add_first", [False, True])
    def test_reshapes_of_one_tensor(self, add_first, monkeypatch):
        """``reshape`` hands its parent a view of the gradient it owns: ``x``
        adopts one reshape's and adds the other's into it, and an ``add``
        behind a reshape passes the view on to one parent only, whichever
        backward runs first."""
        w, u, v = (self.upstream(shape, 15 + i)
                   for i, shape in enumerate([(6, 4), (4, 6), (24,)]))

        def graph(x, y):
            terms = [tsum(mul(reshape(x, (6, 4)), w)) + tsum(mul(reshape(x, (4, 6)), u)),
                     tsum(mul(reshape(add(x, y), (24,)), v))]
            return terms[1] + terms[0] if add_first else terms[0] + terms[1]

        self.check(graph, None, rng(18).normal(size=(2, 2, 3, 4)), monkeypatch)

    @pytest.mark.parametrize("shape_y", [(2, 3, 4), (3, 1), ()])
    def test_mul_hands_over_its_products(self, shape_y, monkeypatch):
        """``mul(x, x)`` adds its second product to the first, which ``x``
        kept; a broadcast ``y`` gets its reduced product, or a 0-d one."""
        w, u = self.upstream((2, 2, 3, 4), 9)
        r = rng(10)
        self.check(lambda x, y: tsum(mul(mul(x, x), w)) + tsum(mul(mul(x, y), u)),
                   None, [r.normal(size=(2, 3, 4)), r.normal(size=shape_y)],
                   monkeypatch)

    @pytest.mark.parametrize("loss", [l1_loss, l2_loss])
    @pytest.mark.parametrize("same", [False, True])
    def test_losses_hand_over_both_gradients(self, loss, same, monkeypatch):
        """``b`` gets ``-gd``, made before ``a`` may take ``gd``; with ``a``
        and ``b`` one tensor, its two gradients cancel onto the first."""
        w = self.upstream((2, 5), 11)
        arrays = rng(12).normal(size=(2, 2, 5))
        arrays[1, 0] = arrays[0, 0]   # zero differences in the first row
        graph = ((lambda x, y: loss(x, x) + tsum(mul(add(x, y), w))) if same
                 else (lambda x, y: loss(x, y) + tsum(mul(x, w))))
        self.check(graph, None, arrays, monkeypatch)

    @pytest.mark.parametrize("broadcast", ["none", "a", "b", "both"])
    def test_add_hands_over_to_its_last_parent(self, broadcast, monkeypatch):
        """Each parent of ``add`` either takes the upstream array or its own
        reduction; at most one takes the upstream array."""
        shapes = {"none": ((2, 3), (2, 3)), "a": ((3,), (2, 3)),
                  "b": ((2, 3), (1, 3)), "both": ((2, 1), (3,))}[broadcast]
        r = rng(13)
        w = self.upstream((2, 3), 14)
        self.check(lambda x, y: tsum(mul(add(x, y), w)), None,
                   [r.normal(size=shape) for shape in shapes], monkeypatch)

    def test_linear_whose_bias_gradient_is_the_upstream(self, monkeypatch):
        """A (3, 5) bias on a (3, 5) output: its gradient is the upstream
        array itself, which the weight and input products read after it."""
        w, u = self.upstream((2, 3, 5), 7)
        r = rng(8)
        arrays = [r.normal(size=(3, 4)), r.normal(size=(4, 5)), r.normal(size=(3, 5))]
        self.check(lambda x, m, b: tsum(mul(linear(x, m, b), w)) + tsum(mul(b, u)),
                   lambda x, m, b: tsum(mul(add(matmul(x, m), b), w)) + tsum(mul(b, u)),
                   arrays, monkeypatch)


def _composed_layer_norm(x, gain, bias, eps=1e-5):
    """Reference: layer norm built from elementwise tape ops."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = x + mul(mu, -1.0)
    var = tmean(square(centered), axis=-1, keepdims=True)
    return mul(mul(centered, power(var + eps, -0.5)), gain) + bias


def _composed_attention(q, k, v, bias=None, mask=None):
    """Reference: attention built from matmul, add and masked_softmax."""
    scores = mul(matmul(q, swapaxes(k, -1, -2)), 1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        scores = scores + bias
    return matmul(masked_softmax(scores, mask), v)


def _composed_heads(q, k, v, bias=None, mask=None, heads=1):
    """Reference: heads split and merged by tape reshape/swapaxes around
    ``_composed_attention``."""
    def split(x):
        return swapaxes(reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads)), -2, -3)

    out = swapaxes(_composed_attention(split(q), split(k), split(v), bias, mask), -2, -3)
    return reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],))


def _value_and_grads(op, arrays, weight, params=()):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    for param in params:
        param.grad = None
    out = op(*leaves)
    tsum(out * weight).backward()
    return out.data, [t.grad for t in leaves + list(params)]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestFusedMatchesComposed:
    """The fused primitives agree with their composed references to 1e-12."""

    def _check(self, fused, composed, arrays, out_shape, seed):
        weight = rng(seed + 100).normal(size=out_shape)
        out_f, grads_f = _value_and_grads(fused, arrays, weight)
        out_c, grads_c = _value_and_grads(composed, arrays, weight)
        assert _rel_err(out_f, out_c) < 1e-12
        for g_f, g_c in zip(grads_f, grads_c):
            assert _rel_err(g_f, g_c) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm(self, seed):
        r = rng(seed)
        arrays = [r.normal(size=(2, 6, 8)) * 3 + 1, r.normal(size=8), r.normal(size=8)]
        self._check(layer_norm, _composed_layer_norm, arrays, (2, 6, 8), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_with_bias_and_mask(self, seed):
        r = rng(seed)
        # a batch of two, two heads and a per-head bias shared across the batch
        admits = np.tril(np.ones((1, 6, 6), dtype=bool))
        arrays = [r.normal(size=(2, 6, 16)), r.normal(size=(2, 6, 16)),
                  r.normal(size=(2, 6, 10))]
        bias = r.normal(size=(2, 6, 6))
        mask = bias + additive(admits)
        self._check(lambda q, k, v: attention(q, k, v, mask, heads=2),
                    lambda q, k, v: _composed_heads(q, k, v, bias, admits, heads=2),
                    arrays, (2, 6, 10), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_plain(self, seed):
        r = rng(seed)
        arrays = [r.normal(size=(3, 4)), r.normal(size=(7, 4)), r.normal(size=(7, 2))]
        self._check(attention, _composed_attention, arrays, (3, 2), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        r = rng(seed)
        arrays = [r.normal(size=(2, 5, 4)), r.normal(size=(4, 3)), r.normal(size=3)]
        self._check(linear, lambda x, w, b: matmul(x, w) + b, arrays, (2, 5, 3), seed)
        # a (S, 1, n) bias broadcasts the (B, n) product to (S, B, n), as a
        # head plan binds it; x's gradient sums over the S axis
        arrays = [r.normal(size=(5, 4)), r.normal(size=(4, 3)), r.normal(size=(6, 1, 3))]
        self._check(linear, lambda x, w, b: matmul(x, w) + b, arrays, (6, 5, 3), seed)


def _composed_feed_forward(x, w1, b1, w2, b2):
    return linear(gelu(linear(x, w1, b1)), w2, b2)


# (x, w1, b1, w2, b2) shapes: a rank-2 and a rank-3 x, each with a b1 that
# broadcasts over x's rows, a rank-3 x with a 1-D b1 as the modules pass
# it, and a b1 that widens the hidden layer to (S, B, n)
FF_SHAPES = {
    "rank2": [(3, 4), (4, 5), (1, 5), (5, 2), (2,)],
    "rank3": [(2, 3, 4), (4, 5), (3, 5), (5, 2), (2,)],
    "rank3_flat_b1": [(2, 3, 4), (4, 5), (5,), (5, 2), (2,)],
    "wide_b1": [(3, 4), (4, 5), (2, 1, 5), (5, 2), (2,)],
}
FF_INPUTS = ["x", "w1", "b1", "w2", "b2"]


def _ff_arrays(shapes, seed):
    r = rng(seed)
    return [r.normal(size=shape) for shape in shapes]


class TestFeedForward:
    """``feed_forward`` is ``linear(gelu(linear(...)))`` in one node."""

    @pytest.mark.parametrize("name", FF_INPUTS)
    @pytest.mark.parametrize("case", sorted(FF_SHAPES))
    def test_matches_central_differences(self, case, name):
        for seed in range(3):
            args = dict(zip(FF_INPUTS, _ff_arrays(FF_SHAPES[case], seed)))
            point, fn = _differentiate(args, name, feed_forward)
            assert finite_diff_check(fn, point, eps=1e-5) < 1e-4, (case, name, seed)

    @pytest.mark.parametrize("case", sorted(FF_SHAPES))
    def test_bit_identical_to_composed_ops(self, case):
        """Output and all five gradients, byte for byte."""
        for seed in range(3):
            arrays = _ff_arrays(FF_SHAPES[case], seed)
            out_shape = _composed_feed_forward(*arrays).data.shape
            weight = rng(seed + 100).normal(size=out_shape)
            out_f, grads_f = _value_and_grads(feed_forward, arrays, weight)
            out_c, grads_c = _value_and_grads(_composed_feed_forward, arrays, weight)
            assert out_f.tobytes() == out_c.tobytes()
            assert len(grads_f) == 5
            for g_f, g_c in zip(grads_f, grads_c):
                assert g_f.shape == g_c.shape and g_f.tobytes() == g_c.tobytes()

    def test_gradient_reaches_only_inputs_that_require_it(self):
        arrays = _ff_arrays(FF_SHAPES["rank2"], 4)
        leaves = [Tensor(a, requires_grad=name in ("w2", "x"))
                  for name, a in zip(FF_INPUTS, arrays)]
        tsum(feed_forward(*leaves)).backward()
        assert [t.grad is not None for t in leaves] == [True, False, False, True, False]

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("where", ["hidden", "output"])
    def test_overflow_raises(self, where, taped):
        """On the tape the op raises, naming the layer that overflowed. Off
        the tape it passes the non-finite output on, and the check that ends
        the model call containing it raises."""
        x, w1, b1, w2, b2 = _ff_arrays(FF_SHAPES["rank2"], 5)
        if where == "hidden":
            w1 = w1 * 1e200
            x = x * 1e200
        else:
            # a finite hidden layer of about 1e300 whose product overflows
            b1 = np.full_like(b1, 1e300)
            w2 = w2 * 1e100
        leaves = [Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
        message = "'feed_forward hidden'" if where == "hidden" else "'feed_forward'"
        with np.errstate(over="ignore", invalid="ignore"):
            if taped:
                with pytest.raises(NonFiniteError, match=message):
                    feed_forward(*leaves)
            else:
                with no_grad():
                    out = feed_forward(*leaves)
                assert not np.isfinite(out.data).all()
                with pytest.raises(NonFiniteError, match="'model call'"):
                    checked(out, "model call")

    def test_rejects_bad_ranks(self):
        x, w1, b1, w2, b2 = _ff_arrays(FF_SHAPES["rank2"], 6)
        for bad in ([x[0], w1, b1, w2, b2], [x, w1[0], b1, w2, b2],
                    [x, w1, b1, w2[None], b2]):
            with pytest.raises(ValueError, match="rank"):
                feed_forward(*bad)

    def test_untaped_node_holds_no_parents_or_closure(self):
        arrays = _ff_arrays(FF_SHAPES["rank3"], 7)
        with no_grad():
            outs = [feed_forward(*[Tensor(a, requires_grad=True) for a in arrays])]
        outs.append(feed_forward(*arrays))   # no input requires a gradient
        for out in outs:
            assert out._parents == () and out._backward is None
            assert not out.requires_grad and out.grad is None
            assert type(out.data) is np.ndarray
            assert out.data.tobytes() == _composed_feed_forward(*arrays).data.tobytes()

    def test_module_records_one_node(self):
        r = rng(9)
        ff = FeedForward(ParamStore(), "ff", 4, 6, r)
        x = r.normal(size=(3, 4))
        out = ff(Tensor(x, requires_grad=True))
        assert _taped_ops(out) == ["feed_forward"]
        want = _composed_feed_forward(x, ff.lin1.w, ff.lin1.b, ff.lin2.w, ff.lin2.b)
        assert out.data.tobytes() == want.data.tobytes()


ERF_MODULE = "scipy.special._special_ufuncs"


class TestErfLoader:
    """``feed_forward`` takes scipy's ``erf`` from its extension module, not
    from the ``scipy.special`` package."""

    def test_import_runs_no_scipy_package(self):
        """Fails, rather than skips, on any scipy that ships the ufunc where
        the loader looks, so a silent fall back to the package shows."""
        try:
            ships = hasattr(importlib.import_module(ERF_MODULE), "erf")
        except ImportError:
            ships = False
        if not ships:
            pytest.skip(f"this scipy has no {ERF_MODULE}.erf")
        src = str(Path(T.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import facestream; "
                f"print([m for m in ('scipy', 'scipy.special') if m in sys.modules])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert run.stdout.split() == ["[]"]

    def test_bytes_equal_to_the_public_erf(self):
        tiny = np.nextafter(0.0, 1.0)   # the smallest subnormal
        edges = np.array([1.0, -1.0, 8.0, -8.0])
        sweep = np.logspace(-300, 300, 601)
        x = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny],
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            sweep, -sweep, rng(0).normal(size=1000)])
        assert T._erf(x).tobytes() == scipy.special.erf(x).tobytes()

    def test_is_the_public_erf(self):
        assert scipy.special.erf is T._erf
        assert T._load_erf() is T._erf   # reuses the loaded module

    @pytest.mark.parametrize("missing", ["file", "erf"])
    def test_falls_back_to_the_public_import(self, missing, monkeypatch):
        if missing == "file":
            monkeypatch.delitem(sys.modules, ERF_MODULE)
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        else:
            monkeypatch.setitem(sys.modules, ERF_MODULE, types.ModuleType(ERF_MODULE))
        assert T._load_erf() is scipy.special.erf
        if missing == "file":
            assert ERF_MODULE not in sys.modules   # nothing was loaded


class TestFusedLosses:
    """``l1_loss`` and ``l2_loss`` each record one node whose value and
    gradients equal the composed add, mul, abs or square, sum and mean ops'
    bit for bit."""

    LOSSES = {"l1": (l1_loss, composed_l1_loss), "l2": (l2_loss, composed_l2_loss)}

    @staticmethod
    def operands(seed):
        """Normal (3, 5, 7) arrays with a = b in the first slice, so zero
        differences meet the first gradient write's signed-zero rule. At 105
        entries, -2.5 * (1 / 105) and -2.5 / 105 round apart, so the scale's
        rounding shows."""
        r = rng(seed)
        a, b = r.normal(size=(2, 3, 5, 7))
        b[0] = a[0]
        a[1, 0, :2] = b[1, 0, :2] = -0.0
        return a, b

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @pytest.mark.parametrize("upstream", [1.0, -2.5])
    @pytest.mark.parametrize("shared", [False, True])
    def test_bit_identical_to_composed_ops(self, name, upstream, shared):
        """Forward, and both gradients under a positive or negative upstream
        gradient; ``shared`` also feeds ``a`` to a second term, so its
        gradient accumulates onto an earlier write."""
        arrays = self.operands(seed=int(shared))
        runs = []
        for loss in self.LOSSES[name]:
            a, b = (Tensor(x.copy(), requires_grad=True) for x in arrays)
            out = loss(a, b)
            total = mul(out, upstream)
            if shared:
                total = total + tsum(mul(a, -0.0))
            total.backward()
            runs.append((out.data, a.grad, b.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss", [l1_loss, l2_loss])
    def test_unequal_shapes_rejected(self, loss):
        for shape in ((3, 1), (4,), (1, 4), (4, 3)):
            with pytest.raises(ValueError, match="equal shapes"):
                loss(Tensor(np.ones((3, 4)), requires_grad=True), np.ones(shape))

    @pytest.mark.parametrize("loss", [l1_loss, l2_loss])
    def test_records_one_node(self, loss, monkeypatch):
        a, b = (Tensor(x, requires_grad=True) for x in self.operands(seed=4))
        nodes = []
        record = T._node
        monkeypatch.setattr(T, "_node", lambda *args: nodes.append(args[-1]) or record(*args))
        out = loss(a, b)
        assert nodes == [loss.__name__]
        assert _taped_ops(out) == ["_mean_loss"]


class TestUntapedNodes:
    def test_zero_dimensional_results_are_arrays(self):
        """numpy returns 0-d results as scalars; a bare node keeps an array."""
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        for out in (tsum(x), l1_loss(x, np.zeros(3)), mul(tsum(x), 2.0),
                    x[1], square(tsum(x))):
            assert type(out.data) is np.ndarray and out.data.shape == ()
            assert out.data.dtype == np.float64

    def test_straight_through_value_is_a_float_array(self):
        """An integer value is coerced as a leaf would be, on or off the tape."""
        for requires_grad in (False, True):
            z = Tensor(np.zeros(3), requires_grad=requires_grad)
            out = straight_through(z, np.array([1, 2, 3]))
            assert out.data.dtype == np.float64
            np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_non_finite_output_still_raises(self):
        """An untaped op alone does not check its output; the check that
        ends the model call containing it raises."""
        with np.errstate(over="ignore"), no_grad():
            out = square(Tensor(np.array([1e200]), requires_grad=True))
        assert np.isinf(out.data).all()
        with pytest.raises(NonFiniteError, match="'model call'"):
            checked(out, "model call")

    def test_checked_leaves_taped_tensors_to_the_tape(self, monkeypatch):
        """A taped node was checked when it was recorded, so ``checked``
        does not check it again; an untaped one it checks once."""
        calls = []
        check = T._check_finite
        monkeypatch.setattr(T, "_check_finite", lambda *a: calls.append(a[1]) or check(*a))
        x = Tensor(np.ones(3), requires_grad=True)
        taped = mul(x, x)
        with no_grad():
            bare = mul(x, x)
        assert calls == ["leaf", "mul"]
        assert checked(taped, "call") is taped and checked(bare, "call") is bare
        assert calls == ["leaf", "mul", "call"]


def _taped_ops(out):
    """Names of the ops whose nodes lead to ``out`` on the tape."""
    return [node._backward.__qualname__.split(".")[0]
            for node in T._topo_order(out) if node._backward is not None]


class TestMultiHeadAttention:
    """One ``attention`` call matches heads split and merged on the tape."""

    @pytest.mark.parametrize("setting", ["alibi_causal", "cross"])
    def test_matches_composed_reference(self, setting):
        r = rng(7)
        store = ParamStore()
        if setting == "alibi_causal":
            mha = MultiHeadAttention(store, "attn", 8, 2, r)
            inputs = [r.normal(size=(5, 8))]   # self-attention: one input
            mask, admits = alibi_mask(5, 2), np.tri(5, dtype=bool)
            bias = np.where(admits, mask, 0.0)
        else:
            # a batch of two; keys and values come from a second sequence
            mha = MultiHeadAttention(store, "attn", 8, 2, r)
            inputs = [r.normal(size=(2, 4, 8)), r.normal(size=(2, 7, 8))]
            bias, admits = None, r.random((4, 7)) > 0.3
            admits[:, 0] = True
            mask = additive(admits)

        def composed(x_q, x_kv=None):
            x_kv = x_q if x_kv is None else x_kv
            out = _composed_heads(mha.wq(x_q), matmul(x_kv, mha.wk), mha.wv(x_kv), bias,
                                  admits, heads=2)
            return mha.wo(out)

        def fused(x_q, x_kv=None):
            x_kv = x_q if x_kv is None else x_kv
            return mha(x_q, x_kv, mask=mask)

        weight = r.normal(size=inputs[0].shape)
        out_f, grads_f = _value_and_grads(fused, inputs, weight, store.tensors())
        out_c, grads_c = _value_and_grads(composed, inputs, weight, store.tensors())
        assert _rel_err(out_f, out_c) < 1e-12
        names = [f"input{i}" for i in range(len(inputs))] + store.names()
        assert len(grads_f) == len(names) == len(inputs) + 7
        for name, g_f, g_c in zip(names, grads_f, grads_c):
            assert _rel_err(g_f, g_c) < 1e-12, name

    def test_records_four_linear_nodes_and_one_attention_node(self):
        r = rng(8)
        mha = MultiHeadAttention(ParamStore(), "attn", 8, 2, r)
        x = Tensor(r.normal(size=(5, 8)), requires_grad=True)
        out = mha(x, x, mask=alibi_mask(5, 2))
        assert sorted(_taped_ops(out)) == ["attention"] + ["linear"] * 4

    @pytest.mark.parametrize("heads, error", [(0, ">= 1"), (-2, ">= 1"),
                                              (2.0, "an integer"), (True, "an integer")])
    def test_bad_head_count_rejected(self, heads, error):
        """``num_heads=0`` leaked ``ZeroDivisionError``, and 2.0 and -2
        built a layer."""
        with pytest.raises(ValueError, match=f"num_heads must be {error}"):
            MultiHeadAttention(ParamStore(), "attn", 8, heads, rng(0))


class TestStraightThrough:
    def test_forward_is_exact_and_grad_is_identity(self):
        z = Tensor(np.array([[0.3, 0.7]]), requires_grad=True)
        snapped = np.array([[0.0, 1.0]])
        out = straight_through(z, snapped)
        assert out.data is not snapped  # defensive copy
        np.testing.assert_array_equal(out.data, snapped)
        tsum(out * np.array([[2.0, 5.0]])).backward()
        np.testing.assert_allclose(z.grad, [[2.0, 5.0]])


def build_benchmark_model(model: str):
    """The benchmark's models, as perfbench/workloads.py ``build_models``
    sizes them."""
    p, c = PredictorConfig(num_speakers=8), CodecConfig()
    if model == "codec":
        return MotionCodec(c, seed=14)
    if model == "head":
        return DiffusionHead((c.components, c.width), p.hidden, 256, 1000, seed=13)
    return ConditionPredictor(p, seed=12)


class TestInitialisers:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 256)])
    def test_initialisers_draw_numpys_numbers(self, shape):
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            limit = math.sqrt(6.0 / sum(shape))
            assert glorot_uniform(a, *shape).tobytes() == \
                b.uniform(-limit, limit, shape).tobytes()
            assert normal_init(a, shape).tobytes() == \
                b.normal(0.0, INIT_STD, shape).tobytes()
            assert a.random() == b.random()   # both took the same draws

    @pytest.mark.parametrize("model", ["codec", "head", "predictor"])
    def test_models_draw_weights_on_cache_lines(self, model):
        """Every weight matrix, table and codebook starts on a 64-byte cache
        line, wherever the heap put its buffer."""
        for name, t in build_benchmark_model(model).store.items():
            if t.data.ndim == 2:
                assert t.data.ctypes.data % CACHE_LINE == 0, name


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.create("w", np.zeros(2))
        with pytest.raises(ValueError):
            store.create("w", np.zeros(2))

    def test_load_state_shape_checked(self):
        store = ParamStore()
        store.create("w", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            store.load_state({"w": np.zeros(3)})

    def make_store(self):
        store = ParamStore()
        store.create("a", np.zeros(2))
        store.create("b", np.zeros((2, 2)))
        return store

    def assert_load_rejected(self, state, error):
        store = self.make_store()
        with pytest.raises(error):
            store.load_state(state)
        for name in ("a", "b"):   # nothing was written
            np.testing.assert_array_equal(store[name].data, 0.0)

    def test_load_state_missing_name_rejected(self):
        self.assert_load_rejected({"a": np.ones(2)}, DataError)

    def test_load_state_unexpected_name_rejected(self):
        self.assert_load_rejected(
            {"a": np.ones(2), "b": np.ones((2, 2)), "c": np.ones(1)}, DataError)

    def test_load_state_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            self.assert_load_rejected(
                {"a": np.ones(2), "b": np.full((2, 2), bad)}, DataError)

    def test_failed_load_leaves_store_unchanged(self):
        self.assert_load_rejected({"a": np.ones(2), "b": np.ones(3)}, ValueError)

    def test_load_state_round_trip(self):
        store = self.make_store()
        state = {"a": np.arange(2.0), "b": np.arange(4.0).reshape(2, 2)}
        store.load_state(state)
        for name, arr in state.items():
            np.testing.assert_array_equal(store[name].data, arr)

    @pytest.mark.parametrize("model", ["codec", "head", "predictor"])
    def test_load_state_writes_into_each_parameter(self, model):
        """A load keeps every parameter's buffer: each 2-D parameter still
        starts on a cache line, the head's first-layer blocks stay blocks of
        its one drawn matrix, and the loaded values read back exactly."""
        store = build_benchmark_model(model).store
        buffers = {name: t.data for name, t in store.items()}
        state = {name: a * 0.5 + 1.0 for name, a in store.state().items()}
        store.load_state(state)
        for name, t in store.items():
            assert t.data is buffers[name], name
            assert t.data.tobytes() == state[name].tobytes(), name
            if t.data.ndim == 2:
                assert t.data.ctypes.data % CACHE_LINE == 0, name
        if model == "head":
            base = store["lin1.wz"].data.base
            assert base is not None
            assert store["lin1.wc"].data.base is base
            assert store["lin1.wt"].data.base is base

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_create_keeps_a_writeable_float_array(self, dtype):
        array = np.arange(6, dtype=dtype).reshape(2, 3)
        assert ParamStore().create("w", array).data is array
        rows = array[:1]   # a view stays a view of the same buffer
        assert ParamStore().create("w", rows).data is rows

    def test_create_copies_other_inputs(self):
        read_only = np.arange(3.0)
        read_only.setflags(write=False)
        for given in (read_only, np.arange(3), [0.0, 1.0, 2.0]):
            t = ParamStore().create("w", given)
            assert t.data.flags.writeable and t.data.dtype == np.float64
            assert not np.shares_memory(t.data, np.asarray(given))
            np.testing.assert_array_equal(t.data, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("model", ["codec", "head", "predictor"])
    def test_models_build_without_copying_parameters(self, model):
        """A model's parameters are the arrays its initialisers drew, so
        building it allocates little beyond what it keeps: a leaf's finite
        check makes a boolean temporary of an eighth of a float64
        parameter's bytes, while a copy of a parameter takes all of them.
        The traced peak of a build exceeded the bytes still live after it
        by 1600, 270 and 52 KB (head, predictor, codec) while ``create``
        copied its array, and by 64, 14 and 7 KB since it keeps it."""
        build_benchmark_model(model)   # fills the caches that later builds read
        tracemalloc.start()
        try:
            built = build_benchmark_model(model)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(t.data.nbytes for _, t in built.store.items())
        assert peak - live < largest / 4

    def test_no_grad_suppresses_tape(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = square(w)
        assert not out.requires_grad
