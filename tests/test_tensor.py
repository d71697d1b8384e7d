"""Tape engine tests: gradients against central differences, attention laws."""

import math

import numpy as np
import pytest

from composed_ops import masked_softmax, matmul, power, swapaxes
from facestream import tensor as T
from facestream.fileio import DataError
from facestream.nn import MultiHeadAttention, alibi_bias, causal_mask
from facestream.tensor import (
    NonFiniteError,
    ParamStore,
    Tensor,
    attention,
    finite_diff_check,
    gelu,
    layer_norm,
    linear,
    l1_loss,
    l2_loss,
    mul,
    no_grad,
    reshape,
    square,
    stop_gradient,
    straight_through,
    take_rows,
    tmean,
    tsum,
)


def rng(seed=0):
    return np.random.default_rng(seed)


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
        mask = np.array([[True, False]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            attention(q, k, v, mask=mask)

    def test_attention_overflowing_bias_sum_raises(self):
        # finite scores and a finite bias whose sum overflows
        q = Tensor(np.array([[1e307, 0.0]]))
        k = Tensor(np.ones((2, 2)))
        bias = Tensor(np.array([[1.79e308, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            attention(q, k, Tensor(np.ones((2, 1))), bias=bias)

    def test_stop_gradient_blocks(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        loss = tsum(stop_gradient(w) * w)
        loss.backward()
        np.testing.assert_allclose(w.grad, [2.0])  # only the live branch


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
    if op_name in ("attention_q", "attention_k", "attention_v", "attention_bias"):
        # two heads side by side, a per-head bias and a mask shared across the
        # head axis, as the predictor passes them; every query keeps a key
        mask = r.random((1, 3, 5)) > 0.4
        mask[..., 0] = True
        args = {"q": r.normal(size=(3, 8)), "k": r.normal(size=(5, 8)),
                "v": r.normal(size=(5, 6)), "bias": r.normal(size=(2, 3, 5))}
        return _differentiate(args, op_name.split("_")[1],
                              lambda q, k, v, bias: attention(q, k, v, bias, mask,
                                                              heads=2))
    if op_name in ("layer_norm_gain", "layer_norm_bias"):
        args = {"x": r.normal(size=(2, 5)), "gain": r.normal(size=5),
                "bias": r.normal(size=5)}
        return _differentiate(args, op_name.split("_")[-1], layer_norm)
    if op_name == "attention":
        x = r.normal(size=(3, 2))
        k = r.normal(size=(4, 2))
        v = r.normal(size=(4, 3))
        b = r.normal(size=(3, 4))
        return x, lambda t: tsum(square(attention(t, Tensor(k), Tensor(v), bias=Tensor(b))))
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


OP_CLASSES = ["linear", "bias_add", "attention", "layer_norm", "gelu",
              "embedding", "reshape", "mean_sum", "l1", "l2", "softmax",
              "linear_x", "linear_w", "linear_b", "attention_q", "attention_k",
              "attention_v", "attention_bias", "layer_norm_gain", "layer_norm_bias"]


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
        bias = Tensor(r.normal(size=(2, 5)))
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 3] = True
        mask[1, 1] = True
        out = attention(q, k, v, bias=bias, mask=mask)
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

    def test_permutation_equivariance_over_keys(self):
        r = rng(11)
        q = Tensor(r.normal(size=(3, 8)))
        k = r.normal(size=(5, 8))
        v = r.normal(size=(5, 4))
        bias = r.normal(size=(2, 3, 5))
        mask = r.random((3, 5)) > 0.2
        mask[:, 2] = True
        perm = r.permutation(5)
        out = attention(Tensor(q.data), Tensor(k), Tensor(v), Tensor(bias), mask,
                        heads=2).data
        out_p = attention(Tensor(q.data), Tensor(k[perm]), Tensor(v[perm]),
                          Tensor(bias[..., perm]), mask[:, perm], heads=2).data
        np.testing.assert_allclose(out, out_p, atol=1e-12)


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
        mask = np.tril(np.ones((1, 6, 6), dtype=bool))
        arrays = [r.normal(size=(2, 6, 16)), r.normal(size=(2, 6, 16)),
                  r.normal(size=(2, 6, 10)), r.normal(size=(2, 6, 6))]
        self._check(lambda q, k, v, b: attention(q, k, v, b, mask, heads=2),
                    lambda q, k, v, b: _composed_heads(q, k, v, b, mask, heads=2),
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
            bias, mask = alibi_bias(5, 2), causal_mask(5)
        else:
            # a batch of two; keys and values come from a narrower memory
            mha = MultiHeadAttention(store, "attn", 8, 2, r, d_kv=6)
            inputs = [r.normal(size=(2, 4, 8)), r.normal(size=(2, 7, 6))]
            bias, mask = None, r.random((4, 7)) > 0.3
            mask[:, 0] = True

        def composed(x_q, x_kv=None):
            x_kv = x_q if x_kv is None else x_kv
            out = _composed_heads(mha.wq(x_q), mha.wk(x_kv), mha.wv(x_kv), bias, mask,
                                  heads=2)
            return mha.wo(out)

        def fused(x_q, x_kv=None):
            x_kv = x_q if x_kv is None else x_kv
            return mha(x_q, x_kv, bias=bias, mask=mask)

        weight = r.normal(size=inputs[0].shape)
        out_f, grads_f = _value_and_grads(fused, inputs, weight, store.tensors())
        out_c, grads_c = _value_and_grads(composed, inputs, weight, store.tensors())
        assert _rel_err(out_f, out_c) < 1e-12
        assert len(grads_f) == len(inputs) + 8
        for g_f, g_c in zip(grads_f, grads_c):
            assert _rel_err(g_f, g_c) < 1e-12

    def test_records_four_linear_nodes_and_one_attention_node(self):
        r = rng(8)
        mha = MultiHeadAttention(ParamStore(), "attn", 8, 2, r)
        x = Tensor(r.normal(size=(5, 8)), requires_grad=True)
        out = mha(x, x, bias=alibi_bias(5, 2), mask=causal_mask(5))
        assert sorted(_taped_ops(out)) == ["attention"] + ["linear"] * 4


class TestStraightThrough:
    def test_forward_is_exact_and_grad_is_identity(self):
        z = Tensor(np.array([[0.3, 0.7]]), requires_grad=True)
        snapped = np.array([[0.0, 1.0]])
        out = straight_through(z, snapped)
        assert out.data is not snapped  # defensive copy
        np.testing.assert_array_equal(out.data, snapped)
        tsum(out * np.array([[2.0, 5.0]])).backward()
        np.testing.assert_allclose(z.grad, [[2.0, 5.0]])


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

    def test_no_grad_suppresses_tape(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = square(w)
        assert not out.requires_grad
