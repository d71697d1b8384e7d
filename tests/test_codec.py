"""Codec tests: quantizer exactness, padding law, straight-through gradients."""

import numpy as np
import pytest

from facestream.codec import (
    MAX_POSITION,
    CodecConfig,
    MotionCodec,
    MotionSequence,
    pad_to_units,
    quantize,
)
from facestream.fileio import DataError
from facestream.tensor import NonFiniteError, Tensor, as_tensor, no_grad
from facestream.training import stage1_loss
from finite_diff import finite_diff_check
from non_finite import assert_never_returns_non_finite


def tiny_codec(seed=0, **overrides):
    cfg = dict(vertices=5, width=8, codebook_size=6, components=2, layers=1,
               heads=2, ff=16)
    cfg.update(overrides)
    return MotionCodec(CodecConfig(**cfg), seed=seed)


def brute_force_nearest(vectors, entries):
    """Independent oracle: per-vector python scan, strict < keeps lowest index."""
    out = []
    for vec in vectors:
        best, best_d = 0, float("inf")
        for j, entry in enumerate(entries):
            d = float(sum((a - b) ** 2 for a, b in zip(vec, entry)))
            if d < best_d:
                best, best_d = j, d
        out.append(best)
    return np.array(out)


class TestQuantizer:
    def test_exact_entry_hits_index_with_zero_distance(self):
        entries = np.random.default_rng(0).normal(size=(8, 4))
        z = entries[3].reshape(1, 1, 4).copy()
        indices = quantize(z, entries)
        assert indices.shape == (1, 1)
        assert indices[0, 0] == 3

    def test_tie_breaks_to_lowest_index(self):
        entries = np.zeros((4, 3))
        entries[1] = [1.0, 0.0, 0.0]
        entries[2] = [1.0, 0.0, 0.0]  # duplicate of entry 1
        z = np.array([[[1.1, 0.0, 0.0]]])
        assert quantize(z, entries)[0, 0] == 1

    def test_matches_exhaustive_scan(self):
        r = np.random.default_rng(7)
        entries = r.normal(size=(8, 4))
        vectors = r.normal(size=(100, 4))
        got = quantize(vectors, entries)
        np.testing.assert_array_equal(got, brute_force_nearest(vectors, entries))
        # codec scale, C = K = 64, with some vectors equal to entries
        entries = r.normal(size=(64, 64))
        vectors = np.concatenate([r.normal(size=(40, 64)), entries[[0, 17, 63]]])
        got = quantize(vectors, entries)
        np.testing.assert_array_equal(got, brute_force_nearest(vectors, entries))
        np.testing.assert_array_equal(got[-3:], [0, 17, 63])

    def test_idempotent_on_quantized_codes(self):
        r = np.random.default_rng(3)
        entries = r.normal(size=(6, 4))
        z = r.normal(size=(5, 2, 4))
        indices = quantize(z, entries)
        np.testing.assert_array_equal(quantize(entries[indices], entries), indices)

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError, match="empty codebook"):
            quantize(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(DataError):
            quantize(np.zeros((1, 1, 3)), np.zeros((4, 5)))


class TestConfig:
    @pytest.mark.parametrize("field", ["vertices", "width", "codebook_size",
                                       "components", "layers", "heads", "ff"])
    @pytest.mark.parametrize("value", [0, -1, 2.0, 2.5, True])
    def test_counts_must_be_positive_integers(self, field, value):
        """``components=2.0`` used to leak numpy's ``TypeError`` and
        ``layers=-1`` to build a codec with no blocks."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            CodecConfig(**{field: value})

    def test_odd_width_rejected_at_construction(self):
        """An odd width used to fail only at the first encode."""
        with pytest.raises(ValueError, match="width must be even"):
            CodecConfig(width=7)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_bad_seed_rejected_at_construction(self, seed):
        """A float seed leaked numpy's ``TypeError``."""
        with pytest.raises(ValueError, match="seed must be"):
            MotionCodec(CodecConfig(), seed=seed)


class TestPadding:
    def test_aligned_input_unchanged(self):
        x = np.random.default_rng(0).normal(size=(6, 4, 3))
        assert pad_to_units(x, 3) is x

    def test_pads_by_repeating_last_frame(self):
        x = np.arange(5 * 2 * 3, dtype=float).reshape(5, 2, 3)
        padded = pad_to_units(x, 4)
        assert padded.shape[0] == 8
        for row in padded[5:]:
            np.testing.assert_array_equal(row, x[-1])


class TestEncodeDecode:
    def test_shape_law_single_unit(self):
        codec = tiny_codec()
        x = np.random.default_rng(1).normal(size=(2, 5, 3))  # T = H = 2
        z = codec.encode(x)
        assert z.data.shape == (1, 2, 8)

    def test_padding_rule_shape(self):
        codec = tiny_codec()
        x = np.random.default_rng(2).normal(size=(3, 5, 3))  # H+1 -> padded to 2H
        z = codec.encode(x)
        assert z.data.shape == (2, 2, 8)

    def test_encoder_not_constant_in_last_frame(self):
        codec = tiny_codec()
        r = np.random.default_rng(3)
        x = r.normal(size=(4, 5, 3))
        y = x.copy()
        y[-1] += r.normal(size=(5, 3))
        za = codec.encode(x)
        zb = codec.encode(y)
        assert np.abs(za.data - zb.data).max() > 0

    def test_vertex_mismatch_rejected(self):
        codec = tiny_codec()
        with pytest.raises(DataError):
            codec.encode(np.zeros((4, 7, 3)))

    def test_round_trip_shape_and_determinism(self):
        codec = tiny_codec()
        x = np.random.default_rng(4).normal(size=(5, 5, 3))
        with no_grad():
            first, second = (codec.decode(codec.encode_quantized(x), frames=len(x)).data
                             for _ in range(2))
        assert first.shape == x.shape
        np.testing.assert_array_equal(first, second)

    def test_zero_frames_rejected(self):
        codec = tiny_codec()
        with pytest.raises(DataError, match="no frames"):
            codec.encode(np.zeros((0, 5, 3)))
        with pytest.raises(DataError, match="latent shape"):
            codec.decode(np.zeros((0, 2, 8)))

    def test_zero_latents_decode_deterministic(self):
        codec = tiny_codec()
        with no_grad():
            a = codec.decode(np.zeros((3, 2, 8))).data
            b = codec.decode(np.zeros((3, 2, 8))).data
        np.testing.assert_array_equal(a, b)

    def test_decode_width_mismatch_rejected(self):
        codec = tiny_codec()
        with pytest.raises(DataError):
            codec.decode(np.zeros((3, 2, 9)))

    def test_decode_frames_bounded_by_the_units(self):
        codec = tiny_codec()   # 2 units of H = 2 frames
        codes = np.random.default_rng(6).normal(size=(2, 2, 8))
        with no_grad():
            full = codec.decode(codes).data
            for frames in (1, 3, 4):
                np.testing.assert_array_equal(codec.decode(codes, frames=frames).data,
                                              full[:frames])
            for frames in (0, -3, 5, 100, 1.5, 2.0, "2"):
                with pytest.raises(ValueError, match="frames"):
                    codec.decode(codes, frames=frames)
            np.testing.assert_array_equal(codec.decode(codes, frames=np.int64(3)).data,
                                          full[:3])

    def test_decode_rejects_bool_frames(self):
        """A bool is not taken for 1 or 0 frames, as no integer input takes it."""
        codec = tiny_codec()
        codes = np.random.default_rng(6).normal(size=(2, 2, 8))
        for frames in (True, False):
            with pytest.raises(ValueError, match="frames must be an integer"):
                codec.decode(codes, frames=frames)

    def test_decode_rejects_bad_offsets(self):
        """``offset_frames`` is checked as ``frames`` is: an integer, not a
        bool, at least 0, and small enough that every row's position is an
        exact float64 integer."""
        codec = tiny_codec()   # 2 units of H = 2 frames
        codes = np.random.default_rng(6).normal(size=(2, 2, 8))
        last = MAX_POSITION - 4
        for offset in (2.5, 3.0, "2", None, True, False, -1, -3, last + 1, 10 ** 20):
            with pytest.raises(ValueError, match="offset_frames"):
                codec.decode(codes, offset_frames=offset)
        with no_grad():
            at_five = codec.decode(codes, offset_frames=5).data
            np.testing.assert_array_equal(
                codec.decode(codes, offset_frames=np.int64(5)).data, at_five)
            assert np.isfinite(codec.decode(codes, offset_frames=last).data).all()

    def test_quantized_codes_are_exact_codebook_rows(self):
        codec = tiny_codec()
        x = np.random.default_rng(5).normal(size=(4, 5, 3))
        codes = codec.encode_quantized(x)
        assert codes.shape == (2, 2, 8)
        indices = quantize(codec.encode(x).data, codec.codebook.data)
        np.testing.assert_array_equal(codes, codec.codebook.data[indices])


class TestStage1Loss:
    def test_zero_when_perfect(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 3))
        z = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4)))
        total, rec, quant = stage1_loss(x, as_tensor(x.copy()), z,
                                        as_tensor(z.data.copy()))
        assert total.item() == 0.0
        assert rec.item() == 0.0
        assert quant.item() == 0.0

    def test_unit_residual_closed_form(self):
        # z_hat - z_q = all ones, rec = 0: quant = 1 + 0.25 = 1.25
        x = np.zeros((2, 3, 3))
        z_hat = Tensor(np.ones((2, 2, 4)))
        z_q = as_tensor(np.zeros((2, 2, 4)))
        total, rec, quant = stage1_loss(x, as_tensor(x.copy()), z_hat, z_q)
        assert rec.item() == 0.0
        assert quant.item() == pytest.approx(1.25, abs=1e-15)
        assert total.item() == pytest.approx(1.25, abs=1e-15)

    def test_matches_scalar_recomputation(self):
        r = np.random.default_rng(9)
        x = r.normal(size=(3, 2, 3))
        x_hat = r.normal(size=(3, 2, 3))
        z_hat = r.normal(size=(2, 2, 5))
        z_q = r.normal(size=(2, 2, 5))
        total, rec, quant = stage1_loss(x, as_tensor(x_hat), Tensor(z_hat),
                                        as_tensor(z_q))
        # independent scalar recomputation
        rec_ref = float(np.mean(np.abs(x_hat - x)))
        quant_ref = float(np.mean((z_hat - z_q) ** 2)
                          + 0.25 * np.mean((z_hat - z_q) ** 2))
        assert rec.item() == pytest.approx(rec_ref, rel=1e-12)
        assert quant.item() == pytest.approx(quant_ref, rel=1e-12)
        assert total.item() == pytest.approx(rec_ref + quant_ref, rel=1e-12)


class TestStraightThrough:
    def test_gradient_matches_identity_pass_surrogate(self):
        """Straight-through gradients equal finite differences of the surrogate
        graph where quantization is frozen to (z_hat + constant offset), the
        codebook indices are fixed, and every stop-gradient argument is
        replaced by its base-point value (a true constant under FD)."""
        codec = tiny_codec(seed=11)
        x = np.random.default_rng(12).normal(size=(4, 5, 3)) * 0.5

        z_hat = codec.encode(x)
        indices, st, gathered = codec.quantize_latents(z_hat)
        x_hat = codec.decode(st, frames=len(x))
        total, _, _ = stage1_loss(x, x_hat, z_hat, gathered)
        total.backward()
        analytic = {n: t.grad.copy() for n, t in codec.store.items()}

        frozen_idx = indices.copy()
        frozen_offset = codec.codebook.data[indices] - z_hat.data
        z_hat_base = z_hat.data.copy()
        gathered_base = gathered.data.copy()

        from facestream.tensor import add as tadd, l1_loss, l2_loss, reshape, take_rows

        def surrogate():
            z_hat = codec.encode(x)
            st = tadd(z_hat, frozen_offset)
            gathered = reshape(take_rows(codec.codebook, frozen_idx.reshape(-1)),
                               z_hat.data.shape)
            x_hat = codec.decode(st, frames=len(x))
            rec = l1_loss(x_hat, x)
            quant = tadd(l2_loss(gathered, z_hat_base),
                         0.25 * l2_loss(z_hat, gathered_base))
            return tadd(rec, quant)

        eps = 1e-5
        worst = 0.0
        # spot-check a few parameters end to end, including the codebook
        for name in ["enc.embed.w", "codebook", "dec.out.b", "enc.block0.attn.wq.w"]:
            tensor = codec.store[name]
            flat = tensor.data.reshape(-1)
            picks = np.linspace(0, flat.size - 1, min(6, flat.size)).astype(int)
            for i in picks:
                original = flat[i]
                flat[i] = original + eps
                with no_grad():
                    f_plus = surrogate().item()
                flat[i] = original - eps
                with no_grad():
                    f_minus = surrogate().item()
                flat[i] = original
                central = (f_plus - f_minus) / (2 * eps)
                rel = abs(analytic[name].reshape(-1)[i] - central) / max(1.0, abs(central))
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_decoder_input_is_exact_codebook_entries(self):
        codec = tiny_codec(seed=1)
        x = np.random.default_rng(2).normal(size=(4, 5, 3))
        z_hat = codec.encode(x)
        indices, st, _ = codec.quantize_latents(z_hat)
        np.testing.assert_array_equal(st.data, codec.codebook.data[indices])


class TestMotionSequence:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MotionSequence(np.zeros((3, 4)), 25.0)

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            MotionSequence(bad, 25.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0, True, "25"])
    def test_bad_frame_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="frame rate must be finite and positive"):
            MotionSequence(np.zeros((2, 2, 3)), rate)


@pytest.mark.parametrize("weight", ["dec.block0.ff.lin1.w", "dec.block0.ff.lin2.w",
                                    "dec.out.w"])
def test_decode_raises_before_returning_non_finite_frames(weight):
    """The stream's decode keeps its finite checks: scale one decoder weight
    until decode stops returning, and every frame it returned on the way was
    finite."""
    codec = tiny_codec()
    codes = np.random.default_rng(3).normal(size=(1, 2, 8))
    param = codec.store[weight]
    with np.errstate(over="ignore", invalid="ignore"), no_grad():
        for _ in range(5):
            param.data *= 1e100
            try:
                frames = codec.decode(codes, offset_frames=8).data
            except NonFiniteError:
                return
            assert np.isfinite(frames).all()
    pytest.fail("the scaled weight never overflowed")


def swept_codec():
    return tiny_codec(seed=2, layers=2)


@pytest.mark.parametrize("name", swept_codec().decoder_param_names())
def test_decode_never_returns_non_finite_frames(name):
    """Off the tape decode checks only the frames it returns: whatever one
    decoder parameter holds, it raises or returns finite frames, also when
    it drops trailing rows."""
    codec = swept_codec()
    codes = np.random.default_rng(3).normal(size=(2, 2, 8))
    assert_never_returns_non_finite(
        lambda: codec.decode(codes, frames=3, offset_frames=8).data, codec.store[name])


@pytest.mark.parametrize("name", [n for n in swept_codec().store.names()
                                  if n.startswith("enc.") or n == "codebook"])
def test_encode_quantized_never_returns_non_finite_codes(name):
    """A NaN latent would pick a finite codebook row through the argmin, so
    the encoder's own check must raise before quantizing; a spoiled
    codebook raises at the gathered rows."""
    codec = swept_codec()
    x = np.random.default_rng(4).normal(size=(3, 5, 3))
    assert_never_returns_non_finite(lambda: codec.encode_quantized(x), codec.store[name])
