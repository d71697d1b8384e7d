"""Codec tests: quantizer exactness, padding law, straight-through gradients."""

import numpy as np
import pytest

from facestream.codec import (
    CodecConfig,
    MotionCodec,
    MotionSequence,
    nearest_indices,
    pad_to_units,
    quantize,
    stage1_loss,
)
from facestream.fileio import DataError
from facestream.tensor import Tensor, as_tensor, finite_diff_check, no_grad


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
        grid = quantize(z, entries)
        assert grid.indices[0, 0] == 3
        np.testing.assert_array_equal(grid.codes[0, 0], entries[3])

    def test_tie_breaks_to_lowest_index(self):
        entries = np.zeros((4, 3))
        entries[1] = [1.0, 0.0, 0.0]
        entries[2] = [1.0, 0.0, 0.0]  # duplicate of entry 1
        z = np.array([[[1.1, 0.0, 0.0]]])
        assert quantize(z, entries).indices[0, 0] == 1

    def test_matches_exhaustive_scan(self):
        r = np.random.default_rng(7)
        entries = r.normal(size=(8, 4))
        vectors = r.normal(size=(100, 4))
        got = nearest_indices(vectors, entries)
        np.testing.assert_array_equal(got, brute_force_nearest(vectors, entries))
        # codec scale, C = K = 64, with some vectors equal to entries
        entries = r.normal(size=(64, 64))
        vectors = np.concatenate([r.normal(size=(40, 64)), entries[[0, 17, 63]]])
        got = nearest_indices(vectors, entries)
        np.testing.assert_array_equal(got, brute_force_nearest(vectors, entries))
        np.testing.assert_array_equal(got[-3:], [0, 17, 63])

    def test_idempotent_on_quantized_codes(self):
        r = np.random.default_rng(3)
        entries = r.normal(size=(6, 4))
        z = r.normal(size=(5, 2, 4))
        grid = quantize(z, entries)
        again = quantize(grid.codes, entries)
        np.testing.assert_array_equal(grid.indices, again.indices)

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError, match="empty codebook"):
            nearest_indices(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(DataError):
            quantize(np.zeros((1, 1, 3)), np.zeros((4, 5)))


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
        first = codec.reconstruct(x)
        second = codec.reconstruct(x)
        assert first.shape == x.shape
        np.testing.assert_array_equal(first, second)

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
            for frames in (0, -3, 5, 100):
                with pytest.raises(ValueError, match="frames"):
                    codec.decode(codes, frames=frames)

    def test_quantized_codes_are_exact_codebook_rows(self):
        codec = tiny_codec()
        x = np.random.default_rng(5).normal(size=(4, 5, 3))
        grid = codec.encode_quantized(x)
        np.testing.assert_array_equal(grid.codes,
                                      codec.codebook.data[grid.indices])


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
        grid, st, gathered = codec.quantize_latents(z_hat)
        x_hat = codec.decode(st, frames=len(x))
        total, _, _ = stage1_loss(x, x_hat, z_hat, gathered)
        total.backward()
        analytic = {n: t.grad.copy() for n, t in codec.store.items()}

        frozen_idx = grid.indices.copy()
        frozen_offset = grid.codes - z_hat.data
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
        grid, st, _ = codec.quantize_latents(z_hat)
        np.testing.assert_array_equal(st.data, codec.codebook.data[grid.indices])


class TestMotionSequence:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MotionSequence(np.zeros((3, 4)), 25.0)

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            MotionSequence(bad, 25.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_frame_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="frame rate must be finite and positive"):
            MotionSequence(np.zeros((2, 2, 3)), rate)
