"""Audio frontend tests: frame-count law, resampling oracle, style embedding."""

import numpy as np
import pytest

from facestream import audio
from facestream.audio import (
    AudioFeatureSequence,
    FeatureExtractor,
    StyleEncoder,
    resample_to_frames,
)
from facestream.tensor import ParamStore


class TestFeatureExtractor:
    def test_silence_gives_constant_frames(self):
        fe = FeatureExtractor(width=8, seed=0)
        feats = fe(np.zeros(16000), sample_rate=16000, target_rate=25)
        first = feats.features[0]
        for row in feats.features:
            np.testing.assert_array_equal(row, first)

    def test_frame_count_law(self):
        fe = FeatureExtractor(width=8, seed=0)
        feats = fe(np.zeros(16000), sample_rate=16000, target_rate=25)
        assert feats.num_frames == 25
        for duration in [0.37, 1.0, 2.5]:
            n = int(duration * 16000)
            feats = fe(np.ones(n) * 0.1, sample_rate=16000, target_rate=25)
            assert abs(feats.num_frames - duration * 25) <= 1

    def test_tone_and_noise_differ(self):
        fe = FeatureExtractor(width=8, seed=0)
        t = np.arange(16000) / 16000
        tone = np.sin(2 * np.pi * 440 * t)
        noise = np.random.default_rng(0).normal(size=16000) * 0.3
        mean_tone = fe(tone, 16000, 25).features.mean(axis=0)
        mean_noise = fe(noise, 16000, 25).features.mean(axis=0)
        assert np.linalg.norm(mean_tone - mean_noise) > 0

    def test_deterministic(self):
        fe = FeatureExtractor(width=8, seed=3)
        wave = np.random.default_rng(1).normal(size=8000)
        a = fe(wave, 16000, 25).features
        b = fe(wave, 16000, 25).features
        np.testing.assert_array_equal(a, b)

    def test_cached_tables_match_fresh_extractor(self, monkeypatch):
        # one extractor alternating between two rates builds each filterbank
        # once and gives bit-identical features to a freshly built extractor
        built = []
        original = audio._mel_filterbank
        monkeypatch.setattr(audio, "_mel_filterbank",
                            lambda *args: built.append(args) or original(*args))
        fe = FeatureExtractor(width=8, seed=3)
        r = np.random.default_rng(2)
        for sample_rate in [16000, 22050, 16000, 22050, 16000]:
            wave = r.normal(size=int(0.04 * sample_rate))
            got = fe(wave, sample_rate, 25).features
            fresh = FeatureExtractor(width=8, seed=3)(wave, sample_rate, 25).features
            np.testing.assert_array_equal(got, fresh)
        assert len(built) == 2 + 5  # two cached tables, plus one per fresh extractor

    def test_empty_waveform_rejected(self):
        fe = FeatureExtractor()
        with pytest.raises(ValueError):
            fe(np.zeros(0), 16000, 25)

    def test_bad_sample_rate_rejected(self):
        fe = FeatureExtractor()
        with pytest.raises(ValueError):
            fe(np.zeros(100), 0, 25)


class TestResample:
    def test_identity_when_counts_match(self):
        feats = AudioFeatureSequence(np.random.default_rng(0).normal(size=(7, 3)), 25)
        out = resample_to_frames(feats, 7)
        np.testing.assert_array_equal(out, feats.features)

    def test_midpoint(self):
        rows = np.array([[0.0, 2.0], [4.0, 6.0]])
        out = resample_to_frames(AudioFeatureSequence(rows, 25), 3)
        np.testing.assert_allclose(out[1], (rows[0] + rows[1]) / 2)

    def test_matches_scalar_piecewise_linear_oracle(self):
        r = np.random.default_rng(5)
        rows = r.normal(size=(5, 4))
        out = resample_to_frames(AudioFeatureSequence(rows, 25), 7)
        positions = np.linspace(0.0, 4.0, 7)
        for i, p in enumerate(positions):
            lo = min(int(np.floor(p)), 3)
            frac = p - lo
            expected = rows[lo] * (1 - frac) + rows[lo + 1] * frac
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_preserves_constants(self):
        rows = np.tile([1.5, -2.0, 0.25], (4, 1))
        out = resample_to_frames(AudioFeatureSequence(rows, 25), 11)
        for row in out:
            np.testing.assert_allclose(row, rows[0], atol=1e-15)


class TestStyleEncoder:
    def make(self, k=3, width=6, seed=0):
        store = ParamStore()
        enc = StyleEncoder(store, "style", k, width,
                           np.random.default_rng(seed))
        return enc

    def test_embedding_is_table_row(self):
        enc = self.make()
        np.testing.assert_array_equal(enc.embed(1).data[0], enc.table.data[1])

    def test_distinct_speakers_distinct_embeddings(self):
        enc = self.make()
        assert not np.array_equal(enc.embed(0).data[0], enc.embed(2).data[0])

    def test_single_speaker_constant(self):
        enc = self.make(k=1)
        np.testing.assert_array_equal(enc.embed(0).data[0], enc.table.data[0])

    def test_out_of_range_rejected(self):
        enc = self.make(k=2)
        with pytest.raises(ValueError):
            enc.embed(2)
        with pytest.raises(ValueError):
            enc.embed(-1)
