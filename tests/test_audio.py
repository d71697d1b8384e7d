"""Audio frontend tests: frame-count law, rate checks."""

import numpy as np
import pytest

from facestream import audio
from facestream.audio import AudioFeatureSequence, FeatureExtractor


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

    @pytest.mark.parametrize("rate", [0, -25.0, np.nan, np.inf, -np.inf, True, "16000"])
    def test_bad_rates_rejected_up_front(self, rate):
        fe = FeatureExtractor()
        with pytest.raises(ValueError, match="sample rate must be finite and positive"):
            fe(np.zeros(100), rate, 25)
        with pytest.raises(ValueError, match="target rate must be finite and positive"):
            fe(np.zeros(100), 16000, rate)

    @pytest.mark.parametrize("width", [2.5, True, -1, 0])
    def test_bad_width_rejected_at_construction(self, width):
        with pytest.raises(ValueError, match="width"):
            FeatureExtractor(width=width)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_bad_seed_rejected_at_construction(self, seed):
        """A float seed leaked numpy's ``TypeError``."""
        with pytest.raises(ValueError, match="seed must be"):
            FeatureExtractor(seed=seed)

    def test_numpy_integer_width_accepted(self):
        fe = FeatureExtractor(width=np.int64(16), seed=3)
        assert fe(np.zeros(640), 16000, 25).width == 16


class TestAudioFeatureSequence:
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0, True, "25"])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="feature rate must be finite and positive"):
            AudioFeatureSequence(np.zeros((2, 3)), rate)

