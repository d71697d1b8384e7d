"""Audio feature frontend.

The frontend stands in for a pretrained speech encoder: log filterbank
energies over 25 ms windows hopped at the motion frame rate, followed by a
seed-locked random projection. It is deterministic and has no trainable
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import check_count, check_real

WINDOW_SECONDS = 0.025
LOG_FLOOR = 1e-10
NUM_FILTERS = 24   # mel filterbank channels before the projection


@dataclass
class AudioFeatureSequence:
    """Per-frame audio feature vectors at a fixed rate (features per second)."""

    features: np.ndarray  # (T_a, C_a)
    rate: float

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must have shape (T_a, C_a)")
        check_real(self.rate, "feature rate")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite feature values")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


def _mel_filterbank(num_filters: int, n_fft: int, sample_rate: float) -> np.ndarray:
    """Triangular filters spaced on the mel scale, (num_filters, n_fft//2 + 1)."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0),
                             num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    bank = np.zeros((num_filters, n_fft // 2 + 1))
    for i in range(num_filters):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        center = max(center, left + 1)
        right = max(right, center + 1)
        for b in range(left, center):
            bank[i, b] = (b - left) / (center - left)
        for b in range(center, min(right, bank.shape[1])):
            bank[i, b] = (right - b) / (right - center)
    return bank


class FeatureExtractor:
    """Log filterbank energies + a fixed random projection to ``width`` dims.

    The projection matrix is drawn once from ``seed``; identical waveforms
    always produce identical features. ``width`` must be an integer >= 1
    and ``seed`` one >= 0 (``ValueError`` otherwise).
    """

    def __init__(self, width: int = 16, seed: int = 0):
        check_count(width, "width")
        check_count(seed, "seed", zero_ok=True)
        rng = np.random.default_rng(seed)
        self.projection = rng.normal(size=(NUM_FILTERS, width)) / np.sqrt(NUM_FILTERS)
        self._tables: dict[tuple[int, int, float], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, waveform: np.ndarray, sample_rate: float,
                 target_rate: float) -> AudioFeatureSequence:
        waveform = np.asarray(waveform, dtype=np.float64).reshape(-1)
        check_real(sample_rate, "sample rate")
        check_real(target_rate, "target rate")
        if waveform.size == 0:
            raise ValueError("empty waveform")
        window = max(2, int(round(WINDOW_SECONDS * sample_rate)))
        hop = max(1, int(round(sample_rate / target_rate)))
        num_frames = max(1, waveform.size // hop)
        n_fft = 1 << (window - 1).bit_length()
        key = (window, n_fft, sample_rate)
        if key not in self._tables:
            self._tables[key] = (np.hanning(window),
                                 _mel_filterbank(NUM_FILTERS, n_fft, sample_rate))
        hann, bank = self._tables[key]

        frames = np.zeros((num_frames, window))
        for i in range(num_frames):
            chunk = waveform[i * hop:i * hop + window]
            frames[i, :chunk.size] = chunk
        spectrum = np.abs(np.fft.rfft(frames * hann, n=n_fft, axis=1))
        energies = np.log(spectrum @ bank.T + LOG_FLOOR)
        return AudioFeatureSequence(energies @ self.projection, target_rate)
