"""Procedural paired (audio-feature, motion) data with known articulation.

Motion is a sum of three articulation fields (mouth-open, lip-round,
brow-raise) driven by band-limited random envelopes; audio features are a
fixed linear+tanh image of those envelopes plus small noise, so the audio
stream determines the articulation up to that noise. Everything is seeded
and reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import AudioFeatureSequence
from .codec import MotionSequence
from .fileio import DataError, write_features, write_motion
from .metrics import RegionSpec

# seed namespace tags, mixed into per-sequence/per-speaker substreams
_ENVELOPE_TAG = 11
_NOISE_TAG = 23
_SPEAKER_TAG = 37
_FEATURE_MAP_TAG = 53

CHANNELS = ("mouth_open", "lip_round", "brow_raise")
AMPLITUDES = (1.0, 0.6, 0.6)   # envelope gain per channel
FEATURE_NOISE = 0.01           # std of the noise added to the features


@dataclass
class SynthTopology:
    """Desk-scale stand-in for a face template: 30 vertices by default.

    The articulation basis fields are nonzero only inside their semantic
    regions; the mouth-open field pushes the mouth pair apart symmetrically
    so the opening distance tracks its envelope linearly.
    """

    template: np.ndarray                 # (V, 3)
    lip_indices: np.ndarray              # subset of [0, V)
    upper_face_indices: np.ndarray
    mouth_pair: tuple[int, int]          # (upper lip vertex, lower lip vertex)
    basis: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (V, 3)

    def __post_init__(self):
        v = self.template.shape[0]
        if len(self.lip_indices) == 0 or len(self.upper_face_indices) == 0:
            raise ValueError("region index sets must be non-empty")
        if self.mouth_pair[0] == self.mouth_pair[1]:
            raise ValueError("mouth pair vertices must be distinct")
        for idx in (*self.lip_indices, *self.upper_face_indices, *self.mouth_pair):
            if not 0 <= idx < v:
                raise ValueError("region index out of range")

    @property
    def num_vertices(self) -> int:
        return self.template.shape[0]

    def region_spec(self) -> RegionSpec:
        return RegionSpec(lip_indices=self.lip_indices,
                          upper_face_indices=self.upper_face_indices,
                          mouth_pair=self.mouth_pair)


def default_topology(num_vertices: int = 30, seed: int = 0) -> SynthTopology:
    """Canonical layout: vertices 0-5 are lips (0 upper / 1 lower mouth pair),
    6-13 are upper face, the rest are cheeks/jaw filler."""
    if num_vertices < 14:
        raise ValueError("topology needs at least 14 vertices")
    rng = np.random.default_rng(seed)
    template = rng.normal(size=(num_vertices, 3)) * 0.5
    lips = np.arange(0, 6)
    upper = np.arange(6, 14)
    mouth_pair = (0, 1)

    mouth_open = np.zeros((num_vertices, 3))
    mouth_open[0] = [0.0, +0.5, 0.0]   # upper lip up
    mouth_open[1] = [0.0, -0.5, 0.0]   # lower lip down
    for i in lips[2:]:
        mouth_open[i] = [0.0, 0.15 * (1 if i % 2 else -1), 0.05]

    lip_round = np.zeros((num_vertices, 3))
    # symmetric on the mouth pair: rounding must not change the opening
    lip_round[0] = lip_round[1] = [0.0, 0.0, 0.4]
    for i in lips[2:]:
        lip_round[i] = [0.3 * (1 if i % 2 else -1), 0.0, 0.2]

    brow_raise = np.zeros((num_vertices, 3))
    for i in upper:
        brow_raise[i] = [0.0, 0.35, 0.1 * (1 if i % 2 else -1)]

    return SynthTopology(
        template=template,
        lip_indices=lips,
        upper_face_indices=upper,
        mouth_pair=mouth_pair,
        basis={"mouth_open": mouth_open, "lip_round": lip_round,
               "brow_raise": brow_raise},
    )


def band_limited_noise(rng: np.random.Generator, length: int, fps: float,
                       cutoff_hz: float = 4.0) -> np.ndarray:
    """Moving-average-smoothed Gaussian noise via cumulative sums.

    The averaging window is fps/cutoff frames, which suppresses content above
    roughly ``cutoff_hz`` at the given frame rate.
    """
    window = max(1, int(round(fps / cutoff_hz)))
    raw = rng.standard_normal(length + window)
    csum = np.concatenate([[0.0], np.cumsum(raw)])
    smooth = (csum[window:] - csum[:-window]) / window
    smooth = smooth[:length]
    std = smooth.std()
    return smooth / std if std > 0 else smooth


def _speaker_offsets(base_seed: int, speaker_index: int) -> np.ndarray:
    rng = np.random.default_rng([base_seed, _SPEAKER_TAG, speaker_index])
    return rng.uniform(0.05, 0.25, size=len(CHANNELS))


def _feature_maps(base_seed: int, feature_width: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([base_seed, _FEATURE_MAP_TAG])
    half = feature_width // 2
    linear = rng.normal(size=(len(CHANNELS), half))
    bent = rng.normal(size=(len(CHANNELS), feature_width - half))
    return linear, bent


def generate_pair(seed: int, num_frames: int, topology: SynthTopology,
                  num_speakers: int, speaker_index: int, fps: float = 25.0,
                  feature_width: int = 16,
                  dataset_seed: int = 0) -> tuple[AudioFeatureSequence, MotionSequence]:
    """One paired sequence. ``dataset_seed`` fixes the feature maps and the
    per-speaker style offsets shared across a dataset; ``seed`` drives the
    per-sequence envelopes and noise."""
    if num_frames < 1:
        raise ValueError("need at least one frame")
    if not 0 <= speaker_index < num_speakers:
        raise ValueError("speaker index out of range")

    env_rng = np.random.default_rng([seed, _ENVELOPE_TAG])
    envelopes = np.stack(
        [band_limited_noise(env_rng, num_frames, fps) for _ in CHANNELS], axis=1)
    # mouth opening must be non-negative so the pair distance tracks it linearly
    envelopes[:, 0] -= envelopes[:, 0].min()
    offsets = _speaker_offsets(dataset_seed, speaker_index)
    envelopes = envelopes * np.asarray(AMPLITUDES) + offsets

    motion = np.zeros((num_frames, topology.num_vertices, 3))
    for c, name in enumerate(CHANNELS):
        motion += envelopes[:, c][:, None, None] * topology.basis[name][None]

    linear, bent = _feature_maps(dataset_seed, feature_width)
    features = np.concatenate([envelopes @ linear, np.tanh(envelopes @ bent)], axis=1)
    noise_rng = np.random.default_rng([seed, _NOISE_TAG])
    features = features + FEATURE_NOISE * noise_rng.standard_normal(features.shape)

    return (AudioFeatureSequence(features, fps),
            MotionSequence(motion, fps))


@dataclass
class SplitEntry:
    sequence_id: str
    split: str
    seed: int
    speaker_index: int
    num_frames: int


def make_splits(num_train: int = 8, num_val: int = 2, num_test: int = 2,
                num_frames: int = 240, base_seed: int = 100,
                num_speakers: int = 3) -> list[SplitEntry]:
    """Disjoint seed ranges per split; the test split holds out the last
    speaker index entirely so unseen-speaker evaluation is possible."""
    if min(num_train, num_val, num_test) < 1:
        raise ValueError("every split needs at least one sequence")
    if num_speakers < 2:
        raise ValueError("need a held-out speaker, so at least 2")
    train_speakers = num_speakers - 1
    entries = []
    counter = 0
    for split, count in (("train", num_train), ("val", num_val), ("test", num_test)):
        for i in range(count):
            if split == "test" and i == 0:
                speaker = num_speakers - 1  # unseen during training
            else:
                speaker = i % train_speakers
            entries.append(SplitEntry(
                sequence_id=f"{split}{i:03d}",
                split=split,
                seed=base_seed + counter,
                speaker_index=speaker,
                num_frames=num_frames,
            ))
            counter += 1
    return entries


def write_dataset(directory, entries: list[SplitEntry], topology: SynthTopology,
                  num_speakers: int, fps: float = 25.0, feature_width: int = 16,
                  dataset_seed: int = 0) -> None:
    """Writes SGMO/SGAF pairs plus a plain-text split manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["# id split seed speaker frames"]
    for e in entries:
        feats, motion = generate_pair(
            e.seed, e.num_frames, topology, num_speakers, e.speaker_index,
            fps=fps, feature_width=feature_width, dataset_seed=dataset_seed)
        write_motion(directory / f"{e.sequence_id}.sgmo", motion.offsets, fps)
        write_features(directory / f"{e.sequence_id}.sgaf", feats.features, fps)
        lines.append(f"{e.sequence_id} {e.split} {e.seed} {e.speaker_index} "
                     f"{e.num_frames}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")


def read_manifest(directory) -> list[SplitEntry]:
    path = Path(directory) / "manifest.txt"
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise DataError(f"bad manifest row: {line!r}")
        entries.append(SplitEntry(parts[0], parts[1], int(parts[2]),
                                  int(parts[3]), int(parts[4])))
    return entries
