"""Inputs, models and the two kinds of work the benchmark times.

Streams: a closed loop made only of the library's public calls. Each
session turns 40 ms chunks of 16 kHz speech into one latent unit of H motion
frames at a time: frontend per chunk, ``select_history``, the condition
predictor (last row), ``ddim_sample`` over ``head_denoiser`` with the
session's own RNG, and ``MotionCodec.decode`` at the unit's frame offset.

Training: ``train_stage1`` or ``train_stage2`` over the eight training
sequences from ``make_splits``. The dataset is handed over in a list that
stamps the clock each time the loop fetches an example, which is the start of
an optimizer step, so single steps are timed without touching library code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from facestream import diffusion, predictor as predictor_mod
from facestream.audio import FeatureExtractor
from facestream.codec import CodecConfig, MotionCodec
from facestream.diffusion import DiffusionHead, build_schedule
from facestream.fileio import DataError
from facestream.predictor import ConditionPredictor, PredictorConfig
from facestream.synthetic import default_topology, generate_pair, make_splits
from facestream.tensor import NonFiniteError, no_grad
from facestream.training import (
    DivergenceError,
    SequenceExample,
    TrainConfig,
    train_stage1,
    train_stage2,
)
from hostspeed import HostClock

SAMPLE_RATE = 16000
FPS = 25.0
CHUNK_SAMPLES = 640           # 40 ms: one feature frame per chunk
HEAD_HIDDEN = 256
SCHEDULE_STEPS = 1000
SESSIONS = 8                  # sessions in multi_d50, one speaker each
SPEAKERS_IN_SPLITS = 3        # make_splits default: two train speakers, one held out
EPOCHS_PER_CALL = {1: 2, 2: 4}   # about 1.5 s per training call on a 2-core host

# seed-namespace tags, so each stream of randomness is independent of the others
_AUDIO_TAG = 101
_SAMPLER_TAG = 103
_SPEAKER_TAG = 107
_DATA_TAG = 109

FAILURES = (NonFiniteError, DataError, DivergenceError)


def seed_bits(seed: int) -> int:
    """Any integer seed as a non-negative one numpy accepts."""
    return seed % 2**32


@dataclass
class Models:
    extractor: FeatureExtractor
    predictor: ConditionPredictor
    head: DiffusionHead
    codec: MotionCodec
    schedule: diffusion.NoiseSchedule


def build_models() -> Models:
    """Default configs with fixed weight seeds; only the inputs vary by seed."""
    pcfg = PredictorConfig(num_speakers=SESSIONS)
    ccfg = CodecConfig()
    return Models(
        extractor=FeatureExtractor(width=pcfg.audio_width, seed=11),
        predictor=ConditionPredictor(pcfg, seed=12),
        head=DiffusionHead((ccfg.components, ccfg.width), pcfg.hidden,
                           HEAD_HIDDEN, SCHEDULE_STEPS, seed=13),
        codec=MotionCodec(ccfg, seed=14),
        schedule=build_schedule(SCHEDULE_STEPS),
    )


# -- streams ---------------------------------------------------------------------

class SpeechSource:
    """Endless voiced-speech-like waveform, 40 ms at a time, from a seed.

    A harmonic voice whose pitch and loudness drift from chunk to chunk, with
    a little breath noise; phase runs on across chunks.
    """

    HARMONICS = np.arange(1, 7)

    def __init__(self, seed: int, index: int):
        self.rng = np.random.default_rng([seed_bits(seed), _AUDIO_TAG, index])
        self.base_pitch = self.rng.uniform(90.0, 220.0)
        self.pitch = self.base_pitch
        self.level = 0.3
        self.phase = 0.0
        self.ticks = np.arange(1, CHUNK_SAMPLES + 1) / SAMPLE_RATE

    def chunk(self) -> np.ndarray:
        drift, loud, *_ = self.rng.standard_normal(2)
        self.pitch = float(np.clip(self.pitch * np.exp(0.05 * drift),
                                   0.6 * self.base_pitch, 1.6 * self.base_pitch))
        self.level = float(np.clip(0.8 * self.level + 0.2 * abs(loud), 0.02, 1.0))
        phi = self.phase + 2.0 * np.pi * self.pitch * self.ticks
        self.phase = float(phi[-1] % (2.0 * np.pi))
        voice = (np.sin(np.outer(phi, self.HARMONICS)) / self.HARMONICS).sum(axis=1)
        return self.level * voice + 0.02 * self.rng.standard_normal(CHUNK_SAMPLES)


class Session:
    """One speaker's stream: feature rows, past latent units, sampler RNG."""

    def __init__(self, models: Models, seed: int, index: int, speaker: int,
                 steps: int):
        cfg = models.predictor.config
        self.models = models
        self.source = SpeechSource(seed, index)
        self.rng = np.random.default_rng([seed_bits(seed), _SAMPLER_TAG, index])
        self.speaker = speaker
        self.steps = steps
        self.h = cfg.components
        self.capacity = cfg.history_units
        self.features: list[np.ndarray] = []  # rows from frame self.base on
        self.base = 0
        self.past: list[np.ndarray] = []
        self.units = 0

    def arrive(self) -> list[np.ndarray]:
        """The H chunks of audio that complete the next unit."""
        return [self.source.chunk() for _ in range(self.h)]

    def step(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Feed one unit's chunks; returns its (H, V, 3) frames."""
        m, h, u = self.models, self.h, self.units
        for chunk in chunks:
            self.features.append(m.extractor(chunk, SAMPLE_RATE, FPS).features[0])
        window = predictor_mod.select_history(
            self.past, m.predictor.config.history_frames, h)
        start = (u - len(window)) * h - self.base
        audio = np.stack(self.features[start:start + (len(window) + 1) * h])
        with no_grad():
            cond = m.predictor(window, audio, self.speaker).data[-1]
            z = diffusion.ddim_sample(diffusion.head_denoiser(m.head, cond),
                                      m.schedule, self.steps, self.rng,
                                      (h, m.codec.config.width))
            frames = m.codec.decode(z[None], offset_frames=u * h).data
        self.units += 1
        self.past.append(z)
        del self.past[:-self.capacity]
        keep_from = max(0, self.units - self.capacity) * h
        del self.features[:keep_from - self.base]
        self.base = keep_from
        return frames


@dataclass
class Block:
    """Timed operations and busy spans, as (start, seconds), and speech handled."""

    ops: list = field(default_factory=list)
    busy: list = field(default_factory=list)
    speech: float = 0.0


def unit_ok(frames: np.ndarray, h: int, vertices: int) -> bool:
    return frames.shape == (h, vertices, 3) and bool(np.isfinite(frames).all())


class StreamWork:
    """solo_d10 / multi_d50: sessions stepped round-robin, one unit each."""

    calibration = "small"

    def __init__(self, seed: int, sessions: int, steps: int):
        self.seed = seed
        self.n_sessions = sessions
        self.steps = steps

    def speakers(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed_bits(seed), _SPEAKER_TAG])
        return rng.permutation(SESSIONS)[:self.n_sessions]

    def make_sessions(self, models: Models, seed: int) -> list[Session]:
        return [Session(models, seed, i, int(s), self.steps)
                for i, s in enumerate(self.speakers(seed))]

    def setup(self) -> None:
        self.models = build_models()
        self.sessions = self.make_sessions(self.models, self.seed)
        self.watch = self.seed % self.n_sessions   # session replayed alone later
        self.watched: list[np.ndarray] = []
        self.ops = self.failed_ops = 0

    def reference(self, seed: int, rounds: int) -> np.ndarray:
        """Frames of a short fixed-seed run, (rounds * sessions, H, V, 3)."""
        sessions = self.make_sessions(self.models, seed)
        return np.stack([s.step(s.arrive()) for _ in range(rounds) for s in sessions])

    def run_block(self, deadline: float, clock: HostClock) -> Block:
        """Whole rounds until ``deadline``; an operation is one unit."""
        vertices = self.models.codec.config.vertices
        block = Block()
        while True:
            for i, session in enumerate(self.sessions):
                clock.maybe_calibrate()
                chunks = session.arrive()
                t0 = time.perf_counter()
                try:
                    frames = session.step(chunks)
                except FAILURES:
                    frames = None
                block.ops.append((t0, time.perf_counter() - t0))
                block.speech += session.h / FPS
                self.ops += 1
                if frames is None or not unit_ok(frames, session.h, vertices):
                    self.failed_ops += 1
                elif i == self.watch:
                    self.watched.append(frames)
            if time.perf_counter() >= deadline:
                block.busy = block.ops
                return block

    def final_checks(self, replay_units: int) -> tuple[int, int]:
        """(checks, failed): every session emitted every round; with several
        sessions, one replayed alone reproduces its interleaved frames."""
        planned = self.ops // self.n_sessions
        failed = int(any(s.units != planned for s in self.sessions))
        if self.n_sessions == 1:
            return 1, failed
        n = min(replay_units, len(self.watched))
        alone = self.make_sessions(self.models, self.seed)[self.watch]
        try:
            replay = np.stack([alone.step(alone.arrive()) for _ in range(n)])
            same = n > 0 and close(replay, np.stack(self.watched[:n]))
        except FAILURES:
            same = False
        return 2, failed + int(not same)


# -- training --------------------------------------------------------------------

class StepClock(list):
    """Dataset list that marks the step boundaries of the training loop.

    The loop fetches one example at the start of each optimizer step. Each
    fetch records when it arrived, may calibrate the host clock, and records
    when it left, so calibration time falls outside every step.
    """

    def __init__(self, items, clock: HostClock):
        super().__init__(items)
        self.clock = clock
        self.arrived: list[float] = []
        self.left: list[float] = []

    def __getitem__(self, index):
        self.arrived.append(time.perf_counter())
        self.clock.maybe_calibrate()
        self.left.append(time.perf_counter())
        return super().__getitem__(index)


def training_set(seed: int) -> list[SequenceExample]:
    """The eight 240-frame training sequences of ``make_splits``."""
    base = int(np.random.default_rng([seed_bits(seed), _DATA_TAG]).integers(0, 2**30))
    topology = default_topology()
    examples = []
    for entry in make_splits(base_seed=base, num_speakers=SPEAKERS_IN_SPLITS):
        if entry.split != "train":
            continue
        feats, motion = generate_pair(entry.seed, entry.num_frames, topology,
                                      SPEAKERS_IN_SPLITS, entry.speaker_index,
                                      fps=FPS, dataset_seed=base)
        examples.append(SequenceExample(feats.features, motion.offsets,
                                        entry.speaker_index))
    return examples


class TrainWork:
    """train_s1 / train_s2: repeated calls of one training stage."""

    def __init__(self, seed: int, stage: int):
        self.seed = seed
        self.stage = stage
        # stage 1 works on whole sequences, stage 2 on short windows
        self.calibration = "sequence" if stage == 1 else "small"

    def setup(self) -> None:
        self.models = build_models()
        self.dataset = training_set(self.seed)
        self.calls = 0
        self.ops = self.failed_ops = 0

    def call(self, models: Models, dataset, epochs: int, seed: int) -> list[dict]:
        cfg = TrainConfig(stage1_epochs=epochs, stage2_epochs=epochs,
                          seed=seed_bits(seed))
        if self.stage == 1:
            return train_stage1(dataset, models.codec, cfg)
        return train_stage2(dataset, models.codec, models.predictor, models.head,
                            models.schedule, cfg)

    def reference(self, seed: int, epochs: int) -> np.ndarray:
        """Loss rows of a fixed-seed call on fresh models, (epochs, fields)."""
        rows = self.call(build_models(), training_set(seed), epochs, seed)
        return np.array([list(r.values()) for r in rows])

    def run_block(self, deadline: float, clock: HostClock) -> Block:
        """Whole calls until ``deadline``; an operation is one optimizer step.

        Busy time adds each call's lead-in before its first step, such as
        stage 2 encoding the ground-truth latents.
        """
        epochs = EPOCHS_PER_CALL[self.stage]
        steps = epochs * len(self.dataset)
        seconds_per_example = self.dataset[0].motion.shape[0] / FPS
        block = Block()
        while True:
            clock.maybe_calibrate()
            fetches = StepClock(self.dataset, clock)
            t0 = time.perf_counter()
            try:
                rows = self.call(self.models, fetches, epochs, self.seed + self.calls)
            except FAILURES:
                rows = None
            t1 = time.perf_counter()
            self.calls += 1
            self.ops += steps
            if rows is None or len(rows) != epochs or len(fetches.left) != steps:
                self.failed_ops += steps
            else:
                ends = fetches.arrived[1:] + [t1]
                block.ops += [(a, b - a) for a, b in zip(fetches.left, ends)]
                block.busy.append((t0, fetches.arrived[0] - t0))
                block.speech += steps * seconds_per_example
            if time.perf_counter() >= deadline:
                block.busy = block.busy + block.ops
                return block

    def final_checks(self, replay_units: int) -> tuple[int, int]:
        return 0, 0


def close(a: np.ndarray, b: np.ndarray, rel: float = 1e-9) -> bool:
    """Equal shapes and max |a - b| within ``rel`` of max |b|."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.isfinite(a).all():
        return False
    return float(np.max(np.abs(a - b))) <= rel * max(float(np.max(np.abs(b))), 1e-300)


def make_work(name: str, seed: int):
    if name == "solo_d10":
        return StreamWork(seed, sessions=1, steps=10)
    if name == "multi_d50":
        return StreamWork(seed, sessions=SESSIONS, steps=50)
    if name == "train_s1":
        return TrainWork(seed, stage=1)
    if name == "train_s2":
        return TrainWork(seed, stage=2)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solo_d10", "multi_d50", "train_s1", "train_s2")
