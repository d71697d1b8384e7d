"""Two-stage training.

Stage 1 fits the motion codec (encoder, decoder, codebook) with the
reconstruction + quantization objective. Stage 2 freezes the encoder and
codebook and jointly trains the condition predictor and diffusion head with
teacher forcing: conditions come from ground-truth latent history, one shared
timestep is drawn per step, and the predicted units are decoded back to
vertex space for the geometric losses. The optimizer is decoupled-weight-decay
Adam with epoch-based learning-rate halving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import LatentGrid, MotionCodec, stage1_loss
from .diffusion import DiffusionHead, NoiseSchedule, add_noise
from .fileio import write_csv
from .predictor import ConditionPredictor
from .tensor import (
    NonFiniteError,
    Tensor,
    add,
    as_tensor,
    backward,
    l1_loss,
    reshape,
    square,
    tmean,
    tsum,
)

STAGE1_FIELDS = ["epoch", "total", "rec", "quant"]
STAGE2_FIELDS = ["epoch", "total", "latent", "vert", "vel"]


class DivergenceError(RuntimeError):
    """Training produced non-finite values."""


@dataclass
class TrainConfig:
    stage1_epochs: int = 400
    stage2_epochs: int = 200
    learning_rate: float = 1e-4
    lr_halving_interval: int = 20
    weight_decay: float = 0.01
    seed: int = 0
    finetune_decoder: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if min(self.stage1_epochs, self.stage2_epochs,
               self.lr_halving_interval) < 1:
            raise ValueError("epoch counts must be positive")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * (0.5 ** (epoch // self.lr_halving_interval))


@dataclass
class SequenceExample:
    """One training sequence: motion-rate audio features plus motion frames."""

    features: np.ndarray   # (T, C_a)
    motion: np.ndarray     # (T, V, 3)
    speaker: int = 0

    def __post_init__(self):
        if self.features.shape[0] != self.motion.shape[0]:
            raise ValueError("features and motion must cover the same frames")


class AdamW:
    """Adam with decoupled weight decay over an explicit (name, tensor) list."""

    def __init__(self, params: list[tuple[str, Tensor]], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(t.data) for _, t in params]
        self._v = [np.zeros_like(t.data) for _, t in params]

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, (_, p) in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = (p.data
                      - lr * m_hat / (np.sqrt(v_hat) + self.eps)
                      - lr * self.weight_decay * p.data)

    def zero_grads(self) -> None:
        for _, p in self.params:
            p.grad = None


def _named(store, prefix: str) -> list[tuple[str, Tensor]]:
    return [(f"{prefix}.{n}", store[n]) for n in store.names()]


def train_stage1(dataset: list[SequenceExample], codec: MotionCodec,
                 config: TrainConfig) -> list[dict]:
    """Codec pretraining; returns one loss row per epoch."""
    if not dataset:
        raise ValueError("empty dataset")
    optimizer = AdamW(_named(codec.store, "codec"),
                      weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.stage1_epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(dataset))
        sums = np.zeros(3)
        for i in order:
            x = dataset[i].motion
            try:
                z_hat, t = codec.encode(x)
                _, st, gathered = codec.quantize_latents(z_hat, t)
                x_hat = codec.decode(st, frames=t)
                total, rec, quant = stage1_loss(x, x_hat, z_hat, gathered)
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"stage 1 diverged at epoch {epoch}: {exc}") from exc
            optimizer.zero_grads()
            backward(total, codec.store)
            optimizer.step(lr)
            sums += [total.item(), rec.item(), quant.item()]
        means = sums / len(dataset)
        if not np.isfinite(means).all():
            raise DivergenceError(f"stage 1 loss non-finite at epoch {epoch}")
        history.append(dict(zip(STAGE1_FIELDS, [epoch, *means])))
    return history


def stage2_loss(z_pred: Tensor, z_target: np.ndarray, x_pred: Tensor,
                x_target: np.ndarray) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Latent + geometric objective over a window span.

    latent = mean |z_pred - z_target|
    vert   = mean over (frame, vertex) of squared offset distance
    vel    = same norm over frame-difference residuals
    total  = latent + vert + vel  (unit weights)
    """
    z_target = np.asarray(z_target)
    x_target = np.asarray(x_target)
    if z_pred.data.shape != z_target.shape:
        raise ValueError("latent shape mismatch")
    if x_pred.data.shape != x_target.shape:
        raise ValueError("vertex shape mismatch")
    latent = l1_loss(z_pred, z_target)
    vert = tmean(tsum(square(x_pred - x_target), axis=-1))
    if x_target.shape[0] >= 2:
        dv = (x_pred[1:] - x_pred[:-1]) - (x_target[1:] - x_target[:-1])
        vel = tmean(tsum(square(dv), axis=-1))
    else:
        vel = as_tensor(0.0)
    total = add(add(latent, vert), vel)
    return total, latent, vert, vel


def _stage2_forward(example: SequenceExample, codec: MotionCodec,
                    predictor: ConditionPredictor, head: DiffusionHead,
                    schedule: NoiseSchedule, next_unit: int, t_step: int,
                    eps: np.ndarray, grid: LatentGrid | None = None):
    """One teacher-forced stage-2 graph; returns the loss tuple."""
    h = codec.config.components
    h_units = predictor.config.history_units
    if grid is None:
        grid = codec.encode_quantized(example.motion)
    window_len = min(h_units, next_unit)
    start = next_unit - window_len
    window = list(grid.codes[start:next_unit])
    targets = grid.codes[start:next_unit + 1]
    audio = example.features[start * h:(next_unit + 1) * h]
    conditions = predictor.every_row(window, audio, example.speaker)
    z_t = add_noise(targets, t_step, eps, schedule)
    z_pred = reshape(head.denoise(z_t, t_step, head.condition(conditions, [t_step])),
                     z_t.shape)
    x_pred = codec.decode(z_pred, offset_frames=start * h)
    x_target = example.motion[start * h:(next_unit + 1) * h]
    return stage2_loss(z_pred, targets, x_pred, x_target)


def train_stage2(dataset: list[SequenceExample], codec: MotionCodec,
                 predictor: ConditionPredictor, head: DiffusionHead,
                 schedule: NoiseSchedule, config: TrainConfig) -> list[dict]:
    """Joint predictor + head training with a frozen codec encoder.

    The encoder and codebook receive no updates (they are absent from the
    optimizer and the latent targets are built under no_grad); the decoder
    joins the optimizer only when ``finetune_decoder`` is set.
    """
    if not dataset:
        raise ValueError("empty dataset")
    h = codec.config.components
    full_units = min(ex.motion.shape[0] for ex in dataset) // h
    if full_units < 1:
        raise ValueError("sequences shorter than one latent unit")
    params = _named(predictor.store, "predictor") + _named(head.store, "head")
    if config.finetune_decoder:
        params += [(f"codec.{n}", codec.store[n])
                   for n in codec.decoder_param_names()]
    optimizer = AdamW(params, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    # the encoder is frozen, so ground-truth latents never change
    grids = [codec.encode_quantized(ex.motion) for ex in dataset]
    history = []
    for epoch in range(config.stage2_epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(dataset))
        sums = np.zeros(4)
        for i in order:
            example = dataset[i]
            next_unit = int(rng.integers(0, example.motion.shape[0] // h))
            t_step = int(rng.integers(0, schedule.num_steps))
            window_len = min(predictor.config.history_units, next_unit)
            eps = rng.standard_normal(
                (window_len + 1, h, codec.config.width))
            try:
                total, latent, vert, vel = _stage2_forward(
                    example, codec, predictor, head, schedule, next_unit,
                    t_step, eps, grid=grids[i])
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"stage 2 diverged at epoch {epoch}: {exc}") from exc
            optimizer.zero_grads()
            total.backward()
            optimizer.step(lr)
            sums += [total.item(), latent.item(), vert.item(), vel.item()]
        means = sums / len(dataset)
        if not np.isfinite(means).all():
            raise DivergenceError(f"stage 2 loss non-finite at epoch {epoch}")
        history.append(dict(zip(STAGE2_FIELDS, [epoch, *means])))
    return history


def write_loss_csv(path, history: list[dict]) -> None:
    if not history:
        raise ValueError("empty loss history")
    fields = list(history[0].keys())
    rows = [[row[f] for f in fields] for row in history]
    write_csv(path, fields, rows)
