"""Two-stage training through one loop.

Stage 1 fits the motion codec (encoder, decoder, codebook) with the
reconstruction + quantization objective. Stage 2 freezes the encoder and
codebook and jointly trains the condition predictor and diffusion head with
teacher forcing: conditions come from ground-truth latent history, one shared
timestep is drawn per step, and the predicted units are decoded back to
vertex space for the geometric losses.

Both stages run ``_train``: per epoch it takes the learning rate from the
halving schedule and a seeded permutation of the dataset; per example it
fetches ``dataset[i]`` once, builds the loss graph, backpropagates and takes
one decoupled-weight-decay Adam step; it reports each epoch's mean losses as
one row and turns non-finite values into ``DivergenceError``. A stage
supplies only its parameter list and a per-example loss function, which
draws any randomness it needs from the loop's RNG and returns the loss
tuple, total first.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .codec import MotionCodec, stage1_loss
from .diffusion import DiffusionHead, NoiseSchedule, add_noise
from .fileio import write_csv
from .predictor import ConditionPredictor
from .tensor import (
    NonFiniteError,
    Tensor,
    add,
    as_tensor,
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight decay must be finite and non-negative, "
                             f"got {self.weight_decay}")
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
    """Adam with decoupled weight decay over an explicit tensor list; a
    tensor with no gradient is stepped as if its gradient were zero."""

    def __init__(self, params: list[Tensor], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = (p.data
                      - lr * m_hat / (np.sqrt(v_hat) + self.eps)
                      - lr * self.weight_decay * p.data)

    def zero_grads(self) -> None:
        for p in self.params:
            p.grad = None


def _train(stage: int, dataset: list[SequenceExample], params: list[Tensor],
           example_loss: Callable[[int, SequenceExample, np.random.Generator],
                                  tuple[Tensor, ...]],
           epochs: int, fields: list[str],
           config: TrainConfig) -> list[dict]:
    """The loop both stages share; returns one row of mean losses per epoch.

    ``example_loss(i, dataset[i], rng)`` returns the loss tuple, total first,
    in the order of ``fields`` after "epoch".
    """
    if not dataset:
        raise ValueError("empty dataset")
    optimizer = AdamW(params, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(dataset))
        sums = np.zeros(len(fields) - 1)
        for i in order:
            try:
                losses = example_loss(i, dataset[i], rng)
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"stage {stage} diverged at epoch {epoch}: {exc}") from exc
            optimizer.zero_grads()
            losses[0].backward()
            optimizer.step(lr)
            sums += [loss.item() for loss in losses]
        means = sums / len(dataset)
        if not np.isfinite(means).all():
            raise DivergenceError(f"stage {stage} loss non-finite at epoch {epoch}")
        history.append(dict(zip(fields, [epoch, *means])))
    return history


def train_stage1(dataset: list[SequenceExample], codec: MotionCodec,
                 config: TrainConfig) -> list[dict]:
    """Codec pretraining; returns one loss row per epoch."""

    def example_loss(i, example, rng):
        x = example.motion
        z_hat = codec.encode(x)
        _, st, gathered = codec.quantize_latents(z_hat)
        x_hat = codec.decode(st, frames=len(x))
        return stage1_loss(x, x_hat, z_hat, gathered)

    return _train(1, dataset, codec.store.tensors(), example_loss,
                  config.stage1_epochs, STAGE1_FIELDS, config)


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


def train_stage2(dataset: list[SequenceExample], codec: MotionCodec,
                 predictor: ConditionPredictor, head: DiffusionHead,
                 schedule: NoiseSchedule, config: TrainConfig) -> list[dict]:
    """Joint predictor + head training with a frozen codec encoder.

    The encoder and codebook receive no updates (they are absent from the
    optimizer and the latent targets are built under no_grad); the decoder
    joins the optimizer only when ``finetune_decoder`` is set.
    """
    h = codec.config.components
    if any(ex.motion.shape[0] < h for ex in dataset):
        raise ValueError("sequences shorter than one latent unit")
    params = predictor.store.tensors() + head.store.tensors()
    if config.finetune_decoder:
        params += [codec.store[n] for n in codec.decoder_param_names()]
    # the encoder is frozen, so ground-truth latents never change
    grids = [codec.encode_quantized(ex.motion) for ex in dataset]

    def example_loss(i, example, rng):
        """One teacher-forced graph: a random next unit behind its history
        window, noised at a random timestep."""
        next_unit = int(rng.integers(0, example.motion.shape[0] // h))
        t_step = int(rng.integers(0, schedule.num_steps))
        window_len = min(predictor.config.history_units, next_unit)
        eps = rng.standard_normal((window_len + 1, h, codec.config.width))
        start = next_unit - window_len
        codes = grids[i].codes
        targets = codes[start:next_unit + 1]
        audio = example.features[start * h:(next_unit + 1) * h]
        conditions = predictor.every_row(list(codes[start:next_unit]), audio,
                                         example.speaker)
        z_t = add_noise(targets, t_step, eps, schedule)
        z_pred = reshape(head.denoise(z_t, t_step, head.condition(conditions, [t_step])),
                         z_t.shape)
        x_pred = codec.decode(z_pred, offset_frames=start * h)
        x_target = example.motion[start * h:(next_unit + 1) * h]
        return stage2_loss(z_pred, targets, x_pred, x_target)

    return _train(2, dataset, params, example_loss, config.stage2_epochs,
                  STAGE2_FIELDS, config)


def write_loss_csv(path, history: list[dict]) -> None:
    if not history:
        raise ValueError("empty loss history")
    fields = list(history[0].keys())
    rows = [[row[f] for f in fields] for row in history]
    write_csv(path, fields, rows)
