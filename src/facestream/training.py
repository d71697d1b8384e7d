"""Two-stage training through one loop.

Stage 1 fits the motion codec (encoder, decoder, codebook) with the
reconstruction + quantization objective. Stage 2 freezes the whole codec and
jointly trains the condition predictor and diffusion head with teacher
forcing: conditions come from ground-truth latent history, one shared
timestep is drawn per step, and the predicted units are decoded back to
vertex space by the frozen decoder for the geometric losses.

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

from .codec import MotionCodec
from .diffusion import DiffusionHead, NoiseSchedule, add_noise
from .fileio import check_count, check_real
from .predictor import ConditionPredictor, select_history
from .tensor import NonFiniteError, Tensor, add, as_tensor, l1_loss, l2_loss, reshape

COMMITMENT = 0.25   # weight of the commitment term in the stage-1 loss
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

    def __post_init__(self):
        check_real(self.learning_rate, "learning rate")
        check_real(self.weight_decay, "weight decay", zero_ok=True)
        for name in ("stage1_epochs", "stage2_epochs", "lr_halving_interval"):
            check_count(getattr(self, name), name.replace("_", " "))
        check_count(self.seed, "seed", zero_ok=True)

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


# Adam moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay over an explicit tensor list; a
    tensor with no gradient is stepped as if its gradient were zero.

    ``step`` updates each parameter's array, and the moment arrays, in
    place, so a view of ``p.data`` sees the step; take a snapshot with
    ``ParamStore.state()``, which copies.

    The bias corrections fold into per-step scalars (Kingma & Ba, arXiv
    1412.6980, section 2): with ``bc1 = 1 - beta1**t`` and ``bc2 = 1 -
    beta2**t``, a step sets ``p = (1 - lr*wd) * p - (lr / bc1) * m /
    (sqrt(v) / sqrt(bc2) + eps)``. That is the textbook update ``p - lr *
    (m / bc1) / (sqrt(v / bc2) + eps) - lr * wd * p`` up to rounding, with
    the decay read from the old ``p`` (Loshchilov & Hutter, arXiv
    1711.05101), in torch.optim.AdamW's order.
    """

    def __init__(self, params: list[Tensor], weight_decay: float):
        check_real(weight_decay, "weight decay", zero_ok=True)
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        self.t += 1
        step_size = lr / (1.0 - ADAM_BETA1 ** self.t)
        inv_root_bc2 = 1.0 / math.sqrt(1.0 - ADAM_BETA2 ** self.t)
        shrink = 1.0 - lr * self.weight_decay
        # 14 passes per tensor through one temporary a, one of them a division
        for m, v, p in zip(self._m, self._v, self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            a = (1.0 - ADAM_BETA1) * g
            m *= ADAM_BETA1
            m += a
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v *= ADAM_BETA2
            v += a
            np.sqrt(v, out=a)
            a *= inv_root_bc2
            a += ADAM_EPS
            np.divide(m, a, out=a)
            a *= step_size
            p.data *= shrink
            p.data -= a

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
    in the order of ``fields`` after "epoch". No parameter keeps a gradient
    when the loop ends, by return or by error.
    """
    if not dataset:
        raise ValueError("empty dataset")
    optimizer = AdamW(params, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    history = []
    try:
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
                del losses   # the step's graph dies here, not after the next forward
            means = sums / len(dataset)
            if not np.isfinite(means).all():
                raise DivergenceError(f"stage {stage} loss non-finite at epoch {epoch}")
            history.append(dict(zip(fields, [epoch, *means])))
    finally:
        optimizer.zero_grads()
    return history


def stage1_loss(x: np.ndarray, x_hat: Tensor, z_hat: Tensor,
                z_gathered: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Reconstruction + quantization objective.

    rec   = mean |x_hat - x|
    quant = mean (sg(z_hat) - z_q)^2 + COMMITMENT * mean (z_hat - sg(z_q))^2
    total = rec + quant  (unit weights)

    The stop-gradient sg passes a tensor's array, a constant.
    """
    rec = l1_loss(x_hat, np.asarray(x))
    codebook_pull = l2_loss(z_gathered, z_hat.data)
    commit = l2_loss(z_hat, z_gathered.data)
    quant = add(codebook_pull, COMMITMENT * commit)
    total = add(rec, quant)
    return total, rec, quant


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

    A squared distance sums its 3 coordinates, so ``vert`` and ``vel`` are
    each 3 times the mean squared coordinate error.
    """
    z_target = np.asarray(z_target)
    x_target = np.asarray(x_target)
    if z_pred.data.shape != z_target.shape:
        raise ValueError("latent shape mismatch")
    if x_pred.data.shape != x_target.shape:
        raise ValueError("vertex shape mismatch")
    coords = x_target.shape[-1]
    latent = l1_loss(z_pred, z_target)
    vert = l2_loss(x_pred, x_target) * coords
    if x_target.shape[0] >= 2:
        vel = l2_loss(x_pred[1:] - x_pred[:-1], x_target[1:] - x_target[:-1]) * coords
    else:
        vel = as_tensor(0.0)
    total = add(add(latent, vert), vel)
    return total, latent, vert, vel


def train_stage2(dataset: list[SequenceExample], codec: MotionCodec,
                 predictor: ConditionPredictor, head: DiffusionHead,
                 schedule: NoiseSchedule, config: TrainConfig) -> list[dict]:
    """Joint predictor + head training with a frozen codec.

    Only the predictor and the head are stepped. The encoder and codebook
    receive no updates (they are absent from the optimizer and the latent
    targets are built under no_grad), and neither does the decoder: its
    parameters stop requiring gradients for the call, so no backward
    computes one, and get their flags back when it returns.
    """
    h = codec.config.components
    if any(ex.motion.shape[0] < h for ex in dataset):
        raise ValueError("sequences shorter than one latent unit")
    params = predictor.store.tensors() + head.store.tensors()
    frozen = [p for p in (codec.store[n] for n in codec.decoder_param_names())
              if p.requires_grad]
    # the encoder is frozen, so ground-truth latents never change
    all_codes = [codec.encode_quantized(ex.motion) for ex in dataset]

    def example_loss(i, example, rng):
        """One teacher-forced graph: a random next unit behind its history
        window, noised at a random timestep."""
        next_unit = int(rng.integers(0, example.motion.shape[0] // h))
        t_step = int(rng.integers(0, schedule.num_steps))
        codes = all_codes[i]
        window = select_history(codes[:next_unit], predictor.config.history_frames, h)
        eps = rng.standard_normal((len(window) + 1, h, codec.config.width))
        start = next_unit - len(window)
        targets = codes[start:next_unit + 1]
        audio = example.features[start * h:(next_unit + 1) * h]
        conditions = predictor(window, audio, example.speaker, every_row=True)
        z_t = add_noise(targets, t_step, eps, schedule)
        z_pred = reshape(head.denoise(z_t, head.condition(conditions, [t_step])[0]),
                         z_t.shape)
        x_pred = codec.decode(z_pred, offset_frames=start * h)
        x_target = example.motion[start * h:(next_unit + 1) * h]
        return stage2_loss(z_pred, targets, x_pred, x_target)

    for p in frozen:
        p.requires_grad = False
    try:
        return _train(2, dataset, params, example_loss, config.stage2_epochs,
                      STAGE2_FIELDS, config)
    finally:
        for p in frozen:
            p.requires_grad = True
