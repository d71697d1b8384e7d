"""Diffusion head: scaled-linear noise schedule, a one-hidden-layer denoiser
that predicts the clean latent unit directly, and a deterministic DDIM sampler.

The denoiser consumes the noisy unit, the per-unit condition vector from the
autoregressive predictor, and a sinusoidal timestep embedding. Its first layer
keeps one weight block per input (noisy unit, condition, time), so the
condition's product is computed once per unit (``DiffusionHead.condition``)
and every DDIM step adds only the step-dependent terms. Sampling walks a
uniform-stride descending subsequence of the training timesteps with eta=0;
the final step returns the clean prediction itself, so a perfect denoiser is
recovered exactly regardless of the step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import DataError
from .nn import Linear, glorot_uniform, sinusoid_table
from .tensor import (
    ParamStore,
    Tensor,
    add,
    as_tensor,
    gelu,
    linear,
    matmul,
    no_grad,
    reshape,
)


@dataclass
class NoiseSchedule:
    """Beta and cumulative alpha-bar tables for the forward process."""

    beta: np.ndarray
    alpha_bar: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.beta.shape[0]


def build_schedule(num_steps: int = 1000, beta_start: float = 0.00085,
                   beta_end: float = 0.012) -> NoiseSchedule:
    """Scaled-linear schedule: sqrt(beta) is linear in t.

    Endpoints are pinned exactly to ``beta_start`` / ``beta_end`` (the sqrt
    round trip can drift by an ulp otherwise).
    """
    if num_steps < 2:
        raise ValueError("schedule needs at least 2 steps")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    beta = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), num_steps) ** 2
    beta[0] = beta_start
    beta[-1] = beta_end
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(beta=beta, alpha_bar=alpha_bar)


def add_noise(z0: np.ndarray, t: int, eps: np.ndarray,
              schedule: NoiseSchedule) -> np.ndarray:
    """Forward process: z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    if not 0 <= t < schedule.num_steps:
        raise ValueError(f"timestep {t} outside schedule")
    z0 = np.asarray(z0)
    eps = np.asarray(eps)
    if eps.shape != z0.shape:
        raise ValueError("noise shape must match sample shape")
    abar = schedule.alpha_bar[t]
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps


def sample_timesteps(num_steps: int, steps: int) -> np.ndarray:
    """Descending uniform-stride subsequence that starts at the last timestep."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > num_steps:
        raise ValueError("steps cannot exceed the schedule length")
    stride = num_steps // steps
    return num_steps - 1 - stride * np.arange(steps)


@dataclass(frozen=True)
class HeadCondition:
    """A condition bound to a head: its product with the condition block of
    the first layer, (B, hidden). It stays fixed across the DDIM steps of a
    unit, so it is computed once per unit."""

    term: Tensor


class DiffusionHead:
    """One-hidden-layer MLP predicting the clean unit from (z_t, cond, t).

    The first layer is ``[z, cond, t_emb] @ [wz; wc; wt] + b`` kept as three
    weight blocks, so no step concatenates its inputs.
    """

    def __init__(self, unit_shape: tuple[int, int], cond_width: int, hidden: int,
                 num_steps: int, seed: int = 0):
        self.unit_shape = tuple(unit_shape)
        self.cond_width = cond_width
        self.num_steps = num_steps
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        unit_size = unit_shape[0] * unit_shape[1]
        self.time_proj = Linear(self.store, "time", cond_width, cond_width, rng)
        w1 = glorot_uniform(rng, unit_size + 2 * cond_width, hidden)
        self.wz = self.store.create("lin1.wz", w1[:unit_size])
        self.wc = self.store.create("lin1.wc", w1[unit_size:unit_size + cond_width])
        self.wt = self.store.create("lin1.wt", w1[unit_size + cond_width:])
        self.b1 = self.store.create("lin1.b", np.zeros(hidden))
        self.lin2 = Linear(self.store, "lin2", hidden, unit_size, rng)
        self._sinusoid_rows: dict[int, Tensor] = {}

    def time_embedding(self, t: int) -> Tensor:
        """Learned projection of interleaved sin/cos timestep features; the
        sinusoid row is built once per timestep, on first use."""
        if not 0 <= t < self.num_steps:
            raise ValueError(f"timestep {t} outside schedule")
        if t not in self._sinusoid_rows:
            self._sinusoid_rows[t] = Tensor(
                sinusoid_table(np.array([float(t)]), self.cond_width))
        return self.time_proj(self._sinusoid_rows[t])

    def condition(self, cond) -> HeadCondition:
        """Bind a condition, (cond_width,) or (B, cond_width), for ``denoise``."""
        cond = as_tensor(cond)
        if cond.data.ndim not in (1, 2) or cond.data.shape[-1] != self.cond_width:
            raise DataError(f"condition {cond.data.shape} is not (cond_width,) or "
                            f"(B, cond_width) with cond_width = {self.cond_width}")
        if cond.data.ndim == 1:
            cond = reshape(cond, (1, self.cond_width))
        return HeadCondition(matmul(cond, self.wc))

    def denoise(self, z_t, t: int, cond) -> Tensor:
        """Predict the clean unit: (H, C) with cond (cond_width,), or a batch
        (B, H, C) with cond (B, cond_width). ``cond`` is a raw condition or a
        ``HeadCondition`` from :meth:`condition`. ``z_t`` enters as data only;
        no caller needs its gradient."""
        z = as_tensor(z_t).data
        if z.ndim not in (2, 3) or z.shape[-2:] != self.unit_shape:
            raise DataError(f"noisy units {z.shape} are not (H, C) or (B, H, C) "
                            f"with (H, C) = {self.unit_shape}")
        if not isinstance(cond, HeadCondition):
            cond = self.condition(cond)
        rows = z.reshape(-1, self.unit_shape[0] * self.unit_shape[1])
        if cond.term.data.shape[0] != rows.shape[0]:
            raise DataError("condition rows do not match the batch")
        bias = add(cond.term, linear(self.time_embedding(t), self.wt, self.b1))
        return reshape(self.lin2(gelu(linear(rows, self.wz, bias))), z.shape)


def ddim_sample(denoise_fn, schedule: NoiseSchedule, steps: int,
                rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic DDIM (eta = 0) from seeded unit Gaussian noise.

    ``denoise_fn(z_t, t) -> z0_hat`` is called exactly ``steps`` times. Each
    update re-derives the implied noise from the clean prediction; the final
    step treats the previous alpha-bar as 1, i.e. returns z0_hat itself.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    timesteps = sample_timesteps(schedule.num_steps, steps)
    z = rng.standard_normal(shape)
    for i, t in enumerate(timesteps):
        abar_t = schedule.alpha_bar[t]
        z0_hat = np.asarray(denoise_fn(z, int(t)))
        if i + 1 < len(timesteps):
            abar_prev = schedule.alpha_bar[timesteps[i + 1]]
        else:
            abar_prev = 1.0
        eps_hat = (z - np.sqrt(abar_t) * z0_hat) / np.sqrt(1.0 - abar_t)
        z = np.sqrt(abar_prev) * z0_hat + np.sqrt(1.0 - abar_prev) * eps_hat
    return z


def head_denoiser(head: DiffusionHead, cond: np.ndarray):
    """Bind a condition into a ``denoise_fn`` for sampling.

    The condition is bound once, here; each call is one ``head.denoise`` with
    the bound condition, so a wrong-width condition raises ``DataError`` at
    binding time.
    """
    with no_grad():
        bound = head.condition(cond)

    def denoise_fn(z_t: np.ndarray, t: int) -> np.ndarray:
        with no_grad():
            return head.denoise(z_t, t, bound).data

    return denoise_fn
