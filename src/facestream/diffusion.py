"""Diffusion head: scaled-linear noise schedule, a one-hidden-layer denoiser
that predicts the clean latent unit directly, and a deterministic DDIM sampler.

The denoiser consumes the noisy unit, the per-unit condition vector from the
autoregressive predictor, and a sinusoidal timestep embedding. Its first layer
keeps one weight block per input (noisy unit, condition, time). Only the
noisy-unit block depends on ``z_t``, so ``DiffusionHead.condition`` adds the
condition's product to the time term of each timestep in one fused node,
which gives a table with one row per timestep, and ``denoise`` takes one row
of that table and does only the work that depends on ``z_t``: one fused
``feed_forward`` node whose first bias is that row. ``denoise`` returns flat
(B, H*C) rows; callers restore the unit shape, the sampler in numpy and
stage-2 training on the tape. Training and sampling share this one path.
Off the tape ``denoise`` checks nothing of its own, like any op: the sampled
unit is the one checked model call. ``ddim_sample`` checks the unit it
returns once, and that covers every step, since each DDIM update carries a
non-finite prediction into the next step's noisy unit and the head's
products and GELU carry it on into the last prediction. On the tape the
fused ``feed_forward`` checks its hidden layer and its output, so stage-2
training names the op that failed.
Stage-2 training builds the table of the one timestep it draws; the sampler
hands its plan (``head_denoiser``) a unit's whole descending timestep
sequence once, and each of its steps reads the next row.
The time terms depend only on the timesteps and four weights, so off the
tape the head keeps the last table of them with copies of those weights and
reuses it while the timesteps and weights are equal: units sampled at one
step count share it, and an in-place weight write shows at once. Sampling
walks a uniform-stride descending subsequence of the training timesteps with
eta=0; the final step returns the clean prediction itself, so a perfect
denoiser is recovered exactly regardless of the step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import DataError, check_count, check_integer
from .nn import Linear, glorot_uniform, sinusoid_table
from .tensor import (
    ParamStore,
    Tensor,
    as_tensor,
    bare_node,
    checked,
    feed_forward,
    linear,
    no_grad,
    recording,
)

BETA_START = 0.00085   # the schedule's first and last noise variances
BETA_END = 0.012


@dataclass
class NoiseSchedule:
    """Beta and cumulative alpha-bar tables for the forward process."""

    beta: np.ndarray
    alpha_bar: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.beta.shape[0]


def build_schedule(num_steps: int = 1000) -> NoiseSchedule:
    """Scaled-linear schedule: sqrt(beta) is linear in t.

    Endpoints are pinned exactly to ``BETA_START`` / ``BETA_END`` (the sqrt
    round trip can drift by an ulp otherwise).
    """
    check_integer(num_steps, "num_steps")
    if num_steps < 2:
        raise ValueError("schedule needs at least 2 steps")
    beta = np.linspace(np.sqrt(BETA_START), np.sqrt(BETA_END), num_steps) ** 2
    beta[0] = BETA_START
    beta[-1] = BETA_END
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(beta=beta, alpha_bar=alpha_bar)


def add_noise(z0: np.ndarray, t: int, eps: np.ndarray,
              schedule: NoiseSchedule) -> np.ndarray:
    """Forward process: z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    check_integer(t, "timestep")
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
    check_count(num_steps, "num_steps")
    check_count(steps, "steps")
    if steps > num_steps:
        raise ValueError("steps cannot exceed the schedule length")
    stride = num_steps // steps
    return num_steps - 1 - stride * np.arange(steps)


class DiffusionHead:
    """One-hidden-layer MLP predicting the clean unit from (z_t, cond, t).

    The first layer is ``[z, cond, t_emb] @ [wz; wc; wt] + b`` kept as three
    weight blocks, so no step concatenates its inputs.
    """

    def __init__(self, unit_shape: tuple[int, int], cond_width: int, hidden: int,
                 num_steps: int, seed: int = 0):
        length, width = unit_shape   # ValueError unless two entries
        for name, value in (("unit_shape[0]", length), ("unit_shape[1]", width),
                            ("cond_width", cond_width), ("hidden", hidden),
                            ("num_steps", num_steps)):
            check_count(value, name)
        check_count(seed, "seed", zero_ok=True)
        if cond_width % 2:
            raise ValueError(f"cond_width must be even for the sinusoid "
                             f"timestep features, got {cond_width}")
        self.unit_shape = tuple(unit_shape)
        self.cond_width = cond_width
        self.num_steps = num_steps
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        unit_size = length * width
        self.time_proj = Linear(self.store, "time", cond_width, cond_width, rng)
        w1 = glorot_uniform(rng, unit_size + 2 * cond_width, hidden)
        self.wz = self.store.create("lin1.wz", w1[:unit_size])
        self.wc = self.store.create("lin1.wc", w1[unit_size:unit_size + cond_width])
        self.wt = self.store.create("lin1.wt", w1[unit_size + cond_width:])
        self.b1 = self.store.create("lin1.b", np.zeros(hidden))
        self.lin2 = Linear(self.store, "lin2", hidden, unit_size, rng)
        # the last untaped time table: (table, timesteps, copies of the weights)
        self._time_entry: tuple[Tensor, np.ndarray, tuple[np.ndarray, ...]] | None = None

    def time_terms(self, timesteps) -> Tensor:
        """The first layer's time term ``time_proj(sinusoid(t)) @ wt + b`` for
        each of ``timesteps``, (S, 1, hidden), as two batched products.

        ``timesteps`` must be a non-empty 1-D integer array of steps in
        [0, num_steps), else ``ValueError``; every call checks it. A table
        built off the tape is kept, with the timesteps and copies of the four
        weights it read (``time.w``, ``time.b``, ``lin1.wt`` and ``lin1.b``).
        A later call with equal timesteps and weights equal to those copies
        returns it; any other call builds a table the same way, which
        replaces the kept one, so an in-place weight write shows at once. A
        call that goes on the tape (recording, with one of the four requiring
        a gradient) builds its own table on the tape and leaves the kept one
        alone.
        """
        params = (self.time_proj.w, self.time_proj.b, self.wt, self.b1)
        steps = np.asarray(timesteps)
        if steps.ndim != 1 or steps.size == 0 or steps.dtype.kind not in "iu":
            raise ValueError(f"timesteps must be a non-empty 1-D integer array, "
                             f"got {timesteps!r}")
        if steps.min() < 0 or steps.max() >= self.num_steps:
            raise ValueError(f"timesteps {steps.tolist()} outside schedule")
        taped = recording(params)
        if not taped and self._time_entry is not None:
            table, kept_steps, kept = self._time_entry
            if np.array_equal(steps, kept_steps) \
                    and all(np.array_equal(p.data, k) for p, k in zip(params, kept)):
                return table
        sinusoids = sinusoid_table(steps, self.cond_width)[:, None]
        table = linear(self.time_proj(sinusoids), self.wt, self.b1)
        if not taped:
            self._time_entry = (table, steps.copy(), tuple(p.data.copy() for p in params))
        return table

    def _checked_condition(self, cond) -> Tensor:
        cond = as_tensor(cond)
        if cond.data.ndim != 2 or cond.data.shape[1] != self.cond_width:
            raise DataError(f"condition {cond.data.shape} is not (B, cond_width) "
                            f"with cond_width = {self.cond_width}")
        return cond

    def condition(self, cond, timesteps) -> Tensor:
        """The (S, B, hidden) table of a (B, cond_width) condition at
        ``timesteps``: row i is the first layer's bias at ``timesteps[i]``,
        ``cond @ wc`` plus that step's time term (``time_terms``), built as
        one fused ``linear`` node. ``denoise`` reads one row. The sampler
        binds a unit's whole timestep sequence, and stage-2 training the one
        timestep it draws. Binding records tape nodes like any op, so a table
        bound under the tape passes gradients to the condition and the head.
        Off the tape, a table whose time terms the head has kept (see
        ``time_terms``) builds only that one node.
        """
        cond = self._checked_condition(cond)
        return linear(cond, self.wc, self.time_terms(timesteps))

    def denoise(self, z_t, row: Tensor) -> Tensor:
        """Predict the clean units of ``z_t``, (H, C) or (B, H, C), as
        (B, H*C) rows. ``row`` is one (B, hidden) row of a :meth:`condition`
        table, one condition row per unit (B = 1 for a single unit); a unit
        shape or a row count that does not match raises ``DataError``.
        ``z_t`` enters as data only, an unchecked ``bare_node``; no caller
        needs its gradient. Off the tape this is an op like
        ``feed_forward``: a non-finite value in ``z_t``, the row or a weight
        reaches the result unchecked, and the caller's check catches it
        (``ddim_sample`` checks the unit it returns). On the tape the fused
        ``feed_forward`` checks its hidden layer and its output, and so
        every non-finite value this call makes."""
        z = np.asarray(z_t.data if isinstance(z_t, Tensor) else z_t)
        if z.ndim not in (2, 3) or z.shape[-2:] != self.unit_shape:
            raise DataError(f"noisy units {z.shape} are not (H, C) or (B, H, C) "
                            f"with (H, C) = {self.unit_shape}")
        rows = bare_node(z.reshape(-1, self.unit_shape[0] * self.unit_shape[1]))
        if row.data.ndim != 2 or row.data.shape[0] != rows.data.shape[0]:
            raise DataError("condition rows do not match the batch")
        return feed_forward(rows, self.wz, row, self.lin2.w, self.lin2.b)


def ddim_sample(plan, schedule: NoiseSchedule, steps: int,
                rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic DDIM (eta = 0) from seeded unit Gaussian noise.

    ``plan(timesteps)`` is called once, with the whole descending timestep
    array from ``sample_timesteps``, so it can bind a unit's per-step work in
    one go. It returns ``step(z_t, i) -> z0_hat``, the clean prediction at
    ``timesteps[i]``, which is called for i = 0 ... steps - 1 in order. Each
    update re-derives the implied noise from the clean prediction; the final
    step's previous alpha-bar is 1, so its prediction is returned itself.
    A step returns an array of ``z_t``'s shape and dtype, which the update
    only reads.

    The update ``z = signal_prev * z0_hat + noise_prev * eps_hat``, with
    ``eps_hat = (z - signal * z0_hat) / noise``, runs its six ufuncs in that
    order into two new arrays per step, the noise estimate and the next
    ``z``. A step may keep the ``z_t`` it was given, so no ``z`` is
    overwritten.

    The returned unit is checked for finiteness (``checked``), once for all
    the steps, and a non-finite one raises ``NonFiniteError``. A step need
    not check its own prediction: the update carries a NaN or ±inf in any
    prediction into the next ``z``, and a step that reads every entry of
    its ``z_t``, as the head does, carries it into its own prediction. On
    the way numpy may emit the ``RuntimeWarning``s that ``no_grad``
    describes.
    """
    timesteps = sample_timesteps(schedule.num_steps, steps)
    step = plan(timesteps)
    abar = schedule.alpha_bar[timesteps[:-1]]
    abar_prev = schedule.alpha_bar[timesteps[1:]]
    roots = np.sqrt([abar, 1.0 - abar, abar_prev, 1.0 - abar_prev]).T.tolist()
    z = rng.standard_normal(shape)
    for i, (signal, noise, signal_prev, noise_prev) in enumerate(roots):
        z0_hat = np.asarray(step(z, i))
        eps_hat = signal * z0_hat
        np.subtract(z, eps_hat, out=eps_hat)
        eps_hat /= noise
        z = signal_prev * z0_hat
        eps_hat *= noise_prev
        z += eps_hat
    return checked(np.asarray(step(z, steps - 1)), "ddim_sample")


def head_denoiser(head: DiffusionHead, cond: np.ndarray):
    """The ``ddim_sample`` plan of ``head`` for a condition, (cond_width,)
    or (B, cond_width).

    A wrong-width or wrong-rank condition raises ``DataError`` here, and
    nothing is recorded until the plan runs. The plan binds the condition
    and every timestep's time term at once (``DiffusionHead.condition``)
    under ``no_grad``; its step i is one ``head.denoise`` with row i of that
    table, returned in ``z_t``'s shape. A step checks nothing of its own:
    ``ddim_sample`` checks the unit it returns.
    """
    cond = np.asarray(cond)
    cond = head._checked_condition(cond.reshape(1, -1) if cond.ndim == 1 else cond)

    def plan(timesteps: np.ndarray):
        with no_grad():
            table = head.condition(cond, timesteps)

        def step(z_t: np.ndarray, i: int) -> np.ndarray:
            with no_grad():
                return head.denoise(z_t, table[i]).data.reshape(z_t.shape)

        return step

    return plan
