"""Diffusion head tests: schedule laws, forward-noise law, DDIM oracle."""

import re

import numpy as np
import pytest

from composed_ops import gelu, matmul, tsum
from facestream import tensor
from facestream.diffusion import (
    DiffusionHead,
    NoiseSchedule,
    add_noise,
    build_schedule,
    ddim_sample,
    head_denoiser,
    sample_timesteps,
)
from facestream.fileio import DataError
from facestream.nn import glorot_uniform, sinusoid_table
from facestream.tensor import (
    NonFiniteError,
    Tensor,
    _topo_order,
    add,
    as_tensor,
    concat,
    linear,
    mul,
    no_grad,
)
from non_finite import assert_never_returns_non_finite


def _plan(denoise_fn):
    """A ``ddim_sample`` plan whose step i calls ``denoise_fn(z_t, t)`` at
    the i-th planned timestep ``t``, a Python int."""
    def plan(timesteps):
        return lambda z_t, i: denoise_fn(z_t, int(timesteps[i]))
    return plan


class TestSchedule:
    def test_endpoints_exact(self):
        s = build_schedule(1000)
        assert s.beta[0] == 0.00085
        assert s.beta[-1] == 0.012

    def test_alpha_bar_strictly_decreasing(self):
        s = build_schedule(1000)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[0] == 1.0 - s.beta[0]
        # independent oracle: direct product over the betas
        prod = 1.0
        for b in s.beta:
            prod *= 1.0 - b
        assert s.alpha_bar[-1] == pytest.approx(prod, rel=1e-12)
        assert s.alpha_bar[-1] < 0.01

    def test_betas_in_open_interval(self):
        s = build_schedule(500)
        assert np.all(s.beta > 0)
        assert np.all(s.beta < 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(1)

    @pytest.mark.parametrize("num_steps", [10.0, np.float64(10.0), 10.5, True],
                             ids=["float", "float64", "fraction", "bool"])
    def test_non_integer_length_rejected(self, num_steps):
        with pytest.raises(ValueError, match="integer"):
            build_schedule(num_steps)

    def test_numpy_integer_length_accepted(self):
        assert build_schedule(np.int64(10)).num_steps == 10


class TestAddNoise:
    def test_zero_noise(self):
        s = build_schedule(100)
        z0 = np.ones((2, 3))
        out = add_noise(z0, 40, np.zeros((2, 3)), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[40]) * z0)

    def test_zero_signal(self):
        s = build_schedule(100)
        eps = np.random.default_rng(0).normal(size=(2, 3))
        out = add_noise(np.zeros((2, 3)), 70, eps, s)
        np.testing.assert_allclose(out, np.sqrt(1 - s.alpha_bar[70]) * eps)

    def test_scalar_closed_form(self):
        s = NoiseSchedule(beta=np.array([0.1, 0.2]), alpha_bar=np.array([0.9, 0.25]))
        out = add_noise(np.array([1.0]), 1, np.array([2.0]), s)
        assert out[0] == pytest.approx(0.5 + np.sqrt(0.75) * 2.0, rel=1e-15)

    def test_variance_law(self):
        # sample variance of z_t - sqrt(abar) z0 approaches 1 - abar
        s = build_schedule(1000)
        rng = np.random.default_rng(7)
        t = 500
        z0 = np.full(10_000, 0.7)
        eps = rng.standard_normal(10_000)
        residual = add_noise(z0, t, eps, s) - np.sqrt(s.alpha_bar[t]) * z0
        target = 1.0 - s.alpha_bar[t]
        assert residual.var() == pytest.approx(target, rel=0.05)

    def test_shape_mismatch_rejected(self):
        s = build_schedule(10)
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), 5, np.zeros(4), s)

    def test_non_integer_timestep_rejected(self):
        s = build_schedule(10)
        z0, eps = np.ones(3), np.full(3, 0.5)
        for t in (1.5, 2.0, np.float64(3.0), "4"):
            with pytest.raises(ValueError, match="integer"):
                add_noise(z0, t, eps, s)
        np.testing.assert_array_equal(add_noise(z0, np.int64(4), eps, s),
                                      add_noise(z0, 4, eps, s))


def test_bool_timestep_rejected():
    """True and False hash like 1 and 0 but are not timesteps."""
    s = build_schedule(10)
    head = DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=10, seed=0)
    cond = np.zeros((1, 6))
    for flag in (True, False):
        with pytest.raises(ValueError, match="integer"):
            add_noise(np.ones(3), flag, np.ones(3), s)
        with pytest.raises(ValueError, match="integer"):
            head.condition(cond, [flag])
    with pytest.raises(ValueError, match="integer"):
        sample_timesteps(10, True)


class TestTimesteps:
    def test_uniform_stride_descending_from_last(self):
        ts = sample_timesteps(1000, 50)
        assert ts[0] == 999
        assert len(ts) == 50
        assert np.all(np.diff(ts) == -20)
        assert ts[-1] >= 0

    def test_single_step(self):
        np.testing.assert_array_equal(sample_timesteps(1000, 1), [999])

    def test_steps_beyond_schedule_rejected(self):
        with pytest.raises(ValueError):
            sample_timesteps(10, 11)

    def test_non_integer_steps_rejected(self):
        for steps in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="integer"):
                sample_timesteps(1000, steps)
            with pytest.raises(ValueError, match="integer"):
                ddim_sample(_plan(lambda z, t: z), build_schedule(100), steps,
                            np.random.default_rng(0), (1,))
        np.testing.assert_array_equal(sample_timesteps(1000, np.int32(50)),
                                      sample_timesteps(1000, 50))

    def test_non_integer_schedule_length_rejected(self):
        """A fractional length must not give float timesteps."""
        for num_steps in (10.5, 10.0, True, "10"):
            with pytest.raises(ValueError, match="num_steps must be an integer"):
                sample_timesteps(num_steps, 1)
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            sample_timesteps(0, 1)
        np.testing.assert_array_equal(sample_timesteps(np.int64(10), 2),
                                      sample_timesteps(10, 2))


class TestDDIM:
    def test_oracle_denoiser_recovered_exactly(self):
        """A denoiser that always answers z0* must yield z0* for any step count:
        substituting z0_hat = z0* into the update keeps the implied-noise term
        consistent, and the final step returns z0_hat itself."""
        s = build_schedule(1000)
        z_star = np.random.default_rng(1).normal(size=(4, 8))
        for steps in [1, 10, 50]:
            calls = []

            def oracle(z_t, t):
                calls.append(t)
                return z_star

            out = ddim_sample(_plan(oracle), s, steps, np.random.default_rng(0), (4, 8))
            np.testing.assert_allclose(out, z_star, atol=1e-6)
            assert len(calls) == steps  # denoise budget law

    def test_same_seed_same_output(self):
        s = build_schedule(100)
        head = DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=100,
                             seed=0)
        cond = np.random.default_rng(2).normal(size=6)
        a = ddim_sample(head_denoiser(head, cond), s, 10, np.random.default_rng(42), (2, 4))
        b = ddim_sample(head_denoiser(head, cond), s, 10, np.random.default_rng(42), (2, 4))
        np.testing.assert_array_equal(a, b)

    def test_plan_called_once_with_the_timesteps(self):
        s = build_schedule(1000)
        for steps in [1, 7, 50]:
            plans, calls = [], []

            def step(z_t, i):
                calls.append(i)
                return np.tanh(z_t)

            def plan(timesteps):
                plans.append(timesteps)
                return step

            ddim_sample(plan, s, steps, np.random.default_rng(0), (2, 3))
            assert len(plans) == 1
            np.testing.assert_array_equal(plans[0], sample_timesteps(1000, steps))
            assert plans[0].dtype == sample_timesteps(1000, steps).dtype
            assert calls == list(range(steps))

    @pytest.mark.parametrize("steps", [1, 7, 10, 50])
    def test_matches_per_step_formula(self, steps):
        """The coefficients computed once per unit give bit for bit the
        folded update with its coefficients computed at each step."""
        s = build_schedule(1000)
        got = ddim_sample(_plan(_oracle), s, steps, np.random.default_rng(5), (4, 8))
        want = _per_step_ddim(_oracle, s, steps, np.random.default_rng(5), (4, 8))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("steps", [1, 7, 10, 50])
    def test_matches_textbook_per_step_formula_within_rounding(self, steps):
        """Folding the update changes only the rounding. The bound, set
        before measuring: each of at most 50 steps rounds O(1) values a few
        ulps differently, so 1e-12 relative and 1e-13 absolute."""
        s = build_schedule(1000)
        got = ddim_sample(_plan(_oracle), s, steps, np.random.default_rng(5), (4, 8))
        want = _textbook_per_step_ddim(_oracle, s, steps, np.random.default_rng(5),
                                       (4, 8))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("steps", [1, 2, 10, 50])
    def test_in_place_update_matches_the_out_of_place_one(self, steps):
        """The update makes one new array per step and gives, byte for byte,
        the folded update's out-of-place expression, for an oracle and for a
        head's plan; the z each step was given is left as it was."""
        given = []

        def oracle(z_t, t):
            given.append((z_t, z_t.tobytes()))
            return _oracle(z_t, t)

        got, want = _oracle_and_head_samples(oracle, _out_of_place_ddim,
                                             build_schedule(1000), steps)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert given and all(z.tobytes() == data for z, data in given)

    @pytest.mark.parametrize("steps", [1, 2, 10, 50])
    def test_matches_textbook_out_of_place_update_within_rounding(self, steps):
        """The unfolded update the sampler ran before, against the folded
        one, within the bound of the per-step comparison."""
        got, want = _oracle_and_head_samples(_oracle, _textbook_out_of_place_ddim,
                                             build_schedule(1000), steps)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)

    def test_zero_steps_rejected(self):
        s = build_schedule(100)
        with pytest.raises(ValueError):
            ddim_sample(_plan(lambda z, t: z), s, 0, np.random.default_rng(0), (1,))

    def test_last_step_returns_a_finite_prediction_whose_noise_overflows(self):
        """The last step returns its prediction itself: with an overflowing
        implied noise, 1 * z0_hat + 0 * eps_hat would be 0 * inf = NaN."""
        s = build_schedule(100)
        with np.errstate(over="ignore", invalid="ignore"):
            out = ddim_sample(_plan(lambda z, t: np.full(z.shape, 1.7e308)), s, 10,
                              np.random.default_rng(0), (2, 4))
        np.testing.assert_array_equal(out, np.full((2, 4), 1.7e308))


def _oracle(z_t, t):
    return np.tanh(1.5 * z_t + 0.001 * t) - 0.2 * z_t * z_t


def _oracle_and_head_samples(denoise_fn, reference, schedule, steps):
    """``ddim_sample`` and ``reference`` over the same plans and seeds: first
    ``denoise_fn`` on a (4, 8) unit, then a head's plan on a batch of
    three (2, 4) units. Returns the two samples of each, as two lists."""
    head = DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=1000, seed=3)
    cond = np.random.default_rng(7).normal(size=(3, 6))
    cases = [(_plan(denoise_fn), 6, (4, 8)), (head_denoiser(head, cond), 8, (3, 2, 4))]
    got = [ddim_sample(plan, schedule, steps, np.random.default_rng(seed), shape)
           for plan, seed, shape in cases]
    want = [reference(plan, schedule, steps, np.random.default_rng(seed), shape)
            for plan, seed, shape in cases]
    return got, want


def _out_of_place_ddim(plan, schedule, steps, rng, shape):
    """``ddim_sample`` with its folded update written as one out-of-place
    expression, in the sampler's order."""
    timesteps = sample_timesteps(schedule.num_steps, steps)
    step = plan(timesteps)
    abar = schedule.alpha_bar[timesteps[:-1]]
    abar_prev = schedule.alpha_bar[timesteps[1:]]
    keep = np.sqrt(1.0 - abar_prev) / np.sqrt(1.0 - abar)
    coef = np.sqrt(abar_prev) - keep * np.sqrt(abar)
    z = rng.standard_normal(shape)
    for i in range(steps - 1):
        z = keep[i] * z + coef[i] * np.asarray(step(z, i))
    return np.asarray(step(z, steps - 1))


def _per_step_ddim(denoise_fn, schedule, steps, rng, shape):
    """The folded DDIM update with its two coefficients computed at each
    step; the last step's previous alpha-bar is 1, so keep is 0 and coef 1."""
    timesteps = sample_timesteps(schedule.num_steps, steps)
    z = rng.standard_normal(shape)
    for i, t in enumerate(timesteps):
        abar_t = schedule.alpha_bar[t]
        z0_hat = np.asarray(denoise_fn(z, int(t)))
        if i + 1 < len(timesteps):
            abar_prev = schedule.alpha_bar[timesteps[i + 1]]
        else:
            abar_prev = 1.0
        keep = np.sqrt(1.0 - abar_prev) / np.sqrt(1.0 - abar_t)
        coef = np.sqrt(abar_prev) - keep * np.sqrt(abar_t)
        z = keep * z + coef * z0_hat
    return z


def _textbook_out_of_place_ddim(plan, schedule, steps, rng, shape):
    """DDIM as the paper writes it, through the implied noise, with the
    square roots of every step taken ahead."""
    timesteps = sample_timesteps(schedule.num_steps, steps)
    step = plan(timesteps)
    abar = schedule.alpha_bar[timesteps[:-1]]
    abar_prev = schedule.alpha_bar[timesteps[1:]]
    roots = np.sqrt([abar, 1.0 - abar, abar_prev, 1.0 - abar_prev]).T.tolist()
    z = rng.standard_normal(shape)
    for i, (signal, noise, signal_prev, noise_prev) in enumerate(roots):
        z0_hat = np.asarray(step(z, i))
        eps_hat = (z - signal * z0_hat) / noise
        z = signal_prev * z0_hat + noise_prev * eps_hat
    return np.asarray(step(z, steps - 1))


def _textbook_per_step_ddim(denoise_fn, schedule, steps, rng, shape):
    """DDIM as the paper writes it, with every coefficient computed at its
    own step."""
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


def _one_step(head, z_t, t, cond):
    """``denoise`` at ``t`` through a one-step plan, as stage 2 binds it."""
    return head.denoise(z_t, head.condition(cond, [t])[0])


class TestHead:
    def make_head(self, seed=0):
        return DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=50,
                             seed=seed)

    def test_output_shape_and_determinism(self):
        head = self.make_head()
        z_t = np.random.default_rng(1).normal(size=(2, 4))
        cond = np.random.default_rng(2).normal(size=(1, 6))
        for t in [0, 7, 49]:
            out = _one_step(head, z_t, t, cond)
            assert out.data.shape == (1, 8)
        a = _one_step(head, z_t, 3, cond).data
        b = _one_step(head, z_t, 3, cond).data
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_single(self):
        head = self.make_head()
        r = np.random.default_rng(3)
        z = r.normal(size=(5, 2, 4))
        cond = r.normal(size=(5, 6))
        batch = _one_step(head, z, 11, cond).data
        for i in range(5):
            single = _one_step(head, z[i], 11, cond[i:i + 1]).data
            np.testing.assert_allclose(batch[i], single[0], atol=1e-12)

    def test_width_mismatch_rejected(self):
        from facestream.fileio import DataError
        head = self.make_head()
        with pytest.raises(DataError):
            _one_step(head, np.zeros((3, 4)), 0, np.zeros((1, 6)))
        with pytest.raises(DataError):
            _one_step(head, np.zeros((2, 4)), 0, np.zeros((1, 5)))
        # condition rows that do not match the batch, and a unit stack of rank 4
        for z_shape, cond_shape in [((5, 2, 4), (3, 6)), ((5, 2, 4), (1, 6)),
                                    ((2, 4), (3, 6)), ((3, 5, 2, 4), (15, 6))]:
            with pytest.raises(DataError):
                _one_step(head, np.zeros(z_shape), 0, np.zeros(cond_shape))
        # a whole (1, 1, hidden) table in place of its one row
        with pytest.raises(DataError):
            head.denoise(np.zeros((2, 4)), head.condition(np.zeros((1, 6)), [0]))

    def test_noisy_input_and_slices_stay_off_the_tape(self):
        head = self.make_head()
        r = np.random.default_rng(4)
        z_t = Tensor(r.normal(size=(2, 4)), requires_grad=True)
        table = head.condition(Tensor(r.normal(size=(1, 6)), requires_grad=True),
                               [9, 5])
        out = head.denoise(z_t, table[1])
        tsum(out).backward()
        order = _topo_order(out)
        assert all(node is not z_t for node in order)
        assert z_t.grad is None
        slices = [n for n in order if n._backward
                  and n._backward.__qualname__.split(".")[0] == "take_slice"]
        assert len(slices) == 1
        assert slices[0]._parents == (table,)

    def test_odd_cond_width_rejected(self):
        with pytest.raises(ValueError):
            DiffusionHead((2, 4), cond_width=5, hidden=8, num_steps=50)

    @pytest.mark.parametrize("field", ["unit_shape[0]", "unit_shape[1]", "cond_width",
                                       "hidden", "num_steps"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True])
    def test_counts_must_be_positive_integers(self, field, value):
        """``num_steps=1.5`` and ``unit_shape=(0, 4)`` used to build."""
        args = {"unit_shape[0]": 2, "unit_shape[1]": 4, "cond_width": 6, "hidden": 8,
                "num_steps": 50, field: value}
        unit_shape = (args.pop("unit_shape[0]"), args.pop("unit_shape[1]"))
        with pytest.raises(ValueError, match=re.escape(field) + " must be"):
            DiffusionHead(unit_shape, **args)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_bad_seed_rejected(self, seed):
        """A float seed leaked numpy's ``TypeError``."""
        with pytest.raises(ValueError, match="seed must be"):
            DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=50, seed=seed)

    def test_unit_shape_needs_two_entries(self):
        with pytest.raises(ValueError):
            DiffusionHead((2, 4, 1), cond_width=6, hidden=8, num_steps=50)

    @pytest.mark.parametrize("width", [6, 128])
    def test_sinusoid_table_matches_its_formula(self, width):
        """The frequencies are built once per width; each table equals the
        formula with fresh frequencies byte for byte, on every call."""
        positions = np.array([0, 1, 7, 999, 1000])
        k = np.arange(width // 2)
        angles = positions[:, None] * (1.0 / np.power(10000.0, 2.0 * k / width))[None, :]
        want = np.empty((5, width))
        want[:, 0::2], want[:, 1::2] = np.sin(angles), np.cos(angles)
        for _ in range(2):
            assert sinusoid_table(positions, width).tobytes() == want.tobytes()

    def test_time_embedding_sinusoid_structure(self):
        head = self.make_head()
        from facestream.nn import sinusoid_table
        base0 = sinusoid_table(np.array([0.0]), 6)
        np.testing.assert_allclose(base0[0, 0::2], 0.0)  # sin parts
        np.testing.assert_allclose(base0[0, 1::2], 1.0)  # cos parts
        # injectivity for small t
        seen = {tuple(sinusoid_table(np.array([float(t)]), 6)[0]) for t in range(50)}
        assert len(seen) == 50


def _taped_ops(nodes):
    return [n._backward.__qualname__.split(".")[0] for n in nodes if n._backward]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _concatenated_denoise(head, z_t, t, cond):
    """The first layer as one concatenated input times the stacked blocks."""
    rows = as_tensor(z_t.reshape(-1, head.wz.data.shape[0]))
    t_emb = head.time_proj(sinusoid_table(np.array([float(t)]), head.cond_width))
    t_rows = matmul(as_tensor(np.ones((rows.data.shape[0], 1))), t_emb)
    x = concat([rows, cond, t_rows], axis=1)
    w1 = concat([head.wz, head.wc, head.wt], axis=0)
    return head.lin2(gelu(add(matmul(x, w1), head.b1)))


def _run_with_grads(head, fn, z, t, cond0, weight):
    """``fn(z, t, cond)``'s output rows, with the gradients of a weighted sum
    of them for the condition and every head parameter."""
    head.store.zero_grads()
    cond = Tensor(cond0, requires_grad=True)
    out = fn(z, t, cond)
    tsum(mul(out, weight.reshape(out.data.shape))).backward()
    return out.data, cond.grad, [p.grad for p in head.store.tensors()]


def _assert_runs_close(got, want):
    (out_g, cond_g, params_g), (out_w, cond_w, params_w) = got, want
    assert _rel_err(out_g, out_w) < 1e-12
    assert _rel_err(cond_g, cond_w) < 1e-12
    assert len(params_g) == 8
    for g_g, g_w in zip(params_g, params_w):
        assert _rel_err(g_g, g_w) < 1e-12


class TestBoundCondition:
    """The first layer split by input block, with the condition bound once."""

    def make_head(self, seed=0):
        return DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=50,
                             seed=seed)

    def inputs(self, batch, seed=0):
        r = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        return r.normal(size=lead + (2, 4)), r.normal(size=(batch or 1, 6))

    def test_blocks_are_rows_of_one_glorot_draw(self):
        head = self.make_head(seed=3)
        rng = np.random.default_rng(3)
        time_w = glorot_uniform(rng, 6, 6)
        w1 = glorot_uniform(rng, 8 + 2 * 6, 8)
        np.testing.assert_array_equal(head.time_proj.w.data, time_w)
        np.testing.assert_array_equal(
            np.vstack([head.wz.data, head.wc.data, head.wt.data]), w1)
        np.testing.assert_array_equal(head.lin2.w.data, glorot_uniform(rng, 8, 8))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_concatenated_reference(self, batch):
        """Output, condition gradient and all head gradients at every planned
        timestep, with the plan bound under the tape: the unit's whole plan,
        as the sampler binds it, and a one-step plan, as stage 2 binds it."""
        head = self.make_head()
        z, cond0 = self.inputs(batch, seed=1)
        weight = np.random.default_rng(2).normal(size=z.shape)
        for i, t in enumerate(TestPlan.PLAN.tolist()):
            want = _run_with_grads(head, lambda *a: _concatenated_denoise(head, *a),
                                   z, t, cond0, weight)
            for fn in (lambda z, t, c: head.denoise(z, head.condition(c, TestPlan.PLAN)[i]),
                       lambda *a: _one_step(head, *a)):
                _assert_runs_close(_run_with_grads(head, fn, z, t, cond0, weight), want)

    @pytest.mark.parametrize("batch", [None, 3])
    def test_bound_paths_are_bit_identical(self, batch):
        head = self.make_head()
        z, cond = self.inputs(batch, seed=4)
        direct = head.denoise(z, head.condition(cond, [40, 23, 6])[1]).data
        step = head_denoiser(head, cond)(np.array([40, 23, 6]))
        np.testing.assert_array_equal(step(z, 1), direct.reshape(z.shape))

    def test_step_records_only_the_step_dependent_nodes(self):
        """A one-step table, as stage 2 binds it: the step slices the
        table's only row and records the same nodes as a sampler step."""
        head = self.make_head()
        z, cond = self.inputs(None, seed=5)
        table = head.condition(Tensor(cond, requires_grad=True), [9])
        out = head.denoise(z, table[0])
        binding = {id(n) for n in _topo_order(table)}
        step = [n for n in _topo_order(out) if id(n) not in binding]
        assert sorted(_taped_ops(step)) == ["feed_forward", "take_slice"]

    def test_wrong_condition_rejected_when_bound(self):
        head = self.make_head()
        for shape in [(5,), (2, 7), (1, 2, 6), ()]:
            with pytest.raises(DataError):
                head.condition(np.zeros(shape), [0])
            with pytest.raises(DataError):
                head_denoiser(head, np.zeros(shape))
        # head_denoiser binds a (cond_width,) condition as one row; condition
        # itself takes only (B, cond_width) rows
        with pytest.raises(DataError):
            head.condition(np.zeros(6), [0])

    @pytest.mark.parametrize("batch", [None, 3])
    def test_head_denoiser_returns_the_noisy_shape(self, batch):
        head = self.make_head()
        z, cond = self.inputs(batch, seed=6)
        step = head_denoiser(head, cond[0] if batch is None else cond)(np.array([40, 23, 6]))
        for i in range(3):
            assert step(z, i).shape == z.shape

    def test_time_embedding_follows_timestep_and_weight_writes(self):
        """Each call's time terms come from the current weights, so an
        in-place weight write shows at once."""
        head = self.make_head()
        for scale in (1.0, 2.0):
            head.time_proj.w.data *= scale
            for t in (7, 3, 7):
                row = Tensor(sinusoid_table(np.array([float(t)]), 6))
                want = linear(head.time_proj(row), head.wt, head.b1).data
                np.testing.assert_array_equal(head.time_terms([t]).data[0], want)


class TestPlan:
    """A condition bound with the unit's timesteps: one table of time terms."""

    PLAN = np.array([45, 30, 17, 4])
    make_head = TestBoundCondition.make_head
    inputs = TestBoundCondition.inputs

    @pytest.mark.parametrize("batch", [None, 3])
    def test_planned_matches_unplanned(self, batch):
        """Output, condition gradient and all head gradients, with the plan
        bound under the tape: the unit's whole plan against a plan of only
        the step being taken, bound afresh at every step."""
        head = self.make_head()
        z, cond0 = self.inputs(batch, seed=1)
        weight = np.random.default_rng(2).normal(size=z.shape)
        for i, t in enumerate(self.PLAN.tolist()):
            planned = _run_with_grads(
                head, lambda z, t, c: head.denoise(z, head.condition(c, self.PLAN)[i]),
                z, t, cond0, weight)
            unplanned = _run_with_grads(head, lambda *a: _one_step(head, *a),
                                        z, t, cond0, weight)
            _assert_runs_close(planned, unplanned)

    def test_planned_step_records_only_the_z_dependent_nodes(self):
        head = self.make_head()
        z, cond = self.inputs(None, seed=5)
        table = head.condition(Tensor(cond, requires_grad=True), self.PLAN)
        out = head.denoise(z, table[2])
        binding = {id(n) for n in _topo_order(table)}
        step = [n for n in _topo_order(out) if id(n) not in binding]
        assert sorted(_taped_ops(step)) == ["feed_forward", "take_slice"]

    def test_planned_timestep_outside_schedule_rejected(self):
        head = self.make_head()
        for plan in ([49, 50], [-1], [3, 100]):
            with pytest.raises(ValueError):
                head.condition(np.zeros((1, 6)), np.array(plan))

    def test_non_integer_timestep_rejected(self):
        """A fractional timestep is not planned under its integer part."""
        head = self.make_head()
        z, cond = self.inputs(None, seed=6)
        for plan in ([5.5], np.array([5.5]), [5.0], [3, 5.5]):
            with pytest.raises(ValueError, match="integer"):
                head.condition(cond, plan)
        want = head.denoise(z, head.condition(cond, [5])[0]).data
        for plan in ([np.int64(5)], np.array([5], dtype=np.int32)):
            np.testing.assert_array_equal(
                head.denoise(z, head.condition(cond, plan)[0]).data, want)

    def test_time_terms_follow_weight_writes(self):
        head = self.make_head()
        for scale in (1.0, 2.0):
            head.wt.data *= scale
            terms = head.time_terms(self.PLAN).data
            assert terms.shape == (len(self.PLAN), 1, 8)
            for row, t in zip(terms, self.PLAN):
                emb = head.time_proj(sinusoid_table(np.array([float(t)]), 6)).data
                want = emb @ head.wt.data + head.b1.data
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-15)

    def test_head_denoiser_binds_inside_plan(self, monkeypatch):
        """``head_denoiser`` only checks the condition; ``ddim_sample`` binds
        it through ``plan``, and sampling matches a denoiser that binds a
        one-step plan at every step."""
        head = DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=100, seed=0)
        s = build_schedule(100)
        cond = np.random.default_rng(6).normal(size=6)
        nodes = []
        record = tensor._node
        monkeypatch.setattr(tensor, "_node",
                            lambda *a: nodes.append(a[-1]) or record(*a))
        plan = head_denoiser(head, cond)
        assert nodes == []
        plan(sample_timesteps(100, 10))
        assert sorted(nodes) == ["linear", "linear", "linear"]
        monkeypatch.setattr(tensor, "_node", record)
        planned = ddim_sample(head_denoiser(head, cond), s, 10,
                              np.random.default_rng(7), (2, 4))
        one_step = ddim_sample(
            _plan(lambda z, t: _one_step(head, z, t, cond[None]).data.reshape(z.shape)),
            s, 10, np.random.default_rng(7), (2, 4))
        assert _rel_err(planned, one_step) < 1e-12


@pytest.mark.parametrize("weight", ["lin1.wz", "lin2.w", "lin1.wt", "lin1.b", "time.w"])
def test_sampler_raises_before_returning_non_finite_units(weight):
    """The stream's head path keeps its finite checks: scale one weight until
    the sampler stops returning, and every unit it returned on the way was
    finite. The time-path weights (``lin1.wt``, ``lin1.b``, ``time.w``) feed
    the time table the head keeps between units, so this also shows that a
    kept table is not reused after an in-place write."""
    head = DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=100, seed=0)
    s = build_schedule(100)
    cond = np.random.default_rng(8).normal(size=6)
    param = head.store[weight]
    if not param.data.any():
        param.data += 0.5   # a bias starts at zero, which no scaling overflows
    with np.errstate(over="ignore", invalid="ignore"), no_grad():
        for _ in range(5):
            param.data *= 1e100
            try:
                units = ddim_sample(head_denoiser(head, cond), s, 10,
                                    np.random.default_rng(9), (2, 4))
            except NonFiniteError:
                return
            assert np.isfinite(units).all()
    pytest.fail("the scaled weight never overflowed")


def swept_head():
    return DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=100, seed=3)


def _overflow(a):
    """Scale ``a`` in place past overflow; a zero bias is moved off zero."""
    if not a.any():
        a += 0.5
    a *= 1e300
    a *= 1e300


def _one_nan(a):
    a.flat[0] = np.nan


@pytest.mark.parametrize("name", swept_head().store.names())
def test_denoise_never_returns_non_finite_units(name):
    """Off the tape ``denoise`` is an op: it checks nothing of its own, and
    the sampled unit is the one checked call. Whatever one parameter holds,
    a planned step of a batch returns without raising, and ``ddim_sample``
    over that plan raises ``NonFiniteError`` instead of returning the
    spoiled unit."""
    head = swept_head()
    cond = np.random.default_rng(4).normal(size=(2, 6))
    z = np.random.default_rng(5).normal(size=(2, 2, 4))
    s = build_schedule(100)
    param = head.store[name]
    original = param.data.copy()
    for spoil in (_overflow, _one_nan):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                spoil(param.data)
                step = head_denoiser(head, cond)(sample_timesteps(100, 10))
                assert not np.isfinite(step(z, 6)).all()
                with pytest.raises(NonFiniteError, match="ddim_sample"):
                    ddim_sample(head_denoiser(head, cond), s, 10,
                                np.random.default_rng(7), (2, 2, 4))
            finally:
                param.data[...] = original


@pytest.mark.parametrize("name", swept_head().store.names())
def test_sampler_never_returns_non_finite_units(name):
    """The same for a whole DDIM run of the head, as a stream samples a unit."""
    head = swept_head()
    cond = np.random.default_rng(6).normal(size=6)
    s = build_schedule(100)
    assert_never_returns_non_finite(
        lambda: ddim_sample(head_denoiser(head, cond), s, 10,
                            np.random.default_rng(7), (2, 4)),
        head.store[name])


def test_sampler_checks_a_fixed_number_of_arrays_whatever_its_steps(monkeypatch):
    """The finite checks of one sampled unit do not grow with the step
    count: the condition leaf, the time table's sinusoid leaf and the unit
    the sampler returns, none per step."""
    counts = {}
    original = tensor._check_finite
    for steps in (1, 10, 50):
        head, calls = swept_head(), []
        monkeypatch.setattr(tensor, "_check_finite",
                            lambda *a: calls.append(a[-1]) or original(*a))
        ddim_sample(head_denoiser(head, np.ones(6)), build_schedule(100),
                    steps, np.random.default_rng(7), (2, 4))
        monkeypatch.setattr(tensor, "_check_finite", original)
        counts[steps] = calls
    assert counts[1] == counts[10] == counts[50] == ["leaf", "leaf", "ddim_sample"]


class TestTimeTable:
    """Off the tape the head keeps its last time table and reuses it only
    while the timesteps and the four weights it was built from are equal."""

    TIME_WEIGHTS = ["time.w", "time.b", "lin1.wt", "lin1.b"]

    @staticmethod
    def make_head():
        return DiffusionHead((2, 4), cond_width=6, hidden=8, num_steps=100, seed=0)

    @staticmethod
    def sample(head, steps, seed=9):
        cond = np.random.default_rng(8).normal(size=6)
        return ddim_sample(head_denoiser(head, cond), build_schedule(100), steps,
                           np.random.default_rng(seed), (2, 4))

    @classmethod
    def fresh_copy(cls, head):
        fresh = cls.make_head()
        fresh.store.load_state(head.store.state())
        return fresh

    @pytest.mark.parametrize("weight", TIME_WEIGHTS)
    def test_in_place_write_shows_at_once(self, weight):
        head = self.make_head()
        before = self.sample(head, 10)
        head.store[weight].data += 0.5
        after = self.sample(head, 10)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, self.sample(self.fresh_copy(head), 10))

    def test_step_counts_in_turn_match_fresh_heads_with_one_entry(self):
        head = self.make_head()
        for steps in (10, 50, 10):
            np.testing.assert_array_equal(self.sample(head, steps),
                                          self.sample(self.make_head(), steps))
            table, timesteps, weights = head._time_entry
            np.testing.assert_array_equal(timesteps, sample_timesteps(100, steps))
            assert table.data.shape == (steps, 1, 8)
            assert len(weights) == len(self.TIME_WEIGHTS)

    def test_a_kept_table_records_one_node(self, monkeypatch):
        head = self.make_head()
        cond = np.random.default_rng(8).normal(size=(1, 6))
        plan = sample_timesteps(100, 10)
        nodes = []
        record = tensor._node
        monkeypatch.setattr(tensor, "_node",
                            lambda *a: nodes.append(a[-1]) or record(*a))
        with no_grad():
            first = head.condition(cond, plan)
            assert nodes == ["linear"] * 3
            del nodes[:]
            again = head.condition(cond, plan)
        assert nodes == ["linear"]
        np.testing.assert_array_equal(again.data, first.data)

    def test_kept_table_does_not_skip_timestep_checks(self):
        """Timesteps equal in value but not in type are checked afresh."""
        head = self.make_head()
        cond = np.random.default_rng(8).normal(size=(1, 6))
        with no_grad():
            head.condition(cond, [5])
            for plan in ([5.0], np.array([5.0]), [True]):
                with pytest.raises(ValueError, match="integer"):
                    head.condition(cond, plan)

    def test_taped_plan_after_an_untaped_one_trains_the_time_path(self, monkeypatch):
        head = self.make_head()
        z, cond = np.random.default_rng(5).normal(size=(2, 4)), np.ones((1, 6))
        plan = sample_timesteps(100, 10)
        with no_grad():
            head.condition(cond, plan)
        nodes = []
        record = tensor._node
        monkeypatch.setattr(tensor, "_node",
                            lambda *a: nodes.append(a[-1]) or record(*a))
        table = head.condition(cond, plan)
        assert nodes == ["linear"] * 3
        monkeypatch.setattr(tensor, "_node", record)
        tsum(head.denoise(z, table[3])).backward()
        for name in ("time.w", "lin1.wt", "lin1.b"):
            grad = head.store[name].grad
            assert grad is not None and np.abs(grad).max() > 0, name
