"""Condition predictor tests: history selection, ALiBi, masks, causality."""

import numpy as np
import pytest

from facestream.fileio import DataError
from facestream.nn import alibi_bias, alibi_slopes
from facestream.predictor import (
    ConditionPredictor,
    PredictorConfig,
    alignment_mask,
    history_capacity,
    select_history,
)
from facestream.tensor import mul, no_grad, tsum


def tiny_config(**overrides):
    cfg = dict(hidden=16, heads=2, layers=1, ff=32, audio_width=4, components=2,
               latent_width=6, num_speakers=2, history_frames=8)
    cfg.update(overrides)
    return PredictorConfig(**cfg)


def random_units(n, components=2, width=6, seed=0):
    r = np.random.default_rng(seed)
    return [r.normal(size=(components, width)) for _ in range(n)]


class TestSelectHistory:
    def test_short_history_returned_whole(self):
        units = random_units(10)
        window = select_history(units, h_frames=30, components=2)  # cap 15
        assert len(window) == 10

    def test_long_history_truncated_to_most_recent(self):
        units = random_units(50)
        window = select_history(units, h_frames=120, components=4)  # cap 30
        assert len(window) == 30
        np.testing.assert_array_equal(window[-1], units[-1])
        np.testing.assert_array_equal(window[0], units[20])

    def test_empty_history_is_a_cold_start(self):
        window = select_history([], h_frames=8, components=2)
        assert len(window) == 0

    def test_capacity_rounds_up(self):
        assert history_capacity(7, 2) == 4
        assert history_capacity(8, 2) == 4


class TestAlibi:
    def test_zero_on_diagonal(self):
        bias = alibi_bias(5, 3)
        for k in range(3):
            np.testing.assert_array_equal(np.diag(bias[k]), np.zeros(5))

    def test_four_head_slopes(self):
        np.testing.assert_allclose(alibi_slopes(4),
                                   [2.0 ** -2, 2.0 ** -4, 2.0 ** -6, 2.0 ** -8])

    def test_distance_times_slope(self):
        bias = alibi_bias(6, 4)
        # head 0 slope is 0.25; distance 2 gives -0.5
        assert bias[0, 4, 2] == pytest.approx(-0.5)


class TestAlignmentMask:
    def test_identity_when_one_frame_per_unit(self):
        mask = alignment_mask(4, 4, components=1)
        np.testing.assert_array_equal(mask, np.eye(4, dtype=bool))

    def test_unit_zero_gets_first_interval(self):
        mask = alignment_mask(3, 12, components=4)
        np.testing.assert_array_equal(np.flatnonzero(mask[0]), [0, 1, 2, 3])
        np.testing.assert_array_equal(np.flatnonzero(mask[1]), [4, 5, 6, 7])

    def test_audio_underrun_rejected(self):
        with pytest.raises(DataError, match="audio underrun"):
            alignment_mask(3, 5, components=2)

    def test_trailing_audio_is_masked_not_rejected(self):
        mask = alignment_mask(2, 9, components=2)
        assert not mask[:, 4:].any()


class TestPredictor:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = ConditionPredictor(self.cfg, seed=0)

    def conditions(self, units, audio, style=0):
        """Every condition row, as stage 2 reads them."""
        with no_grad():
            window = select_history(units, self.cfg.history_frames,
                                    self.cfg.components)
            return self.model.every_row(window, audio, style).data

    def test_empty_window_gives_single_condition(self):
        audio = np.random.default_rng(0).normal(size=(2, 4))
        out = self.conditions([], audio)
        assert out.shape == (1, self.cfg.hidden)
        with no_grad():
            assert self.model([], audio, 0).data.shape == (1, self.cfg.hidden)

    def test_output_length_is_window_plus_one(self):
        r = np.random.default_rng(1)
        units = random_units(3, seed=2)
        audio = r.normal(size=(8, 4))
        out = self.conditions(units, audio)
        assert out.shape == (4, self.cfg.hidden)

    def test_deterministic(self):
        units = random_units(2, seed=3)
        audio = np.random.default_rng(4).normal(size=(6, 4))
        a = self.conditions(units, audio)
        b = self.conditions(units, audio)
        np.testing.assert_array_equal(a, b)

    def test_causal_in_history(self):
        """Perturbing window unit j leaves conditions at positions <= j unchanged."""
        r = np.random.default_rng(5)
        units = random_units(4, seed=6)
        audio = r.normal(size=(10, 4))
        base = self.conditions(units, audio)
        for j in range(4):
            bumped = [u.copy() for u in units]
            bumped[j] = bumped[j] + r.normal(size=bumped[j].shape)
            out = self.conditions(bumped, audio)
            assert np.abs(out[:j + 1] - base[:j + 1]).max() < 1e-9
            assert np.abs(out[j + 1] - base[j + 1]).max() > 1e-9  # influence exists

    def test_audio_locality(self):
        """Conditions only change where the alignment mask admits the frame."""
        r = np.random.default_rng(7)
        units = random_units(3, seed=8)
        audio = r.normal(size=(8, 4))
        base = self.conditions(units, audio)
        for frame in range(8):
            bumped = audio.copy()
            bumped[frame] += r.normal(size=4)
            out = self.conditions(units, bumped)
            owner = frame // self.cfg.components
            others = [i for i in range(4) if i != owner]
            assert np.abs(out[others] - base[others]).max() < 1e-9
            assert np.abs(out[owner] - base[owner]).max() > 1e-9

    def test_style_changes_output(self):
        units = random_units(2, seed=9)
        audio = np.random.default_rng(10).normal(size=(6, 4))
        a = self.conditions(units, audio, style=0)
        b = self.conditions(units, audio, style=1)
        assert np.abs(a - b).max() > 0

    def test_underrun_and_width_errors(self):
        units = random_units(2, seed=11)
        with pytest.raises(DataError):
            self.conditions(units, np.zeros((5, 4)))  # needs 6 frames
        with pytest.raises(DataError):
            self.conditions(units, np.zeros((6, 3)))  # wrong feature width

    def test_oversized_window_rejected(self):
        units = random_units(5, seed=12)  # capacity is 4
        audio = np.zeros((12, 4))
        with pytest.raises(DataError):
            with no_grad():
                self.model(units, audio, 0)

    def test_wrong_size_history_unit_rejected(self):
        units = random_units(1, seed=13) + [np.zeros((2, 5))]  # unit_size is 12
        with pytest.raises(DataError, match="history unit shape"):
            with no_grad():
                self.model(units, np.zeros((6, 4)), 0)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestNextCondition:
    """A call computes only the next unit's row in the last block; it equals
    the final row of the every-row forward."""

    CONFIGS = {"one_block": tiny_config(),
               "two_blocks": tiny_config(layers=2),
               "h4_three_blocks": tiny_config(layers=3, components=4,
                                              history_frames=16)}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_last_row_for_every_window_length(self, name):
        cfg = self.CONFIGS[name]
        model = ConditionPredictor(cfg, seed=1)
        r = np.random.default_rng(2)
        units = random_units(cfg.history_units, cfg.components, cfg.latent_width,
                             seed=3)
        for n in range(cfg.history_units + 1):
            # trailing audio past the window, which the alignment mask hides
            audio = r.normal(size=((n + 1) * cfg.components + 3, cfg.audio_width))
            for style in range(cfg.num_speakers):
                with no_grad():
                    every = model.every_row(units[:n], audio, style).data
                    nxt = model(units[:n], audio, style).data
                assert every.shape == (n + 1, cfg.hidden)
                assert nxt.shape == (1, cfg.hidden)
                assert _rel_err(nxt[0], every[-1]) < 1e-12

    def test_gradients_match_last_row(self):
        """Under the tape, the row slices pass the same gradients to every
        parameter as the last row of the every-row forward."""
        cfg = self.CONFIGS["two_blocks"]
        model = ConditionPredictor(cfg, seed=4)
        r = np.random.default_rng(5)
        units = random_units(3, cfg.components, cfg.latent_width, seed=6)
        audio = r.normal(size=(9, cfg.audio_width))
        weight = r.normal(size=(1, cfg.hidden))
        grads = []
        for forward in (lambda: model(units, audio, 1),
                        lambda: model.every_row(units, audio, 1)[-1:]):
            model.store.zero_grads()
            tsum(mul(forward(), weight)).backward()
            grads.append({n: t.grad.copy() for n, t in model.store.items()})
        scale = max(np.abs(g).max() for g in grads[1].values())
        assert scale > 0
        for name, want in grads[1].items():
            assert np.abs(grads[0][name] - want).max() <= 1e-12 * scale, name
