"""Condition predictor tests: history selection, ALiBi, masks, causality, style."""

import numpy as np
import pytest

from composed_ops import tsum
from facestream import predictor as predictor_mod
from facestream.fileio import DataError
from facestream.nn import Block, alibi_mask, alibi_slopes
from facestream.predictor import (
    ConditionPredictor,
    PredictorConfig,
    alignment_mask,
    history_capacity,
    select_history,
)
from facestream.tensor import mul, no_grad
from non_finite import assert_never_returns_non_finite


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

    @pytest.mark.parametrize("h_frames, components", [(8, 2.0), (8, True), (7.5, 2),
                                                      (True, 1)])
    def test_non_integer_arguments_rejected(self, h_frames, components):
        """``history_capacity(8, 2.0)`` returned 4, and so did ``(7.5, 2)``."""
        with pytest.raises(ValueError, match="must be an integer"):
            history_capacity(h_frames, components)

    def test_no_components_rejected(self):
        with pytest.raises(ValueError, match="components must be >= 1"):
            select_history(random_units(2), h_frames=8, components=0)


class TestConfig:
    @pytest.mark.parametrize("components", [0, -1, 2.0, 1.5, True])
    def test_components_must_be_a_positive_integer(self, components):
        """Zero would build and then divide by zero on every call."""
        with pytest.raises(ValueError, match="components must be"):
            tiny_config(components=components)

    def test_history_must_cover_one_unit(self):
        """A history shorter than one unit builds a predictor that
        ``select_history`` always refuses."""
        with pytest.raises(ValueError, match="history must cover at least one unit"):
            tiny_config(components=4, history_frames=2)
        assert tiny_config(components=4, history_frames=4).history_units == 1

    @pytest.mark.parametrize("field", ["hidden", "heads", "layers", "ff", "audio_width",
                                       "latent_width", "num_speakers", "history_frames"])
    @pytest.mark.parametrize("value", [0, -1, 5.5, True])
    def test_counts_must_be_positive_integers(self, field, value):
        """``layers=0`` used to build a predictor whose every call raised
        ``IndexError``, and ``history_frames=5.5`` was accepted."""
        with pytest.raises(ValueError, match=f"{field} must be"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_bad_seed_rejected(self, seed):
        """A float seed leaked numpy's ``TypeError``."""
        with pytest.raises(ValueError, match="seed must be"):
            ConditionPredictor(tiny_config(), seed=seed)


class TestAlibi:
    def test_zero_on_diagonal(self):
        mask = alibi_mask(5, 3)
        for k in range(3):
            np.testing.assert_array_equal(np.diag(mask[k]), np.zeros(5))

    def test_causal_bias_in_one_constant(self):
        """The mask is the distance penalty -m_k * (i - j) where key j is at
        or before query i and -inf above the diagonal, byte for byte; every
        row of every top-left block admits a key."""
        i, j = np.arange(5)[:, None], np.arange(5)[None, :]
        penalty = -alibi_slopes(2)[:, None, None] * (i - j).astype(np.float64)
        mask = alibi_mask(5, 2)
        assert mask.tobytes() == np.where(j <= i, penalty, -np.inf).tobytes()
        for length in range(1, 6):
            assert np.isfinite(mask[:, :length, :length]).any(axis=-1).all()

    def test_four_head_slopes(self):
        np.testing.assert_allclose(alibi_slopes(4),
                                   [2.0 ** -2, 2.0 ** -4, 2.0 ** -6, 2.0 ** -8])

    @pytest.mark.parametrize("heads", [2.5, 4.0, True])
    def test_non_integer_heads_rejected(self, heads):
        """``alibi_slopes(2.5)`` returned 3 slopes."""
        with pytest.raises(ValueError, match="num_heads must be an integer"):
            alibi_slopes(heads)

    def test_distance_times_slope(self):
        mask = alibi_mask(6, 4)
        # head 0 slope is 0.25; distance 2 gives -0.5
        assert mask[0, 4, 2] == pytest.approx(-0.5)


class TestAlignmentMask:
    def test_identity_when_one_frame_per_unit(self):
        mask = alignment_mask(4, components=1)
        assert mask.tobytes() == np.where(np.eye(4, dtype=bool), 0.0, -np.inf).tobytes()

    def test_unit_zero_gets_first_interval(self):
        mask = alignment_mask(3, components=4)
        np.testing.assert_array_equal(np.flatnonzero(mask[0] == 0.0), [0, 1, 2, 3])
        np.testing.assert_array_equal(np.flatnonzero(mask[1] == 0.0), [4, 5, 6, 7])


class TestPredictor:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = ConditionPredictor(self.cfg, seed=0)

    def conditions(self, units, audio, style=0):
        """Every condition row, as stage 2 reads them."""
        with no_grad():
            window = select_history(units, self.cfg.history_frames,
                                    self.cfg.components)
            return self.model(window, audio, style, every_row=True).data

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

    def test_layout_built_once_at_construction(self, monkeypatch):
        """The two masks are built once each, for history_units + 1 rows,
        when the predictor is made, and never during a forward."""
        built = []
        for name in ("alibi_mask", "alignment_mask"):
            make = getattr(predictor_mod, name)
            monkeypatch.setattr(predictor_mod, name,
                                lambda *a, make=make, name=name:
                                built.append((name, a[0])) or make(*a))
        model = ConditionPredictor(self.cfg, seed=0)
        rows = self.cfg.history_units + 1
        assert built == [("alibi_mask", rows), ("alignment_mask", rows)]
        audio = np.random.default_rng(4).normal(size=(rows * 2, 4))
        with no_grad():
            for n in range(rows):
                for every_row in (False, True):
                    model(random_units(n, seed=n), audio, 0, every_row=every_row)
        assert len(built) == 2

    def test_each_length_reads_its_layout_read_only(self, monkeypatch):
        """For every window length, each block gets the per-length ALiBi and
        alignment masks, as read-only arrays."""
        seen = []
        call = Block.__call__

        def recording_call(self, x, mask, memory, cross_mask, *rows):
            seen.append((mask, cross_mask))
            return call(self, x, mask, memory, cross_mask, *rows)

        monkeypatch.setattr(Block, "__call__", recording_call)
        h = self.cfg.components
        audio = np.random.default_rng(4).normal(size=((self.cfg.history_units + 1) * h, 4))
        for length in range(1, self.cfg.history_units + 2):
            seen.clear()
            self.conditions(random_units(length - 1, seed=length), audio)
            [(self_mask, cross_mask)] = seen
            assert self_mask.tobytes() == alibi_mask(length, self.cfg.heads).tobytes()
            assert cross_mask.tobytes() == alignment_mask(length, h).tobytes()
            assert not any(a.flags.writeable for a in (self_mask, cross_mask))

    def test_layout_masks_are_read_only_and_admit_a_key_in_every_row(self):
        """The two masks are float arrays built at construction; every row of
        the longest window, and so of each top-left block, reads a key, so no
        call checks for a degenerate row."""
        rows, h = self.cfg.history_units + 1, self.cfg.components
        alibi, aligned = self.model._layout
        assert alibi.shape == (self.cfg.heads, rows, rows)
        assert aligned.shape == (rows, rows * h)
        assert set(np.unique(aligned)) == {0.0, -np.inf}
        for mask, width in ((alibi, 1), (aligned, h)):
            assert not mask.flags.writeable and mask.dtype == np.float64
            for length in range(1, rows + 1):
                block = mask[..., :length, :length * width]
                assert np.isfinite(block).any(axis=-1).all()
        with pytest.raises(ValueError, match="read-only"):
            aligned[0, 1] = 0.0

    def test_trailing_audio_is_dropped(self):
        """Trailing audio changes no condition, however many rows of it the
        calls pass."""
        units = random_units(2, seed=5)
        audio = np.random.default_rng(6).normal(size=(6 + 50, 4))
        want = self.conditions(units, audio[:6])
        with no_grad():
            want_next = self.model(units, audio[:6], 0).data
        for tail in range(1, 51):
            np.testing.assert_array_equal(self.conditions(units, audio[:6 + tail]), want)
            with no_grad():
                np.testing.assert_array_equal(
                    self.model(units, audio[:6 + tail], 0).data, want_next)

    def test_underrun_raises_on_every_call(self):
        """An underrun raises on each call, also after the same window
        length ran with enough audio."""
        units = random_units(2, seed=11)
        audio = np.random.default_rng(12).normal(size=(6, 4))
        want = self.conditions(units, audio)
        for _ in range(2):
            with pytest.raises(DataError, match="audio underrun"):
                self.conditions(units, audio[:5])
        np.testing.assert_array_equal(self.conditions(units, audio), want)

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

    @pytest.mark.parametrize("bad", ["transposed", "flat"])
    def test_right_size_wrong_shape_history_unit_rejected(self, bad):
        """A (C, H) unit, or a flat one, has the unit's size but not its
        (H, C) shape, and is rejected instead of read in another order."""
        units = random_units(2, seed=15)   # (H, C) = (2, 6)
        units[1] = units[1].T if bad == "transposed" else units[1].reshape(-1)
        with pytest.raises(DataError, match="history unit shape"):
            with no_grad():
                self.model(units, np.zeros((6, 4)), 0)


class TestStyle:
    """Speaker k's style is row k of the ``style.table`` parameter, which the
    call adds to every input row."""

    def setup_method(self):
        self.cfg = tiny_config(num_speakers=3)
        self.model = ConditionPredictor(self.cfg, seed=0)
        self.units = random_units(2, seed=14)
        self.audio = np.random.default_rng(15).normal(size=(6, 4))

    def conditions(self, style, model=None):
        with no_grad():
            model = model or self.model
            return model(self.units, self.audio, style, every_row=True).data

    def test_style_row_is_table_row(self):
        """Speaker k gives what speaker 0 gives once the table's row 0
        holds row k."""
        table = self.model.store["style.table"].data
        for k in range(self.cfg.num_speakers):
            other = ConditionPredictor(self.cfg, seed=0)
            other.store["style.table"].data[0] = table[k]
            np.testing.assert_array_equal(self.conditions(0, other), self.conditions(k))

    def test_distinct_speakers_distinct_rows(self):
        out = [self.conditions(k) for k in range(self.cfg.num_speakers)]
        for a in range(len(out)):
            for b in range(a):
                assert np.abs(out[a] - out[b]).max() > 0

    def test_single_speaker_accepts_only_index_zero(self):
        model = ConditionPredictor(tiny_config(num_speakers=1), seed=0)
        assert self.conditions(0, model).shape == (3, self.cfg.hidden)
        with pytest.raises(ValueError, match=r"speaker index 1 out of range \[0, 1\)"):
            self.conditions(1, model)

    def test_out_of_range_rejected(self):
        for index in (-1, self.cfg.num_speakers):
            with pytest.raises(ValueError, match="out of range"):
                self.conditions(index)
            with pytest.raises(ValueError, match="out of range"), no_grad():
                self.model(self.units, self.audio, index)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
    def test_non_integer_rejected(self, index):
        with pytest.raises(ValueError, match="speaker index must be an integer"):
            self.conditions(index)

    def test_numpy_integer_accepted(self):
        np.testing.assert_array_equal(self.conditions(np.int64(2)), self.conditions(2))

    def test_gradient_reaches_only_the_speakers_row(self):
        table = self.model.store["style.table"]
        for k in range(self.cfg.num_speakers):
            self.model.store.zero_grads()
            tsum(self.model(self.units, self.audio, k, every_row=True)).backward()
            assert np.abs(table.grad[k]).max() > 0
            np.testing.assert_array_equal(np.delete(table.grad, k, axis=0), 0.0)


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
            # trailing audio past the window, which the predictor drops
            audio = r.normal(size=((n + 1) * cfg.components + 3, cfg.audio_width))
            for style in range(cfg.num_speakers):
                with no_grad():
                    every = model(units[:n], audio, style, every_row=True).data
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
                        lambda: model(units, audio, 1, every_row=True)[-1:]):
            model.store.zero_grads()
            tsum(mul(forward(), weight)).backward()
            grads.append({n: t.grad.copy() for n, t in model.store.items()})
        scale = max(np.abs(g).max() for g in grads[1].values())
        assert scale > 0
        for name, want in grads[1].items():
            assert np.abs(grads[0][name] - want).max() <= 1e-12 * scale, name


def swept_predictor():
    return ConditionPredictor(tiny_config(layers=2), seed=7)


@pytest.mark.parametrize("every_row", [False, True])
@pytest.mark.parametrize("name", swept_predictor().store.names())
def test_call_never_returns_non_finite_conditions(name, every_row):
    """Off the tape the call checks only its result: whatever one parameter
    holds, it raises or returns finite conditions. Of the style table only
    the speaker's row is read, so only that row is spoiled."""
    model = swept_predictor()
    cfg = model.config
    units = random_units(3, cfg.components, cfg.latent_width, seed=8)
    audio = np.random.default_rng(9).normal(size=(8, cfg.audio_width))
    style = 1
    rows = style if name == "style.table" else slice(None)
    assert_never_returns_non_finite(
        lambda: model(units, audio, style, every_row=every_row).data,
        model.store[name], rows)
