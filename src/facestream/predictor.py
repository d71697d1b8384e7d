"""Autoregressive condition predictor.

A causal transformer decoder over a bounded window of past latent units.
Self-attention carries ALiBi distance penalties under a causal mask; a
cross-attention stage reads audio features under a block alignment mask that
gives each unit exactly its own H motion frames of audio. The output row at
position i is the condition vector used to generate unit i: position 0 (the
begin token) conditions the first window unit, and the final row conditions
the next, not-yet-generated unit. The predictor owns the speaker table: the
style of speaker k is row k of its ``style.table`` parameter, added to every
input row.

The attention layout is two read-only constants, built once for the
longest window, that ``attention`` adds to its scores: the self-attention's
``alibi_mask``, ALiBi's distance penalty where a query reads a key and -inf
above the diagonal, and the cross-attention's ``alignment_mask``, 0 where a
query reads a key and -inf where it does not. Every row of each reads a key
by construction, its own position or its own H audio frames. A shorter
window's layout is the top-left block of each, since ALiBi uses relative
distance and every row of that block still reads a key.

A call returns only that final row, the next unit's condition, which is all a
stream reads: the last decoder block computes its queries, cross-attention
and feed-forward for that one row, over the last H audio rows, which it
reads in full. Teacher-forced stage-2 training makes the same call with
``every_row=True`` and reads every row; that is the only difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .fileio import DataError, check_count, check_integer
from .nn import (
    Block,
    LayerNorm,
    Linear,
    alibi_mask,
    normal_init,
)
from .tensor import ParamStore, Tensor, add, as_tensor, checked, concat, take_rows


def history_capacity(h_frames: int, components: int) -> int:
    """Units in a history of ``h_frames`` motion frames; ``ValueError``
    unless both are integers, a unit has a frame and the history covers one."""
    check_count(components, "components")
    check_integer(h_frames, "h_frames")
    if h_frames < components:
        raise ValueError("history must cover at least one unit")
    return math.ceil(h_frames / components)


def select_history(all_past_units: Sequence[np.ndarray], h_frames: int,
                   components: int) -> list[np.ndarray]:
    """Most recent units covering ``h_frames`` motion frames.

    Shorter histories are returned whole; an empty history is a valid cold
    start (the begin token alone conditions the first unit).
    """
    cap = history_capacity(h_frames, components)
    return [np.asarray(u) for u in all_past_units[-cap:]]


def alignment_mask(l_motion: int, components: int) -> np.ndarray:
    """Cross-attention mask of l_motion tokens over l_motion * H audio rows:
    0 where token i reads audio frames [i*H, (i+1)*H), -inf elsewhere.

    Audio rows are indexed relative to the window start; the caller is
    responsible for slicing the global audio buffer at the window's absolute
    start frame.
    """
    t_audio = l_motion * components
    reads = np.arange(t_audio)[None, :] // components == np.arange(l_motion)[:, None]
    return np.where(reads, 0.0, -np.inf)


@dataclass
class PredictorConfig:
    hidden: int = 128
    heads: int = 4
    layers: int = 2
    ff: int = 256
    audio_width: int = 16
    components: int = 4       # H, motion frames per latent unit
    latent_width: int = 64    # C of the codec
    num_speakers: int = 2
    history_frames: int = 60

    def __post_init__(self):
        for field in fields(self):
            check_count(getattr(self, field.name), field.name)
        history_capacity(self.history_frames, self.components)   # raises if bad

    @property
    def unit_size(self) -> int:
        return self.components * self.latent_width

    @property
    def history_units(self) -> int:
        return history_capacity(self.history_frames, self.components)


class ConditionPredictor:
    """Maps (history window, aligned audio, style) to per-unit conditions."""

    def __init__(self, config: PredictorConfig, seed: int = 0):
        check_count(seed, "seed", zero_ok=True)
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        c = config
        self.unit_embed = Linear(self.store, "unit_embed", c.unit_size, c.hidden, rng)
        self.audio_embed = Linear(self.store, "audio_embed", c.audio_width,
                                  c.hidden, rng)
        self.begin_token = self.store.create("begin_token",
                                             normal_init(rng, (1, c.hidden)))
        self.style_table = self.store.create(
            "style.table", normal_init(rng, (c.num_speakers, c.hidden)))
        self.blocks = [
            Block(self.store, f"block{i}", c.hidden, c.heads, c.ff, rng, cross=True)
            for i in range(c.layers)
        ]
        self.norm = LayerNorm(self.store, "norm", c.hidden)
        rows = c.history_units + 1
        # one additive constant per attention, for the longest window
        self._layout = (alibi_mask(rows, c.heads), alignment_mask(rows, c.components))
        for arr in self._layout:
            arr.setflags(write=False)

    def __call__(self, window: Sequence[np.ndarray], audio: np.ndarray,
                 style_index: int, every_row: bool = False) -> Tensor:
        """The next unit's condition, (1, hidden), with the last block
        computing only that row; with ``every_row``, all the condition rows,
        (len(window) + 1, hidden), one per window unit plus the next unit's.

        Each window unit must have the shape (H, C) = (components,
        latent_width), else ``DataError``; a transposed (C, H) unit is
        rejected too. ``style_index`` must be an integer in [0,
        num_speakers), else ``ValueError``. ``audio`` must hold at least
        (len(window) + 1) * H frames starting at the window's first motion
        frame, else ``DataError``; trailing audio past those frames is
        dropped before any work, not masked. Off the tape the result is
        checked for finiteness once (``checked``), which covers every op of
        the call.
        """
        c = self.config
        check_integer(style_index, "speaker index")
        if not 0 <= style_index < c.num_speakers:
            raise ValueError(f"speaker index {style_index} out of range "
                             f"[0, {c.num_speakers})")
        units = [np.asarray(u) for u in window]
        if len(units) > c.history_units:
            raise DataError("window exceeds the configured history length")
        audio = np.asarray(audio, dtype=np.float64)
        if audio.ndim != 2 or audio.shape[1] != c.audio_width:
            raise DataError(f"audio features must be (T, {c.audio_width})")
        length = len(units) + 1
        if audio.shape[0] < length * c.components:
            raise DataError("audio underrun: alignment window not covered")
        audio = audio[:length * c.components]

        x = self.begin_token
        if units:
            shape = (c.components, c.latent_width)
            if any(u.shape != shape for u in units):
                raise DataError(f"history unit shape does not match codec config: "
                                f"each unit must be (H, C) = {shape}")
            stacked = np.stack(units).reshape(len(units), c.unit_size)
            x = concat([x, self.unit_embed(as_tensor(stacked))], axis=0)
        x = add(x, take_rows(self.style_table, np.array([style_index])))

        alibi, aligned = self._layout
        alibi = alibi[:, :length, :length]
        aligned = aligned[:length, :length * c.components]
        memory = self.audio_embed(as_tensor(audio))
        for block in self.blocks[:-1]:
            x = block(x, alibi, memory, aligned)
        rows = None
        if not every_row:   # the last row reads all of the last H audio rows
            memory, aligned, rows = memory[-c.components:], None, slice(-1, None)
        x = self.blocks[-1](x, alibi, memory, aligned, rows)
        return checked(self.norm(x), "ConditionPredictor")
