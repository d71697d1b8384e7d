"""Vector-quantized transformer codec for facial motion sequences.

A motion sequence of per-frame vertex offsets (T, V, 3) is embedded per
frame, transformed by a small self-attention stack, and reshaped into latent
units of H consecutive frame features. ``quantize`` returns the index of
each feature vector's nearest codebook entry, and those entries are the
codes; the decoder inverts the path. Training uses the straight-through
estimator so encoder gradients pass the quantizer unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .fileio import DataError, check_count, check_integer, check_real
from .nn import Block, LayerNorm, Linear, normal_init, sinusoid_table
from .tensor import (
    ParamStore,
    Tensor,
    add,
    as_tensor,
    checked,
    no_grad,
    reshape,
    straight_through,
    take_rows,
)

MAX_POSITION = 2 ** 53   # float64 holds every integer frame position below it


@dataclass
class MotionSequence:
    """Per-frame 3D vertex offsets over a fixed template mesh."""

    offsets: np.ndarray  # (T, V, 3)
    frame_rate: float

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        if self.offsets.ndim != 3 or self.offsets.shape[2] != 3:
            raise ValueError("offsets must have shape (T, V, 3)")
        if self.offsets.shape[0] < 1:
            raise ValueError("need at least one frame")
        if not np.isfinite(self.offsets).all():
            raise ValueError("non-finite motion values")
        check_real(self.frame_rate, "frame rate")

    @property
    def num_frames(self) -> int:
        return self.offsets.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.offsets.shape[1]


@dataclass
class CodecConfig:
    vertices: int = 30
    width: int = 64          # latent width C
    codebook_size: int = 64
    components: int = 4      # features per unit H; T' = T_padded / H
    layers: int = 2
    heads: int = 4
    ff: int = 128

    def __post_init__(self):
        for field in fields(self):
            check_count(getattr(self, field.name), field.name)
        if self.width % 2:
            raise ValueError(f"width must be even for the sinusoid positions, "
                             f"got {self.width}")


def pad_to_units(frames: np.ndarray, components: int) -> np.ndarray:
    """Right-pad along axis 0 to a multiple of ``components`` by repeating the
    last frame. Already-aligned inputs are returned unchanged."""
    t = frames.shape[0]
    remainder = t % components
    if remainder == 0:
        return frames
    pad = np.repeat(frames[-1:], components - remainder, axis=0)
    return np.concatenate([frames, pad], axis=0)


def quantize(z_hat: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the nearest codebook entry for each feature vector of
    (..., C) latents, of shape ``z_hat.shape[:-1]``; lowest index on ties."""
    z_hat = np.asarray(z_hat)
    entries = np.asarray(entries)
    if z_hat.shape[-1] != entries.shape[-1]:
        raise DataError("latent width does not match codebook width")
    if entries.size == 0:
        raise ValueError("empty codebook")
    flat = z_hat.reshape(-1, entries.shape[1])
    # |a - b|^2 less the per-vector constant |a|^2 has the same argmin, with
    # no (N, K, C) difference tensor; np.argmin takes the first minimum, and
    # duplicate entries give bit-equal columns
    d2 = (entries * entries).sum(axis=1) - 2.0 * (flat @ entries.T)
    return d2.argmin(axis=1).reshape(z_hat.shape[:-1])


class MotionCodec:
    """Transformer VQ-VAE over motion sequences."""

    def __init__(self, config: CodecConfig, seed: int = 0):
        check_count(seed, "seed", zero_ok=True)
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        c = config
        self.frame_embed = Linear(self.store, "enc.embed", c.vertices * 3, c.width, rng)
        self.enc_blocks = [
            Block(self.store, f"enc.block{i}", c.width, c.heads, c.ff, rng)
            for i in range(c.layers)
        ]
        self.enc_norm = LayerNorm(self.store, "enc.norm", c.width)
        self.codebook = self.store.create(
            "codebook", normal_init(rng, (c.codebook_size, c.width)))
        self.dec_blocks = [
            Block(self.store, f"dec.block{i}", c.width, c.heads, c.ff, rng)
            for i in range(c.layers)
        ]
        self.dec_norm = LayerNorm(self.store, "dec.norm", c.width)
        self.frame_out = Linear(self.store, "dec.out", c.width, c.vertices * 3, rng)

    # -- parameter groups ----------------------------------------------------

    def decoder_param_names(self) -> list[str]:
        return [n for n in self.store.names() if n.startswith("dec.")]

    # -- forward paths ---------------------------------------------------------

    def encode(self, offsets: np.ndarray) -> Tensor:
        """Motion (T, V, 3) -> continuous latents (T', H, C).

        Frames are right-padded to a unit boundary by repeating the last frame.
        Off the tape the latents are checked for finiteness once; that check
        is what keeps ``quantize``'s argmin from turning a NaN latent into a
        finite codebook row in ``encode_quantized``.
        """
        offsets = np.asarray(offsets, dtype=np.float64)
        c = self.config
        if offsets.ndim != 3 or offsets.shape[1] != c.vertices or offsets.shape[2] != 3:
            raise DataError(
                f"motion shape {offsets.shape} does not match template "
                f"({c.vertices} vertices)")
        if offsets.shape[0] == 0:
            raise DataError("motion has no frames")
        padded = pad_to_units(offsets, c.components)
        t_pad = padded.shape[0]
        x = as_tensor(padded.reshape(t_pad, c.vertices * 3))
        h = self.frame_embed(x)
        h = add(h, sinusoid_table(np.arange(t_pad), c.width))
        for block in self.enc_blocks:
            h = block(h)
        h = self.enc_norm(h)
        return checked(reshape(h, (t_pad // c.components, c.components, c.width)),
                       "MotionCodec.encode")

    def quantize_latents(self, z_hat: Tensor) -> tuple[np.ndarray, Tensor, Tensor]:
        """Returns (codebook indices, straight-through codes, gathered
        codebook rows).

        The straight-through tensor holds the exact codebook entries on the
        forward pass and routes gradients unchanged into ``z_hat``; the
        gathered tensor is the differentiable path into the codebook itself.
        """
        indices = quantize(z_hat.data, self.codebook.data)
        st = straight_through(z_hat, self.codebook.data[indices])
        gathered = reshape(take_rows(self.codebook, indices.reshape(-1)),
                           z_hat.data.shape)
        return indices, st, gathered

    def decode(self, codes, frames: int | None = None, offset_frames: int = 0) -> Tensor:
        """Latents (T', H, C) -> motion (frames, V, 3): the first ``frames``
        of the T' * H decoded rows, all by default; 1 <= frames <= T' * H.

        ``offset_frames`` is the motion frame index of the first row, for
        the position features: an integer >= 0 that keeps every row's
        position below ``MAX_POSITION``. Off the tape the returned frames
        are checked for finiteness once."""
        codes = as_tensor(codes)
        c = self.config
        if codes.data.ndim != 3 or codes.data.shape[2] != c.width \
                or codes.data.shape[1] != c.components or len(codes.data) == 0:
            raise DataError(f"latent shape {codes.data.shape} does not match codec "
                            f"(H={c.components}, C={c.width})")
        t_pad = codes.data.shape[0] * c.components
        if frames is None:
            frames = t_pad
        check_integer(frames, "frames")
        if not 0 < frames <= t_pad:
            raise ValueError(f"frames must be in [1, {t_pad}] for "
                             f"{codes.data.shape[0]} units, got {frames}")
        check_integer(offset_frames, "offset_frames")
        if not 0 <= offset_frames <= MAX_POSITION - t_pad:
            raise ValueError(f"offset_frames must be in [0, {MAX_POSITION - t_pad}] "
                             f"for {t_pad} rows, got {offset_frames}")
        h = reshape(codes, (t_pad, c.width))
        h = add(h, sinusoid_table(np.arange(offset_frames, offset_frames + t_pad),
                                  c.width))
        for block in self.dec_blocks:
            h = block(h)
        h = self.dec_norm(h)
        out = reshape(self.frame_out(h), (t_pad, c.vertices, 3))
        return checked(out[:frames] if frames != t_pad else out, "MotionCodec.decode")

    def encode_quantized(self, offsets: np.ndarray) -> np.ndarray:
        """Inference path: motion -> quantized codes (T', H, C), the exact
        codebook entries (no gradients). Both the latents (``encode``) and
        the gathered rows are checked for finiteness: ``quantize``'s argmin
        turns a NaN latent into a finite row, and a NaN codebook entry into
        its own row."""
        with no_grad():
            codebook = self.codebook.data
            codes = codebook[quantize(self.encode(offsets).data, codebook)]
        return checked(codes, "MotionCodec.encode_quantized")
