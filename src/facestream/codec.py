"""Vector-quantized transformer codec for facial motion sequences.

A motion sequence of per-frame vertex offsets (T, V, 3) is embedded per
frame, transformed by a small self-attention stack, and reshaped into latent
units of H consecutive frame features. Each feature vector is snapped to the
nearest codebook entry; the decoder inverts the path. Training uses the
straight-through estimator so encoder gradients pass the quantizer unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import DataError
from .nn import EncoderBlock, LayerNorm, Linear, normal_init, sinusoid_table
from .tensor import (
    ParamStore,
    Tensor,
    add,
    as_tensor,
    l1_loss,
    l2_loss,
    no_grad,
    reshape,
    stop_gradient,
    straight_through,
    take_rows,
)


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
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise ValueError(f"frame rate must be finite and positive, "
                             f"got {self.frame_rate}")

    @property
    def num_frames(self) -> int:
        return self.offsets.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.offsets.shape[1]


@dataclass
class LatentGrid:
    """Quantized latents: units x components x width, plus codebook indices."""

    codes: np.ndarray    # (T', H, C)
    indices: np.ndarray  # (T', H) integer codebook rows


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
        if self.codebook_size < 1:
            raise ValueError("codebook must be non-empty")
        if self.components < 1:
            raise ValueError("components must be >= 1")


def pad_to_units(frames: np.ndarray, components: int) -> np.ndarray:
    """Right-pad along axis 0 to a multiple of ``components`` by repeating the
    last frame. Already-aligned inputs are returned unchanged."""
    t = frames.shape[0]
    remainder = t % components
    if remainder == 0:
        return frames
    pad = np.repeat(frames[-1:], components - remainder, axis=0)
    return np.concatenate([frames, pad], axis=0)


def nearest_indices(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exhaustive nearest-codebook-entry assignment, lowest index on ties.

    ``vectors`` is (..., C); returns integer indices of shape ``vectors.shape[:-1]``.
    """
    entries = np.asarray(entries)
    if entries.size == 0:
        raise ValueError("empty codebook")
    flat = np.asarray(vectors).reshape(-1, entries.shape[1])
    # |a - b|^2 less the per-vector constant |a|^2 has the same argmin, with
    # no (N, K, C) difference tensor; np.argmin takes the first minimum, and
    # duplicate entries give bit-equal columns
    d2 = (entries * entries).sum(axis=1) - 2.0 * (flat @ entries.T)
    return d2.argmin(axis=1).reshape(np.asarray(vectors).shape[:-1])


def quantize(z_hat: np.ndarray, entries: np.ndarray) -> LatentGrid:
    """Snap each feature vector of (T', H, C) latents to its nearest codebook entry."""
    z_hat = np.asarray(z_hat)
    entries = np.asarray(entries)
    if z_hat.shape[-1] != entries.shape[-1]:
        raise DataError("latent width does not match codebook width")
    idx = nearest_indices(z_hat, entries)
    return LatentGrid(codes=entries[idx], indices=idx)


class MotionCodec:
    """Transformer VQ-VAE over motion sequences."""

    def __init__(self, config: CodecConfig, seed: int = 0):
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        c = config
        self.frame_embed = Linear(self.store, "enc.embed", c.vertices * 3, c.width, rng)
        self.enc_blocks = [
            EncoderBlock(self.store, f"enc.block{i}", c.width, c.heads, c.ff, rng)
            for i in range(c.layers)
        ]
        self.enc_norm = LayerNorm(self.store, "enc.norm", c.width)
        self.codebook = self.store.create(
            "codebook", normal_init(rng, (c.codebook_size, c.width)))
        self.dec_blocks = [
            EncoderBlock(self.store, f"dec.block{i}", c.width, c.heads, c.ff, rng)
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
        """
        offsets = np.asarray(offsets, dtype=np.float64)
        c = self.config
        if offsets.ndim != 3 or offsets.shape[1] != c.vertices or offsets.shape[2] != 3:
            raise DataError(
                f"motion shape {offsets.shape} does not match template "
                f"({c.vertices} vertices)")
        padded = pad_to_units(offsets, c.components)
        t_pad = padded.shape[0]
        x = as_tensor(padded.reshape(t_pad, c.vertices * 3))
        h = self.frame_embed(x)
        h = add(h, sinusoid_table(np.arange(t_pad), c.width))
        for block in self.enc_blocks:
            h = block(h)
        h = self.enc_norm(h)
        return reshape(h, (t_pad // c.components, c.components, c.width))

    def quantize_latents(self, z_hat: Tensor) -> tuple[LatentGrid, Tensor, Tensor]:
        """Returns (grid, straight-through codes, gathered codebook rows).

        The straight-through tensor holds the exact codebook entries on the
        forward pass and routes gradients unchanged into ``z_hat``; the
        gathered tensor is the differentiable path into the codebook itself.
        """
        grid = quantize(z_hat.data, self.codebook.data)
        st = straight_through(z_hat, grid.codes)
        gathered = reshape(take_rows(self.codebook, grid.indices.reshape(-1)),
                           z_hat.data.shape)
        return grid, st, gathered

    def decode(self, codes, frames: int | None = None, offset_frames: int = 0) -> Tensor:
        """Latents (T', H, C) -> motion (frames, V, 3): the first ``frames``
        of the T' * H decoded rows, all by default; 1 <= frames <= T' * H."""
        codes = as_tensor(codes)
        c = self.config
        if codes.data.ndim != 3 or codes.data.shape[2] != c.width \
                or codes.data.shape[1] != c.components:
            raise DataError(f"latent shape {codes.data.shape} does not match codec "
                            f"(H={c.components}, C={c.width})")
        t_pad = codes.data.shape[0] * c.components
        if frames is None:
            frames = t_pad
        elif not 0 < frames <= t_pad:
            raise ValueError(f"frames must be in [1, {t_pad}] for "
                             f"{codes.data.shape[0]} units, got {frames}")
        h = reshape(codes, (t_pad, c.width))
        h = add(h, sinusoid_table(np.arange(offset_frames, offset_frames + t_pad),
                                  c.width))
        for block in self.dec_blocks:
            h = block(h)
        h = self.dec_norm(h)
        out = reshape(self.frame_out(h), (t_pad, c.vertices, 3))
        return out[:frames] if frames != t_pad else out

    def encode_quantized(self, offsets: np.ndarray) -> LatentGrid:
        """Inference path: motion -> quantized latent grid (no gradients)."""
        with no_grad():
            return quantize(self.encode(offsets).data, self.codebook.data)

    def reconstruct(self, offsets: np.ndarray) -> np.ndarray:
        """Round trip encode -> quantize -> decode, returned as numpy."""
        with no_grad():
            grid = self.encode_quantized(offsets)
            return self.decode(grid.codes, frames=len(offsets)).data


def stage1_loss(x: np.ndarray, x_hat: Tensor, z_hat: Tensor, z_gathered: Tensor,
                commitment: float = 0.25) -> tuple[Tensor, Tensor, Tensor]:
    """Reconstruction + quantization objective.

    rec   = mean |x_hat - x|
    quant = mean (sg(z_hat) - z_q)^2 + commitment * mean (z_hat - sg(z_q))^2
    total = rec + quant  (unit weights)
    """
    rec = l1_loss(x_hat, np.asarray(x))
    codebook_pull = l2_loss(z_gathered, stop_gradient(z_hat))
    commit = l2_loss(z_hat, stop_gradient(z_gathered))
    quant = add(codebook_pull, commitment * commit)
    total = add(rec, quant)
    return total, rec, quant
