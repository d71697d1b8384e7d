"""Streaming speech-driven 3D facial motion synthesis.

An autoregressive diffusion engine over a vector-quantized motion codec:
audio features and a fixed window of past motion latents feed a causal
transformer that emits a per-unit condition; a small diffusion head samples
the next latent unit, which the codec decodes into mesh vertex offsets.
Everything runs on a built-in numpy tape-autodiff engine.
"""

from .tensor import NonFiniteError, ParamStore, Tensor, no_grad

__all__ = [
    "NonFiniteError",
    "ParamStore",
    "Tensor",
    "no_grad",
]

__version__ = "0.1.0"
