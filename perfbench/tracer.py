"""Per-layer spans for the traced run, recorded around public entry points.

``Tracer.install`` swaps each entry point below for a wrapper that records
calls and self time (a span's duration minus its child spans), then
``uninstall`` puts the originals back. Nothing in the library changes; the
untraced runs never install it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from facestream import codec, diffusion, predictor, training
from facestream.audio import FeatureExtractor
from facestream.codec import MotionCodec
from facestream.diffusion import DiffusionHead
from facestream.predictor import ConditionPredictor
from facestream.tensor import Tensor
from facestream.training import AdamW


def _window_units(_self, window, *args, **kwargs) -> int:
    return len(getattr(window, "units", window))


def _batch_rows(_self, z_t, *args, **kwargs) -> int:
    return z_t.shape[0] if len(z_t.shape) == 3 else 1


# (owner, attribute, span name, per-call quantity summed under the span name)
TARGETS = [
    (FeatureExtractor, "__call__", "audio.extract", None),
    (predictor, "select_history", "predictor.select", None),
    (ConditionPredictor, "__call__", "predictor.forward", _window_units),
    (diffusion, "ddim_sample", "diffusion.sample", None),
    (DiffusionHead, "denoise", "diffusion.denoise", _batch_rows),
    (MotionCodec, "decode", "codec.decode", None),
    (MotionCodec, "encode", "codec.encode", None),
    (codec, "quantize", "codec.quantize", None),
    (Tensor, "backward", "tensor.backward", None),
    (AdamW, "step", "training.adamw", None),
    (training, "stage1_loss", "training.loss", None),
    (training, "stage2_loss", "training.loss", None),
    (training, "add_noise", "diffusion.add_noise", None),
]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.quantity: dict[str, float] = defaultdict(float)
        self.top_ns = 0           # time inside outermost spans
        self._stack: list[list[int]] = []   # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, quantity):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0]
            stack.append(child)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_ns += duration
                if quantity is not None:
                    self.quantity[name] += quantity(*args, **kwargs)

        return traced

    def install(self) -> None:
        for owner, attr, name, quantity in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, quantity))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def per_call_s(self, name: str) -> float:
        """Mean self time per call in seconds; 0 if never called."""
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls * 1e-9 if calls else 0.0

    def mean_quantity(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.quantity[name] / calls if calls else 0.0
