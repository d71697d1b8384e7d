"""Host-speed calibration, so that timings from a shared host compare.

On a virtual machine that shares physical cores, the same work runs 1.6x
slower in some minutes than in others. Such a phase often lasts a whole
25 s run, so raw wall times of identical runs spread by more than any
useful regression bound. The benchmark therefore runs a fixed calibration
kernel at most every ``INTERVAL`` seconds, between operations. It divides
each timing by the host's speed at that moment: the kernel's time then,
over the kernel's time on the reference host.

A slow phase does not slow all work alike. Work on small arrays, such as
one stream unit, slows like a kernel of small tape nodes and attention
blocks; work on whole 240-frame sequences, such as a stage-1 step, slows
like one 240-frame attention whose arrays overflow the L2 cache. So each
workload names the kernel that matches its arrays. The kernels call nothing
in the library, so a change to the library cannot change them. Normalised
times read in ms on a host where the kernel takes its reference time.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL = 0.2
SMOOTHING = 9
_REPEATS = 6


class _Node:
    __slots__ = ("data", "parents", "fn")

    def __init__(self, data, parents=(), fn=None):
        arr = np.asarray(data)
        if not np.isfinite(arr).all():
            raise ArithmeticError("non-finite calibration value")
        self.data, self.parents, self.fn = arr, parents, fn


def _matmul(a, b):
    return _Node(a.data @ b.data, (a, b), lambda g: g @ b.data.T)


def _add(a, b):
    return _Node(a.data + b.data, (a, b), lambda g: g)


def _tanh(a):
    y = np.tanh(a.data)
    return _Node(y, (a,), lambda g: g * (1.0 - y * y))


def _layer_norm(x):
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)


class SmallKernel:
    """Work on arrays that stay in cache, like one stream unit or a
    stage-2 window; ``run`` returns its wall time in ms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        d = 128
        self.wq, self.wk, self.wv, self.wo = (rng.standard_normal((d, d)) / np.sqrt(d)
                                              for _ in range(4))
        self.w1 = rng.standard_normal((d, 2 * d)) / np.sqrt(d)
        self.w2 = rng.standard_normal((2 * d, d)) / np.sqrt(2 * d)
        self.x = rng.standard_normal((16, d))
        self.w = _Node(rng.standard_normal((64, 64)) / 8.0)
        self.b = _Node(np.zeros(64))

    def _attention_block(self, x):
        def heads(m):
            return m.reshape(16, 4, 32).swapaxes(0, 1)

        q, k, v = heads(x @ self.wq), heads(x @ self.wk), heads(x @ self.wv)
        s = q @ k.swapaxes(1, 2) / np.sqrt(32.0)
        s = np.exp(s - s.max(-1, keepdims=True))
        s /= s.sum(-1, keepdims=True)
        x = _layer_norm(x + (s @ v).swapaxes(0, 1).reshape(16, -1) @ self.wo)
        h = x @ self.w1
        return _layer_norm(x + (h * 0.5 * (1.0 + np.tanh(h))) @ self.w2)

    def run(self) -> float:
        t0 = time.perf_counter()
        node = _Node(self.x[:4, :64])
        for _ in range(_REPEATS):
            for _ in range(6):
                node = _tanh(_add(_matmul(node, self.w), self.b))
            node = _Node(self._attention_block(self.x)[:4, :64])
        return (time.perf_counter() - t0) * 1e3


class SequenceKernel:
    """Work on arrays beyond the L2 cache, like stage 1 on whole 240-frame
    sequences: one 240-frame, 4-head attention; ``run`` returns ms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((240, 64))
        self.wqkv = rng.standard_normal((64, 192)) / 8.0

    def run(self) -> float:
        t0 = time.perf_counter()
        qkv = (self.frames @ self.wqkv).reshape(240, 3, 4, 16).transpose(1, 2, 0, 3)
        s = qkv[0] @ qkv[1].swapaxes(1, 2) / 4.0
        s = np.exp(s - s.max(-1, keepdims=True))
        s /= s.sum(-1, keepdims=True)
        out = (s @ qkv[2]).swapaxes(0, 1).reshape(240, 64)
        if not np.isfinite(out).all():
            raise ArithmeticError("non-finite calibration value")
        return (time.perf_counter() - t0) * 1e3


# kernel class and its time in ms on the reference host
KERNELS = {"small": (SmallKernel, 3.5), "sequence": (SequenceKernel, 3.0)}


class HostClock:
    """Calibrates at most every ``INTERVAL`` s and converts durations to
    reference-host time."""

    def __init__(self, kernel: str):
        make, self.reference_ms = KERNELS[kernel]
        self.kernel = make()
        self.kernel.run()   # first call pays one-off allocation costs
        self.at: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0    # seconds spent calibrating

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        ms = self.kernel.run()
        self.at.append(t0)
        self.ms.append(ms)
        self.spent += time.perf_counter() - t0

    def maybe_calibrate(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL:
            self.calibrate()

    def _smoothed(self) -> np.ndarray:
        """Rolling median over ``SMOOTHING`` calibrations (about 1.8 s), so a
        few disturbed calibrations do not rescale the operations around them;
        host phases last seconds."""
        ms = np.asarray(self.ms)
        half = min(SMOOTHING // 2, (ms.size - 1) // 2)
        if half < 1:
            return ms
        padded = np.concatenate([np.repeat(ms[:1], half), ms, np.repeat(ms[-1:], half)])
        return np.median(np.stack([padded[i:i + ms.size] for i in range(2 * half + 1)]),
                         axis=0)

    def speed(self, t) -> np.ndarray:
        """Kernel time over the reference at time(s) ``t``: above 1 is slow."""
        return np.interp(t, self.at, self._smoothed()) / self.reference_ms

    def normalize(self, spans) -> np.ndarray:
        """Durations of (start, seconds) spans in reference-host seconds."""
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        return spans[:, 1] / self.speed(spans[:, 0] + spans[:, 1] / 2)
