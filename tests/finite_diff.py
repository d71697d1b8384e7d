"""Central-difference gradient checker for the tests."""

from typing import Callable

import numpy as np

from facestream.tensor import Tensor, no_grad


def finite_diff_check(fn: Callable[[Tensor], Tensor], point: np.ndarray,
                      eps: float = 1e-5) -> float:
    """Compare the tape gradient of ``fn`` at ``point`` with central differences.

    Returns max over coordinates of |analytic - central| / max(1, |central|).
    ``fn`` must map a Tensor to a scalar Tensor and be deterministic.
    """
    point = np.asarray(point, dtype=np.float64)
    leaf = Tensor(point.copy(), requires_grad=True)
    out = fn(leaf)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued fn")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(point)

    flat = point.ravel()
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += eps
            f_plus = fn(Tensor(bumped.reshape(point.shape))).item()
            bumped[i] -= 2.0 * eps
            f_minus = fn(Tensor(bumped.reshape(point.shape))).item()
            central = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(analytic.ravel()[i] - central) / max(1.0, abs(central))
            worst = max(worst, rel)
    return worst
