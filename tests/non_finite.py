"""The finite-result contract of the model calls.

Off the tape only each model call checks its result, so a sweep here spoils
one parameter at a time and asserts that the call never returns a
non-finite value: it raises ``NonFiniteError`` or returns finite values.
"""

import numpy as np

from facestream.tensor import NonFiniteError, no_grad

SCALINGS = 5   # times 1e100: entries near 1 reach inf at the fourth


def _raises_or_finite(call) -> bool:
    """Whether ``call()`` raised ``NonFiniteError``; fails on a non-finite
    result."""
    try:
        out = call()
    except NonFiniteError:
        return True
    assert np.isfinite(out).all(), "a non-finite value left the call"
    return False


def assert_never_returns_non_finite(call, param, rows=slice(None)):
    """Spoil ``param.data[rows]`` in place two ways and call ``call()``,
    which returns an array, after each change; ``param`` is restored after.

    Scaling: the rows, moved off zero if they are all zero, are multiplied
    by 1e100 until they overflow. NaN: the first entry of the rows is NaN.
    Each call must raise ``NonFiniteError`` or return only finite values,
    and each way must end in a raise, which shows the call reads ``rows``.
    """
    original = param.data.copy()
    try:
        with np.errstate(over="ignore", invalid="ignore"), no_grad():
            if not param.data[rows].any():
                param.data[rows] += 0.5
            raised = False
            for _ in range(SCALINGS):
                param.data[rows] *= 1e100
                if _raises_or_finite(call):
                    raised = True
                    break
            assert raised, "scaling the parameter never raised"
            param.data = original.copy()
            param.data[rows].flat[0] = np.nan
            assert _raises_or_finite(call), "a NaN in the parameter did not raise"
    finally:
        param.data = original
