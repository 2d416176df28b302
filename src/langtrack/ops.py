"""Plain-numpy numeric kernels shared across the package: the probability
clamp and a stable row-wise log-softmax for constant loss targets."""

from __future__ import annotations

import numpy as np

__all__ = ["PROB_EPS", "log_softmax"]

# Probabilities are clamped away from {0, 1} before any log.
PROB_EPS = 1e-7


def log_softmax(x) -> np.ndarray:
    """Row-wise log-softmax, computed without forming the softmax first."""
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    z = arr - arr.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return out[0] if squeeze else out
