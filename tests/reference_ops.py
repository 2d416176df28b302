"""Plain-numpy softmax, KL divergence and focal BCE used only to cross-check
the tape: the guidance losses and ``nn.focal_bce_tape`` must agree with
these scalar definitions."""

from __future__ import annotations

import numpy as np

from langtrack.ops import PROB_EPS


def softmax(x) -> np.ndarray:
    """Row-wise stable softmax; 1-D input yields a 1-D distribution."""
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    z = np.exp(arr - arr.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    return p[0] if squeeze else p


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats for two discrete distributions.

    Both inputs must be strictly positive and sum to 1 within 1e-6; the
    caller is expected to have clamped away exact zeros beforehand.
    """
    pa = np.asarray(p, dtype=np.float64).ravel()
    qa = np.asarray(q, dtype=np.float64).ravel()
    if pa.shape != qa.shape:
        raise ValueError(f"distribution shapes differ: {pa.shape} vs {qa.shape}")
    if pa.size == 0:
        raise ValueError("empty distribution")
    if np.any(pa <= 0.0) or np.any(qa <= 0.0):
        raise ValueError("distributions must be strictly positive")
    if abs(pa.sum() - 1.0) > 1e-6 or abs(qa.sum() - 1.0) > 1e-6:
        raise ValueError("distributions must sum to 1 within 1e-6")
    return float(np.sum(pa * (np.log(pa) - np.log(qa))))


def focal_bce(pred: float, target: int, gamma: float) -> float:
    """Focal binary cross-entropy for one edge.

    ``-(1 - p_t)**gamma * log(p_t)`` with ``p_t`` the probability assigned
    to the true class.  ``gamma == 0`` reduces to plain BCE.  Predictions
    are clamped to [PROB_EPS, 1 - PROB_EPS] before the log.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    p = min(max(float(pred), PROB_EPS), 1.0 - PROB_EPS)
    p_t = p if target == 1 else 1.0 - p
    return float(-((1.0 - p_t) ** gamma) * np.log(p_t))
