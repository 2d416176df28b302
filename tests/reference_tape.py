"""Tape operations used only to cross-check the fused ones.

``matmul`` is the tape's plain matrix product: ``matmul(x, w) + b`` is the
unfused reference for ``linear(x, w, b)``.

``gather_rows`` and ``concat_cols`` select rows and stack tensors side by
side, as message passing did before ``gathered_linear`` projected node rows
ahead of gathering them:
``linear(concat_cols([gather_rows(t, idx), ...]), w, b)`` is the unfused
reference for ``gathered_linear([(t, idx), ...], w, b)``.

``scatter_rows`` is the row scatter the tape ran before its sums became
products by ``autodiff.Incidence`` matrices: one ``bincount`` over flat
positions.  ``Incidence.scatter`` must give the same bits.

``segment_sum`` is the tape's row scatter as a node of its own: message
passing summed each node's edge messages with it, 64 wide, before
``autodiff.scattered_linear`` summed the hidden rows and projected the sums.

``clamp`` is the tape node ``model.classify_edges`` ended in before it
clamped its output in place; ``nn.focal_bce_tape`` masks what it masked.

``softmax_rows``, ``log_softmax_rows``, ``log`` and ``powf`` are the tape
operations the loss terms were chained from before each became one node:
``unfused_mean_kl`` is the reference for ``autodiff.mean_kl_rows`` and
``unfused_focal_bce`` the one for ``nn.focal_bce_tape``.  The fused values
have the chains' bits; their closed-form gradients agree up to rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from langtrack.autodiff import Incidence, Tensor, as_tensor
from langtrack.ops import PROB_EPS


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` as one tape node."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul mismatch: {a.shape} @ {b.shape}")

    def bw(out: Tensor):
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    return Tensor._make(a.data @ b.data, (a, b), bw)


def gather_rows(t: Tensor, index: Incidence | Sequence[int] | np.ndarray) -> Tensor:
    """Select rows by index (repeats allowed); gradient scatter-adds back."""
    inc = index if isinstance(index, Incidence) else Incidence(index, t.shape[0])
    data = t.data[inc.index]

    def bw(out: Tensor):
        if t.requires_grad and inc.index.size:
            t._accumulate(inc.scatter(out.grad))

    return Tensor._make(data, (t,), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors horizontally; all must share a row count."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_cols needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bw(out: Tensor):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(out.grad[:, a:b])

    return Tensor._make(data, tuple(parts), bw)


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Add row i of ``values`` into row ``index[i]`` of (num_rows, cols) zeros.

    One ``bincount`` over flat positions adds each entry's terms in input
    order from 0.0, as ``np.add.at`` does, so the bits are the same.
    """
    cols = values.shape[1]
    flat = (index[:, None] * cols + np.arange(cols)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=num_rows * cols)
    return sums.astype(np.float64, copy=False).reshape(num_rows, cols)  # ints if empty


def softmax_rows(t: Tensor) -> Tensor:
    """Row-wise softmax."""
    x = t.data
    z = np.exp(x - x.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)

    def bw(out: Tensor):
        if t.requires_grad:
            g = out.grad
            dot = (g * p).sum(axis=1, keepdims=True)
            t._accumulate(p * (g - dot))

    return Tensor._make(p, (t,), bw)


def log_softmax_rows(t: Tensor) -> Tensor:
    """Row-wise log-softmax."""
    x = t.data
    z = x - x.max(axis=1, keepdims=True)
    data = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    soft = np.exp(data)

    def bw(out: Tensor):
        if t.requires_grad:
            g = out.grad
            t._accumulate(g - soft * g.sum(axis=1, keepdims=True))

    return Tensor._make(data, (t,), bw)


def log(t: Tensor) -> Tensor:
    """Elementwise natural log of positive entries."""
    if np.any(t.data <= 0.0):
        raise ValueError("log of non-positive entry")

    def bw(out: Tensor):
        if t.requires_grad:
            t._accumulate(out.grad / t.data)

    return Tensor._make(np.log(t.data), (t,), bw)


def powf(t: Tensor, p: float) -> Tensor:
    """Elementwise power with a constant exponent of a non-negative base; a
    derivative that is not finite counts as 0, and exponent 0 has none."""
    if np.any(t.data < 0.0):
        raise ValueError("powf base must be non-negative")

    def bw(out: Tensor):
        if t.requires_grad and p != 0.0:
            with np.errstate(divide="ignore"):
                d = p * t.data ** (p - 1.0)
            t._accumulate(out.grad * np.where(np.isfinite(d), d, 0.0))

    return Tensor._make(t.data**p, (t,), bw)


def unfused_mean_kl(x: Tensor, log_q: np.ndarray) -> Tensor:
    """Mean over rows of KL(softmax(x_row) || exp(log_q_row)), chained."""
    per_row = (softmax_rows(x) * (log_softmax_rows(x) - Tensor(log_q))).sum(axis=1)
    return per_row.mean(axis=0)


def unfused_focal_bce(
    probs: Tensor, targets: np.ndarray, gamma: float, eps: float = PROB_EPS
) -> Tensor:
    """Mean focal BCE of a (n, 1) probability column, chained."""
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    p = clamp(probs, eps, 1.0 - eps)
    p_t = p * t + (1.0 - p) * (1.0 - t)
    return (-(powf(1.0 - p_t, gamma) * log(p_t))).mean()


def clamp(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi] as a tape node; gradient is zero outside the open
    interval."""
    inside = (t.data > lo) & (t.data < hi)

    def bw(out: Tensor):
        if t.requires_grad:
            t._accumulate(out.grad * inside)

    return Tensor._make(np.clip(t.data, lo, hi), (t,), bw)


def segment_sum(t: Tensor, inc: Incidence) -> Tensor:
    """Sum row i of `t` into row ``inc.index[i]`` of ``inc.num_rows`` rows."""
    if inc.index.size != t.shape[0]:
        raise ValueError("segment ids must cover every row")

    def bw(out: Tensor):
        if t.requires_grad and inc.index.size:
            t._accumulate(out.grad[inc.index], owned=True)

    return Tensor._make(inc.scatter(t.data), (t,), bw)
