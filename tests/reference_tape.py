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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from langtrack.autodiff import Incidence, Tensor, as_tensor


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
