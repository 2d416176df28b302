"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

A dynamically recorded tape in the micrograd tradition, except that each
node carries a whole (rows, cols) numpy array instead of one scalar, so a
full MLP layer or message-passing step is a handful of tape nodes rather
than thousands.  Every operation returns a new :class:`Tensor` holding the
forward value and one backward closure, recorded as it is: called with the
output node, it routes the output's gradient to the operation's parents.
:func:`linear` fuses a whole affine layer and its activation into one node.
:func:`gathered_linear` fuses one whose input is rows gathered from several
tensors side by side (a message-passing layer's endpoints and edges): it
projects each tensor before gathering, so no gathered input is formed.

Every sum of rows selected by an index is a product by a constant 0/1
``scipy.sparse`` CSR matrix.  A scatter (the backward of a gather, and the
forward of :func:`scattered_linear`) goes through an :class:`Incidence`,
whose matrix holds each output row's terms in input order and is built
once, however many products use it; the CSR product adds them in that
order from 0.0, so each sum has the bits of ``np.add.at``.
:func:`scattered_linear` is message passing's node update: it sums rows
into their output rows and then applies an affine layer to the sums, with
the bias counted once per summed row (the incidence's degree, read from its
matrix's row pointer).  That equals the layer run on every input row and
then scattered, up to rounding: a sum of affine rows is the affine map of
their sum, so an output row with no input row gets 0, not the bias.
:func:`sparse_matmul` takes any such matrix (``model.node_means``' node
membership) with a constant scale per output row, and asks for its
transpose only when it takes the gradient, so the matrix's owner can build
both once and the transpose only where a gradient needs it.

A loss term is one node too: :func:`mean_kl_rows` (the distillation KL)
here and ``nn.focal_bce_tape``.  Their forward values have the bits of the
unfused chains of row softmaxes and elementwise operations, but their
gradients are closed forms, equal to the chains' up to rounding and not
bit for bit.

The fused operations finish each product they make in place: ``linear``
and ``gathered_linear`` add the other projections and the bias into the
first product and relu multiplies it by its mask; ``sparse_matmul`` scales
its product.  Backward, a fresh matrix product of a tensor's shape (or
``scattered_linear``'s gathered rows) becomes that tensor's first gradient
as it is (``_accumulate``'s ``owned``), and relu masks its node's own
gradient in place.  This is safe because no other array or tensor holds
such an array: ``_accumulate`` copies every gradient it is not handed as
owned.  The in-place steps are the elementwise operations the unfused
chain computes, in the same order, so every value keeps its bits.

Finiteness is checked where values enter the tape and where they leave it:
on leaves and constants (every ``Tensor(...)``), and on the loss when
:meth:`Tensor.backward` starts.  Intermediate results skip the check, so a
NaN or inf that arises inside the tape surfaces at ``backward()``.

Shape discipline: everything is 2-D.  Scalars are (1, 1), row vectors are
(1, n).  Reductions keep dims so shapes never collapse.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "Incidence",
    "Tensor",
    "as_tensor",
    "gathered_linear",
    "linear",
    "mean_kl_rows",
    "scattered_linear",
    "sparse_matmul",
]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically symmetric form: never exponentiates a positive number.
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


class Tensor:
    """A 2-D float64 array tracked on the autodiff tape.

    Set ``requires_grad=True`` on leaves (parameters).  Gradients appear in
    ``.grad`` after calling :meth:`backward` on a (1, 1) result.

    The constructor normalises the shape to 2-D and rejects non-finite
    entries; it makes leaves and constants.  Operations build their outputs
    through :meth:`_make`, which skips both steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Tensor], None] | None = None

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single entry, got shape {self.shape}")
        return float(self.data[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``.grad``.  The first gradient is copied, unless
        it is ``owned``: an array of this tensor's shape that the backward
        step just made and nothing else holds, which becomes ``.grad``."""
        if self.grad is None:  # g + 0.0 turns -0.0 into 0.0, as 0.0 + g did
            if owned:
                grad += 0.0
                self.grad = grad
            else:
                self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- tape construction ----------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[["Tensor"], None],
    ) -> "Tensor":
        """Record an operation's 2-D float64 result; no copy, no checks."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out._parents = parents if needs else ()
        out._backward_fn = backward_fn if needs else None
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor._make(data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(-out.grad)

        return Tensor._make(-self.data, (self,), bw)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return Tensor._make(data, (self, other), bw)

    __rmul__ = __mul__

    # -- elementwise nonlinearities ---------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0.0

        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return Tensor._make(self.data * mask, (self,), bw)

    def sigmoid(self) -> "Tensor":
        s = _sigmoid(self.data)

        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(out.grad * s * (1.0 - s))

        return Tensor._make(s, (self,), bw)

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=True)
        if axis is None:
            data = data.reshape(1, 1)
        shape = self.shape

        def bw(out: "Tensor"):
            if self.requires_grad:
                self._accumulate(np.broadcast_to(out.grad, shape).copy())

        return Tensor._make(data, (self,), bw)

    def mean(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    # -- backward pass ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this (1, 1) tensor through the recorded tape.

        Raises ValueError when the loss is not finite.
        """
        if self.shape != (1, 1):
            raise ValueError(f"backward() starts from a scalar, got {self.shape}")
        if not np.isfinite(self.data[0, 0]):
            raise ValueError(f"loss is not finite: {self.data[0, 0]}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((1, 1))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node)


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _activate(z: np.ndarray, activation: str):
    """``act(z)`` and the map from the output's gradient to ``z``'s; ``z`` is
    a fresh product, which relu masks in place.  Backward, relu masks the
    output's own gradient in place too: only that node holds it."""
    if activation == "relu":
        mask = z > 0.0
        z *= mask
        return z, lambda g: np.multiply(g, mask, out=g)
    if activation == "sigmoid":
        s = _sigmoid(z)
        return s, lambda g: g * s * (1.0 - s)
    if activation == "identity":
        return z, lambda g: g
    raise ValueError(f"unknown activation {activation!r}")


def linear(x: Tensor, w: Tensor, b: Tensor, activation: str = "identity") -> Tensor:
    """``act(x @ w + b)`` as one tape node; act is relu, sigmoid or identity.

    The forward value is bitwise the one the unfused operations give.
    """
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul mismatch: {x.shape} @ {w.shape}")
    z = x.data @ w.data
    z += b.data
    data, grad_z = _activate(z, activation)

    def bw(out: Tensor):
        g = grad_z(out.grad)
        if x.requires_grad:
            x._accumulate(g @ w.data.T, owned=True)
        if w.requires_grad:
            w._accumulate(x.data.T @ g, owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._make(data, (x, w, b), bw)


class Incidence:
    """Where a scatter adds rows: row i of the values goes to row ``index[i]``
    of ``num_rows``.  Its 0/1 CSR matrix, ``num_rows`` x ``len(index)`` with
    each row's columns in input order, is built on first use and kept, so a
    graph's endpoint lists are checked and laid out once for every product.
    """

    __slots__ = ("index", "num_rows", "_matrix")

    def __init__(self, index: Sequence[int] | np.ndarray, num_rows: int):
        idx = np.asarray(index, dtype=np.intp)
        if idx.ndim != 1:
            raise ValueError(f"an incidence index is 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
            raise IndexError(f"row index out of range for {num_rows} rows")
        self.index = idx
        self.num_rows = num_rows
        self._matrix = None

    def matrix(self) -> sparse.csr_array:
        """The 0/1 CSR matrix, built on the first call."""
        if self._matrix is None:
            n = self.index.size
            indptr = np.zeros(self.num_rows + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.index, minlength=self.num_rows), out=indptr[1:])
            # a stable argsort of 8- or 16-bit keys is a radix sort
            keys = self.index.astype(np.min_scalar_type(max(self.num_rows - 1, 0)))
            order = np.argsort(keys, kind="stable")
            self._matrix = sparse.csr_array((np.ones(n), order, indptr), shape=(self.num_rows, n))
        return self._matrix

    def degrees(self) -> np.ndarray:
        """How many input rows each output row sums, as a (1, num_rows) float
        row: the differences of the kept matrix's row pointer."""
        return np.diff(self.matrix().indptr).astype(np.float64)[None, :]

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Add row i of ``values`` into row ``index[i]`` of (num_rows, cols) zeros.

        The CSR product adds each output row's terms in column order from
        0.0, which is input order: the bits of ``np.add.at``, -0.0 + 0.0
        included.
        """
        return self.matrix() @ values


def gathered_linear(
    parts: Sequence[tuple[Tensor, Incidence | None]],
    w: Tensor,
    b: Tensor,
    activation: str = "identity",
) -> Tensor:
    """``linear`` of the parts' selected rows side by side, as one tape node.

    Each part is a tensor and the rows it gives, by an incidence into its
    rows (repeats allowed) or all of them in order (None).  ``w``'s rows
    split by the parts' widths in order, and the node is ``act(Σ (t @
    w_k)[index] + b)``: each part is projected before it is gathered, so the
    work on gathered rows is out-wide.
    """
    tensors, incs = zip(*parts)
    blocks, lo = [], 0
    for t in tensors:
        blocks.append(w.data[lo : lo + t.shape[1]])
        lo += t.shape[1]
    if lo != w.shape[0]:
        raise ValueError(f"parts have {lo} columns, weight has {w.shape[0]} rows")
    if any(inc is not None and inc.num_rows != t.shape[0] for t, inc in parts):
        raise ValueError("an incidence must index the rows of its part")
    projected = [
        t.data @ wk if inc is None else (t.data @ wk)[inc.index]
        for t, inc, wk in zip(tensors, incs, blocks)
    ]
    if len({p.shape[0] for p in projected}) > 1:
        raise ValueError("parts must give the same number of rows")
    z = projected[0]
    for p in projected[1:]:
        z += p
    z += b.data
    data, grad_z = _activate(z, activation)

    def bw(out: Tensor):
        g = grad_z(out.grad)
        w_grads = []
        for t, inc, wk in zip(tensors, incs, blocks):
            if t.requires_grad or w.requires_grad:
                s = g if inc is None else inc.scatter(g)
            if t.requires_grad:
                t._accumulate(s @ wk.T, owned=True)
            if w.requires_grad:
                w_grads.append(t.data.T @ s)
        if w.requires_grad:
            w._accumulate(np.vstack(w_grads), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._make(data, tensors + (w, b), bw)


def scattered_linear(terms: Sequence[tuple[Tensor, Incidence, Tensor, Tensor]]) -> Tensor:
    """``Σ_k (S_k x_k) @ w_k + d_k b_k`` as one tape node, for terms ``(x_k,
    inc_k, w_k, b_k)``: ``S_k`` sums the rows of ``x_k`` into the rows of
    ``inc_k`` and ``d_k`` is the column of ``inc_k``'s degrees.

    It equals the sum over the terms of ``segment_sum(x_k @ w_k + b_k,
    inc_k)`` (an identity layer run on every input row, then scattered),
    because a sum of affine rows is the affine map of their sum with the
    bias counted once per row; so the product by ``w_k`` runs once per
    output row, not once per input row.  An output row with no input row in
    a term gets 0 from it, not ``b_k``.  Backward, the rows of ``g @ w_kᵀ``
    are gathered back to the rows of ``x_k``.
    """
    num_rows = {inc.num_rows for _, inc, _, _ in terms}
    if len(num_rows) != 1:
        raise ValueError("the terms must scatter into the same rows")
    if any(inc.index.size != x.shape[0] for x, inc, _, _ in terms):
        raise ValueError("an incidence must index the rows of its term")
    if any(x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]) for x, _, w, b in terms):
        raise ValueError("a term's weight and bias must fit its rows")
    summed = [inc.scatter(x.data) for x, inc, _, _ in terms]
    degrees = [inc.degrees() for _, inc, _, _ in terms]
    z = None
    for s, d, (_, _, w, b) in zip(summed, degrees, terms):
        zk = s @ w.data
        zk += d.T * b.data
        z = zk if z is None else np.add(z, zk, out=z)

    def bw(out: Tensor):
        g = out.grad
        for s, d, (x, inc, w, b) in zip(summed, degrees, terms):
            if x.requires_grad:
                x._accumulate((g @ w.data.T)[inc.index], owned=True)
            if w.requires_grad:
                w._accumulate(s.T @ g, owned=True)
            if b.requires_grad:
                b._accumulate(d @ g, owned=True)

    parents = tuple(t for x, _, w, b in terms for t in (x, w, b))
    return Tensor._make(z, parents, bw)


def sparse_matmul(
    m: sparse.csr_array, t: Tensor, scale: np.ndarray, transpose: Callable[[], sparse.csr_array]
) -> Tensor:
    """``(m @ t) * scale`` for a constant sparse matrix ``m`` and a constant
    (rows of ``m``, 1) column ``scale``, as one tape node.  The gradient is
    ``transpose() @ (grad * scale)``, where ``transpose()`` gives ``m``'s
    transpose as CSR and is called only when the gradient is taken.  It is
    exact where each column of ``m`` holds at most one 1 (each row of ``t``
    is used at most once, as itself)."""
    if m.shape[1] != t.shape[0]:
        raise ValueError(f"matmul mismatch: {m.shape} @ {t.shape}")
    if scale.shape != (m.shape[0], 1):
        raise ValueError(f"scale must be a ({m.shape[0]}, 1) column, got {scale.shape}")
    data = m @ t.data
    data *= scale

    def bw(out: Tensor):
        if t.requires_grad:
            t._accumulate(transpose() @ (out.grad * scale), owned=True)

    return Tensor._make(data, (t,), bw)


def mean_kl_rows(x: Tensor, log_q: np.ndarray) -> Tensor:
    """The mean over rows of KL(softmax(x_row) || exp(log_q_row)) as one (1, 1)
    tape node, for constant log-probabilities ``log_q`` of shape (rows, t)
    or (1, t).

    One max, one exp and one log of the row sums give both ``p`` and
    ``log p``; the value has the bits of the unfused chain.  The gradient is
    the closed form ``g / rows * p * (log p - log q - KL_row)``.
    """
    n = x.shape[0]
    if n == 0 or log_q.ndim != 2 or log_q.shape[0] not in (1, n) or log_q.shape[1] != x.shape[1]:
        raise ValueError(f"KL of {x.shape} rows against log-probabilities {log_q.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sums = ez.sum(axis=1, keepdims=True)
    p = ez / sums
    d = z - np.log(sums) - log_q  # log p - log q
    kl = (p * d).sum(axis=1, keepdims=True)

    def bw(out: Tensor):
        if x.requires_grad:
            g = d - kl
            g *= p
            g *= out.grad[0, 0] / n
            x._accumulate(g, owned=True)

    return Tensor._make(kl.sum(axis=0, keepdims=True) * (1.0 / n), (x,), bw)
