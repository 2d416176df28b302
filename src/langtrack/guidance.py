"""Distillation of text embeddings into the association model.

Training-time only: node embeddings are pulled toward the frozen text
embedding of their instance's description (per-node KL between softmaxed
vectors), and final edge embeddings toward the scene description embedding.
Both terms are weighted into the classification objective.  Each term is
one fused tape node, ``autodiff.mean_kl_rows``: its value has the bits of
the unfused softmax chain, and its gradient is a closed form, equal to the
chain's up to rounding but not bit for bit.  The inference path must never
read the store; a context guard makes any such access blow up loudly, which
the tests and the CLI rely on.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .autodiff import Tensor, as_tensor, mean_kl_rows
from .ops import log_softmax

__all__ = [
    "LanguageEmbeddingStore",
    "GuidanceConfig",
    "GuidanceTerm",
    "isg_loss",
    "spg_loss",
    "total_loss",
    "language_access_forbidden",
]

_ACCESS_BLOCKED = contextvars.ContextVar("langtrack_no_language", default=False)


@contextmanager
def language_access_forbidden() -> Iterator[None]:
    """Within this context any embedding lookup raises RuntimeError."""
    token = _ACCESS_BLOCKED.set(True)
    try:
        yield
    finally:
        _ACCESS_BLOCKED.reset(token)


class LanguageEmbeddingStore:
    """Read-only map from description strings to text embeddings.

    Vectors are frozen (non-writeable views) and must share one dimension.
    ``access_count`` tallies every successful lookup so tests can prove the
    inference path never touched language.
    """

    def __init__(self, records: Mapping[str, np.ndarray]):
        self._records: dict[str, np.ndarray] = {}
        dim: int | None = None
        for description, vector in records.items():
            arr = np.asarray(vector, dtype=np.float64).ravel().copy()
            if dim is None:
                dim = arr.size
            elif arr.size != dim:
                raise ValueError(
                    f"embedding for {description!r} has dim {arr.size}, expected {dim}"
                )
            arr.flags.writeable = False
            self._records[description] = arr
        if dim is None:
            raise ValueError("embedding store cannot be empty")
        self.dim = dim
        self.access_count = 0

    def lookup(self, description: str) -> np.ndarray:
        if _ACCESS_BLOCKED.get():
            raise RuntimeError(
                "language embedding access is forbidden here (inference path)"
            )
        try:
            vec = self._records[description]
        except KeyError:
            raise KeyError(f"no embedding stored for description: {description!r}") from None
        self.access_count += 1
        return vec

    def descriptions(self) -> list[str]:
        return sorted(self._records)

    def __contains__(self, description: str) -> bool:
        return description in self._records

    def __len__(self) -> int:
        return len(self._records)


@dataclass
class GuidanceConfig:
    """Loss weights for the two distillation terms."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class GuidanceTerm:
    """One distillation loss value; with no rows it is a placeholder zero."""

    value: Tensor

    def item(self) -> float:
        return self.value.item()


def isg_loss(projected_nodes, instance_embeddings: np.ndarray) -> GuidanceTerm:
    """Instance-level loss: mean KL(softmax(node_i) || softmax(phi_i)).

    Row i of `instance_embeddings` is the text embedding for node i's
    instance description.  The nodes are a tape tensor or a plain array.
    """
    nodes = as_tensor(projected_nodes)
    targets = np.asarray(instance_embeddings, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets.reshape(1, -1)
    if nodes.shape[0] == 0:
        return GuidanceTerm(Tensor(0.0))
    if nodes.shape != targets.shape:
        raise ValueError(
            f"projected nodes {nodes.shape} and instance embeddings "
            f"{targets.shape} must align row for row"
        )
    return GuidanceTerm(mean_kl_rows(nodes, log_softmax(targets)))


def spg_loss(projected_edges, scene_embedding: np.ndarray) -> GuidanceTerm:
    """Scene-level loss: mean KL(softmax(edge) || softmax(phi_s)) over edges."""
    edges = as_tensor(projected_edges)
    scene = np.asarray(scene_embedding, dtype=np.float64).ravel()
    if edges.shape[0] == 0:
        return GuidanceTerm(Tensor(0.0))
    if edges.shape[1] != scene.size:
        raise ValueError(
            f"projected edges have dim {edges.shape[1]}, scene embedding {scene.size}"
        )
    log_q = log_softmax(scene).reshape(1, -1)
    return GuidanceTerm(mean_kl_rows(edges, log_q))


def total_loss(lc, l_isg, l_spg, cfg: GuidanceConfig):
    """Lc + alpha * L_ISG + beta * L_SPG.

    Works on floats or tape tensors.  A zero weight skips its term
    entirely, so disabling guidance reproduces the plain objective exactly
    (bitwise), not merely up to adding zeros.
    """
    total = lc
    if cfg.alpha > 0.0:
        total = total + cfg.alpha * l_isg
    if cfg.beta > 0.0:
        total = total + cfg.beta * l_spg
    return total
