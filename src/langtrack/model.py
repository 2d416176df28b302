"""The learnable association model.

Node and edge encoders followed by time-aware message passing: every step
refreshes each edge embedding from its endpoints, then every node sums one
aggregate message from edges arriving out of its past and one from edges
leaving toward its future (separate MLPs for the two directions).  A
sigmoid MLP head turns final edge embeddings into association
probabilities, and two linear projection heads map node/edge embeddings
into the text-embedding space for the distillation losses.  A tracklet node
starts from the mean encoder row of its detections (``node_means``, one
sparse product per graph).  Message passing gathers and sums through the
incidences of the edge endpoints, built once per call and shared by every
step, forward and backward.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from scipy import sparse

from .autodiff import Incidence, Tensor, gathered_linear, linear, segment_sum, sparse_matmul
from .graph import EDGE_FEATURE_DIM, TrackGraph
from .nn import MLPParams, init_mlp, mlp_forward
from .ops import PROB_EPS

__all__ = [
    "ModelConfig",
    "ModelParams",
    "EncodedGraph",
    "init_model",
    "node_means",
    "encode_graph",
    "message_pass",
    "classify_edges",
    "project_nodes_for_isg",
    "project_edges_for_spg",
]


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``node_dim`` matches the full-size model by default; tests and the
    desk-scale experiments shrink it via configuration.
    """

    message_passing_steps: int = 8
    edge_dim: int = 16
    text_dim: int = 512
    node_dim: int = 2048
    appearance_dim: int = 32

    def __post_init__(self):
        for name in ("message_passing_steps", "edge_dim", "text_dim", "node_dim", "appearance_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _architecture(config: ModelConfig) -> dict[str, tuple[list[int], list[str]]]:
    """Layer widths and activations for every trainable block."""
    m, e, t, a = config.node_dim, config.edge_dim, config.text_dim, config.appearance_dim
    half = max(m // 2, 1)
    return {
        "node_encoder": ([a, m, m], ["relu", "identity"]),
        "edge_encoder": ([EDGE_FEATURE_DIM, e, e], ["relu", "identity"]),
        "edge_update": ([2 * m + e, e, e], ["relu", "identity"]),
        "node_update_past": ([m + e, half, m], ["relu", "identity"]),
        "node_update_future": ([m + e, half, m], ["relu", "identity"]),
        "edge_classifier": ([e, e, 1], ["relu", "sigmoid"]),
        "isg_projection": ([m, t], ["identity"]),
        "spg_projection": ([e, t], ["identity"]),
    }


@dataclass
class ModelParams:
    """All trainable blocks, iterated in ``_architecture``'s block order."""

    node_encoder: MLPParams
    edge_encoder: MLPParams
    edge_update: MLPParams
    node_update_past: MLPParams
    node_update_future: MLPParams
    edge_classifier: MLPParams
    isg_projection: MLPParams
    spg_projection: MLPParams
    config: ModelConfig

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in _architecture(self.config):
            out.update(getattr(self, name).named_tensors(f"{name}."))
        return out

    def zero_grad(self) -> None:
        for t in self.named_tensors().values():
            t.zero_grad()


def init_model(rng: np.random.Generator, config: ModelConfig) -> ModelParams:
    """Seeded initialization; block order is fixed so results reproduce."""
    arch = _architecture(config)
    blocks = {name: init_mlp(rng, dims, acts) for name, (dims, acts) in arch.items()}
    return ModelParams(config=config, **blocks)


def params_from_tensors(tensors: dict[str, Tensor], config: ModelConfig) -> ModelParams:
    """Reassemble ModelParams from checkpointed named tensors."""
    arch = _architecture(config)
    scratch = init_model(np.random.default_rng(0), config)
    for name, t in scratch.named_tensors().items():
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        if tensors[name].data.shape != t.data.shape:
            raise ValueError(
                f"tensor {name!r} has shape {tensors[name].data.shape}, "
                f"expected {t.data.shape}"
            )
    blocks = {}
    for block_name in arch:
        layers = getattr(scratch, block_name).layers
        for i, layer in enumerate(layers):
            layer.w = tensors[f"{block_name}.{i}.w"]
            layer.b = tensors[f"{block_name}.{i}.b"]
        blocks[block_name] = MLPParams(layers)
    return ModelParams(config=config, **blocks)


@dataclass(eq=False)
class EncodedGraph:
    """A graph plus its tensors on the tape.

    ``node_phi``/``edge_init`` are the encoder outputs; ``node_h``/``edge_h``
    appear after message passing (``edge_h`` is the classified embedding).
    """

    graph: TrackGraph
    node_phi: Tensor
    edge_init: Tensor
    node_h: Tensor | None = None
    edge_h: Tensor | None = None


def node_means(enc: Tensor, rows: np.ndarray, sizes: np.ndarray) -> Tensor:
    """Node i's embedding, the mean of its ``sizes[i]`` rows of ``enc`` that
    ``rows`` lists node by node; a single-row node is its row, bit for bit.

    The sums are one product by the 0/1 (nodes, rows of ``enc``) matrix
    whose row i lists node i's rows in order, so each adds its rows in that
    order from 0.0 and no gathered copy is made.  Each row of ``enc``
    belongs to at most one node, so the gradient, the transposed product,
    hands each row its node's gradient exactly.
    """
    rows, sizes = np.asarray(rows, dtype=np.intp), np.asarray(sizes, dtype=np.intp)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    if indptr[-1] != rows.size:
        raise ValueError(f"sizes add up to {indptr[-1]}, not to the {rows.size} rows")
    if rows.size and (rows.min() < 0 or rows.max() >= enc.shape[0]):
        raise IndexError("node_means row out of range")
    members = sparse.csr_array((np.ones(rows.size), rows, indptr), (sizes.size, enc.shape[0]))
    return sparse_matmul(members, enc) * Tensor(1.0 / sizes.astype(np.float64)[:, None])


def encode_graph(
    graph: TrackGraph, params: ModelParams, node_init: Tensor | None = None
) -> EncodedGraph:
    """Produce initial node embeddings and edge embeddings.

    Node rows are ``node_init`` when given (training and tracking pass
    ``node_means`` of the detections' encoder rows), else the node encoder
    applied to each node's single detection; a multi-detection node raises.
    """
    m = params.config.node_dim
    v = graph.num_nodes
    if node_init is not None:
        if node_init.shape != (v, m):
            raise ValueError(f"node_init shape {node_init.shape}, expected {(v, m)}")
        phi = node_init
    elif np.any(graph.nodes.sizes != 1):
        raise ValueError("multi-detection tracklets need node_init to be encoded")
    else:
        nodes = graph.nodes
        app = nodes.clip.app[nodes.rows] if v else np.zeros((0, params.config.appearance_dim))
        phi = mlp_forward(params.node_encoder, Tensor(app))
    edge_init = mlp_forward(params.edge_encoder, Tensor(graph.edge_features))
    return EncodedGraph(graph, phi, edge_init)


def _gathered_mlp(params: MLPParams, parts) -> Tensor:
    """``mlp_forward`` of the parts' gathered rows side by side; the first
    layer is one ``gathered_linear``, which never forms those rows."""
    first, *rest = params.layers
    h = gathered_linear(parts, first.w, first.b, first.activation)
    for layer in rest:
        h = linear(h, layer.w, layer.b, layer.activation)
    return h


def message_pass(eg: EncodedGraph, params: ModelParams, steps: int) -> EncodedGraph:
    """Run `steps` rounds of edge-then-node updates.

    Each update MLP reads an edge's endpoint rows beside its edge row; its
    first layer projects node rows before gathering them to edges
    (:func:`~langtrack.autodiff.gathered_linear`).  Every gather to edges
    and every sum over them, forward and backward, goes through the two
    incidences of ``edge_u`` and ``edge_v``, built once per call.  Nodes
    with no incident edge keep their embedding.  Returns a new EncodedGraph;
    the input is left untouched.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    g = eg.graph
    h, e = eg.node_phi, eg.edge_init
    if g.num_edges == 0:
        return EncodedGraph(g, eg.node_phi, eg.edge_init, node_h=h, edge_h=e)
    touched = np.zeros((g.num_nodes, 1))
    touched[g.edge_u] = 1.0
    touched[g.edge_v] = 1.0
    keep = Tensor(1.0 - touched)
    touched_t = Tensor(touched)
    u, v = Incidence(g.edge_u, g.num_nodes), Incidence(g.edge_v, g.num_nodes)
    for _ in range(steps):
        e = _gathered_mlp(params.edge_update, [(h, u), (h, v), (e, None)])
        past_msg = _gathered_mlp(params.node_update_past, [(h, u), (e, None)])
        future_msg = _gathered_mlp(params.node_update_future, [(h, v), (e, None)])
        agg = segment_sum(past_msg, v, g.num_nodes) + segment_sum(future_msg, u, g.num_nodes)
        h = touched_t * agg + keep * h
    return EncodedGraph(g, eg.node_phi, eg.edge_init, node_h=h, edge_h=e)


def classify_edges(eg: EncodedGraph, params: ModelParams) -> Tensor:
    """Association probability per edge, clamped strictly inside (0, 1)."""
    if eg.edge_h is None:
        raise RuntimeError("classify_edges requires message passing to have run")
    probs = mlp_forward(params.edge_classifier, eg.edge_h)
    return probs.clamp(PROB_EPS, 1.0 - PROB_EPS)


def project_nodes_for_isg(eg: EncodedGraph, params: ModelParams) -> Tensor:
    """Project the pre-message-passing node embeddings into text space (one row per node)."""
    return mlp_forward(params.isg_projection, eg.node_phi)


def project_edges_for_spg(eg: EncodedGraph, params: ModelParams) -> Tensor:
    """Project final edge embeddings into text space (one row per edge)."""
    if eg.edge_h is None:
        raise RuntimeError("project_edges_for_spg requires message passing to have run")
    return mlp_forward(params.spg_projection, eg.edge_h)
