"""The learnable association model, as functions of tensors.

Node and edge encoders followed by time-aware message passing: every round
refreshes each edge embedding from its endpoints, then sets every node to
the sum of the messages from edges arriving out of its past and those from
edges leaving toward its future (separate MLPs for the two directions).
The node-update MLPs end in an identity layer, so a node sums its edges'
hidden rows first and that layer runs once per node, its bias counted once
per edge (exact up to rounding; a node with no edge in a direction gets 0
from it).  The last round stops after its edge update.  A sigmoid MLP head
turns the final edge embeddings into association probabilities, and two linear
projection heads map node/edge embeddings into the text-embedding space
for the distillation losses.  A tracklet node starts from the mean encoder
row of its detections (``node_means``, one sparse product by the nodes'
membership matrix).  Message passing gathers and sums through the
incidences of the edge endpoints (``TrackGraph.incidences``), shared by
every round, forward and backward.  The graph and its nodes keep these
matrices, so they are built once per graph however many passes use them:
once for tracking, once per training run for a training bundle's graphs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, gathered_linear, linear, scattered_linear, sparse_matmul
from .graph import EDGE_FEATURE_DIM, TrackGraph, TrackletRows
from .nn import MLPParams, init_mlp, mlp_forward
from .ops import PROB_EPS

__all__ = [
    "ModelConfig",
    "ModelParams",
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
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

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


def node_means(enc: Tensor, nodes: TrackletRows) -> Tensor:
    """Node i's embedding, the mean of its ``nodes.sizes[i]`` rows of ``enc``,
    which has one row per detection of ``nodes.clip``; a single-row node is
    its row, bit for bit.

    The sums are one product by the nodes' 0/1 membership matrix
    (``TrackletRows.members``), whose row i lists node i's rows in order, so
    each adds its rows in that order from 0.0 and no gathered copy is made;
    the product is scaled by ``1 / sizes`` in place, in the same tape node.
    Each row of ``enc`` belongs to at most one node, so the gradient, the
    transposed product of the scaled output gradient, hands each row its
    node's gradient exactly.  The nodes keep both matrices; the transpose is
    built only once a gradient needs it, so tracking never builds it.
    """
    m = nodes.members()  # checks the sizes before they divide
    return sparse_matmul(m, enc, 1.0 / nodes.sizes.astype(np.float64)[:, None], nodes.members_t)


def encode_graph(
    graph: TrackGraph, params: ModelParams, node_init: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """Initial node rows and edge rows of ``graph``.

    Node rows are ``node_init`` when given (training and tracking pass
    ``node_means`` of the detections' encoder rows), else the node encoder
    applied to each node's single detection; a multi-detection node raises.
    """
    m = params.config.node_dim
    v = graph.num_nodes
    if node_init is not None:
        if node_init.shape != (v, m):
            raise ValueError(f"node_init shape {node_init.shape}, expected {(v, m)}")
        h = node_init
    elif np.any(graph.nodes.sizes != 1):
        raise ValueError("multi-detection tracklets need node_init to be encoded")
    else:
        nodes = graph.nodes
        app = nodes.clip.app[nodes.rows] if v else np.zeros((0, params.config.appearance_dim))
        h = mlp_forward(params.node_encoder, Tensor(app))
    return h, mlp_forward(params.edge_encoder, Tensor(graph.edge_features))


def _gathered_mlp(params: MLPParams, parts) -> Tensor:
    """``mlp_forward`` of the parts' gathered rows side by side; the first
    layer is one ``gathered_linear``, which never forms those rows."""
    first, *rest = params.layers
    h = gathered_linear(parts, first.w, first.b, first.activation)
    for layer in rest:
        h = linear(h, layer.w, layer.b, layer.activation)
    return h


def message_pass(
    graph: TrackGraph, h: Tensor, e: Tensor, params: ModelParams, steps: int
) -> Tensor:
    """The edge rows after ``steps`` rounds of edge-then-node updates over
    ``graph``, from node rows ``h`` and edge rows ``e``.

    Each update MLP reads an edge's endpoint rows beside its edge row; its
    first layer projects node rows before gathering them to edges
    (:func:`~langtrack.autodiff.gathered_linear`).  A node's new row is the
    sum of the past MLP over its incoming edges and the future MLP over its
    outgoing ones.  Both MLPs end in an identity layer, and a sum of affine
    rows is the affine map of their sum: over a node's edges, ``Σ (relu(x)
    @ w + b)`` is ``(Σ relu(x)) @ w + degree · b``, up to rounding.  So one
    :func:`~langtrack.autodiff.scattered_linear` sums the hidden rows into
    the nodes and projects node rows, not edge rows.  A node with no edge
    in a direction gets 0 from it, not the bias; a node with no edge at all
    gets 0, which no edge reads.  Every gather to edges and every sum over
    them, forward and backward, goes through the two incidences of
    ``edge_u`` and ``edge_v`` that the graph keeps.  The last round stops
    after its edge update: nothing reads the node rows after it.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if graph.num_edges == 0:
        return e
    u, v = graph.incidences()
    (past, past_out), (future, future_out) = (
        params.node_update_past.layers,
        params.node_update_future.layers,
    )
    e = _gathered_mlp(params.edge_update, [(h, u), (h, v), (e, None)])
    for _ in range(steps - 1):
        x_past = gathered_linear([(h, u), (e, None)], past.w, past.b, past.activation)
        x_future = gathered_linear([(h, v), (e, None)], future.w, future.b, future.activation)
        h = scattered_linear(
            [(x_past, v, past_out.w, past_out.b), (x_future, u, future_out.w, future_out.b)]
        )
        e = _gathered_mlp(params.edge_update, [(h, u), (h, v), (e, None)])
    return e


def classify_edges(e: Tensor, params: ModelParams) -> Tensor:
    """Association probability per edge row, clipped to [PROB_EPS, 1 -
    PROB_EPS] in place on the sigmoid layer's output, not as a tape node of
    its own: the loss, ``nn.focal_bce_tape``, gives no gradient to an entry
    at either bound, which is where the clip puts every entry it cuts.
    """
    probs = mlp_forward(params.edge_classifier, e)
    np.clip(probs.data, PROB_EPS, 1.0 - PROB_EPS, out=probs.data)
    return probs


def project_nodes_for_isg(h: Tensor, params: ModelParams) -> Tensor:
    """Project node rows (those before message passing) into text space."""
    return mlp_forward(params.isg_projection, h)


def project_edges_for_spg(e: Tensor, params: ModelParams) -> Tensor:
    """Project final edge rows into text space (one row per edge)."""
    return mlp_forward(params.spg_projection, e)
