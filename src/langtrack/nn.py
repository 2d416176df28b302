"""Small neural-network building blocks on top of the autodiff tape.

Provides MLP parameter containers with seeded initialization, the forward
pass, the focal classification loss as one tape node (its gradient a
closed form, equal to the unfused chain's up to rounding, not bit for bit),
an Adam optimizer with decoupled weight decay, and a JSON checkpoint
container for named parameter arrays plus their configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, linear
from .ops import PROB_EPS

__all__ = [
    "LinearParams",
    "MLPParams",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "adam_step",
    "focal_bce_tape",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]

_ACTIVATIONS = ("relu", "sigmoid", "identity")


@dataclass
class LinearParams:
    """One affine layer: y = act(x @ w + b)."""

    w: Tensor
    b: Tensor
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.b.shape != (1, self.w.shape[1]):
            raise ValueError(f"bias shape {self.b.shape} does not match weight {self.w.shape}")


@dataclass
class MLPParams:
    """A stack of affine layers applied in order."""

    layers: list[LinearParams] = field(default_factory=list)

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    def named_tensors(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out[f"{prefix}{i}.w"] = layer.w
            out[f"{prefix}{i}.b"] = layer.b
        return out


def init_mlp(rng: np.random.Generator, dims: list[int], activations: list[str]) -> MLPParams:
    """Build an MLP with weights drawn uniform in ±1/sqrt(fan_in).

    `dims` lists layer widths including input, so len(activations) must be
    len(dims) - 1.  Draw order is fixed (w then b per layer) so a given
    generator state always produces the same parameters.
    """
    if len(dims) < 2:
        raise ValueError("need at least an input and an output width")
    if len(activations) != len(dims) - 1:
        raise ValueError("one activation per layer required")
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(1, fan_out))
        layers.append(
            LinearParams(
                Tensor(w, requires_grad=True),
                Tensor(b, requires_grad=True),
                act,
            )
        )
    return MLPParams(layers)


def mlp_forward(params: MLPParams, x: Tensor) -> Tensor:
    """Run the MLP on a (rows, in_dim) tensor."""
    if x.shape[1] != params.in_dim:
        raise ValueError(f"input has {x.shape[1]} columns, expected {params.in_dim}")
    h = x
    for layer in params.layers:
        h = linear(h, layer.w, layer.b, layer.activation)
    return h


def focal_bce_tape(probs: Tensor, targets: np.ndarray, gamma: float) -> Tensor:
    """Mean focal BCE over a (n, 1) column of edge probabilities, as one tape
    node; `targets` is a constant 0/1 column of the same length.

    With ``p`` clamped to [PROB_EPS, 1 - PROB_EPS], ``p_t`` the probability
    of the true class and ``q = 1 - p_t``, the value is the mean of
    ``-q**gamma * log(p_t)``, with the bits of the unfused chain (clamp,
    mix, power, log, product, mean).  The gradient is the closed form
    ``g / n * (gamma * q**(gamma - 1) * log(p_t) - q**gamma / p_t) * (2t - 1)``,
    zero where the clamp cuts (outside the open interval); the power's
    derivative counts as 0 where it is not finite (q = 0 with gamma < 1).
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if t.shape[0] != probs.shape[0] or probs.shape[1] != 1:
        raise ValueError("probs must be (n, 1) with one target per row")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("targets must be 0 or 1")
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    p = np.clip(probs.data, lo, hi)
    p_t = p * t + (1.0 - p) * (1.0 - t)
    q = 1.0 - p_t
    w = q**gamma
    log_pt = np.log(p_t)
    n = t.shape[0]

    def bw(out: Tensor):
        if probs.requires_grad:
            g = -(w / p_t)
            if gamma != 0.0:  # else the power is the constant 1
                with np.errstate(divide="ignore"):
                    dw = gamma * q ** (gamma - 1.0)
                g += np.where(np.isfinite(dw), dw, 0.0) * log_pt
            g *= out.grad[0, 0] / n
            g *= np.where((probs.data > lo) & (probs.data < hi), 2.0 * t - 1.0, 0.0)
            probs._accumulate(g, owned=True)

    return Tensor._make((-(w * log_pt)).sum(keepdims=True) * (1.0 / n), (probs,), bw)


@dataclass
class AdamState:
    """Adam with decoupled weight decay (multiplicative lr*wd shrink)."""

    lr: float = 3e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """Apply one Adam update in place from each parameter's ``.grad``.

    Parameters with no accumulated gradient are treated as having a zero
    gradient (their moments still decay and weight decay still applies).
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name in params:
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        p.data = p.data - state.lr * state.weight_decay * p.data - state.lr * m_hat / (
            np.sqrt(v_hat) + state.eps
        )


CHECKPOINT_FORMAT = "langtrack-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict[str, Tensor], config: dict) -> None:
    """Write named parameter arrays plus a config dict as versioned JSON.

    Floats survive the round trip exactly (json uses shortest repr).
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "tensors": {
            name: {"shape": list(t.data.shape), "data": t.data.tolist()}
            for name, t in sorted(tensors.items())
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], dict]:
    """Read a checkpoint back as (named tensors, config); ValueError if the
    document, its tensors or its config are missing or ill-typed."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a checkpoint file: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    entries, config = payload.get("tensors"), payload.get("config")
    if not isinstance(entries, dict) or not isinstance(config, dict):
        raise ValueError("checkpoint needs a 'tensors' object and a 'config' object")
    tensors = {}
    for name, entry in entries.items():
        try:
            arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"tensor {name!r} is not a shape and data: {exc!r}") from None
        tensors[name] = Tensor(arr, requires_grad=True)
    return tensors, config
