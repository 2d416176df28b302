"""MLP forward/init, Adam semantics, focal tape loss, checkpoint round trip."""

import math

import numpy as np
import pytest

from langtrack import nn
from langtrack.autodiff import Tensor
from langtrack.nn import (
    AdamState,
    MLPParams,
    adam_step,
    focal_bce_tape,
    init_mlp,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
)
from langtrack.ops import PROB_EPS
from reference_ops import focal_bce
from reference_tape import unfused_focal_bce
from gradcheck import check_gradients


def small_mlp(seed=0, dims=(4, 6, 2), acts=("relu", "identity")):
    return init_mlp(np.random.default_rng(seed), list(dims), list(acts))


def test_init_shapes_and_bounds():
    mlp = small_mlp()
    assert mlp.in_dim == 4
    for layer, fan_in in zip(mlp.layers, (4, 6)):
        bound = 1.0 / math.sqrt(fan_in)
        assert np.all(np.abs(layer.w.data) <= bound)
        assert np.all(np.abs(layer.b.data) <= bound)
        assert layer.w.requires_grad and layer.b.requires_grad


def test_init_deterministic_per_seed():
    a, b = small_mlp(7), small_mlp(7)
    c = small_mlp(8)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w.data, lb.w.data)
        assert np.array_equal(la.b.data, lb.b.data)
    assert not np.array_equal(a.layers[0].w.data, c.layers[0].w.data)


def test_forward_matches_manual_numpy():
    mlp = small_mlp()
    x = np.random.default_rng(1).standard_normal((5, 4))
    got = mlp_forward(mlp, Tensor(x)).data
    h = np.maximum(x @ mlp.layers[0].w.data + mlp.layers[0].b.data, 0.0)
    want = h @ mlp.layers[1].w.data + mlp.layers[1].b.data
    assert np.allclose(got, want, atol=1e-15)


def test_forward_rejects_bad_width():
    with pytest.raises(ValueError):
        mlp_forward(small_mlp(), Tensor(np.zeros((3, 5))))


def test_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_mlp(rng, [4], [])
    with pytest.raises(ValueError):
        init_mlp(rng, [4, 2], ["relu", "relu"])
    with pytest.raises(ValueError):
        init_mlp(rng, [4, 2], ["tanh"])


def test_mlp_gradcheck_through_loss():
    mlp = small_mlp(seed=3, dims=(3, 5, 1), acts=("relu", "sigmoid"))
    x = Tensor(np.random.default_rng(2).standard_normal((7, 3)))
    params = list(mlp.named_tensors().values())
    targets = np.array([1, 0, 1, 1, 0, 0, 1], dtype=float)

    def f(_):
        return focal_bce_tape(mlp_forward(mlp, x), targets, gamma=1.0)

    check_gradients(f, params)


def test_focal_tape_matches_scalar_op():
    rng = np.random.default_rng(4)
    probs = rng.uniform(0.001, 0.999, size=(20, 1))
    targets = rng.integers(0, 2, size=20)
    for gamma in (0.0, 1.0, 2.0):
        got = focal_bce_tape(Tensor(probs), targets, gamma).item()
        want = np.mean([focal_bce(p, int(t), gamma) for p, t in zip(probs[:, 0], targets)])
        assert abs(got - want) < 1e-12


def test_focal_tape_validation():
    with pytest.raises(ValueError):
        focal_bce_tape(Tensor(np.full((3, 1), 0.5)), np.array([1, 0]), 1.0)
    with pytest.raises(ValueError):
        focal_bce_tape(Tensor(np.full((2, 1), 0.5)), np.array([1, 2]), 1.0)
    with pytest.raises(ValueError):
        focal_bce_tape(Tensor(np.full((2, 1), 0.5)), np.array([1, 0]), -1.0)


def test_adam_first_step_hand_value():
    # Single parameter 1.0, gradient 1.0, lr 0.1, no decay: bias-corrected
    # m_hat = v_hat = 1, so the step is lr * 1/(1 + eps) ~= 0.1.
    p = Tensor([[1.0]], requires_grad=True)
    p.grad = np.array([[1.0]])
    state = AdamState(lr=0.1, weight_decay=0.0)
    adam_step({"p": p}, state)
    assert abs(p.data[0, 0] - 0.9) < 1e-8
    assert state.step == 1


def test_adam_decoupled_weight_decay():
    # Zero gradient: the update reduces to the multiplicative shrink.
    p = Tensor([[2.0]], requires_grad=True)
    p.grad = np.array([[0.0]])
    state = AdamState(lr=0.1, weight_decay=0.5)
    adam_step({"p": p}, state)
    assert abs(p.data[0, 0] - 2.0 * (1.0 - 0.1 * 0.5)) < 1e-12


def test_adam_missing_grad_treated_as_zero():
    p = Tensor([[1.0]], requires_grad=True)
    q = Tensor([[1.0]], requires_grad=True)
    q.grad = np.array([[1.0]])
    state = AdamState(lr=0.01, weight_decay=0.0)
    adam_step({"p": p, "q": q}, state)
    assert p.data[0, 0] == 1.0
    assert q.data[0, 0] < 1.0


def test_adam_descends_on_quadratic():
    p = Tensor([[5.0]], requires_grad=True)
    state = AdamState(lr=0.2, weight_decay=0.0)
    for _ in range(400):
        p.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        adam_step({"p": p}, state)
    assert abs(p.data[0, 0]) < 1e-2


def test_checkpoint_round_trip_exact(tmp_path):
    mlp = small_mlp(seed=11)
    tensors = mlp.named_tensors("edge_encoder.")
    config = {"node_dim": 8, "lr": 3e-4, "levels": [5, 25, 75, 150]}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, tensors, config)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert sorted(loaded) == sorted(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name].data, tensors[name].data)
        assert loaded[name].requires_grad


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_named_tensors_order_stable():
    mlp = small_mlp()
    names = list(MLPParams(mlp.layers).named_tensors("m.").keys())
    assert names == ["m.0.w", "m.0.b", "m.1.w", "m.1.b"]


# probabilities inside, at and outside the clamp bounds
FOCAL_PROBS = np.array([
    -0.25, 0.0, 1e-9, PROB_EPS, 2e-7, 0.3, 0.5, 0.7,
    1.0 - 2e-7, 1.0 - PROB_EPS, 1.0 - 1e-9, 1.0, 1.5,
])


def fused_and_chained_focal(probs, targets, gamma, eps=PROB_EPS):
    """Each loss's value and the gradient it hands ``probs``."""
    out = []
    for focal in (focal_bce_tape, lambda p, t, g: unfused_focal_bce(p, t, g, eps)):
        p = Tensor(probs.copy(), requires_grad=True)
        value = focal(p, targets, gamma)
        (value * 3.0).backward()
        out.append((value.data, p.grad))
    return out


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("target", [0.0, 1.0])
def test_fused_focal_matches_the_unfused_chain(gamma, target):
    probs = FOCAL_PROBS.reshape(-1, 1)
    targets = np.full(probs.shape[0], target)
    (fused, fused_grad), (chain, chain_grad) = fused_and_chained_focal(probs, targets, gamma)
    assert fused.tobytes() == chain.tobytes()
    assert np.max(np.abs(fused_grad - chain_grad)) <= 1e-12 * np.max(np.abs(chain_grad))
    cut = (FOCAL_PROBS <= PROB_EPS) | (FOCAL_PROBS >= 1.0 - PROB_EPS)
    assert np.all(fused_grad[cut] == 0.0) and np.all(fused_grad[~cut] != 0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_fused_focal_where_the_true_class_has_probability_1(monkeypatch, gamma):
    # with no clamp margin, p_t = 1 gives q = 1 - p_t = 0, where the power's
    # derivative for gamma < 1 is infinite and counts as 0
    monkeypatch.setattr(nn, "PROB_EPS", 0.0)
    probs = np.array([[1.0], [0.0], [0.4], [0.9]])
    targets = np.array([1.0, 0.0, 1.0, 0.0])
    (fused, fused_grad), (chain, chain_grad) = fused_and_chained_focal(probs, targets, gamma, 0.0)
    assert fused.tobytes() == chain.tobytes()
    assert np.all(np.isfinite(fused_grad)) and np.all(fused_grad[:2] == 0.0)
    assert np.max(np.abs(fused_grad - chain_grad)) <= 1e-12 * np.max(np.abs(chain_grad))
