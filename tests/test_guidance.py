"""Distillation losses: hand values, direct-summation oracles, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtrack.autodiff import Tensor
from langtrack.guidance import (
    GuidanceConfig,
    LanguageEmbeddingStore,
    isg_loss,
    language_access_forbidden,
    spg_loss,
    total_loss,
)
from reference_ops import kl_divergence, softmax


def direct_isg(nodes, targets):
    """Straight Eq.-style summation with the scalar KL oracle."""
    v = len(nodes)
    return sum(kl_divergence(softmax(n), softmax(t)) for n, t in zip(nodes, targets)) / v


def test_isg_zero_on_identical_rows():
    rows = np.random.default_rng(0).standard_normal((4, 6))
    term = isg_loss(rows, rows.copy())
    assert term.value.shape == (1, 1)  # one scalar loss over the four rows
    assert abs(term.item()) < 1e-12


def test_isg_hand_value():
    term = isg_loss(np.array([[0.0, 0.0]]), np.array([[0.0, math.log(3.0)]]))
    want = kl_divergence([0.5, 0.5], [0.25, 0.75])
    assert abs(term.item() - want) < 1e-12
    assert abs(term.item() - 0.14384) < 5e-6


def test_isg_mean_of_per_node_kls():
    a = np.array([[0.3, -0.2, 1.0]])
    b = np.array([[2.0, 0.1, -0.5]])
    ta = np.array([[0.0, 0.0, 0.5]])
    tb = np.array([[1.0, -1.0, 0.0]])
    ka = isg_loss(a, ta).item()
    kb = isg_loss(b, tb).item()
    both = isg_loss(np.vstack([a, b]), np.vstack([ta, tb])).item()
    assert abs(both - (ka + kb) / 2.0) < 1e-12


def test_isg_matches_direct_summation_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        nodes = rng.standard_normal((v, d)) * 3.0
        targets = rng.standard_normal((v, d)) * 3.0
        got = isg_loss(nodes, targets).item()
        assert abs(got - direct_isg(nodes, targets)) < 1e-9


def test_isg_shift_invariance_of_alignment():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((3, 5))
    shifted = rows + rng.standard_normal((3, 1))  # per-row additive constants
    assert abs(isg_loss(shifted, rows).item()) < 1e-12


def test_isg_empty_returns_flagged_zero():
    term = isg_loss(np.zeros((0, 4)), np.zeros((0, 4)))
    assert term.value.shape == (1, 1) and term.item() == 0.0


def test_isg_rejects_mismatch():
    with pytest.raises(ValueError):
        isg_loss(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        isg_loss(np.zeros((2, 3)), np.zeros((2, 4)))


def test_spg_hand_value_and_duplication_invariance():
    edges = np.array([[0.0, 0.0]])
    scene = np.array([0.0, math.log(3.0)])
    term = spg_loss(edges, scene)
    assert abs(term.item() - 0.14384) < 5e-6
    doubled = spg_loss(np.vstack([edges, edges]), scene)
    assert abs(doubled.item() - term.item()) < 1e-12


def test_spg_zero_on_aligned_and_empty_flag():
    scene = np.array([0.2, -1.0, 0.4])
    assert abs(spg_loss(np.tile(scene, (5, 1)), scene).item()) < 1e-12
    term = spg_loss(np.zeros((0, 3)), scene)
    assert term.value.shape == (1, 1) and term.item() == 0.0


def test_spg_matches_direct_summation_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        edges = rng.standard_normal((e, d)) * 2.5
        scene = rng.standard_normal(d) * 2.5
        want = sum(kl_divergence(softmax(r), softmax(scene)) for r in edges) / e
        assert abs(spg_loss(edges, scene).item() - want) < 1e-9


@given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=100)
def test_losses_nonnegative(v, d, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.standard_normal((v, d)) * 4.0
    targets = rng.standard_normal((v, d)) * 4.0
    assert isg_loss(nodes, targets).item() >= -1e-12
    assert spg_loss(nodes, targets[0]).item() >= -1e-12


def test_losses_invariant_to_row_order():
    rng = np.random.default_rng(4)
    nodes = rng.standard_normal((6, 4))
    targets = rng.standard_normal((6, 4))
    perm = rng.permutation(6)
    a = isg_loss(nodes, targets).item()
    b = isg_loss(nodes[perm], targets[perm]).item()
    assert abs(a - b) < 1e-12
    scene = rng.standard_normal(4)
    assert abs(spg_loss(nodes, scene).item() - spg_loss(nodes[perm], scene).item()) < 1e-12


def test_gradient_step_decreases_isg():
    rng = np.random.default_rng(5)
    for trial in range(20):
        row = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        target = rng.standard_normal((1, 6))
        loss = isg_loss(row, target)
        base = loss.item()
        if base < 1e-12:
            continue
        loss.value.backward()
        step = 0.5
        for _ in range(30):  # backtracking line search
            candidate = row.data - step * row.grad
            if isg_loss(candidate, target).item() < base:
                break
            step *= 0.5
        else:
            pytest.fail(f"no descent direction found on trial {trial}")


def test_isg_gradient_matches_finite_differences():
    from gradcheck import check_gradients

    rng = np.random.default_rng(6)
    nodes = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    targets = rng.standard_normal((4, 5))
    check_gradients(lambda ts: isg_loss(ts[0], targets).value, [nodes])
    edges = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    scene = rng.standard_normal(5)
    check_gradients(lambda ts: spg_loss(ts[0], scene).value, [edges])


def test_total_loss_arithmetic():
    assert total_loss(1.0, 2.0, 3.0, GuidanceConfig(alpha=0.5, beta=0.1)) == pytest.approx(2.3)
    assert total_loss(1.5, 99.0, 99.0, GuidanceConfig(alpha=0.0, beta=0.0)) == 1.5
    assert total_loss(2.0, 0.0, 0.0, GuidanceConfig(alpha=1.0, beta=1.0)) == 2.0


def test_total_loss_zero_weights_return_lc_object():
    lc = Tensor([[1.25]], requires_grad=True)
    out = total_loss(lc, Tensor([[5.0]]), Tensor([[7.0]]), GuidanceConfig(0.0, 0.0))
    assert out is lc  # not merely equal: guidance must leave no trace


def test_total_loss_linear_in_weights():
    lc, li, ls = 0.7, 1.3, 2.1
    h = 0.25
    for alpha in (0.5, 1.0):
        up = total_loss(lc, li, ls, GuidanceConfig(alpha + h, 1.0))
        down = total_loss(lc, li, ls, GuidanceConfig(alpha - h, 1.0))
        assert abs((up - down) / (2 * h) - li) < 1e-12
    up = total_loss(lc, li, ls, GuidanceConfig(1.0, 1.0 + h))
    down = total_loss(lc, li, ls, GuidanceConfig(1.0, 1.0 - h))
    assert abs((up - down) / (2 * h) - ls) < 1e-12


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        GuidanceConfig(beta=float("nan"))


def test_store_lookup_semantics():
    vec = np.array([1.0, 2.0, 3.0])
    store = LanguageEmbeddingStore({"a red shirt": vec, "a blue shirt": vec * 2})
    assert store.dim == 3
    got = store.lookup("a red shirt")
    assert np.array_equal(got, vec)
    assert np.array_equal(store.lookup("a red shirt"), got)
    assert store.access_count == 2
    with pytest.raises(KeyError, match="green"):
        store.lookup("a green shirt")
    with pytest.raises(ValueError):
        LanguageEmbeddingStore({"a": np.ones(3), "b": np.ones(4)})
    with pytest.raises(ValueError):
        LanguageEmbeddingStore({})


def test_store_vectors_are_frozen():
    store = LanguageEmbeddingStore({"d": np.ones(2)})
    vec = store.lookup("d")
    with pytest.raises(ValueError):
        vec[0] = 5.0


def test_access_guard_blocks_lookup():
    store = LanguageEmbeddingStore({"d": np.ones(2)})
    with language_access_forbidden():
        with pytest.raises(RuntimeError):
            store.lookup("d")
    # guard lifts cleanly
    assert store.lookup("d") is not None
    assert store.access_count == 1
