"""Hand values and properties for the plain numeric kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtrack.ops import PROB_EPS, log_softmax
from reference_ops import focal_bce, kl_divergence, softmax

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_softmax_two_logits_hand_value():
    p = softmax([0.0, math.log(2.0)])
    assert np.allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_softmax_rows_shape():
    x = np.array([[0.0, 1.0], [2.0, 2.0]])
    p = softmax(x)
    assert p.shape == (2, 2)
    assert np.allclose(p[1], [0.5, 0.5])


@given(st.lists(finite_floats, min_size=1, max_size=8), st.floats(-30, 30))
@settings(max_examples=200)
def test_softmax_shift_invariant_and_normalized(logits, shift):
    base = softmax(logits)
    shifted = softmax([v + shift for v in logits])
    assert abs(base.sum() - 1.0) < 1e-9
    assert np.all(base > 0.0)
    assert np.max(np.abs(base - shifted)) < 1e-9


def test_log_softmax_consistent_with_softmax():
    x = np.array([[3.0, -1.0, 0.5]])
    assert np.allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-15)


def test_kl_hand_value():
    got = kl_divergence([0.5, 0.5], [0.25, 0.75])
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.14384) < 5e-6


def test_kl_clamped_one_hot_vs_uniform():
    eps = 1e-6
    p = [1.0 - eps, eps]
    got = kl_divergence(p, [0.5, 0.5])
    want = (1.0 - eps) * math.log((1.0 - eps) / 0.5) + eps * math.log(eps / 0.5)
    assert abs(got - want) < 1e-12
    assert abs(got - math.log(2.0)) < 2e-5


def test_kl_identical_is_zero():
    assert kl_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
)
@settings(max_examples=200)
def test_kl_nonnegative(pw, qw):
    n = min(len(pw), len(qw))
    p = np.asarray(pw[:n]) / np.sum(pw[:n])
    q = np.asarray(qw[:n]) / np.sum(qw[:n])
    assert kl_divergence(p, q) >= -1e-12


def test_kl_input_validation():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [0.5, 0.6])
    with pytest.raises(ValueError):
        kl_divergence([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([], [])


def test_focal_hand_values():
    # gamma=1, target=1, p=0.5: -(0.5) * log(0.5) = 0.5 ln 2
    assert abs(focal_bce(0.5, 1, 1.0) - 0.34657) < 5e-6
    assert abs(focal_bce(0.5, 1, 1.0) - 0.5 * math.log(2.0)) < 1e-12
    # gamma=0 is plain BCE: -log(1 - 0.5) = ln 2
    assert abs(focal_bce(0.5, 0, 0.0) - 0.69315) < 5e-6


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1))
@settings(max_examples=300)
def test_focal_gamma_zero_equals_bce(p, target):
    clamped = min(max(p, PROB_EPS), 1.0 - PROB_EPS)
    p_t = clamped if target == 1 else 1.0 - clamped
    bce = -math.log(p_t)
    assert abs(focal_bce(p, target, 0.0) - bce) < 1e-12


@given(st.floats(min_value=-1.0, max_value=2.0), st.integers(0, 1), st.floats(0.0, 5.0))
@settings(max_examples=300)
def test_focal_finite_even_at_extremes(p, target, gamma):
    value = focal_bce(p, target, gamma)
    assert math.isfinite(value)
    assert value >= 0.0


def test_focal_gamma_downweights_easy_examples():
    easy = focal_bce(0.9, 1, 2.0)
    plain = focal_bce(0.9, 1, 0.0)
    assert easy < plain


def test_focal_rejects_bad_args():
    with pytest.raises(ValueError):
        focal_bce(0.5, 1, -0.5)
    with pytest.raises(ValueError):
        focal_bce(0.5, 2, 1.0)
