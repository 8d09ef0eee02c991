"""Adam update math, missing and malformed gradients, determinism."""

import numpy as np
import pytest

from spladapt.autodiff import Tensor
from spladapt.optim import AdamState, adam_step


def make_weights(rng, names, shape=(3, 2), dtype=np.float32):
    return {n: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True) for n in names}


def test_first_step_moves_by_lr():
    # with g=1 everywhere: m_hat = 1, v_hat = 1, step = lr / (1 + eps)
    w = {"w": Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)}
    state = AdamState.for_weights(w, lr=1e-3)
    adam_step(w, {"w": np.ones(4)}, state)
    expected = -1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(w["w"].data, expected, rtol=1e-12)
    assert state.t == 1


def test_moment_recursion_two_steps():
    # hand-computed: g1=1, g2=2
    w = {"w": Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)}
    state = AdamState.for_weights(w, lr=0.1)
    adam_step(w, {"w": np.array([1.0])}, state)
    adam_step(w, {"w": np.array([2.0])}, state)
    m2 = 0.9 * 0.1 + 0.1 * 2.0          # 0.29
    v2 = 0.999 * 0.001 + 0.001 * 4.0    # 0.004999
    mh = m2 / (1 - 0.9**2)
    vh = v2 / (1 - 0.999**2)
    w1 = -0.1 / (1 + 1e-8)
    expected = w1 - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(w["w"].data, [expected], rtol=1e-12)
    np.testing.assert_allclose(state.m["w"], [m2], rtol=1e-12)
    np.testing.assert_allclose(state.v["w"], [v2], rtol=1e-12)


def test_missing_grad_treated_as_zero():
    rng = np.random.default_rng(5)
    w = make_weights(rng, ["a", "b"])
    state = AdamState.for_weights(w)
    before_a = w["a"].data.copy()
    adam_step(w, {"b": np.ones((3, 2), dtype=np.float32)}, state)
    # zero grad with zero moments: no movement
    np.testing.assert_array_equal(w["a"].data, before_a)


def test_grad_shape_mismatch_rejected():
    rng = np.random.default_rng(6)
    w = make_weights(rng, ["a"])
    state = AdamState.for_weights(w)
    with pytest.raises(ValueError):
        adam_step(w, {"a": np.zeros(7, dtype=np.float32)}, state)


def test_update_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = make_weights(rng, ["a", "b"])
        state = AdamState.for_weights(w)
        for _ in range(10):
            grads = {n: rng.standard_normal(t.data.shape).astype(np.float32) for n, t in w.items()}
            adam_step(w, grads, state)
        return {n: t.data.tobytes() for n, t in w.items()}

    assert run() == run()
