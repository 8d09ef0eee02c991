"""Op-level forward oracles and finite-difference gradient checks.

Expected values below were computed by hand or with an independent method
before the ops were written, then frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from spladapt import autodiff as ad
from spladapt.autodiff import GradTape, Tensor


def t64(data, req=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=req)


def rand64(rng, *shape, req=True):
    return Tensor(rng.standard_normal(shape), requires_grad=req)


def score_block(scores):
    """scores (n, m) in the corner of a (16, 16) zero tensor: a wq for attention_probs."""
    wq = t64(np.zeros((16, 16)))
    wq.data[:scores.shape[0], :scores.shape[1]] = scores
    return wq


def attention_probs(wq, key_mask):
    """One-head self_attention whose score matrix is wq[:S, :S], S = len(key_mask),
    and whose output's first S columns are the attention probabilities:
    x = [I | 0], wk = 4 I and wv = I at width 16, where the scale 1/4 undoes
    the factor 4 exactly."""
    S, eye = key_mask.shape[0], np.eye(16)
    zero = t64(np.zeros(16), req=False)
    return ad.self_attention(t64(eye[:S], req=False), wq, zero, t64(4 * eye, req=False), zero,
                             t64(eye, req=False), zero, key_mask[None, :], heads=1)


def assert_grads_match(make_loss, params, eps=1e-5, rtol=1e-4, atol=1e-8):
    """Backward grads vs central differences, float64."""
    for p in params:
        p.zero_grad()
    with GradTape() as tape:
        loss = make_loss()
        tape.backward(loss)
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = ad.numeric_gradient(make_loss, p, eps=eps)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------- forward oracles


def test_matmul_known_product():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        ad.matmul(t64([[1.0, 2.0]]), t64([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        ad.matmul(t64([1.0, 2.0]), t64([[1.0], [2.0]]))


def test_layer_norm_two_points():
    # mean 2, variance 1 (biased): (1,3) -> (-1, 1)
    x = t64([[1.0, 3.0]])
    out = ad.layer_norm(x, t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-15)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-7)


def test_layer_norm_zero_width_rejected():
    with pytest.raises(ValueError):
        ad.layer_norm(t64(np.zeros((2, 0))), t64(np.zeros(0)), t64(np.zeros(0)))


def test_cross_entropy_two_class():
    # softmax([0, ln 3]) = [1/4, 3/4]; -ln(3/4) = ln 4 - ln 3
    logits = t64([[0.0, math.log(3.0)]])
    loss = ad.softmax_cross_entropy(logits, np.array([1]))
    assert abs(float(loss.data) - 0.2876820724517809) < 1e-12


def test_cross_entropy_uniform_logits_is_log_vocab():
    for V in (2, 4, 7, 50):
        logits = t64(np.zeros((3, V)))
        loss = ad.softmax_cross_entropy(logits, np.array([0, 1, V - 1]))
        assert abs(float(loss.data) - math.log(V)) < 1e-12


def test_cross_entropy_ignored_rows_excluded_from_mean():
    logits = t64(np.zeros((2, 4)))
    loss = ad.softmax_cross_entropy(logits, np.array([ad.IGNORE_INDEX, 2]))
    assert abs(float(loss.data) - math.log(4.0)) < 1e-12


def test_cross_entropy_all_ignored_rejected():
    logits = t64(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(logits, np.array([ad.IGNORE_INDEX, ad.IGNORE_INDEX]))


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(t64(np.zeros((1, 4))), np.array([4]))


def test_splade_pool_values():
    # identity embeddings: logits are h + bias; per column, the max over the
    # content rows (the last row is masked out), then log(1 + relu(.))
    h = t64([[-2.0, 0.0, 1.0], [-3.0, -1.0, 3.0], [9.0, 9.0, 9.0]])
    bias = t64([0.0, 0.0, 0.0])
    out = ad.splade_pool(h, t64(np.eye(3)), bias, np.array([[True, True, False]]))
    np.testing.assert_allclose(out.data, [[0.0, 0.0, math.log(4.0)]], atol=1e-12)
    bias.data[:] = [1.5, -0.5, 0.0]
    out = ad.splade_pool(h, t64(np.eye(3)), bias, np.array([[True, True, False]]))
    np.testing.assert_allclose(out.data, [[0.0, 0.0, math.log(4.0)]], atol=1e-12)
    with pytest.raises(ValueError):
        ad.splade_pool(h, t64(np.eye(3)), bias, np.ones((2, 2), dtype=bool))


def test_gelu_values():
    # identity weights and zero biases: feed_forward is the exact GELU
    x = t64([[0.0, 1.0]])
    eye, zero = t64(np.eye(2)), t64(np.zeros(2))
    out = ad.feed_forward(x, eye, zero, eye, zero)
    # 0.5 * (1 + erf(1/sqrt(2))) = Phi(1) = 0.8413447460685429
    np.testing.assert_allclose(out.data, [[0.0, 0.8413447460685429]], atol=1e-12)


def test_softmax_rows_normalize():
    # the attention softmax: rows sum to 1, and a blocked key gets exactly 0
    rng = np.random.default_rng(0)
    key_mask = np.array([0.0, 0.0, -np.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    probs = attention_probs(score_block(rng.standard_normal((9, 9))), key_mask).data[:, :9]
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(9), atol=1e-12)
    assert (probs >= 0).all() and (probs[:, 2] == 0).all() and (probs[:, 3] > 0).all()


def test_self_attention_heads_see_only_their_columns_and_unpadded_keys():
    # oracle: each head's softmax(q k^T / sqrt(dh) + mask) v, written out per head
    rng = np.random.default_rng(1)
    B, S, d, H = 2, 5, 6, 3
    x, wq, wk, wv = rand64(rng, B * S, d), rand64(rng, d, d), rand64(rng, d, d), rand64(rng, d, d)
    bq, bk, bv = rand64(rng, d), rand64(rng, d), rand64(rng, d)
    key_mask = np.zeros((B, S))
    key_mask[1, 3:] = -np.inf
    out = ad.self_attention(x, wq, bq, wk, bk, wv, bv, key_mask, heads=H).data
    q, k, v = (x.data @ w.data + b.data for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    dh = d // H
    for b in range(B):
        rows = slice(b * S, (b + 1) * S)
        for h in range(H):
            cols = slice(h * dh, (h + 1) * dh)
            p = softmax(q[rows, cols] @ k[rows, cols].T / math.sqrt(dh) + key_mask[b], axis=-1)
            np.testing.assert_allclose(out[rows, cols], p @ v[rows, cols], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        ad.self_attention(x, wq, bq, wk, bk, wv, bv, np.zeros((B, S + 1)), heads=H)


def test_splade_pool_passes_a_nan_logit_through():
    # a NaN weight must reach the output, where encode_corpus refuses it, not pool to 0
    h = t64([[-2.0, 0.0, 1.0], [-3.0, -1.0, 3.0]])
    bias = t64([0.5, np.nan, 0.0])
    out = ad.splade_pool(h, t64(np.eye(3)), bias, np.array([[True, True]])).data
    assert np.isnan(out[0, 1]) and out[0, 0] == 0.0 and out[0, 2] == math.log(4.0)


def test_splade_pool_first_max_wins_on_tie():
    # rows 0 and 1 tie at the max; the gradient goes to row 0 only
    h = t64([[1.0], [1.0], [0.5]])
    with GradTape() as tape:
        out = ad.splade_pool(h, t64([[1.0]], req=False), t64([0.0], req=False),
                             np.ones((1, 3), dtype=bool))
        tape.backward(ad.sum_all(out))
    np.testing.assert_array_equal(h.grad, [[0.5], [0.0], [0.0]])


def test_splade_pool_records_only_under_a_tape():
    # outside a tape, or with no input requiring grad, nothing is recorded
    rng = np.random.default_rng(26)
    h, emb, bias = rand64(rng, 6, 3), rand64(rng, 5, 3), rand64(rng, 5)
    content = np.ones((2, 3), dtype=bool)
    assert not ad.splade_pool(h, emb, bias, content).requires_grad
    frozen = [Tensor(x.data) for x in (h, emb, bias)]
    with GradTape() as tape:
        out = ad.splade_pool(*frozen, content)
        assert len(tape) == 0 and not out.requires_grad


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        ad.gather_rows(t64(np.zeros((3, 2))), np.array([3]))


# ---------------------------------------------------------------- tape mechanics


def test_backward_empty_tape_rejected():
    with GradTape() as tape:
        pass
    with pytest.raises(RuntimeError):
        tape.backward(t64(0.0))
    # ops built outside any tape record nothing
    out = ad.mul(t64([1.0, 2.0]), t64([3.0, 4.0]))
    assert not out.requires_grad
    with GradTape() as tape:
        assert len(tape) == 0


def test_backward_non_scalar_rejected():
    x = t64([1.0, 2.0])
    with GradTape() as tape:
        out = ad.scale(x, 2.0)
        with pytest.raises(ValueError):
            tape.backward(out)


def test_tape_cleared_after_backward():
    x = t64([1.0, 2.0])
    with GradTape() as tape:
        loss = ad.sum_all(ad.scale(x, 3.0))
        tape.backward(loss)
        assert len(tape) == 0
        with pytest.raises(RuntimeError):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_grad_accumulates_on_reuse():
    x = t64([2.0])
    with GradTape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_dtype_preserved():
    for dtype in (np.float32, np.float64):
        x = Tensor(np.ones((2, 4), dtype=dtype), requires_grad=True)
        eye, zero = Tensor(np.eye(4, dtype=dtype)), Tensor(np.zeros(4, dtype=dtype))
        with GradTape() as tape:
            h = ad.self_attention(ad.scale(x, 0.5), eye, zero, eye, zero, eye, zero,
                                  np.zeros((1, 2), dtype=dtype), heads=2)
            out = ad.sum_all(ad.feed_forward(ad.linear(h, eye, zero), eye, zero, eye, zero))
            assert out.dtype == dtype
            tape.backward(out)
        assert x.grad.dtype == dtype


def test_grads_flow_through_non_leaf_chain():
    # freezing is an optimizer concern; backward always propagates
    rng = np.random.default_rng(1)
    w_frozen = rand64(rng, 4, 4)
    x = rand64(rng, 2, 4)
    with GradTape() as tape:
        loss = ad.sum_all(ad.matmul(x, w_frozen))
        tape.backward(loss)
    assert x.grad is not None and w_frozen.grad is not None


# ---------------------------------------------------------------- gradient checks


def test_grad_matmul():
    rng = np.random.default_rng(10)
    a, b = rand64(rng, 3, 4), rand64(rng, 4, 5)
    r = rng.standard_normal((3, 5))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), Tensor(r))), [a, b])


def test_grad_linear():
    rng = np.random.default_rng(11)
    x, w, b = rand64(rng, 3, 4), rand64(rng, 4, 5), rand64(rng, 5)
    r = rng.standard_normal((3, 5))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.linear(x, w, b), Tensor(r))), [x, w, b])


def test_grad_self_attention():
    # two sequences of four, two heads; the second sequence's last key is padding
    rng = np.random.default_rng(27)
    x = rand64(rng, 8, 6)
    params = [rand64(rng, *shape) for shape in ((6, 6), (6,)) * 3]
    key_mask = np.zeros((2, 4))
    key_mask[1, 3] = -np.inf
    r = rng.standard_normal((8, 6))
    assert_grads_match(
        lambda: ad.sum_all(ad.mul(ad.self_attention(x, *params, key_mask, heads=2), Tensor(r))),
        [x, *params])


def test_grad_feed_forward():
    rng = np.random.default_rng(28)
    x, w1, b1, w2, b2 = rand64(rng, 5, 3), rand64(rng, 3, 4), rand64(rng, 4), rand64(rng, 4, 3), rand64(rng, 3)
    r = rng.standard_normal((5, 3))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.feed_forward(x, w1, b1, w2, b2), Tensor(r))),
                       [x, w1, b1, w2, b2])


def test_grad_transpose2d_reshape():
    rng = np.random.default_rng(12)
    x = rand64(rng, 6, 4)
    r = rng.standard_normal((2, 12))
    assert_grads_match(
        lambda: ad.sum_all(ad.mul(ad.reshape(ad.transpose2d(x), (2, 12)), Tensor(r))), [x]
    )


def test_grad_add_with_bias_broadcast():
    rng = np.random.default_rng(13)
    x, b = rand64(rng, 3, 5), rand64(rng, 5)
    r = rng.standard_normal((3, 5))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.add(x, b), Tensor(r))), [x, b])


def test_grad_scale():
    rng = np.random.default_rng(14)
    x = rand64(rng, 3, 4)
    r = rng.standard_normal((3, 4))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.scale(x, -1.7), Tensor(r))), [x])


def test_grad_mul_broadcast():
    rng = np.random.default_rng(15)
    a, b = rand64(rng, 4, 3), rand64(rng, 3)
    r = rng.standard_normal((4, 3))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.mul(a, b), Tensor(r))), [a, b])


def test_grad_concat_and_slice():
    rng = np.random.default_rng(16)
    a, b = rand64(rng, 2, 3), rand64(rng, 4, 3)
    r = rng.standard_normal((3, 3))
    assert_grads_match(
        lambda: ad.sum_all(ad.mul(ad.slice_rows(ad.concat_rows(a, b), 1, 4), Tensor(r))), [a, b]
    )


def test_grad_concat_cols():
    rng = np.random.default_rng(17)
    a, b = rand64(rng, 3, 2), rand64(rng, 3, 4)
    r = rng.standard_normal((3, 6))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.concat_cols(a, b), Tensor(r))), [a, b])


def test_grad_gather_rows_repeated_ids():
    rng = np.random.default_rng(18)
    x = rand64(rng, 5, 3)
    ids = np.array([0, 2, 2, 4, 0, 0])
    r = rng.standard_normal((6, 3))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.gather_rows(x, ids), Tensor(r))), [x])


def test_grad_amax():
    # the max-pool inside ad.splade_pool, over a masked sequence axis
    rng = np.random.default_rng(19)
    h, emb, bias = rand64(rng, 3 * 6, 4), rand64(rng, 5, 4), rand64(rng, 5)  # random: no ties
    content = rng.random((3, 6)) < 0.7
    content[:, 0] = True
    out = ad.splade_pool(h, emb, bias, content).data
    assert (out == 0).any() and (out > 0).any()  # both sides of the relu
    r = rng.standard_normal((3, 5))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.splade_pool(h, emb, bias, content), Tensor(r))),
                       [h, emb, bias])


def test_grad_sums():
    rng = np.random.default_rng(20)
    x = rand64(rng, 3, 4)
    r = rng.standard_normal(4)
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.sum_axis(x, 0), Tensor(r))), [x])


def test_grad_softmax():
    # the attention softmax, differentiated through its scores (with a blocked key)
    rng = np.random.default_rng(21)
    scores = score_block(rng.standard_normal((7, 7)))
    key_mask = np.array([0.0, 0.0, 0.0, -np.inf, 0.0, 0.0, 0.0])
    r = rng.standard_normal((7, 16))
    assert_grads_match(lambda: ad.sum_all(ad.mul(attention_probs(scores, key_mask), Tensor(r))),
                       [scores])


def test_grad_layer_norm():
    rng = np.random.default_rng(22)
    x, g, b = rand64(rng, 4, 6), rand64(rng, 6), rand64(rng, 6)
    r = rng.standard_normal((4, 6))
    assert_grads_match(
        lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), Tensor(r))), [x, g, b], rtol=2e-4
    )


def test_grad_gelu():
    # identity weights and zero biases: feed_forward is the exact GELU
    rng = np.random.default_rng(23)
    x = rand64(rng, 5, 5)
    eye, zero = t64(np.eye(5), req=False), t64(np.zeros(5), req=False)
    r = rng.standard_normal((5, 5))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.feed_forward(x, eye, zero, eye, zero), Tensor(r))), [x])


def test_grad_log1p_relu():
    # one position per row and identity embeddings: ad.splade_pool is log(1 + relu(h + bias))
    rng = np.random.default_rng(24)
    vals = rng.standard_normal((4, 6))
    vals[np.abs(vals) < 0.1] += 0.2  # keep clear of the kink at 0
    x, bias = t64(vals), t64(np.zeros(6))
    assert (vals < 0).any() and (vals > 0).any()
    eye, content = t64(np.eye(6), req=False), np.ones((4, 1), dtype=bool)
    r = rng.standard_normal((4, 6))
    assert_grads_match(lambda: ad.sum_all(ad.mul(ad.splade_pool(x, eye, bias, content), Tensor(r))),
                       [x, bias])


def test_grad_cross_entropy_with_ignored_rows():
    rng = np.random.default_rng(25)
    logits = rand64(rng, 6, 9)
    targets = np.array([1, ad.IGNORE_INDEX, 4, 0, ad.IGNORE_INDEX, 8])
    assert_grads_match(lambda: ad.softmax_cross_entropy(logits, targets), [logits])


# ---------------------------------------------------------------- properties


finite_arrays = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
            min_size=n * m, max_size=n * m,
        ).map(lambda xs: np.array(xs).reshape(n, m))
    )
)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_softmax_is_distribution(arr):
    # arr's n rows score its m keys; keys past m are blocked with -inf
    n, m = arr.shape
    key_mask = np.where(np.arange(5) < m, 0.0, -np.inf)
    probs = attention_probs(score_block(arr), key_mask).data[:n, :5]
    assert np.isfinite(probs).all() and (probs[:, m:] == 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_finite_inputs_give_finite_grads(arr):
    x = Tensor(arr, requires_grad=True)
    n, m = arr.shape
    eye, zero = Tensor(np.eye(m)), Tensor(np.zeros(m))
    with GradTape() as tape:
        h = ad.self_attention(ad.scale(x, 0.1), eye, zero, eye, zero, eye, zero, np.zeros((1, n)), heads=1)
        pooled = ad.splade_pool(ad.feed_forward(h, eye, zero, eye, zero), eye, zero,
                                np.ones((1, n), dtype=bool))
        loss = ad.sum_all(pooled)
        tape.backward(loss)
    assert np.isfinite(loss.data).all()
    assert np.isfinite(x.grad).all()


@given(finite_arrays)
@settings(max_examples=30, deadline=None)
def test_cross_entropy_matches_log_softmax(arr):
    n, V = arr.shape
    targets = np.arange(n) % V
    loss = ad.softmax_cross_entropy(Tensor(arr), targets)
    sm = softmax(arr, axis=-1)
    expected = float(np.mean(-np.log(sm[np.arange(n), targets])))
    assert abs(float(loss.data) - expected) < 1e-8
