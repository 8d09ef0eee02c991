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

from helpers import numeric_gradient


def t64(data, req=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=req)


def rand64(rng, *shape, req=True):
    return Tensor(rng.standard_normal(shape), requires_grad=req)


def score_block(scores):
    """scores (n, m) in the corner of a (16, 16) zero tensor: a wq for attention_probs."""
    wq = t64(np.zeros((16, 16)))
    wq.data[:scores.shape[0], :scores.shape[1]] = scores
    return wq


def attention_probs(wq, blocks):
    """One-head self_attention over the n rows that blocks tile, whose score
    matrix is wq[:n, :n] and whose output's first n columns are the attention
    probabilities: x = [I | 0], wk = 4 I and wv = wo = I at width 16, where
    the scale 1/4 undoes the factor 4 exactly."""
    n, eye = blocks[-1][0].stop, np.eye(16)
    zero, ident = t64(np.zeros(16), req=False), t64(eye, req=False)
    return ad.self_attention(t64(eye[:n], req=False), wq, zero, t64(4 * eye, req=False), zero,
                             ident, zero, ident, zero, blocks, heads=1)


def assert_grads_match(make_loss, params, eps=1e-5, rtol=1e-4, atol=1e-8):
    """Backward grads vs central differences, float64."""
    for p in params:
        p.zero_grad()
    with GradTape() as tape:
        loss = make_loss()
        tape.backward(loss)
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(make_loss, p, eps=eps)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------- forward oracles


def test_layer_norm_two_points():
    # the residual sum (0.5, 1.5) + (0.5, 1.5) = (1, 3) has mean 2 and
    # variance 1 (biased): -> (-1, 1)
    x = t64([[0.5, 1.5]])
    out = ad.add_layer_norm(x, x, t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-15)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-7)


def test_layer_norm_zero_width_rejected():
    with pytest.raises(ValueError, match="zero-length"):
        ad.add_layer_norm(t64(np.zeros((2, 0))), t64(np.zeros((2, 0))), t64(np.zeros(0)),
                          t64(np.zeros(0)), eps=1e-12)


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
    # content rows of each sequence, then log(1 + relu(.)). Rows 0-2 are one
    # sequence (its last row is not content), row 3 another, written out
    # first: output rows follow order, not the packing
    h = t64([[-2.0, 0.0, 1.0], [-3.0, -1.0, 3.0], [9.0, 9.0, 9.0], [0.5, 2.0, -1.0]])
    bias = t64([0.0, 0.0, 0.0])
    content = np.array([True, True, False, True])
    blocks = [(slice(0, 3), 3), (slice(3, 4), 1)]
    out = ad.splade_pool(h, t64(np.eye(3)), bias, content, blocks, [1, 0])
    np.testing.assert_allclose(out.data, [[math.log(1.5), math.log(3.0), 0.0],
                                          [0.0, 0.0, math.log(4.0)]], atol=1e-12)
    bias.data[:] = [1.5, -0.5, 0.0]
    out = ad.splade_pool(h, t64(np.eye(3)), bias, content, blocks, [1, 0])
    np.testing.assert_allclose(out.data[1], [0.0, 0.0, math.log(4.0)], atol=1e-12)
    for bad_content, bad_blocks, bad_order in ((np.ones(3, dtype=bool), blocks, [1, 0]),
                                               (content, [(slice(0, 4), 3)], [0]),
                                               (content, blocks[:1], [0]),
                                               (content, blocks, [0])):
        with pytest.raises(ValueError):
            ad.splade_pool(h, t64(np.eye(3)), bias, bad_content, bad_blocks, bad_order)


def test_gelu_values():
    # identity weights and zero biases: feed_forward is the exact GELU
    x = t64([[0.0, 1.0]])
    eye, zero = t64(np.eye(2)), t64(np.zeros(2))
    out = ad.feed_forward(x, eye, zero, eye, zero)
    # 0.5 * (1 + erf(1/sqrt(2))) = Phi(1) = 0.8413447460685429
    np.testing.assert_allclose(out.data, [[0.0, 0.8413447460685429]], atol=1e-12)


def test_softmax_rows_normalize():
    # the attention softmax: rows sum to 1, and a key of another sequence gets
    # exactly 0; sequences of 2, 2 and 5 positions
    rng = np.random.default_rng(0)
    blocks = [(slice(0, 4), 2), (slice(4, 9), 5)]
    probs = attention_probs(score_block(rng.standard_normal((9, 9))), blocks).data[:, :9]
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(9), atol=1e-12)
    own = np.zeros((9, 9), dtype=bool)
    for seq in (slice(0, 2), slice(2, 4), slice(4, 9)):
        own[seq, seq] = True
    assert (probs[own] > 0).all() and (probs[~own] == 0).all()


def test_self_attention_heads_see_only_their_columns_and_their_own_sequence():
    # oracle: each head's softmax(q k^T / sqrt(dh)) v, written out per head
    # and per sequence; sequences of 5, 5 and 3 positions
    rng = np.random.default_rng(1)
    d, H = 6, 3
    x, wq, wk, wv = rand64(rng, 13, d), rand64(rng, d, d), rand64(rng, d, d), rand64(rng, d, d)
    bq, bk, bv = rand64(rng, d), rand64(rng, d), rand64(rng, d)
    wo, bo = t64(np.eye(d)), t64(np.zeros(d))  # the projection leaves the merged heads as they are
    blocks = [(slice(0, 10), 5), (slice(10, 13), 3)]
    out = ad.self_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, blocks, heads=H).data
    q, k, v = (x.data @ w.data + b.data for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    dh = d // H
    for rows in (slice(0, 5), slice(5, 10), slice(10, 13)):
        for h in range(H):
            cols = slice(h * dh, (h + 1) * dh)
            p = softmax(q[rows, cols] @ k[rows, cols].T / math.sqrt(dh), axis=-1)
            np.testing.assert_allclose(out[rows, cols], p @ v[rows, cols], rtol=1e-12, atol=1e-12)
    for bad in ([(slice(0, 10), 5)], [(slice(0, 10), 5), (slice(10, 13), 2)],
                [(slice(0, 10), 5), (slice(9, 13), 4)]):
        with pytest.raises(ValueError, match="do not tile 13 rows"):
            ad.self_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, bad, heads=H)


def test_splade_pool_passes_a_nan_logit_through():
    # a NaN weight must reach the output, where encode_corpus refuses it, not pool to 0
    h = t64([[-2.0, 0.0, 1.0], [-3.0, -1.0, 3.0]])
    bias = t64([0.5, np.nan, 0.0])
    out = ad.splade_pool(h, t64(np.eye(3)), bias, np.ones(2, dtype=bool), [(slice(0, 2), 2)], [0]).data
    assert np.isnan(out[0, 1]) and out[0, 0] == 0.0 and out[0, 2] == math.log(4.0)


def test_splade_pool_first_max_wins_on_tie():
    # rows 0 and 1 tie at the max; the gradient goes to row 0 only
    h = t64([[1.0], [1.0], [0.5]])
    with GradTape() as tape:
        out = ad.splade_pool(h, t64([[1.0]], req=False), t64([0.0], req=False),
                             np.ones(3, dtype=bool), [(slice(0, 3), 3)], [0])
        tape.backward(out)  # one element: backward seeds its gradient with 1
    np.testing.assert_array_equal(h.grad, [[0.5], [0.0], [0.0]])


def test_splade_pool_records_only_under_a_tape():
    # outside a tape, or with no input requiring grad, nothing is recorded
    rng = np.random.default_rng(26)
    h, emb, bias = rand64(rng, 6, 3), rand64(rng, 5, 3), rand64(rng, 5)
    layout = np.ones(6, dtype=bool), [(slice(0, 6), 3)], [0, 1]
    assert not ad.splade_pool(h, emb, bias, *layout).requires_grad
    frozen = [Tensor(x.data) for x in (h, emb, bias)]
    with GradTape() as tape:
        out = ad.splade_pool(*frozen, *layout)
        assert len(tape) == 0 and not out.requires_grad


def test_splade_pool_in_row_runs_keeps_every_byte_of_the_whole_batch(monkeypatch):
    """With runs of at most 7 rows, the 4-sequence block of 2 positions spans
    two runs, the run after it spans two blocks, and the 9-position sequence
    is a run of its own. The output matches a plain numpy head over the
    whole batch's logits, and each gradient the unchunked op's bytes; a
    repeated row ties a maximum, and one sequence has no content."""
    rng = np.random.default_rng(27)
    blocks = [(slice(0, 8), 2), (slice(8, 17), 3), (slice(17, 27), 5), (slice(27, 36), 9)]
    order = [5, 0, 9, 2, 7, 1, 3, 8, 6, 4]
    h, emb, bias = (rng.standard_normal(shape).astype(np.float32) for shape in ((36, 8), (50, 8), (50,)))
    h[19] = h[18]
    content = rng.random(36) < 0.8
    content[[0, 8, 17, 18, 19, 27]] = True
    content[11:14] = False

    full = h @ emb.T
    full += bias
    full[~content] = -np.inf
    expected, j = np.empty((10, 50), np.float32), 0
    for rows, S in blocks:
        for lo in range(rows.start, rows.stop, S):
            expected[order[j]] = np.log1p(np.maximum(full[lo: lo + S].max(axis=0), 0))
            j += 1
    assert (expected[order[5]] == 0).all() and (expected > 0).any()

    def pooled(limit):
        monkeypatch.setattr(ad, "_POOL_ROWS", limit)
        assert ad.splade_pool(Tensor(h), Tensor(emb), Tensor(bias), content, blocks,
                              order).data.tobytes() == expected.tobytes()
        params = [Tensor(x.copy(), requires_grad=True) for x in (h, emb, bias)]
        with GradTape() as tape:
            out = ad.splade_pool(*params, content, blocks, order)
            assert out.data.tobytes() == expected.tobytes()
            tape.backward(ad.softmax_cross_entropy(out, np.arange(10) * 5))
        return [p.grad.tobytes() for p in params]

    assert pooled(7) == pooled(36)
    monkeypatch.setattr(ad, "_POOL_ROWS", 7)
    runs = [(lo, hi, [(p.start, p.stop) for p, _ in pieces]) for lo, hi, pieces in ad._pool_runs(blocks)]
    assert runs == [(0, 6, [(0, 6)]), (6, 11, [(6, 8), (8, 11)]), (11, 17, [(11, 17)]),
                    (17, 22, [(17, 22)]), (22, 27, [(22, 27)]), (27, 36, [(27, 36)])]


def test_mlm_head_refuses_mismatched_shapes():
    # the rows are the caller's to check (mlm_logits); the shapes are the op's
    h, rows = t64(np.zeros((3, 2))), np.array([0, 2])
    for emb, bias in ((t64(np.zeros((5, 3))), t64(np.zeros(5))),
                      (t64(np.zeros((5, 2))), t64(np.zeros(4))),
                      (t64(np.zeros(10)), t64(np.zeros(5)))):
        with pytest.raises(ValueError, match="do not fit"):
            ad.mlm_head(h, rows, emb, bias)
    assert ad.mlm_head(h, rows, t64(np.zeros((5, 2))), t64(np.zeros(5))).shape == (2, 5)


# ---------------------------------------------------------------- tape mechanics


def test_backward_empty_tape_rejected():
    with GradTape() as tape:
        pass
    with pytest.raises(RuntimeError):
        tape.backward(t64(0.0))
    # ops built outside any tape record nothing
    out = ad.embed(t64([[1.0, 2.0]]), t64([[3.0, 4.0]]), np.array([0]), np.array([0]))
    assert not out.requires_grad
    with GradTape() as tape:
        assert len(tape) == 0


def test_backward_non_scalar_rejected():
    x = t64([[1.0, 2.0]])
    with GradTape() as tape:
        out = ad.embed(x, x, np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            tape.backward(out)


def test_tape_cleared_after_backward():
    # softmax([0, ln 3]) = [1/4, 3/4]; target 1: gradient [1/4, -1/4]
    x = t64([[0.0, math.log(3.0)]])
    with GradTape() as tape:
        loss = ad.softmax_cross_entropy(x, np.array([1]))
        tape.backward(loss)
        assert len(tape) == 0
        with pytest.raises(RuntimeError):
            tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[0.25, -0.25]], atol=1e-15)


def test_grad_accumulates_on_reuse():
    # softmax([0, 2 ln 3]) = [1/10, 9/10]; x is both the token and the
    # position table of the embedding sum
    x = t64([[0.0, math.log(3.0)]])
    with GradTape() as tape:
        loss = ad.softmax_cross_entropy(ad.embed(x, x, np.array([0]), np.array([0])), np.array([1]))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [[0.2, -0.2]], atol=1e-15)


def test_dtype_preserved():
    for dtype in (np.float32, np.float64):
        x = Tensor(np.ones((2, 4), dtype=dtype), requires_grad=True)
        eye, zero, one = (Tensor(f(4, dtype=dtype)) for f in (np.eye, np.zeros, np.ones))
        with GradTape() as tape:
            h = ad.self_attention(x, eye, zero, eye, zero, eye, zero, eye, zero, [(slice(0, 2), 2)], heads=2)
            h = ad.add_layer_norm(x, h, one, zero, eps=1e-12)
            out = ad.softmax_cross_entropy(ad.feed_forward(h, eye, zero, eye, zero), np.array([0, 3]))
            assert out.dtype == dtype
            tape.backward(out)
        assert x.grad.dtype == dtype


def test_grads_flow_through_non_leaf_chain():
    # freezing is an optimizer concern; backward always propagates
    rng = np.random.default_rng(1)
    w_frozen, b, w2, b2 = rand64(rng, 4, 4), rand64(rng, 4), rand64(rng, 4, 4), rand64(rng, 4)
    x = rand64(rng, 2, 4)
    with GradTape() as tape:
        loss = ad.softmax_cross_entropy(ad.feed_forward(x, w_frozen, b, w2, b2), np.array([0, 3]))
        tape.backward(loss)
    assert x.grad is not None and w_frozen.grad is not None


# ---------------------------------------------------------------- gradient checks


def test_grad_mlm_head():
    # the tied head at rows that skip and repeat hidden rows: row 3 gets no
    # gradient, rows 0 and 2 accumulate two each
    rng = np.random.default_rng(11)
    h, emb, bias = rand64(rng, 4, 3), rand64(rng, 5, 3), rand64(rng, 5)
    rows = np.array([2, 0, 1, 2, 0])
    t = rng.integers(0, 5, size=5)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.mlm_head(h, rows, emb, bias), t), [h, emb, bias])


def test_grad_linear():
    # the tied head at every hidden row once is the linear map x @ emb.T + bias
    rng = np.random.default_rng(11)
    x, emb, b = rand64(rng, 3, 4), rand64(rng, 5, 4), rand64(rng, 5)
    rows = np.arange(3)
    np.testing.assert_allclose(ad.mlm_head(x, rows, emb, b).data, x.data @ emb.data.T + b.data)
    t = rng.integers(0, 5, size=3)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.mlm_head(x, rows, emb, b), t), [x, emb, b])


def test_grad_transpose2d():
    # identity hidden rows and a zero bias: the tied head's logits are emb.T
    rng = np.random.default_rng(12)
    x = rand64(rng, 6, 4)
    eye, zero = t64(np.eye(4), req=False), t64(np.zeros(6), req=False)
    np.testing.assert_array_equal(ad.mlm_head(eye, np.arange(4), x, zero).data, x.data.T)
    t = rng.integers(0, 6, size=4)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.mlm_head(eye, np.arange(4), x, zero), t), [x])


def test_grad_self_attention():
    # two heads; sequences of 2, 2, 3 and 4 positions: three lengths, two
    # sequences of one length
    rng = np.random.default_rng(27)
    x = rand64(rng, 11, 6)
    params = [rand64(rng, *shape) for shape in ((6, 6), (6,)) * 4]  # q, k, v and the output projection
    blocks = [(slice(0, 4), 2), (slice(4, 7), 3), (slice(7, 11), 4)]
    t = rng.integers(0, 6, size=11)
    assert_grads_match(
        lambda: ad.softmax_cross_entropy(ad.self_attention(x, *params, blocks, heads=2), t),
        [x, *params])


def test_grad_feed_forward():
    rng = np.random.default_rng(28)
    x, w1, b1, w2, b2 = rand64(rng, 5, 3), rand64(rng, 3, 4), rand64(rng, 4), rand64(rng, 4, 3), rand64(rng, 3)
    t = rng.integers(0, 3, size=5)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.feed_forward(x, w1, b1, w2, b2), t),
                       [x, w1, b1, w2, b2])


def test_grad_add():
    # x is both operands of add_layer_norm's residual sum, so its gradient
    # accumulates
    rng = np.random.default_rng(13)
    x, g, b = rand64(rng, 3, 5), rand64(rng, 5), rand64(rng, 5)
    t = rng.integers(0, 5, size=3)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.add_layer_norm(x, x, g, b, eps=1e-12), t),
                       [x, g, b])


def test_add_refuses_unequal_shapes():
    # no caller broadcasts, so a bias row is refused rather than broadcast
    with pytest.raises(ValueError, match="equal shapes"):
        ad.add_layer_norm(t64(np.zeros((3, 5))), t64(np.zeros(5)), t64(np.ones(5)), t64(np.zeros(5)),
                          eps=1e-12)


def test_grad_embed_repeated_ids():
    # repeated token ids and positions accumulate; token row 1 is never looked up
    rng = np.random.default_rng(18)
    tok, pos = rand64(rng, 5, 3), rand64(rng, 4, 3)
    ids, positions = np.array([0, 2, 2, 4, 0, 0]), np.array([0, 1, 2, 0, 1, 3])
    t = rng.integers(0, 3, size=6)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.embed(tok, pos, ids, positions), t), [tok, pos])


def test_grad_amax():
    # the max-pool inside ad.splade_pool, over the content rows of each
    # sequence; sequences of 3, 3, 4 and 6 positions, output in another order
    rng = np.random.default_rng(19)
    h, emb, bias = rand64(rng, 16, 4), rand64(rng, 5, 4), rand64(rng, 5)  # random: no ties
    content = rng.random(16) < 0.7
    content[[0, 3, 6, 10]] = True
    layout = content, [(slice(0, 6), 3), (slice(6, 10), 4), (slice(10, 16), 6)], [2, 0, 3, 1]
    out = ad.splade_pool(h, emb, bias, *layout).data
    assert (out == 0).any() and (out > 0).any()  # both sides of the relu
    t = rng.integers(0, 5, size=4)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.splade_pool(h, emb, bias, *layout), t),
                       [h, emb, bias])


def test_grad_softmax():
    # the attention softmax, differentiated through its scores; sequences of
    # 1, 2, 2 and 3 positions, so the scores across sequences get no gradient
    rng = np.random.default_rng(21)
    scores = score_block(rng.standard_normal((8, 8)))
    blocks = [(slice(0, 1), 1), (slice(1, 5), 2), (slice(5, 8), 3)]
    t = rng.integers(0, 16, size=8)
    assert_grads_match(lambda: ad.softmax_cross_entropy(attention_probs(scores, blocks), t),
                       [scores])


def test_grad_layer_norm():
    rng = np.random.default_rng(22)
    x, y, g, b = rand64(rng, 4, 6), rand64(rng, 4, 6), rand64(rng, 6), rand64(rng, 6)
    t = rng.integers(0, 6, size=4)
    assert_grads_match(
        lambda: ad.softmax_cross_entropy(ad.add_layer_norm(x, y, g, b, eps=1e-12), t), [x, y, g, b],
        rtol=2e-4
    )


def test_grad_gelu():
    # identity weights and zero biases: feed_forward is the exact GELU
    rng = np.random.default_rng(23)
    x = rand64(rng, 5, 5)
    eye, zero = t64(np.eye(5), req=False), t64(np.zeros(5), req=False)
    t = rng.integers(0, 5, size=5)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.feed_forward(x, eye, zero, eye, zero), t), [x])


def test_grad_log1p_relu():
    # one position per row and identity embeddings: ad.splade_pool is log(1 + relu(h + bias))
    rng = np.random.default_rng(24)
    vals = rng.standard_normal((4, 6))
    vals[np.abs(vals) < 0.1] += 0.2  # keep clear of the kink at 0
    x, bias = t64(vals), t64(np.zeros(6))
    assert (vals < 0).any() and (vals > 0).any()
    eye, layout = t64(np.eye(6), req=False), (np.ones(4, dtype=bool), [(slice(0, 4), 1)], range(4))
    t = rng.integers(0, 6, size=4)
    assert_grads_match(lambda: ad.softmax_cross_entropy(ad.splade_pool(x, eye, bias, *layout), t),
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
    # positions 0..n-1 are one sequence, whose scores are arr (0 past column
    # m), and the rest up to 5 another, whose keys must get exactly 0
    n, m = arr.shape
    blocks = [(slice(0, n), n)] + [(slice(n, 5), 5 - n)] * (n < 5)
    probs = attention_probs(score_block(arr), blocks).data[:n, :5]
    assert np.isfinite(probs).all() and (probs[:, n:] == 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_finite_inputs_give_finite_grads(arr):
    x = Tensor(0.1 * arr, requires_grad=True)
    n, m = arr.shape
    eye, zero = Tensor(np.eye(m)), Tensor(np.zeros(m))
    with GradTape() as tape:
        h = ad.self_attention(x, eye, zero, eye, zero, eye, zero, eye, zero, [(slice(0, n), n)], heads=1)
        pooled = ad.splade_pool(ad.feed_forward(h, eye, zero, eye, zero), eye, zero,
                                np.ones(n, dtype=bool), [(slice(0, n), n)], [0])
        loss = ad.softmax_cross_entropy(pooled, np.array([0]))
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
