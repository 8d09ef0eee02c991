"""Encoder forward contracts, sparse pooling, and an end-to-end gradient check."""

import math

import numpy as np
import pytest
from scipy.special import erf

from spladapt import autodiff as ad
from spladapt.autodiff import GradTape, Tensor
from spladapt.index import index_from_vectors, retrieve_sparse
from spladapt.model import (
    EncoderWeights, ModelConfig, SparseVector,
    LN_EPS, encode_sparse_batch, init_weights, mlm_logits, parameter_shapes,
)
from spladapt.training import build_mlm_batch
from spladapt.vocab import CLS_ID, N_SPECIALS, PAD_ID, SEP_ID

TINY = ModelConfig(vocab_size=30, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                   max_seq_len=12, k_domain_layers=1)


def test_parameter_inventory():
    shapes = parameter_shapes(ModelConfig())
    assert len(shapes) == 3 + 6 * 16
    assert shapes["emb.token"] == (2000, 64)
    assert shapes["emb.position"] == (64, 64)
    assert shapes["mlm.bias"] == (2000,)
    assert shapes["layer.5.ffn.w1"] == (64, 128)
    assert shapes["layer.0.attn.wq"] == (64, 64)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"vocab_size": 100, "bogus": 1})


def test_init_deterministic_and_seed_sensitive():
    a = init_weights(TINY, seed=1)
    b = init_weights(TINY, seed=1)
    c = init_weights(TINY, seed=2)
    for name in a.names():
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any((a[n].data != c[n].data).any() for n in a.names())
    # structure: gains at one, biases at zero, f32 storage
    assert (a["layer.0.ln1.gain"].data == 1).all()
    assert (a["layer.1.ffn.b2"].data == 0).all()
    assert (a["mlm.bias"].data == 0).all()
    assert a["emb.token"].dtype == np.float32


def test_weights_validated_against_config():
    w = init_weights(TINY, seed=0)
    broken = dict(w.tensors)
    del broken["mlm.bias"]
    with pytest.raises(ValueError):
        EncoderWeights(TINY, broken)
    wrong = dict(w.tensors)
    wrong["mlm.bias"] = Tensor(np.zeros(7, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        EncoderWeights(TINY, wrong)


def test_forward_shapes_and_validation():
    w = init_weights(TINY, seed=3)
    ids = np.array([CLS_ID, 7, 9, SEP_ID])
    out = mlm_logits(w, ids[None, :], np.arange(4))
    assert out.shape == (4, TINY.vocab_size)
    assert mlm_logits(w, ids[None, :], np.array([2, 1])).shape == (2, TINY.vocab_size)
    with pytest.raises(ValueError):
        mlm_logits(w, np.array([[CLS_ID, 30, SEP_ID]]), np.arange(3))  # id == vocab_size
    with pytest.raises(ValueError):
        mlm_logits(w, (np.arange(13) % 5)[None, :], np.arange(13))  # longer than max_seq_len
    with pytest.raises(ValueError):
        mlm_logits(w, ids, np.arange(4))  # wants 2-D
    with pytest.raises(IndexError):
        mlm_logits(w, ids[None, :], np.array([4]))  # row past B*S


def test_forward_deterministic():
    w = init_weights(TINY, seed=4)
    ids = np.array([[CLS_ID, 6, 7, 8, SEP_ID]])
    a = mlm_logits(w, ids, np.arange(5)).data
    b = mlm_logits(w, ids, np.arange(5)).data
    assert a.tobytes() == b.tobytes()


def test_zeroed_encoder_reps_come_from_mlm_bias():
    # zero every weight (layer norm gain included) except mlm.bias = c:
    # hidden collapses to 0, logits row = mlm.bias, rep_j = log(1 + relu(c))
    w = init_weights(TINY, seed=5)
    for name in w.names():
        w[name].data[:] = 0
    c = 3.0
    w["mlm.bias"].data[:] = c
    row = encode_sparse_batch(w, np.array([[CLS_ID, 10, 11, SEP_ID]])).data[0]
    rep = {int(t): float(row[t]) for t in np.flatnonzero(row > 0)}
    assert len(rep) == TINY.vocab_size
    for tid in (0, 7, 29):
        assert abs(rep[tid] - math.log(1 + c)) < 1e-6


def test_sparse_pooling_matches_bruteforce_reference():
    w = init_weights(TINY, seed=6)
    ids = np.array([CLS_ID, 12, 7, 25, SEP_ID])
    logits = mlm_logits(w, ids[None, :], np.arange(len(ids))).data
    content = ids >= 5
    expected = np.log1p(np.maximum(logits[content].max(axis=0), 0.0))
    row = encode_sparse_batch(w, ids[None, :]).data[0]
    rep = {int(t): float(row[t]) for t in np.flatnonzero(row > 0)}
    dense = np.zeros(TINY.vocab_size)
    for tid, val in rep.items():
        dense[tid] = val
    np.testing.assert_allclose(dense, np.maximum(expected, 0) * (expected > 0), rtol=1e-6)
    assert all(v > 0 for _, v in rep.items())


def test_batch_padding_matches_single_sequences():
    # [PAD] must not leak into attention or pooling
    w = init_weights(TINY, seed=7)
    a = np.array([CLS_ID, 9, 17, 23, 5, SEP_ID])
    b = np.array([CLS_ID, 6, SEP_ID])
    batch = np.full((2, len(a)), PAD_ID, dtype=np.int64)
    batch[0, : len(a)] = a
    batch[1, : len(b)] = b
    reps = encode_sparse_batch(w, batch).data
    single_a = encode_sparse_batch(w, a[None, :]).data[0]
    single_b = encode_sparse_batch(w, b[None, :]).data[0]
    np.testing.assert_allclose(reps[0], single_a, atol=1e-5)
    np.testing.assert_allclose(reps[1], single_b, atol=1e-5)


def test_encode_sparse_requires_content():
    w = init_weights(TINY, seed=8)
    with pytest.raises(ValueError):
        encode_sparse_batch(w, np.array([[CLS_ID, SEP_ID]]))


def test_sparse_vector_contracts():
    sv = SparseVector({3: 1.5, 9: 0.0})
    assert sv.l0() == 1 and 9 not in dict(sv.items())
    with pytest.raises(ValueError):
        SparseVector({1: -0.5})
    assert SparseVector({3: 1.0, 1: 2.0}) == SparseVector({1: 2.0, 3: 1.0, 7: 0.0})



def test_sparse_vector_from_dict_drops_zeros_rejects_negatives_and_coerces():
    sv = SparseVector({np.int64(7): np.float32(0.5), 2: 3, 5: 0.0})
    assert sorted(sv.items()) == [(2, 3.0), (7, 0.5)]
    assert all(type(t) is int and type(w) is float for t, w in sv.items())
    assert len(sv) == sv.l0() == 2
    assert SparseVector({}).l0() == 0 and SparseVector(None) == SparseVector({})
    with pytest.raises(ValueError, match="term 4"):
        SparseVector({1: 1.0, 4: -1e-9})


def test_sparse_vector_holds_ascending_term_ids_and_float64_weights():
    sv = SparseVector({9: 1.0, 2: 0.5, 4: 0.0, 5: 2.0})
    assert sv.tids.dtype == np.int64 and sv.vals.dtype == np.float64
    assert sv.tids.tolist() == [2, 5, 9] and sv.vals.tolist() == [0.5, 2.0, 1.0]
    assert [t for t, _ in sv.items()] == [2, 5, 9]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sparse_vector_refuses_non_finite_weights_naming_the_term(bad):
    with pytest.raises(ValueError, match="for term 3 is negative or non-finite"):
        SparseVector({4: 1.0, 3: bad})


def test_score_inner_product():
    # a doc scores the inner product over shared terms; zero scores never rank
    q = SparseVector({1: 2.0, 3: 1.0})
    d = SparseVector({3: 4.0, 5: 1.0})
    assert retrieve_sparse(index_from_vectors({"d": d}), q, cutoff=5).entries == [("d", 4.0)]
    assert retrieve_sparse(index_from_vectors({"d": SparseVector({})}), q, cutoff=5).entries == []
    assert retrieve_sparse(index_from_vectors({"d": d}), SparseVector({}), cutoff=5).entries == []


def _oracle_reps(w: EncoderWeights, ids: np.ndarray) -> np.ndarray:
    """Tied-head logits, non-content positions masked, max over positions,
    log(1 + relu(.)): the representation built from plain numpy."""
    B, S = ids.shape
    logits = mlm_logits(w, ids, np.arange(B * S)).data.reshape(B, S, -1)
    logits[ids < N_SPECIALS] = -np.inf
    pooled = logits.max(axis=1)
    return np.log1p(np.where(pooled > 0, pooled, 0))


def test_encode_sparse_batch_bitwise_matches_oracle_on_and_off_tape():
    w = init_weights(TINY, seed=11)
    w["mlm.bias"].data[:] = np.random.default_rng(11).normal(0, 0.05, TINY.vocab_size)
    ids = np.full((3, 7), PAD_ID, dtype=np.int64)
    ids[0] = [CLS_ID, 9, 17, 23, 5, 28, SEP_ID]
    ids[1, :4] = [CLS_ID, 6, 6, SEP_ID]
    ids[2, :5] = [CLS_ID, 29, 11, 12, SEP_ID]
    expected = _oracle_reps(w, ids)
    assert (expected > 0).any() and (expected == 0).any()
    assert encode_sparse_batch(w, ids).data.tobytes() == expected.tobytes()
    with GradTape() as tape:
        reps = encode_sparse_batch(w, ids)
        assert reps.data.tobytes() == expected.tobytes()
        tape.backward(ad.sum_all(reps))
    assert w["emb.token"].grad is not None and w["layer.1.ffn.w2"].grad is not None


def _oracle_mlm_logits(w: EncoderWeights, ids: np.ndarray) -> np.ndarray:
    """Every row's tied-head logits, rebuilt from plain numpy in the
    encoder's own order of operations."""
    cfg = w.config
    B, S = ids.shape
    H, d = cfg.n_heads, cfg.d_model
    dh = d // H
    t = {name: w[name].data for name in w.names()}
    dt = t["emb.token"].dtype.type

    def layer_norm(x, gain, bias):
        centered = x - x.mean(axis=-1, keepdims=True)
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        return centered * (1.0 / np.sqrt(var + dt(LN_EPS))) * gain + bias

    def split(x):  # (B*S, d) -> (B, H, S, dh)
        return x.reshape(B, S, H, dh).transpose(0, 2, 1, 3)

    h = t["emb.token"][ids.reshape(-1)] + t["emb.position"][np.tile(np.arange(S), B)]
    key_mask = np.where(ids == PAD_ID, dt(-np.inf), dt(0.0))[:, None, None, :]
    for i in range(cfg.n_layers):
        p = f"layer.{i}."
        q, k, v = (split(h @ t[p + f"attn.w{c}"] + t[p + f"attn.b{c}"]) for c in "qkv")
        scores = (q @ k.transpose(0, 1, 3, 2)) * dt(1.0 / np.sqrt(dh)) + key_mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx = ((e / e.sum(axis=-1, keepdims=True)) @ v).transpose(0, 2, 1, 3).reshape(B * S, d)
        h = layer_norm(h + (ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]),
                       t[p + "ln1.gain"], t[p + "ln1.bias"])
        a = h @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
        gelu = a * (0.5 * (1.0 + erf(a * dt(1 / math.sqrt(2)))))
        h = layer_norm(h + (gelu @ t[p + "ffn.w2"] + t[p + "ffn.b2"]),
                       t[p + "ln2.gain"], t[p + "ln2.bias"])
    return h @ t["emb.token"].T + t["mlm.bias"]


def test_encoder_forward_bitwise_matches_numpy_oracle():
    # every tensor random, so biases, gains and PAD-masked keys all count
    w = init_weights(TINY, seed=13)
    rng = np.random.default_rng(13)
    for name in w.names():
        w[name].data[:] = rng.normal(0, 0.3, w[name].shape)
    ids = np.full((3, 9), PAD_ID, dtype=np.int64)
    ids[0] = [CLS_ID, 9, 17, 23, 5, 28, 6, 11, SEP_ID]
    ids[1, :4] = [CLS_ID, 6, 6, SEP_ID]
    ids[2, :6] = [CLS_ID, 29, 11, 12, 7, SEP_ID]
    expected = _oracle_mlm_logits(w, ids)
    assert expected.dtype == np.float32 and np.isfinite(expected).all()
    assert mlm_logits(w, ids, np.arange(ids.size)).data.tobytes() == expected.tobytes()


def test_masked_row_mlm_loss_and_grads_match_full_logits():
    w = init_weights(TINY, seed=12)
    seqs = [np.array([CLS_ID, 7, 9, 11, 13, 15, 17, SEP_ID]), np.array([CLS_ID, 20, 21, 22, SEP_ID])]
    batch = build_mlm_batch(seqs, np.random.default_rng(3), TINY.vocab_size, mask_prob=0.5)
    labels = batch.labels.reshape(-1)
    rows = np.flatnonzero(labels != ad.IGNORE_INDEX)
    assert 0 < len(rows) < labels.size

    def loss_and_grads(make_loss):
        w.zero_grad()
        with GradTape() as tape:
            loss = make_loss()
            tape.backward(loss)
        return float(loss.data), {n: w[n].grad.copy() for n in w.names()}

    full, full_grads = loss_and_grads(
        lambda: ad.softmax_cross_entropy(mlm_logits(w, batch.input_ids, np.arange(labels.size)), labels))
    masked, masked_grads = loss_and_grads(
        lambda: ad.softmax_cross_entropy(mlm_logits(w, batch.input_ids, rows), labels[rows]))
    assert masked == pytest.approx(full, rel=1e-6)
    for name in w.names():
        np.testing.assert_allclose(masked_grads[name], full_grads[name], rtol=1e-5, atol=1e-8,
                                   err_msg=name)


def test_tied_head_routes_gradient_to_token_embeddings():
    w = init_weights(TINY, seed=9)
    ids = np.array([[CLS_ID, 11, 13, SEP_ID]])
    with GradTape() as tape:
        logits = mlm_logits(w, ids, np.arange(4))
        loss = ad.softmax_cross_entropy(logits, np.array([-100, 14, -100, -100]))
        tape.backward(loss)
    grad = w["emb.token"].grad
    assert grad is not None
    # the tied projection spreads gradient to rows never looked up as inputs
    assert np.abs(grad[20]).sum() > 0
    assert w["mlm.bias"].grad is not None and np.abs(w["mlm.bias"].grad).sum() > 0


def test_full_encoder_gradient_check_small():
    cfg = ModelConfig(vocab_size=12, n_layers=1, d_model=4, n_heads=2, d_ffn=8,
                      max_seq_len=6, k_domain_layers=0)
    w = init_weights(cfg, seed=10).astype(np.float64)
    ids = np.array([[CLS_ID, 6, 8, SEP_ID]])
    targets = np.array([-100, 9, 7, -100])

    def loss_fn():
        return ad.softmax_cross_entropy(mlm_logits(w, ids, np.arange(4)), targets)

    with GradTape() as tape:
        tape.backward(loss_fn())
    for name in w.names():
        analytic = w[name].grad if w[name].grad is not None else np.zeros_like(w[name].data)
        numeric = ad.numeric_gradient(loss_fn, w[name], eps=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8, err_msg=name)
