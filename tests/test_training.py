"""Masking distribution, ranking loss oracles, stage freeze semantics,
and pipeline wiring at miniature budgets."""

import json
import math

import numpy as np
import pytest

from spladapt import autodiff as ad
from spladapt.autodiff import GradTape, Tensor
from spladapt.cli import load_config
from spladapt.data import TrainTriple
from spladapt.model import ModelConfig, encode_sparse_batch, init_weights, mlm_logits
from spladapt.params import Checkpoint, partition_parameters
from spladapt.training import (
    MASK_ACTIONS, MODES, PipelineSpec, StageSpec, build_mlm_batch, finetune_ir,
    mask_tokens, pretrain_mlm, run_pipeline,
)
from spladapt.vocab import CLS_ID, MASK_ID, SEP_ID, Vocabulary, build_vocabulary

from helpers import freeze_verify, numeric_gradient, tensor_checksums

CFG = ModelConfig(vocab_size=60, n_layers=2, d_model=16, n_heads=2, d_ffn=32,
                  max_seq_len=16, k_domain_layers=1)

DOCS = {
    f"d{i}": " ".join(f"w{(i + j) % 40}" for j in range(8))
    for i in range(20)
}


def make_vocab(cfg=CFG):
    terms = [f"w{i}" for i in range(cfg.vocab_size - 5)]
    return Vocabulary(terms)


def base_ckpt(cfg=CFG, seed=0):
    return Checkpoint(init_weights(cfg, seed=seed), stage="base")


# ---------------------------------------------------------------- masking


def test_mask_prob_one_selects_every_content_position():
    rng = np.random.default_rng(0)
    ids = np.array([CLS_ID, 7, 9, 11, SEP_ID])
    input_ids, labels, actions = mask_tokens(ids, rng, vocab_size=60, mask_prob=1.0)
    assert (labels[1:4] == ids[1:4]).all()
    assert labels[0] == ad.IGNORE_INDEX and labels[4] == ad.IGNORE_INDEX
    assert input_ids[0] == CLS_ID and input_ids[4] == SEP_ID
    assert (actions[1:4] != MASK_ACTIONS["none"]).all()


def test_mask_prob_zero_selects_nothing():
    rng = np.random.default_rng(1)
    ids = np.array([CLS_ID, 7, 9, SEP_ID])
    input_ids, labels, actions = mask_tokens(ids, rng, vocab_size=60, mask_prob=0.0)
    np.testing.assert_array_equal(input_ids, ids)
    assert (labels == ad.IGNORE_INDEX).all()
    assert (actions == 0).all()


def test_mask_replacements_stay_non_special():
    rng = np.random.default_rng(2)
    ids = np.array([CLS_ID] + list(range(5, 15)) + [SEP_ID])
    for _ in range(200):
        input_ids, labels, actions = mask_tokens(ids, rng, vocab_size=60, mask_prob=0.5)
        repl = input_ids[actions == MASK_ACTIONS["random"]]
        assert ((repl >= 5) & (repl < 60)).all()
        masked = input_ids[actions == MASK_ACTIONS["mask"]]
        assert (masked == MASK_ID).all()
        kept = actions == MASK_ACTIONS["keep"]
        np.testing.assert_array_equal(input_ids[kept], ids[kept])


def test_mask_split_80_10_10_monte_carlo():
    # <10s budget; 1e5 selections, each action rate within one point
    rng = np.random.default_rng(3)
    ids = np.array([CLS_ID] + [10] * 100 + [SEP_ID])
    counts = {1: 0, 2: 0, 3: 0}
    total = 0
    while total < 100_000:
        _, _, actions = mask_tokens(ids, rng, vocab_size=60, mask_prob=1.0)
        for code in (1, 2, 3):
            counts[code] += int((actions == code).sum())
        total += 100
    assert abs(counts[1] / total - 0.80) < 0.01
    assert abs(counts[2] / total - 0.10) < 0.01
    assert abs(counts[3] / total - 0.10) < 0.01


def test_mask_prob_out_of_range():
    with pytest.raises(ValueError):
        mask_tokens(np.array([CLS_ID, 7, SEP_ID]), np.random.default_rng(0), 60, mask_prob=1.5)


def test_batch_labels_and_supervision_count():
    # no padding: the labels follow the concatenation of the masked sequences
    rng = np.random.default_rng(4)
    seqs = [np.array([CLS_ID, 7, 9, 11, SEP_ID]), np.array([CLS_ID, 8, SEP_ID])]
    batch = build_mlm_batch(seqs, rng, vocab_size=60, mask_prob=1.0)
    assert [len(ids) for ids in batch.input_ids] == [5, 3]
    ignored = ad.IGNORE_INDEX
    assert batch.labels.tolist() == [ignored, 7, 9, 11, ignored, ignored, 8, ignored]
    assert batch.n_supervised == 4


# ---------------------------------------------------------------- ranking loss


def rep_batch(queries, positives, negatives, V=8):
    """A (3B, V) float64 representation batch: query, positive and negative
    rows, each given as {term id: weight}."""
    out = np.zeros((3 * len(queries), V), dtype=np.float64)
    for i, row in enumerate([*queries, *positives, *negatives]):
        for tid, val in row.items():
            out[i, tid] = val
    return Tensor(out, requires_grad=True)


def test_ranking_loss_equal_scores_is_log2():
    # B=1: positive and the single negative tie -> -log(1/2)
    reps = rep_batch([{0: 1.0}], [{0: 2.0}], [{0: 2.0}])
    loss, flops_term = ad.ranking_loss(reps, 0.0, 0.0)
    assert abs(float(loss.data) - math.log(2.0)) < 1e-12
    assert flops_term == 0.0


def test_ranking_loss_prefers_positive():
    reps = rep_batch([{0: 1.0}], [{0: 10.0}], [{0: 0.0}])
    loss, _ = ad.ranking_loss(reps, 0.0, 0.0)
    assert float(loss.data) < 1e-3


def test_flops_term_oracle():
    # doc batch {0:1} and {0:3}: mean activation 2, squared 4
    reps = rep_batch([{1: 1.0}], [{0: 1.0}], [{0: 3.0}])
    lam = 1e-4
    _, flops_term = ad.ranking_loss(reps, 0.0, lam)
    assert abs(flops_term - 4.0 * lam) < 1e-12
    # query regularizer: single query rep {1:1} -> mean 1, squared 1
    _, flops_term_q = ad.ranking_loss(reps, 0.5, 0.0)
    assert abs(flops_term_q - 0.5) < 1e-12


def test_ranking_loss_in_batch_negatives_matrix():
    # B=2 hand-computed: scores row i = [q_i.pos_i, q_i.neg_0, q_i.neg_1]
    reps = rep_batch([{0: 1.0}, {1: 2.0}], [{0: 3.0}, {1: 1.0}], [{0: 1.0, 1: 1.0}, {0: 2.0}])
    loss, _ = ad.ranking_loss(reps, 0.0, 0.0)
    row0 = np.array([3.0, 1.0, 2.0])
    row1 = np.array([2.0, 2.0, 0.0])
    expected = 0.5 * (
        -(row0[0] - np.log(np.exp(row0).sum()))
        - (row1[0] - np.log(np.exp(row1).sum()))
    )
    assert abs(float(loss.data) - expected) < 1e-10


def test_ranking_loss_gradcheck():
    rng = np.random.default_rng(5)
    reps = Tensor(rng.random((9, 6)), requires_grad=True)

    def loss_fn():
        return ad.ranking_loss(reps, 0.01, 0.02)[0]

    with GradTape() as tape:
        tape.backward(loss_fn())
    numeric = numeric_gradient(loss_fn, reps)
    np.testing.assert_allclose(reps.grad, numeric, rtol=1e-4, atol=1e-8)


def test_ranking_loss_shape_mismatch():
    # the batch must split into three equal, non-empty row blocks
    for shape in ((4, 8), (0, 8), (3,)):
        with pytest.raises(ValueError):
            ad.ranking_loss(Tensor(np.zeros(shape)), 0.0, 0.0)


def _oracle_ranking_loss(reps: np.ndarray, lambda_q: float, lambda_d: float):
    """The fine-tune loss, its weighted FLOPS term and its (3B, V) gradient,
    rebuilt from plain numpy in the training code's order of operations."""
    B = len(reps) // 3
    dt = reps.dtype.type
    q, pos, neg = reps[:B], reps[B:2 * B], reps[2 * B:]
    scores = np.concatenate([(q * pos).sum(axis=1)[:, None], q @ neg.T.copy()], axis=1)
    zmax = scores.max(axis=1, keepdims=True)
    ez = np.exp(scores - zmax)
    loss = dt((np.log(ez.sum(axis=1)) + zmax[:, 0] - scores[:, 0]).sum() / B)
    flops_term = 0.0
    grad = np.zeros_like(reps)  # accumulating into +0 leaves no -0 behind
    for rows, lam in ((slice(0, B), lambda_q), (slice(B, 3 * B), lambda_d)):
        if lam:
            n = rows.stop - rows.start
            mean = reps[rows].sum(axis=0) * dt(1.0 / n)
            flops_term += lam * float((mean * mean).sum())
            loss = loss + (mean * mean).sum() * dt(lam)
            grad[rows] += 2 * (dt(lam) * mean) * dt(1.0 / n)
    d_scores = ez / ez.sum(axis=1, keepdims=True)
    d_scores[:, 0] -= 1
    d_scores *= dt(1) / dt(B)
    grad[:B] += d_scores[:, 1:] @ neg
    grad[:B] += d_scores[:, :1] * pos
    grad[B:2 * B] += d_scores[:, :1] * q
    grad[2 * B:] += (q.T @ d_scores[:, 1:]).T
    return loss, flops_term, grad


def test_ranking_loss_bitwise_matches_numpy_oracle():
    # SPLADE-like rows: float32, non-negative, nine in ten terms exactly 0
    rng = np.random.default_rng(14)
    for B in (1, 16):
        reps = np.log1p(np.maximum(rng.normal(0, 1, (3 * B, 2000)), 0))
        reps[rng.random(reps.shape) < 0.9] = 0
        reps = reps.astype(np.float32)
        for lambda_q, lambda_d in ((0.0, 0.0), (1e-3, 1e-4), (1e-3, 1e-3)):
            loss, flops_term, grad = _oracle_ranking_loss(reps, lambda_q, lambda_d)
            x = Tensor(reps.copy(), requires_grad=True)
            with GradTape() as tape:
                out, out_flops_term = ad.ranking_loss(x, lambda_q, lambda_d)
                tape.backward(out)
            case = (B, lambda_q, lambda_d)
            assert out.data.tobytes() == loss.tobytes(), case
            assert out_flops_term == flops_term, case
            assert x.grad.tobytes() == grad.tobytes(), case


# ---------------------------------------------------------------- stages


def test_pretrain_zero_steps_is_byte_exact_copy():
    vocab = make_vocab()
    base = base_ckpt()
    out = pretrain_mlm(base, list(DOCS.values()), vocab,
                       StageSpec(stage="pretrain_target", steps=0, seed=1))
    assert out.stage == "pretrain_target"
    assert tensor_checksums(out.weights) == tensor_checksums(base.weights)
    assert out.parents[0]["stage"] == "base"
    assert out.parents[0]["checksum"] == base.checksum()


def test_pretrain_starts_mlm_bias_at_log_unigram_prior():
    vocab = make_vocab()
    base = base_ckpt()
    docs = list(DOCS.values())
    lr = 1e-4
    out = pretrain_mlm(base, docs, vocab,
                       StageSpec(stage="pretrain_target", steps=1, batch_size=4, seed=1, lr=lr))
    counts = np.zeros(CFG.vocab_size)
    for text in docs:
        for term in text.split():
            counts[vocab.id_of(term)] += 1
    prior = np.log(counts + 1.0)
    prior -= prior.max()
    bias = out.weights["mlm.bias"].data
    # one Adam step moves each coordinate by at most lr (plus float32 rounding)
    assert np.abs(bias - prior).max() <= lr + 1e-6
    absent = vocab.id_of("w50")
    assert counts[absent] == 0 and prior[absent] == prior.min()
    assert bias[absent] <= bias.min() + 2 * lr


def test_pretrain_freezes_task_and_moves_domain():
    vocab = make_vocab()
    base = base_ckpt()
    part = partition_parameters(CFG)
    out = pretrain_mlm(base, list(DOCS.values()), vocab,
                       StageSpec(stage="pretrain_source", steps=8, batch_size=4, seed=2))
    report = freeze_verify(base.weights, out.weights, part.task_names)
    assert report.ok, f"frozen tensors moved: {sorted(report.violations)}"
    assert report.trained_moved
    # every domain tensor participates in the MLM loss, so all of them move
    assert part.domain_names <= report.changed


def test_pretrain_with_k0_still_trains_embeddings():
    # gradient must flow through all-frozen transformer layers to the embeddings
    cfg = ModelConfig(vocab_size=60, n_layers=2, d_model=16, n_heads=2, d_ffn=32,
                      max_seq_len=16, k_domain_layers=0)
    vocab = make_vocab(cfg)
    base = Checkpoint(init_weights(cfg, seed=3), stage="base")
    part = partition_parameters(cfg)
    out = pretrain_mlm(base, list(DOCS.values()), vocab,
                       StageSpec(stage="pretrain_target", steps=5, batch_size=4, seed=3))
    report = freeze_verify(base.weights, out.weights, part.task_names)
    assert report.ok
    assert {"emb.token", "emb.position", "mlm.bias"} <= report.changed


def test_pretrain_loss_decreases():
    vocab = make_vocab()
    base = base_ckpt(seed=4)
    log_path = None
    import tempfile, os
    fd, log_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    pretrain_mlm(base, list(DOCS.values()), vocab,
                 StageSpec(stage="pretrain_source", steps=60, batch_size=8, seed=4),
                 log_path=log_path)
    records = [json.loads(ln) for ln in open(log_path)]
    os.unlink(log_path)
    assert [r["step"] for r in records] == list(range(60))
    first = np.mean([r["loss"] for r in records[:10]])
    last = np.mean([r["loss"] for r in records[-10:]])
    assert last < first
    assert all(r["stage"] == "pretrain_source" for r in records)


def test_pretrain_determinism():
    vocab = make_vocab()
    spec = StageSpec(stage="pretrain_target", steps=6, batch_size=4, seed=9)
    a = pretrain_mlm(base_ckpt(), list(DOCS.values()), vocab, spec)
    b = pretrain_mlm(base_ckpt(), list(DOCS.values()), vocab, spec)
    assert a.checksum() == b.checksum()


def test_pretrain_input_validation():
    vocab = make_vocab()
    with pytest.raises(ValueError):
        pretrain_mlm(base_ckpt(), [], vocab, StageSpec(stage="pretrain_source", steps=1))
    with pytest.raises(ValueError):
        pretrain_mlm(base_ckpt(), ["..."], vocab, StageSpec(stage="pretrain_source", steps=1))
    with pytest.raises(ValueError):
        pretrain_mlm(base_ckpt(), ["w1 w2"], vocab, StageSpec(stage="finetune_source", steps=1))
    small_vocab = Vocabulary(["w1"])
    with pytest.raises(ValueError):
        pretrain_mlm(base_ckpt(), ["w1"], small_vocab, StageSpec(stage="pretrain_source", steps=1))


def make_triples(n=12):
    ids = sorted(DOCS)
    return [TrainTriple(query=DOCS[ids[i % len(ids)]].split()[0] + " " + DOCS[ids[i % len(ids)]].split()[1],
                        pos_doc_id=ids[i % len(ids)],
                        neg_doc_id=ids[(i + 7) % len(ids)])
            for i in range(n)]


def test_finetune_freezes_domain_and_moves_task():
    vocab = make_vocab()
    base = base_ckpt(seed=5)
    part = partition_parameters(CFG)
    out = finetune_ir(base, make_triples(), DOCS, vocab,
                      StageSpec(stage="finetune_source", steps=6, batch_size=4, seed=5))
    report = freeze_verify(base.weights, out.weights, part.domain_names)
    assert report.ok, f"frozen tensors moved: {sorted(report.violations)}"
    assert report.trained_moved
    assert out.stage == "finetune_source"


def test_finetune_rejects_unknown_doc_ids():
    vocab = make_vocab()
    bad = [TrainTriple("w1 w2", "d0", "ghost")]
    with pytest.raises(ValueError) as exc:
        finetune_ir(base_ckpt(), bad, DOCS, vocab, StageSpec(stage="finetune_source", steps=1))
    assert "ghost" in str(exc.value)


def test_finetune_rejects_empty_query():
    vocab = make_vocab()
    bad = [TrainTriple("???", "d0", "d1")]
    with pytest.raises(ValueError):
        finetune_ir(base_ckpt(), bad, DOCS, vocab, StageSpec(stage="finetune_source", steps=1))


def test_finetune_rejects_a_doc_without_content_before_any_step():
    # a doc whose terms are all out of vocabulary would fail the first step
    # that draws it; it is refused up front, by id, even with no steps to run
    vocab = make_vocab()
    docs = {**DOCS, "oov": "zz yy"}
    triples = [TrainTriple("w1 w2", "d0", "d1"), TrainTriple("w3 w4", "d2", "oov")]
    with pytest.raises(ValueError, match=r"docs with no content tokens: \['oov'\]"):
        finetune_ir(base_ckpt(), triples, docs, vocab, StageSpec(stage="finetune_source", steps=0))


def test_finetune_loss_and_log(tmp_path):
    vocab = make_vocab()
    log_path = tmp_path / "ft.jsonl"
    finetune_ir(base_ckpt(seed=6), make_triples(), DOCS, vocab,
                StageSpec(stage="finetune_source", steps=5, batch_size=4, seed=6),
                log_path=log_path)
    records = [json.loads(ln) for ln in log_path.read_text().splitlines()]
    assert len(records) == 5
    assert all(set(r) == {"step", "stage", "loss", "flops_term", "wall_s", "maxrss_mb"}
               for r in records)
    assert all(r["stage"] == "finetune_source" for r in records)
    walls = [r["wall_s"] for r in records]
    assert walls[0] >= 0.0 and walls == sorted(walls)
    peaks = [r["maxrss_mb"] for r in records]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)


def _grads_with_frozen(weights, frozen, forward):
    """Every tensor's gradient after one backward of forward(weights) with
    requires_grad off on the frozen names, and the number of recorded ops."""
    for name in frozen:
        weights[name].requires_grad = False
    try:
        with GradTape() as tape:
            loss = forward(weights)
            n_ops = len(tape)
            tape.backward(loss)
    finally:
        for name in frozen:
            weights[name].requires_grad = True
    grads = {n: t.grad for n, t in weights.tensors.items()}
    weights.zero_grad()
    return grads, n_ops


def test_freeze_changes_no_trained_gradient():
    # the stage loop freezes through requires_grad; the trained subset's
    # gradients must be bit-equal to those of a backward through everything
    vocab = make_vocab()
    part = partition_parameters(CFG)
    seqs = [vocab.encode(text, CFG.max_seq_len) for text in list(DOCS.values())[:6]]
    mlm = build_mlm_batch(seqs, np.random.default_rng(0), CFG.vocab_size, mask_prob=0.5)
    ids = build_mlm_batch(seqs, np.random.default_rng(0), CFG.vocab_size, mask_prob=0.0).input_ids

    def mlm_loss(w):
        return ad.softmax_cross_entropy(mlm_logits(w, mlm.input_ids, np.arange(mlm.labels.size)),
                                        mlm.labels.reshape(-1))

    def contrastive_loss(w):
        return ad.ranking_loss(encode_sparse_batch(w, ids), 1e-3, 1e-4)[0]

    weights = init_weights(CFG, seed=7)
    for forward, frozen in ((mlm_loss, part.task_names), (contrastive_loss, part.domain_names)):
        full, full_ops = _grads_with_frozen(weights, frozenset(), forward)
        grads, n_ops = _grads_with_frozen(weights, frozen, forward)
        for name in weights.names():
            if name in frozen:
                assert grads[name] is None, name
            else:
                assert grads[name].tobytes() == full[name].tobytes(), name
        assert n_ops <= full_ops
    # fine-tuning records nothing below layer k: the embeddings are frozen
    assert n_ops < full_ops
    # the whole fine-tune loss is one op on the tape
    with GradTape() as tape:
        reps = encode_sparse_batch(weights, ids)
        n_encoder = len(tape)
        ad.ranking_loss(reps, 1e-3, 1e-4)
        assert len(tape) == n_encoder + 1


def test_fused_ops_with_frozen_weights_still_pass_the_input_gradient():
    # pretraining freezes whole upper layers, whose ops must still carry the
    # gradient back to their input: bit-equal to an all-trainable backward,
    # with no gradient on any frozen weight
    rng = np.random.default_rng(8)

    def param(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    blocks = [(slice(0, 1), 1), (slice(1, 3), 2), (slice(3, 6), 3)]
    x = param(6, 8)
    ops = {
        "self_attention": (lambda *a: ad.self_attention(*a, blocks, heads=2),
                           [param(*shape) for shape in ((8, 8), (8,)) * 4]),
        "add_layer_norm": (lambda *a: ad.add_layer_norm(*a, eps=1e-12), [param(6, 8), param(8), param(8)]),
        "feed_forward": (ad.feed_forward, [param(8, 16), param(16), param(16, 8), param(8)]),
        "mlm_head": (lambda h, *a: ad.mlm_head(h, np.array([4, 0, 4, 5]), *a), [param(5, 8), param(5)]),
    }
    for name, (op, weights) in ops.items():
        def input_grad():
            x.grad = None
            with GradTape() as tape:
                out = op(x, *weights)
                tape.backward(ad.softmax_cross_entropy(out, np.arange(len(out.data)) % out.shape[1]))
            return x.grad

        full = input_grad()
        assert all(w.grad is not None for w in weights), name
        for w in weights:
            w.grad, w.requires_grad = None, False
        assert input_grad().tobytes() == full.tobytes(), name
        assert all(w.grad is None for w in weights), name


def test_stages_return_trainable_weights_and_leave_input_unchanged():
    vocab = make_vocab()
    base = base_ckpt(seed=8)
    base_sums = tensor_checksums(base.weights)
    pre = pretrain_mlm(base, list(DOCS.values()), vocab,
                       StageSpec(stage="pretrain_source", steps=2, batch_size=4, seed=8))
    pre_sums = tensor_checksums(pre.weights)
    ft = finetune_ir(pre, make_triples(), DOCS, vocab,
                     StageSpec(stage="finetune_source", steps=2, batch_size=4, seed=8))
    assert tensor_checksums(base.weights) == base_sums
    assert tensor_checksums(pre.weights) == pre_sums
    for ckpt in (base, pre, ft):
        assert all(t.requires_grad and t.grad is None for t in ckpt.weights.tensors.values()), ckpt.stage


# ---------------------------------------------------------------- pipeline


def run_mini_pipeline(mode, tmp_path=None, seed=11):
    vocab = make_vocab()
    target_docs = {f"t{i}": " ".join(f"w{(3 * i + j) % 40}" for j in range(8)) for i in range(15)}
    spec = PipelineSpec(model=CFG, mode=mode, seed=seed,
                        pretrain_steps=4, finetune_steps=4, batch_size=4)
    return run_pipeline(spec, DOCS, target_docs, make_triples(), vocab, workdir=tmp_path)


def test_pipeline_full_emits_all_stages(tmp_path):
    out = run_mini_pipeline("full", tmp_path)
    assert set(out) == {"base", "pretrain_source", "pretrain_target", "finetune_source", "composed"}
    # provenance chain
    assert out["composed"].parents[0]["stage"] == "pretrain_target"
    assert out["composed"].parents[1]["stage"] == "finetune_source"
    assert out["finetune_source"].parents[0]["stage"] == "pretrain_source"
    assert out["pretrain_target"].parents[0]["checksum"] == out["base"].checksum()
    # composed = domain from pretrain_target, task from finetune_source
    part = partition_parameters(CFG)
    composed_sums = tensor_checksums(out["composed"].weights)
    dom_sums = tensor_checksums(out["pretrain_target"].weights)
    task_sums = tensor_checksums(out["finetune_source"].weights)
    for name in part.domain_names:
        assert composed_sums[name] == dom_sums[name]
    for name in part.task_names:
        assert composed_sums[name] == task_sums[name]
    # artifacts on disk
    for stage in out:
        assert (tmp_path / "checkpoints" / stage / "manifest.json").exists()
    for stage in ("pretrain_source", "pretrain_target", "finetune_source"):
        assert (tmp_path / "logs" / f"{stage}.jsonl").exists()


def test_pipeline_wo_source_finetunes_from_base():
    out = run_mini_pipeline("wo_source")
    assert "pretrain_source" not in out
    assert out["finetune_source"].parents[0]["stage"] == "base"
    assert out["composed"].parents[0]["stage"] == "pretrain_target"


def test_pipeline_wo_pretraining_composed_equals_finetuned():
    out = run_mini_pipeline("wo_pretraining")
    assert "pretrain_source" not in out and "pretrain_target" not in out
    assert tensor_checksums(out["composed"].weights) == tensor_checksums(out["finetune_source"].weights)
    assert out["composed"].stage == "composed"


def test_pipeline_deterministic_per_seed():
    a = run_mini_pipeline("full", seed=21)
    b = run_mini_pipeline("full", seed=21)
    c = run_mini_pipeline("full", seed=22)
    assert a["composed"].checksum() == b["composed"].checksum()
    assert a["composed"].checksum() != c["composed"].checksum()


def test_pipeline_mode_validation():
    with pytest.raises(ValueError):
        PipelineSpec(model=CFG, mode="bogus")
    assert set(MODES) == {"full", "wo_source", "wo_pretraining"}


BAD_TRAINING_NUMBERS = [  # (PipelineSpec field, value, the StageSpec field the error names)
    ("lambda_d", -1.0, "lambda_d"),
    ("lambda_q", float("nan"), "lambda_q"),
    ("lambda_d", float("inf"), "lambda_d"),
    ("lr", -0.1, "lr"),
    ("lr", 0.0, "lr"),
    ("lr", float("inf"), "lr"),
    ("mask_prob", 1.5, "mask_prob"),
    ("mask_prob", float("nan"), "mask_prob"),
    ("pretrain_steps", -3, "steps"),
    ("finetune_steps", -1, "steps"),
    ("batch_size", 0, "batch_size"),
]


@pytest.mark.parametrize("field, value, named", BAD_TRAINING_NUMBERS)
def test_pipeline_spec_refuses_bad_training_numbers(field, value, named):
    # a negative lambda_d rewards density, and a NaN would train to NaN weights
    with pytest.raises(ValueError, match=rf"\b{named} must be"):
        PipelineSpec(model=CFG, **{field: value})


@pytest.mark.parametrize("field, value, named", BAD_TRAINING_NUMBERS)
def test_config_pipeline_section_refuses_bad_training_numbers(tmp_path, field, value, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"pipeline": {field: value}}))  # NaN and Infinity as JSON extensions
    with pytest.raises(ValueError, match=rf"\b{named} must be"):
        load_config(path)


def test_pipeline_spec_accepts_the_edges_of_each_range():
    spec = PipelineSpec(model=CFG, pretrain_steps=0, finetune_steps=0, batch_size=1, lr=1e-9,
                        mask_prob=1.0, lambda_q=0.0, lambda_d=0.0)
    assert spec.finetune_stage().lambda_d == 0.0 and spec.pretrain_stage("pretrain_target").mask_prob == 1.0
    assert PipelineSpec(model=CFG, mask_prob=0.0).pretrain_stage("pretrain_source").mask_prob == 0.0
