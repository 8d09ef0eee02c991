"""End-to-end acceptance checks, one test per shipped guarantee.

Every test asserts its own wall-clock budget and, on success, prints a
single [PASS] line with the quantities it measured (margins, orderings,
error magnitudes), so a verbose test log doubles as the acceptance report.
Oracles here are written independently of the library code they check:
brute-force scans for retrieval, hand-rolled metric formulas, finite
differences for gradients, and scipy for the t-test reference.
"""

import math
import re
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from spladapt import autodiff as ad
from spladapt.autodiff import GradTape, Tensor
from spladapt.evaluation import evaluate_run, paired_ttest
from spladapt.experiment import benchmark_variants
from spladapt.index import (RankedList, build_frequency_index, encode_corpus,
                            index_from_vectors, retrieve_bm25, retrieve_sparse)
from spladapt.model import (EncoderWeights, ModelConfig, SparseVector,
                            encode_sparse_batch, init_weights, mlm_logits,
                            parameter_shapes)
from spladapt.params import Checkpoint, compose, partition_parameters
from spladapt.synth import SynthSpec, generate
from spladapt.training import (MASK_ACTIONS, PipelineSpec, finetune_ir,
                               mask_tokens, pretrain_mlm, run_pipeline)
from spladapt.vocab import N_SPECIALS, Vocabulary, build_vocabulary

from helpers import freeze_verify, in_vocabulary, numeric_gradient, subset_of, tensor_checksums

# Calibrated toy budgets for the cross-domain suite. Pretraining runs at the
# package default rate (PipelineSpec.lr). At 1e-4 the composed model gains
# nothing over zero-shot in 200 steps, and without the prior bias described
# next the gaps checked here are float noise that flips with the BLAS thread
# count. The default rate is only safe because MLM starts the head bias at
# the corpus's log unigram prior: from a zero bias the tied embedding matrix
# must carry that prior, dragging the rows of all terms absent from the
# corpus along one shared vector, and the composed model falls well below
# both baselines. The common-mode statistic of emb.token (norm of the mean
# row over the mean row norm) does not measure that failure: with the prior
# bias it rises, 0.58 to 0.86, and retrieval gains. At this rate each
# target-exclusive synonym gets enough masked exposures to align with its
# topic. Fine-tuning uses the strong document-sparsity weight;
# MLM-pretrained encoders start sparser than random ones, and the pretrained
# branches score about the same at the default weight.
PRETRAIN_STEPS = 200
FINETUNE_STEPS = 100
FINETUNE_LAMBDA_D = 1e-3
SUITE_SEEDS = (0, 1, 2, 3, 4)
SUITE_K = 1
SPARSITY_STEPS = 200
VOCAB_BUDGET = 2000


def _finish(capfd, t0: float, budget: float, message: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{message}: took {elapsed:.1f}s, budget {budget:.0f}s"
    with capfd.disabled():
        print(f"\n[PASS] {message} ({elapsed:.2f}s)", flush=True)


def _padded_vocab(source, target, total: int = VOCAB_BUDGET) -> Vocabulary:
    """Every corpus term, then filler terms up to a fixed model vocabulary."""
    natural = build_vocabulary([source.docs.values(), target.docs.values()], max_size=total)
    terms = list(natural.terms)
    i = 0
    while len(terms) + N_SPECIALS < total:
        terms.append(f"zfill{i:04d}")
        i += 1
    return Vocabulary(terms)


@pytest.fixture(scope="module")
def bench():
    source, target = generate(SynthSpec())
    vocab = _padded_vocab(source, target)
    model = ModelConfig(vocab_size=len(vocab), k_domain_layers=SUITE_K)
    return SimpleNamespace(source=source, target=target, vocab=vocab, model=model)


@pytest.fixture(scope="module")
def variant_suite(bench, tmp_path_factory):
    """Five-variant benchmark over the shared seeds; consumed by the
    adaptation-gain and ablation-ordering checks, which split one budget."""
    t0 = time.perf_counter()
    per_seed = []
    for seed in SUITE_SEEDS:
        spec = PipelineSpec(model=bench.model, mode="full", seed=seed,
                            pretrain_steps=PRETRAIN_STEPS, finetune_steps=FINETUNE_STEPS,
                            lambda_d=FINETUNE_LAMBDA_D)
        workdir = tmp_path_factory.mktemp(f"variants_seed{seed}")
        _, report = benchmark_variants(spec, bench.source, bench.target, bench.vocab,
                                       cutoff=100, workdir=workdir)
        per_seed.append({m.name: m.ndcg10 for m in report.methods})
    return SimpleNamespace(per_seed=per_seed, elapsed=time.perf_counter() - t0)


def _mean(suite, name: str) -> float:
    return float(np.mean([row[name] for row in suite.per_seed]))


def _per_seed_margins(suite, better: str, worse: str) -> str:
    """Per-seed nDCG@10 margins better-worse, each named by its seed."""
    return ", ".join(f"seed {seed} {row[better] - row[worse]:+.4f}"
                     for seed, row in zip(SUITE_SEEDS, suite.per_seed))


# ---------------------------------------------------------------- partition


def test_partition_is_disjoint_exhaustive_and_k_indexed(capfd):
    t0 = time.perf_counter()
    L = 6
    for k in range(L):
        cfg = ModelConfig(n_layers=L, k_domain_layers=k)
        part = partition_parameters(cfg)
        names = set(parameter_shapes(cfg))
        assert part.domain_names | part.task_names == names
        assert not (part.domain_names & part.task_names)
        assert {"emb.token", "emb.position", "mlm.bias"} <= part.domain_names
        for name in names:
            layer = re.match(r"layer\.(\d+)\.", name)
            if layer:
                want = "domain" if int(layer.group(1)) < k else "task"
                assert subset_of(part, name) == want, (k, name)
    with pytest.raises(ValueError):
        partition_parameters(ModelConfig(n_layers=L, k_domain_layers=L))
    _finish(capfd, t0, 1.0,
            "parameter split disjoint+exhaustive for L=6, k=0..5; embeddings "
            "always domain-side; k=6 rejected")


# ---------------------------------------------------------------- freezing


def test_training_never_moves_a_frozen_tensor(bench, capfd):
    part = partition_parameters(bench.model)
    spec = PipelineSpec(model=bench.model, seed=31, pretrain_steps=50,
                        finetune_steps=50)
    base = Checkpoint(init_weights(bench.model, seed=spec.seed), stage="base")

    t0 = time.perf_counter()
    pretrained = pretrain_mlm(base, list(bench.source.docs.values()), bench.vocab,
                              spec.pretrain_stage("pretrain_source"))
    mlm_s = time.perf_counter() - t0
    mlm_report = freeze_verify(base.weights, pretrained.weights,
                               expected_frozen=part.task_names)
    assert mlm_report.ok, f"masked-LM stage moved frozen tensors: {sorted(mlm_report.violations)}"
    assert part.task_names <= mlm_report.identical
    assert mlm_report.changed & part.domain_names, "no domain tensor moved in 50 MLM steps"

    t1 = time.perf_counter()
    tuned = finetune_ir(base, bench.source.triples, bench.source.docs, bench.vocab,
                        spec.finetune_stage())
    ft_s = time.perf_counter() - t1
    ft_report = freeze_verify(base.weights, tuned.weights,
                              expected_frozen=part.domain_names)
    assert ft_report.ok, f"fine-tune stage moved frozen tensors: {sorted(ft_report.violations)}"
    assert part.domain_names <= ft_report.identical
    assert ft_report.changed & part.task_names, "no task tensor moved in 50 fine-tune steps"

    assert mlm_s < 60.0, f"50 MLM steps took {mlm_s:.1f}s"
    assert ft_s < 60.0, f"50 fine-tune steps took {ft_s:.1f}s"
    _finish(capfd, t0, 130.0,
            f"frozen subsets bit-identical after 50 MLM steps ({mlm_s:.1f}s) "
            f"and 50 fine-tune steps ({ft_s:.1f}s); trained subsets moved")


# ---------------------------------------------------------------- gradients


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise relative error with an absolute floor.

    The floor (1e-3) sits two orders above the f64 central-difference noise
    floor (~1e-9 absolute for an O(1) loss at eps=1e-5), so near-zero true
    gradients compare on absolute terms: noise scores ~1e-6 and even a sign
    flip of a 1e-6 gradient still scores ~1e-3, above the 1e-4 threshold.
    """
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _max_grad_err(make_loss, params) -> float:
    for p in params:
        p.zero_grad()
    with GradTape() as tape:
        tape.backward(make_loss())
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, _rel_err(analytic, numeric_gradient(make_loss, p)))
    return worst


def test_every_op_and_the_full_encoder_match_finite_differences(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1337)

    def t(*shape, away_from=None):
        data = rng.standard_normal(shape)
        if away_from is not None:
            data = data + np.sign(data) * away_from
        return Tensor(data, requires_grad=True)

    def reduced(forward):
        rows, cols = forward().shape
        targets = rng.integers(0, cols, size=rows)
        return lambda: ad.softmax_cross_entropy(forward(), targets)

    cases: list[tuple[str, list, object]] = []

    def case(op_name, params, forward):  # a 2-D op, reduced by a fixed-target cross entropy
        cases.append((op_name, params, reduced(forward)))

    em_tok, em_pos = t(7, 4), t(5, 4)
    em_ids, em_positions = np.array([0, 3, 3, 6, 1]), np.array([0, 1, 2, 0, 1])  # repeats accumulate
    case("embed", [em_tok, em_pos], lambda: ad.embed(em_tok, em_pos, em_ids, em_positions))
    sa_x = t(2 * 2 + 3 + 4, 6)
    sa_w = [t(*shape) for shape in ((6, 6), (6,)) * 4]  # wq, bq, wk, bk, wv, bv, wo, bo
    sa_blocks = [(slice(0, 4), 2), (slice(4, 7), 3), (slice(7, 11), 4)]  # packed lengths 2, 2, 3, 4
    case("self_attention", [sa_x, *sa_w], lambda: ad.self_attention(sa_x, *sa_w, sa_blocks, heads=2))
    lx, ly, lg, lb = t(4, 6), t(4, 6), t(6), t(6)
    case("add_layer_norm", [lx, ly, lg, lb], lambda: ad.add_layer_norm(lx, ly, lg, lb, eps=1e-12))
    case("add_layer_norm", [lx, lg, lb],  # x is y: x's gradient accumulates
         lambda: ad.add_layer_norm(lx, lx, lg, lb, eps=1e-12))
    fx, fw1, fb1, fw2, fb2 = t(5, 3), t(3, 4), t(4), t(4, 3), t(3)
    case("feed_forward", [fx, fw1, fb1, fw2, fb2], lambda: ad.feed_forward(fx, fw1, fb1, fw2, fb2))
    mh_h, mh_emb, mh_bias = t(4, 3), t(5, 3), t(5)
    mh_rows = np.array([2, 0, 2, 1])  # row 3 is skipped and row 2 repeated
    case("mlm_head", [mh_h, mh_emb, mh_bias], lambda: ad.mlm_head(mh_h, mh_rows, mh_emb, mh_bias))
    sp_h, sp_emb, sp_bias = t(2 * 4 + 5 + 7, 3), t(6, 3), t(6, away_from=0.2)  # random: no ties
    sp_content = rng.random(20) < 0.6
    sp_content[[0, 4, 8, 13]] = True
    sp_layout = sp_content, [(slice(0, 8), 4), (slice(8, 13), 5), (slice(13, 20), 7)], [3, 1, 0, 2]
    case("splade_pool", [sp_h, sp_emb, sp_bias],
         lambda: ad.splade_pool(sp_h, sp_emb, sp_bias, *sp_layout))
    ce = t(6, 9)
    ce_targets = np.array([1, 3, ad.IGNORE_INDEX, 0, 8, 2])
    cases.append(("softmax_cross_entropy", [ce], lambda: ad.softmax_cross_entropy(ce, ce_targets)))
    rl = t(3 * 3, 5)  # B = 3 query, positive and negative rows
    cases.append(("ranking_loss", [rl], lambda: ad.ranking_loss(rl, 0.3, 0.7)[0]))

    op_names = set(ad.__all__) - {"Tensor", "GradTape", "IGNORE_INDEX"}
    assert {name for name, _, _ in cases} == op_names, "an op has no gradient check"

    worst_op, worst = "", 0.0
    for op_name, params, make_loss in cases:
        err = _max_grad_err(make_loss, params)
        assert err < 1e-4, f"{op_name}: rel err {err:.2e}"
        if err > worst:
            worst_op, worst = op_name, err

    cfg = ModelConfig(vocab_size=20, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    weights = init_weights(cfg, seed=5, dtype=np.float64)
    # two triples of a query, its positive and a negative: lengths 4, 4, 6,
    # 7, 10 and 10, in an order the encoder packs differently
    seqs = [rng.integers(N_SPECIALS, cfg.vocab_size, size=n) for n in (4, 10, 6, 7, 10, 4)]
    labels = rng.integers(N_SPECIALS, cfg.vocab_size, size=41)
    labels[::3] = ad.IGNORE_INDEX
    rows = np.flatnonzero(labels != ad.IGNORE_INDEX)  # MLM projects supervised rows only

    def mlm_loss():
        return ad.softmax_cross_entropy(mlm_logits(weights, seqs, rows), labels[rows])

    def ranking():
        return ad.ranking_loss(encode_sparse_batch(weights, seqs), 0.1, 0.2)[0]

    enc_err = 0.0
    for loss_name, encoder_loss in (("MLM", mlm_loss), ("ranking", ranking)):
        err = _max_grad_err(encoder_loss, list(weights.tensors.values()))
        assert err < 1e-4, f"full encoder, {loss_name} loss: rel err {err:.2e}"
        enc_err = max(enc_err, err)

    _finish(capfd, t0, 60.0,
            f"gradients match finite differences: {len(op_names)} ops in {len(cases)} cases "
            f"(worst {worst_op} {worst:.1e}) + full encoder d=8 L=2 V=20 ({enc_err:.1e})")


# ---------------------------------------------------------------- composition


def test_composition_identity_and_per_tensor_surgery(capfd):
    t0 = time.perf_counter()
    cfg = ModelConfig(vocab_size=50, n_layers=3, d_model=16, n_heads=2, d_ffn=32,
                      max_seq_len=16, k_domain_layers=2)
    x = Checkpoint(init_weights(cfg, seed=11), stage="composed")
    same = compose(x, x)
    for name in x.weights.names():
        assert same.weights[name].data.tobytes() == x.weights[name].data.tobytes()

    def noisy_checkpoint(seed: int, stage: str) -> Checkpoint:
        # zero-init biases and one-init gains are seed-independent, so add
        # seeded noise to every tensor: provenance checksums become decisive
        weights = init_weights(cfg, seed=seed)
        noise = np.random.default_rng(seed)
        for tensor in weights.tensors.values():
            tensor.data += noise.standard_normal(tensor.shape).astype(tensor.data.dtype) * 0.01
        return Checkpoint(weights, stage=stage)

    domain_donor = noisy_checkpoint(21, "pretrain_target")
    task_donor = noisy_checkpoint(22, "finetune_source")
    merged = compose(domain_donor, task_donor)
    cs = tensor_checksums(merged.weights)
    cs_domain = tensor_checksums(domain_donor.weights)
    cs_task = tensor_checksums(task_donor.weights)
    assert all(cs_domain[n] != cs_task[n] for n in cs_domain), "donors must differ"

    part = partition_parameters(cfg)
    for name in part.domain_names:
        assert cs[name] == cs_domain[name], f"{name} not taken from the domain donor"
    for name in part.task_names:
        assert cs[name] == cs_task[name], f"{name} not taken from the task donor"
    k_prefix = {n for n in cs if n.startswith("emb.") or n == "mlm.bias"
                or re.match(r"layer\.[01]\.", n)}
    assert part.domain_names == k_prefix

    _finish(capfd, t0, 1.0,
            "compose(X,X) byte-identical to X; cross-checkpoint surgery takes "
            "exactly embeddings + first-k layers from the domain donor (per-tensor checksums)")


# ---------------------------------------------------------------- retrieval oracles


def _bm25_oracle(docs, query_text, voc, cutoff, k1=0.9, b=0.4):
    tokens = {d: text.split() for d, text in docs.items()}
    lengths = {d: len(toks) for d, toks in tokens.items()}
    n_docs = len(docs)
    avgdl = sum(lengths.values()) / n_docs
    qcounts = Counter(t for t in query_text.split() if in_vocabulary(voc, t))
    df = {t: sum(1 for toks in tokens.values() if t in toks) for t in qcounts}
    scored = []
    for d, toks in tokens.items():
        counts = Counter(toks)
        s = 0.0
        for term, qtf in qcounts.items():
            tf = counts[term]
            if tf == 0 or df[term] == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            s += qtf * idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * lengths[d] / avgdl))
        if s > 0.0:
            scored.append((d, s))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:cutoff]


def _impact_oracle(reps, query, cutoff):
    scored = []
    for d, vec in reps.items():
        weights = dict(vec.items())
        s = 0.0
        for tid, qval in query.items():
            dval = weights.get(tid)
            if dval is not None:
                s += qval * dval
        if s != 0.0:
            scored.append((d, s))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:cutoff]


def test_ranking_equals_exhaustive_scan_on_random_corpora(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_queries = 0
    for trial in range(100):
        n_docs = int(rng.integers(1, 201))
        n_terms = int(rng.integers(8, 50))
        terms = [f"w{j:02d}" for j in range(n_terms)]
        voc = Vocabulary(terms)

        docs = {}
        for i in range(n_docs):
            toks = list(rng.choice(terms, size=int(rng.integers(2, 20))))
            if rng.random() < 0.3:
                toks.append("qqunknown")  # counts toward length, never indexed
            docs[f"d{i:03d}"] = " ".join(toks)
        if trial % 10 == 0 and n_docs >= 3:
            for i in range(3):  # identical docs force score ties
                docs[f"d{i:03d}"] = "w00 w01 w02"
        freq_index = build_frequency_index(docs, voc)

        reps = {}
        for i in range(n_docs):
            nnz = int(rng.integers(0, min(12, n_terms) + 1))
            tids = rng.choice(np.arange(N_SPECIALS, N_SPECIALS + n_terms),
                              size=nnz, replace=False)
            reps[f"d{i:03d}"] = SparseVector(
                {int(t): float(rng.uniform(0.1, 3.0)) for t in tids})
        if trial % 10 == 0 and n_docs >= 3:
            tie = SparseVector({N_SPECIALS: 1.25, N_SPECIALS + 1: 0.5})
            for i in range(3):
                reps[f"d{i:03d}"] = tie
        impact_index = index_from_vectors(reps)

        for _ in range(3):
            cutoff = int(rng.integers(1, 16))
            qtoks = list(rng.choice(terms, size=int(rng.integers(1, 5))))
            if rng.random() < 0.25:
                qtoks.append("qqunknown")
            query_text = " ".join(qtoks)
            got = retrieve_bm25(freq_index, query_text, voc, cutoff, query_id="q")
            want = _bm25_oracle(docs, query_text, voc, cutoff)
            assert got.doc_ids() == [d for d, _ in want]
            assert all(abs(gs - ws) <= 1e-9
                       for (_, gs), (_, ws) in zip(got.entries, want))

            qids = rng.choice(np.arange(N_SPECIALS, N_SPECIALS + n_terms),
                              size=int(rng.integers(1, 7)), replace=False)
            qvec = SparseVector({int(t): float(rng.uniform(0.1, 2.0)) for t in qids})
            got = retrieve_sparse(impact_index, qvec, cutoff, query_id="q")
            want = _impact_oracle(reps, qvec, cutoff)
            assert got.doc_ids() == [d for d, _ in want]
            assert all(abs(gs - ws) <= 1e-9
                       for (_, gs), (_, ws) in zip(got.entries, want))
            n_queries += 2

    _finish(capfd, t0, 60.0,
            f"BM25 and impact rankings equal exhaustive scans on 100 corpora "
            f"({n_queries} queries, ties broken by doc id, scores within 1e-9)")


# ---------------------------------------------------------------- metric oracles


def test_metrics_match_brute_force_and_ttest_matches_reference(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4096)
    n_compared = 0
    for _ in range(100):
        doc_ids = [f"d{i}" for i in range(int(rng.integers(3, 40)))]
        qrels, run = {}, {}
        for qi in range(int(rng.integers(1, 8))):
            qid = f"q{qi}"
            judged = rng.choice(doc_ids, size=int(rng.integers(1, min(10, len(doc_ids)) + 1)),
                                replace=False)
            grades = {str(d): int(rng.integers(0, 4)) for d in judged}
            qrels[qid] = grades
            if rng.random() < 0.9:
                retrieved = rng.choice(doc_ids, size=int(rng.integers(1, len(doc_ids) + 1)),
                                       replace=False)
                scores = np.sort(rng.uniform(0.0, 5.0, size=len(retrieved)))[::-1]
                run[qid] = RankedList(query_id=qid, entries=[
                    (str(d), float(s)) for d, s in zip(retrieved, scores)])
        if not any(any(g >= 1 for g in js.values()) for js in qrels.values()):
            qrels["q0"][next(iter(qrels["q0"]))] = 2

        ndcg, mrr = evaluate_run(run, qrels, k=10)
        for qid, judged in qrels.items():
            if not any(g >= 1 for g in judged.values()):
                assert qid not in ndcg  # unjudgeable query excluded
                continue
            ranked = run[qid].doc_ids()[:10] if qid in run else []
            bf_dcg = sum((2.0 ** judged.get(d, 0) - 1.0) / math.log2(r + 1.0)
                         for r, d in enumerate(ranked, start=1))
            ideal = sorted(judged.values(), reverse=True)[:10]
            bf_idcg = sum((2.0 ** g - 1.0) / math.log2(r + 1.0)
                          for r, g in enumerate(ideal, start=1))
            assert abs(ndcg[qid] - bf_dcg / bf_idcg) <= 1e-9
            bf_rr = next((1.0 / r for r, d in enumerate(ranked, start=1)
                          if judged.get(d, 0) >= 1), 0.0)
            assert abs(mrr[qid] - bf_rr) <= 1e-9
            n_compared += 1

    result = paired_ttest([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert abs(result.p - 0.0305) < 1e-3, f"p={result.p}"
    scipy_stats = pytest.importorskip("scipy.stats")
    reference = scipy_stats.ttest_rel([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert abs(result.p - float(reference.pvalue)) < 1e-9

    _finish(capfd, t0, 10.0,
            f"nDCG@10/MRR@10 match brute force on {n_compared} queries within 1e-9; "
            f"paired t-test p={result.p:.4f} (reference 0.0305, scipy agrees)")


# ---------------------------------------------------------------- adaptation suite


def test_composed_model_beats_zero_shot_on_average(variant_suite, capfd):
    margins = [row["composed"] - row["zeroshot"] for row in variant_suite.per_seed]
    margin = float(np.mean(margins))
    assert variant_suite.elapsed < 900.0, f"suite took {variant_suite.elapsed:.0f}s"
    assert margin > 0.0, (
        f"mean composed-zeroshot margin {margin:+.4f} "
        f"(per seed: {_per_seed_margins(variant_suite, 'composed', 'zeroshot')})")
    _finish(capfd, time.perf_counter(), 30.0,
            f"cross-domain gain: mean nDCG@10 margin composed-zeroshot {margin:+.4f} "
            f"over seeds {SUITE_SEEDS} (per-seed {[f'{m:+.3f}' for m in margins]}; "
            f"suite {variant_suite.elapsed:.0f}s)")


def test_pretraining_ablation_ordering(variant_suite, capfd):
    full = _mean(variant_suite, "composed")
    wo_source = _mean(variant_suite, "wo_source")
    wo_pretraining = _mean(variant_suite, "wo_pretraining")
    ordering = " >= ".join(
        name for name, _ in sorted(
            [("full", full), ("wo_source", wo_source), ("wo_pretraining", wo_pretraining)],
            key=lambda kv: -kv[1]))
    per_seed = _per_seed_margins(variant_suite, "composed", "wo_pretraining")
    assert full > wo_pretraining, (
        f"full {full:.4f} vs wo_pretraining {wo_pretraining:.4f} "
        f"(per-seed full-wo_pretraining: {per_seed})")
    _finish(capfd, time.perf_counter(), 30.0,
            f"ablations: full {full:.4f}, wo_source {wo_source:.4f}, "
            f"wo_pretraining {wo_pretraining:.4f} (observed: {ordering}; "
            f"full-wo_source gap {full - wo_source:+.4f} informational; "
            f"per-seed full-wo_pretraining: {per_seed})")


# ---------------------------------------------------------------- sparsity


def test_document_sparsity_never_grows_with_regularizer_strength(bench, capfd):
    t0 = time.perf_counter()
    mean_l0 = []
    for lam in (0.0, 1e-4, 1e-3):
        spec = PipelineSpec(model=bench.model, mode="wo_pretraining", seed=0,
                            finetune_steps=SPARSITY_STEPS, lambda_d=lam)
        ckpts = run_pipeline(spec, bench.source.docs, bench.target.docs,
                             bench.source.triples, bench.vocab)
        reps = encode_corpus(ckpts["composed"].weights, bench.source.docs, bench.vocab)
        mean_l0.append(float(np.mean([vec.l0() for vec in reps.values()])))
    assert mean_l0[0] >= mean_l0[1] >= mean_l0[2], mean_l0
    _finish(capfd, t0, 300.0,
            f"mean doc L0 non-increasing over lambda_d 0 / 1e-4 / 1e-3: "
            f"{mean_l0[0]:.1f} >= {mean_l0[1]:.1f} >= {mean_l0[2]:.1f}")


# ---------------------------------------------------------------- masking


def test_masking_actions_follow_the_80_10_10_split(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    counts = Counter()
    total = 0
    while total < 100_000:
        ids = rng.integers(N_SPECIALS, 2000, size=200_000)
        special_spots = rng.random(ids.shape) < 0.05
        ids[special_spots] = rng.integers(0, N_SPECIALS, size=int(special_spots.sum()))
        _, labels, actions = mask_tokens(ids, rng, vocab_size=2000, mask_prob=0.15)
        selected = labels != ad.IGNORE_INDEX
        assert not (selected & (ids < N_SPECIALS)).any(), "special token selected"
        total += int(selected.sum())
        for action in ("mask", "random", "keep"):
            counts[action] += int((actions == MASK_ACTIONS[action]).sum())
    fractions = {a: counts[a] / total for a in ("mask", "random", "keep")}
    for action, expected in (("mask", 0.8), ("random", 0.1), ("keep", 0.1)):
        assert abs(fractions[action] - expected) <= 0.01, (action, fractions[action])
    _finish(capfd, t0, 10.0,
            f"masking actions over {total} selected positions: "
            f"mask {fractions['mask']:.3f} / random {fractions['random']:.3f} / "
            f"keep {fractions['keep']:.3f} (within 1% of 0.8/0.1/0.1)")
