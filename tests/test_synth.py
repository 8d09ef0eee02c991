"""Synthetic benchmark generator invariants."""

import numpy as np
import pytest

from spladapt.data import dataset_stats
from spladapt.synth import SynthSpec, audit_exclusive_support, generate
from spladapt.vocab import build_vocabulary, tokenize

from helpers import in_vocabulary

SMALL = SynthSpec(n_topics=4, shared_vocab=40, exclusive_vocab=12,
                  docs_per_domain=80, queries_per_domain=20, seed=3)


def test_defaults_match_benchmark_scale():
    spec = SynthSpec()
    assert (spec.n_topics, spec.shared_vocab, spec.exclusive_vocab) == (8, 200, 60)
    assert (spec.docs_per_domain, spec.queries_per_domain) == (800, 100)
    assert spec.cooccurrence == 0.8 and spec.seed == 7


def test_sizes_and_split():
    source, target = generate(SMALL)
    assert len(source.docs) == 80 and len(target.docs) == 80
    assert len(source.queries) == 10          # half held out for evaluation
    assert len(source.triples) == 10 * 8      # other half feeds triples
    assert len(target.queries) == 20
    assert not target.triples                 # no target supervision, ever
    stats = dataset_stats(source)
    assert SMALL.doc_len_min <= stats.avg_doc_tokens <= SMALL.doc_len_max + 5


def test_deterministic_in_seed():
    a_src, a_tgt = generate(SMALL)
    b_src, b_tgt = generate(SMALL)
    assert a_src.docs == b_src.docs and a_tgt.docs == b_tgt.docs
    assert a_src.triples == b_src.triples and a_tgt.queries == b_tgt.queries
    c_src, _ = generate(SynthSpec(**{**SMALL.__dict__, "seed": 4}))
    assert c_src.docs != a_src.docs


def test_exclusive_vocabularies_disjoint_across_domains():
    source, target = generate(SMALL)
    src_terms = {t for text in source.docs.values() for t in tokenize(text)}
    tgt_terms = {t for text in target.docs.values() for t in tokenize(text)}
    src_only = {t for t in src_terms if t.startswith("src")}
    tgt_only = {t for t in tgt_terms if t.startswith("tgt")}
    assert src_only and tgt_only
    assert not (src_only & tgt_terms)
    assert not (tgt_only & src_terms)
    # shared terms really are shared
    assert {t for t in src_terms if t.startswith("top")} & tgt_terms


def test_relevance_is_topic_membership():
    source, target = generate(SMALL)
    for ds, prefix in ((source, "S"), (target, "T")):
        for qid, judged in ds.qrels.items():
            assert judged, f"{qid} has no relevant docs"
            assert all(g == 1 for g in judged.values())
            topics = {int(d[1:]) % SMALL.n_topics for d in judged}
            assert len(topics) == 1, f"{qid} spans topics {topics}"
            assert all(d.startswith(prefix) for d in judged)
        # every query's terms come from its topic's pools
        for qid, text in ds.queries.items():
            topic = int(next(iter(ds.qrels[qid]))[1:]) % SMALL.n_topics
            for tok in tokenize(text):
                prefix_t = f"top{topic}x" if tok.startswith("top") else f"tgt{topic}x"
                assert tok.startswith(prefix_t), (qid, tok)


def test_target_queries_split_between_rare_synonyms_and_shared_terms():
    _, target = generate(SMALL)
    texts = list(target.queries.values())
    synonym_only = [t for t in texts
                    if all(tok.startswith("tgt") for tok in tokenize(t))]
    shared_only = [t for t in texts
                   if all(tok.startswith("top") for tok in tokenize(t))]
    # every query is one kind or the other, never a mix
    assert len(synonym_only) + len(shared_only) == len(texts)
    # the synonym fraction is a fair coin; allow a generous binomial band
    n = len(texts)
    assert n // 4 <= len(synonym_only) <= 3 * n // 4
    # synonym queries draw from the rare tail: each term has few carrier docs
    carrier_counts = []
    for text in synonym_only:
        for tok in tokenize(text):
            carriers = sum(1 for d in target.docs.values() if tok in tokenize(d))
            carrier_counts.append(carriers)
    assert carrier_counts and max(carrier_counts) <= 3


def test_source_queries_and_triples_stay_in_shared_vocabulary():
    source, _ = generate(SMALL)
    for text in source.queries.values():
        assert all(t.startswith("top") for t in tokenize(text))
    for t in source.triples:
        assert all(tok.startswith("top") for tok in tokenize(t.query))
        assert t.pos_doc_id in source.docs and t.neg_doc_id in source.docs
        assert t.pos_doc_id != t.neg_doc_id
        # positive shares the query topic, negative does not
        pos_topic = int(t.pos_doc_id[1:]) % SMALL.n_topics
        neg_topic = int(t.neg_doc_id[1:]) % SMALL.n_topics
        q_topic = int(tokenize(t.query)[0][3:].split("x")[0])
        assert pos_topic == q_topic and neg_topic != q_topic


def test_audit_counts_support():
    spec = SMALL
    source, target = generate(spec)
    counts = audit_exclusive_support(spec, source, target)
    assert counts and all(c >= 5 for c in counts.values())
    # audit catches leakage
    polluted_docs = dict(target.docs)
    first = next(iter(polluted_docs))
    polluted_docs[first] = polluted_docs[first] + " src0x0"
    from spladapt.data import Dataset
    polluted = Dataset(docs=polluted_docs, queries=target.queries, qrels=target.qrels)
    with pytest.raises(AssertionError):
        audit_exclusive_support(spec, source, polluted)


def test_vocabulary_fits_default_model_budget():
    source, target = generate(SynthSpec())
    vocab = build_vocabulary([source.docs.values(), target.docs.values(),
                              source.queries.values(), target.queries.values()],
                             max_size=2000)
    # every generated term must be in-vocabulary (no UNK during training)
    all_terms = set()
    for ds in (source, target):
        for text in list(ds.docs.values()) + list(ds.queries.values()):
            all_terms.update(tokenize(text))
    missing = [t for t in all_terms if not in_vocabulary(vocab, t)]
    assert not missing, missing[:10]
    assert len(vocab) <= 2000


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_topics=1)
    with pytest.raises(ValueError):
        SynthSpec(shared_vocab=10)
    with pytest.raises(ValueError):
        SynthSpec(cooccurrence=1.5)
    with pytest.raises(ValueError):
        SynthSpec(doc_len_min=30, doc_len_max=20)
