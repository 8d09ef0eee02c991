"""Index construction, exact retrieval vs brute force, BM25 oracles,
and serialization round trips."""

import json
import math
import multiprocessing
import os
import struct

import numpy as np
import pytest

from spladapt import _fork
from spladapt import index as index_module
from spladapt.index import (
    BM25_B, BM25_K1, bm25_idf, build_frequency_index,
    build_impact_index, encode_corpus, index_from_vectors, load_index,
    retrieve_bm25, retrieve_sparse, retrieve_sparse_batch, save_index,
)
from spladapt.experiment import encode_queries
from spladapt.model import ModelConfig, SparseVector, encode_sparse_batch, init_weights
from spladapt.params import fnv1a64
from spladapt.vocab import N_SPECIALS, PAD_ID, Vocabulary, build_vocabulary

from helpers import reference_top_k


def brute_force_sparse(reps, query, cutoff):
    def score(q, d):
        d = dict(d.items())
        return sum(val * d[tid] for tid, val in q.items() if tid in d)

    scored = [(d, score(query, v)) for d, v in reps.items()]
    scored = [(d, s) for d, s in scored if s != 0.0]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:cutoff]


def brute_force_bm25(docs_tokens, query_tokens, cutoff, k1=BM25_K1, b=BM25_B):
    N = len(docs_tokens)
    avgdl = sum(len(t) for t in docs_tokens.values()) / N
    df = {}
    for toks in docs_tokens.values():
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    scored = {}
    for doc_id, toks in docs_tokens.items():
        s = 0.0
        for qt in query_tokens:
            tf = toks.count(qt)
            if tf == 0:
                continue
            idf = math.log(1.0 + (N - df[qt] + 0.5) / (df[qt] + 0.5))
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avgdl))
        if s != 0.0:
            scored[doc_id] = s
    ranked = sorted(scored.items(), key=lambda e: (-e[1], e[0]))
    return ranked[:cutoff]


# ---------------------------------------------------------------- impact kind


def test_impact_retrieval_matches_score_function():
    reps = {
        "a": SparseVector({1: 2.0, 3: 1.0}),
        "b": SparseVector({3: 5.0}),
        "c": SparseVector({2: 1.0}),
    }
    index = index_from_vectors(reps)
    # term 99 is past the last indexed term (3): it matches nothing
    q = SparseVector({3: 1.0, 1: 1.0, 99: 4.0})
    out = retrieve_sparse(index, q, cutoff=10, query_id="q1")
    assert out.query_id == "q1"
    assert out.entries == [("b", 5.0), ("a", 3.0)]  # c shares no terms: absent


def test_tie_breaks_ascending_doc_id():
    reps = {"z": SparseVector({7: 2.0}), "a": SparseVector({7: 2.0}), "m": SparseVector({7: 2.0})}
    index = index_from_vectors(reps)
    out = retrieve_sparse(index, SparseVector({7: 1.0}), cutoff=3)
    assert out.doc_ids() == ["a", "m", "z"]


def test_empty_query_returns_empty():
    index = index_from_vectors({"a": SparseVector({1: 1.0})})
    assert retrieve_sparse(index, SparseVector({}), cutoff=5).entries == []


def test_cutoff_truncates():
    reps = {f"d{i}": SparseVector({1: float(i + 1)}) for i in range(10)}
    index = index_from_vectors(reps)
    out = retrieve_sparse(index, SparseVector({1: 1.0}), cutoff=3)
    assert out.doc_ids() == ["d9", "d8", "d7"]
    with pytest.raises(ValueError):
        retrieve_sparse(index, SparseVector({1: 1.0}), cutoff=0)


def test_impact_index_from_encoder_consistent_with_single_encoding():
    cfg = ModelConfig(vocab_size=40, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    weights = init_weights(cfg, seed=0)
    vocab = Vocabulary([f"w{i}" for i in range(35)])
    docs = {f"d{i}": " ".join(f"w{(i + j) % 35}" for j in range(6)) for i in range(9)}
    index = build_impact_index(docs, weights, vocab, batch_size=4)
    reps = encode_corpus(weights, docs, vocab, batch_size=4)
    for doc_id, text in docs.items():
        ids = vocab.encode(text, cfg.max_seq_len)[None, :]
        row = encode_sparse_batch(weights, ids).data[0]
        single = {int(t): float(row[t]) for t in np.flatnonzero(row > 0)}
        batched = dict(reps[doc_id].items())
        assert set(single) == set(batched)
        for tid, val in single.items():
            assert abs(val - batched[tid]) < 1e-5
    # postings are doc-id sorted and complete
    for tid, plist in index.postings.items():
        assert [d for d, _ in plist] == sorted(d for d, _ in plist)
        for doc_id, w in plist:
            assert abs(dict(reps[doc_id].items())[tid] - w) < 1e-12



def _encoder_batches(weights, docs, vocab, batch_size):
    """Doc id -> dense encoder row, from batches that encode_corpus does not
    form: docs in the caller's order, batch_size at a time, contentless docs
    dropped, each batch padded to its longest sequence. encode_corpus sorts
    by length, and a doc encodes to the same bytes in any batch."""
    rows = {}
    items = list(docs.items())
    for start in range(0, len(items), batch_size):
        seqs = {d: vocab.encode(t, weights.config.max_seq_len) for d, t in items[start:start + batch_size]}
        seqs = {d: s for d, s in seqs.items() if (s >= N_SPECIALS).any()}
        if not seqs:
            continue
        ids = np.full((len(seqs), max(map(len, seqs.values()))), PAD_ID, dtype=np.int64)
        for r, s in enumerate(seqs.values()):
            ids[r, :len(s)] = s
        rows.update(zip(seqs, encode_sparse_batch(weights, ids).data))
    return rows


def test_encode_corpus_keeps_exactly_the_positive_entries_of_each_encoder_row():
    cfg = ModelConfig(vocab_size=40, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    weights = init_weights(cfg, seed=3)
    weights["mlm.bias"].data[::3] = -0.05  # some terms pool below zero and drop
    vocab = Vocabulary([f"w{i}" for i in range(35)])
    docs = {f"d{i}": " ".join(f"w{(3 * i + j) % 35}" for j in range(1 + i % 5)) for i in range(8)}
    docs["d3"] = "unknown words only"  # no content tokens: an empty vector
    reps = encode_corpus(weights, docs, vocab, batch_size=3)
    rows = _encoder_batches(weights, docs, vocab, batch_size=3)
    assert list(reps) == list(docs) and set(rows) == set(docs) - {"d3"}
    assert list(reps["d3"].items()) == []
    for doc_id, row in rows.items():
        tids, vals = zip(*reps[doc_id].items())
        keep = np.flatnonzero(row > 0)
        assert 0 < len(keep) < cfg.vocab_size
        np.testing.assert_array_equal(np.array(tids), keep)
        assert np.array(vals).tobytes() == row[keep].astype(np.float64).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_encode_corpus_refuses_non_finite_encoder_rows_naming_the_text(bad):
    cfg = ModelConfig(vocab_size=40, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    weights = init_weights(cfg, seed=3)
    vocab = Vocabulary([f"w{i}" for i in range(35)])
    # the layer norm after it turns every hidden state, and so every logit, NaN
    weights["layer.1.ffn.b2"].data[0] = bad
    with pytest.raises(ValueError, match="'d1'"):
        encode_corpus(weights, {"d0": "unknown", "d1": "w1 w2", "d2": "w3"}, vocab)
    with pytest.raises(ValueError, match="'q9'"):
        encode_queries(weights, {"q9": "w4"}, vocab)


# ---------------------------------------------------------------- encode_corpus's worker


@pytest.fixture(params=[True, False], ids=["worker", "inline"])
def forks(request, monkeypatch):
    """fork_pays() forced on or off; the list collects the pid of each
    os.fork call made in this process."""
    monkeypatch.setattr(_fork, "fork_pays", lambda: request.param)
    made, fork = [], os.fork

    def counted_fork():
        made.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def small_encoder(seed=4):
    cfg = ModelConfig(vocab_size=40, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    return init_weights(cfg, seed=seed), Vocabulary([f"w{i}" for i in range(35)])


def no_child_left():
    assert multiprocessing.active_children() == []


def test_encode_corpus_gives_each_doc_its_own_bytes_on_either_path(forks):
    """Five batches of mixed lengths (one past max_seq_len), with a doc of no
    content tokens and one with [UNK]: the caller's order, and each vector
    the bytes of its doc encoded alone."""
    weights, vocab = small_encoder()
    rng = np.random.default_rng(7)
    docs = {f"d{i:02d}": " ".join(f"w{t}" for t in rng.integers(0, 35, size=rng.integers(1, 14)))
            for i in rng.permutation(13)}
    docs["d_unk"] = "w3 unknown w4"
    docs["d_empty"] = "nothing known here"
    reps = encode_corpus(weights, docs, vocab, batch_size=3)
    assert forks == ([os.getpid()] if _fork.fork_pays() else [])
    no_child_left()
    assert list(reps) == list(docs) and list(reps["d_empty"].items()) == []
    for doc_id, text in docs.items():
        if doc_id == "d_empty":
            continue
        row = encode_sparse_batch(weights, [vocab.encode(text, 12)]).data[0]
        keep = np.flatnonzero(row > 0)
        assert reps[doc_id].tids.tobytes() == keep.tobytes()
        assert reps[doc_id].vals.tobytes() == row[keep].astype(np.float64).tobytes()


def test_encode_corpus_cuts_the_fewest_equal_batches_in_length_order(monkeypatch):
    """Inline, every batch passes through this process: 10 content docs at
    batch_size 4 make 3 batches of 3 or 4 sequences, shortest first."""
    monkeypatch.setattr(_fork, "fork_pays", lambda: False)
    weights, vocab = small_encoder()
    seen, encode = [], index_module.encode_sparse_batch

    def spied(w, seqs):
        seen.append([len(seq) for seq in seqs])
        return encode(w, seqs)
    monkeypatch.setattr(index_module, "encode_sparse_batch", spied)
    words = [5, 1, 3, 1, 4, 2, 5, 2, 3, 1]
    docs = {f"d{i}": " ".join(f"w{j}" for j in range(n)) for i, n in enumerate(words)}
    encode_corpus(weights, docs | {"d_empty": "unknown"}, vocab, batch_size=4)
    assert [len(b) for b in seen] == [3, 3, 4]
    assert sum(seen, []) == sorted(n + 2 for n in words)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_row_in_the_worker_share_is_refused_naming_the_first_doc(forks):
    """Sorted by length the batches are [d2 d4] (the caller's) and [d3 d1]
    (the worker's). A NaN position embedding at position 4 reaches only
    sequences of 5 or more ids, d3 and d1; d1 comes first in the caller's
    order."""
    weights, vocab = small_encoder()
    weights["emb.position"].data[4] = np.nan
    docs = {"d1": "w1 w2 w3 w4", "d2": "w5", "d3": "w6 w7 w8", "d4": "w9 w10"}
    with pytest.raises(ValueError, match=r"encoder row of 'd1' holds a non-finite weight"):
        encode_corpus(weights, docs, vocab, batch_size=2)
    assert len(forks) == _fork.fork_pays()
    no_child_left()


def test_a_one_batch_call_starts_no_process(forks):
    weights, vocab = small_encoder()
    docs = {f"d{i}": f"w{i} w{i + 1}" for i in range(4)} | {"d_empty": "unknown"}
    reps = encode_corpus(weights, docs, vocab, batch_size=4)
    assert encode_queries(weights, {"q": "w7 w8"}, vocab)["q"].l0() > 0
    assert encode_corpus(weights, {"d_empty": "unknown"}, vocab)["d_empty"].l0() == 0  # no batch
    assert forks == [] and list(reps) == list(docs)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        encode_corpus(weights, docs, vocab, batch_size=0)


@pytest.mark.parametrize("share", ["worker", "caller"])
def test_an_error_in_either_share_reaches_the_caller_and_leaves_no_child(forks, monkeypatch,
                                                                        share):
    """Sorted, the batches are [d2] (the caller's) and [d1] (the worker's).
    The error keeps its type and message on either path."""
    weights, vocab = small_encoder()
    encode = index_module.encode_sparse_batch
    failing = 4 if share == "worker" else 3  # the sequence length of d1, or of d2

    def failing_encode(w, seqs):
        if len(seqs[0]) == failing:
            raise KeyError(f"in the {share}")
        return encode(w, seqs)
    monkeypatch.setattr(index_module, "encode_sparse_batch", failing_encode)
    with pytest.raises(KeyError) as exc:
        encode_corpus(weights, {"d1": "w1 w2", "d2": "w3"}, vocab, batch_size=1)
    assert exc.value.args == (f"in the {share}",)
    assert len(forks) == _fork.fork_pays()
    no_child_left()


def test_index_from_vectors_matches_a_dict_built_matrix():
    rng = np.random.default_rng(5)
    reps = {"d05": SparseVector({})}
    for i in rng.permutation(12):
        tids = rng.choice(50, size=int(rng.integers(0, 9)), replace=False)  # unsorted
        reps.setdefault(f"d{i:02d}", SparseVector({int(t): float(rng.random()) + 0.01 for t in tids}))
    index = index_from_vectors(reps)
    doc_ids = sorted(reps)
    oracle = np.zeros((len(doc_ids), 1 + max(t for v in reps.values() for t, _ in v.items())))
    for r, d in enumerate(doc_ids):
        for t, w in reps[d].items():
            oracle[r, t] = w
    m = index.matrix
    assert index.doc_ids == doc_ids and index.kind == "impact"
    assert m.shape == oracle.shape and m.dtype == np.float64
    assert m.toarray().tobytes() == oracle.tobytes()
    assert m.nnz == np.count_nonzero(oracle) and (m.data > 0).all()
    for r in range(len(doc_ids)):  # canonical rows: term ids strictly ascending
        assert (np.diff(m.indices[m.indptr[r]:m.indptr[r + 1]]) > 0).all()
    assert index.doc_lengths == {d: v.l0() for d, v in reps.items()}


def test_random_corpora_match_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n_docs = int(rng.integers(1, 60))
        V = int(rng.integers(5, 30))
        reps = {}
        for i in range(n_docs):
            nnz = int(rng.integers(0, 6))
            vec = {int(t): float(rng.integers(1, 9)) for t in rng.integers(0, V, size=nnz)}
            reps[f"d{i:03d}"] = SparseVector(vec)
        index = index_from_vectors(reps)
        qnnz = int(rng.integers(1, 5))
        q = SparseVector({int(t): float(rng.integers(1, 5)) for t in rng.integers(0, V, size=qnnz)})
        cutoff = int(rng.integers(1, 15))
        got = retrieve_sparse(index, q, cutoff).entries
        want = brute_force_sparse(reps, q, cutoff)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) < 1e-9


def test_sparse_batch_keeps_each_querys_bytes():
    # float weights whose sums round: one product for many queries adds each
    # score's terms in the order one query's product does
    rng = np.random.default_rng(7)
    reps = {f"d{i:03d}": SparseVector({int(t): float(rng.uniform(0.01, 3.0))
                                       for t in rng.choice(300, size=40, replace=False)})
            for i in range(120)}
    index = index_from_vectors(reps)
    queries = {f"q{i}": SparseVector({int(t): float(rng.uniform(0.01, 2.0))
                                      for t in rng.choice(320, size=int(rng.integers(0, 60)),
                                                          replace=False)})
               for i in range(300)}  # more than one block
    got = retrieve_sparse_batch(index, queries, 50)
    assert list(got) == list(queries)
    for qid, q in queries.items():
        assert got[qid] == retrieve_sparse(index, q, 50, query_id=qid)
    with pytest.raises(ValueError, match="impact index"):
        retrieve_sparse_batch(build_frequency_index({"a": "x"}, Vocabulary(["x"])), queries, 5)


def test_top_k_entries_match_the_full_sort_under_heavy_ties():
    rng = np.random.default_rng(19)
    cut_ties = 0  # cases whose cutoff splits docs tied at the cutoff-th score
    for trial in range(30):
        n_docs, V = int(rng.integers(2, 50)), int(rng.integers(3, 10))
        reps, docs = {}, {}
        for i in range(n_docs):
            tids = rng.choice(V, size=int(rng.integers(0, 4)), replace=False)
            reps[f"d{i:02d}"] = SparseVector({int(t): float(rng.integers(1, 3)) for t in tids})
            docs[f"d{i:02d}"] = " ".join(f"w{t}" for t in rng.integers(0, V, size=int(rng.integers(1, 5))))
        impact = index_from_vectors(reps)
        freq = build_frequency_index(docs, build_vocabulary([docs.values()], max_size=100))
        for index, matrix in ((impact, impact.matrix), (freq, freq.matrix), (freq, freq._bm25)):
            width = matrix.shape[1]
            queries = [np.arange(0), np.arange(width, width + 3)]  # nothing to match, all past the end
            queries += [np.unique(rng.integers(0, width + 3, size=int(rng.integers(1, 6))))
                        for _ in range(3)]
            batch = {}
            for i, tids in enumerate(queries):
                vals = rng.integers(1, 3, size=len(tids)).astype(np.float64)
                batch[f"q{i}"] = SparseVector.from_arrays(tids, vals)
                ranked = reference_top_k(index, matrix, tids, vals, n_docs, "").entries
                n = len(ranked)
                for cutoff in sorted({1, max(n - 1, 1), n + 1, int(rng.integers(1, n_docs + 1))}):
                    got = index_module._top_k(index, matrix, tids, vals, cutoff, "q")
                    want = reference_top_k(index, matrix, tids, vals, cutoff, "q")
                    assert got.query_id == "q" and got.entries == want.entries
                    assert all(type(d) is str and type(s) is float for d, s in got.entries)
                    cut_ties += cutoff < n and ranked[cutoff - 1][1] == ranked[cutoff][1]
            if index is impact:  # all queries in one product rank as each does alone
                cutoff = int(rng.integers(1, n_docs + 1))
                got = retrieve_sparse_batch(index, batch, cutoff)
                assert list(got) == list(batch)
                for qid, q in batch.items():
                    assert got[qid] == reference_top_k(index, matrix, q.tids, q.vals, cutoff, qid)
    assert cut_ties >= 50


# ---------------------------------------------------------------- frequency kind


def test_bm25_idf_single_point():
    # N=2, df=1: ln(1 + 1.5/1.5) = ln 2
    assert abs(bm25_idf(2, 1) - math.log(2.0)) < 1e-12
    # df == N stays non-negative
    assert bm25_idf(5, 5) > 0.0


def test_bm25_weights_keep_the_bits_of_one_idf_per_term():
    rng = np.random.default_rng(3)
    docs = {f"d{i:03d}": " ".join(f"w{int(t)}" for t in rng.zipf(1.5, size=int(rng.integers(1, 30))))
            for i in range(100)}
    for d in ("d000", "d001"):  # at N = 100, np.log misses math.log by one ulp at df = 2
        docs[d] += " pair"
    index = build_frequency_index(docs, build_vocabulary([docs.values()], max_size=500))
    m = index.matrix
    assert len(set(index._dfs.tolist())) < m.shape[1]  # repeated dfs share one idf
    idf = np.array([bm25_idf(index.n_docs, df) for df in index._dfs.tolist()])
    lengths = np.array([index.doc_lengths[d] for d in index.doc_ids], dtype=np.float64)
    dl, tf = np.repeat(lengths, np.diff(m.indptr)), m.data
    tf_part = tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / index.avgdl))
    got = index._bm25
    assert got.shape == m.shape
    assert (got.indptr == m.indptr).all() and (got.indices == m.indices).all()
    assert got.data.tobytes() == (idf[m.indices] * tf_part).tobytes()


def test_bm25_hand_checked_score():
    # one matching doc at average length with tf=1: idf * 1.9/1.9 = ln 2
    vocab = Vocabulary(["cat", "dog", "fox", "owl"])
    docs = {"d1": "cat dog", "d2": "fox owl"}
    index = build_frequency_index(docs, vocab)
    out = retrieve_bm25(index, "cat", vocab, cutoff=5)
    assert out.doc_ids() == ["d1"]
    assert abs(out.entries[0][1] - math.log(2.0)) < 1e-9


def test_bm25_repeated_query_terms_scale_by_count():
    vocab = Vocabulary(["cat", "dog", "owl"])
    docs = {"d1": "cat dog", "d2": "dog owl"}
    index = build_frequency_index(docs, vocab)
    once = retrieve_bm25(index, "cat", vocab, cutoff=5).entries[0][1]
    twice = retrieve_bm25(index, "cat cat", vocab, cutoff=5).entries[0][1]
    assert abs(twice - 2 * once) < 1e-12


def test_bm25_unknown_query_terms_ignored():
    vocab = Vocabulary(["cat"])
    docs = {"d1": "cat cat", "d2": "cat"}
    index = build_frequency_index(docs, vocab)
    assert retrieve_bm25(index, "zebra", vocab, cutoff=5).entries == []
    with_unk = retrieve_bm25(index, "cat zebra", vocab, cutoff=5)
    alone = retrieve_bm25(index, "cat", vocab, cutoff=5)
    assert with_unk.entries == alone.entries


def test_bm25_matches_brute_force_random():
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(25)]
    for trial in range(20):
        n_docs = int(rng.integers(2, 40))
        docs = {}
        for i in range(n_docs):
            toks = [words[int(t)] for t in rng.integers(0, 25, size=int(rng.integers(1, 15)))]
            docs[f"d{i:02d}"] = " ".join(toks)
        vocab = build_vocabulary([docs.values()], max_size=100)
        index = build_frequency_index(docs, vocab)
        qtoks = [words[int(t)] for t in rng.integers(0, 25, size=int(rng.integers(1, 4)))]
        got = retrieve_bm25(index, " ".join(qtoks), vocab, cutoff=10).entries
        want = brute_force_bm25({d: t.split() for d, t in docs.items()}, qtoks, cutoff=10)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) < 1e-9


def test_kind_mismatch_rejected():
    vocab = Vocabulary(["cat"])
    freq = build_frequency_index({"d1": "cat"}, vocab)
    impact = index_from_vectors({"d1": SparseVector({5: 1.0})})
    with pytest.raises(ValueError):
        retrieve_sparse(freq, SparseVector({5: 1.0}), cutoff=1)
    with pytest.raises(ValueError):
        retrieve_bm25(impact, "cat", vocab, cutoff=1)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        index_from_vectors({})


def test_avgdl_invariant():
    vocab = Vocabulary(["a1", "b2", "c3"])
    docs = {"x": "a1 b2 c3", "y": "a1"}
    index = build_frequency_index(docs, vocab)
    assert index.avgdl == 2.0
    assert index.doc_lengths == {"x": 3, "y": 1}


# ---------------------------------------------------------------- serialization


def test_index_round_trip_identical(tmp_path):
    rng = np.random.default_rng(9)
    reps = {f"doc-{i}": SparseVector({int(t): float(np.float32(rng.random() * 3))
                                      for t in rng.integers(0, 50, size=4)})
            for i in range(20)}
    index = index_from_vectors(reps)
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.kind == index.kind
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.avgdl == index.avgdl
    m, built = loaded.matrix, index.matrix
    assert m.shape == built.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(m, name), getattr(built, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert set(loaded.postings) == set(index.postings)
    for tid in index.postings:
        assert loaded.postings[tid] == index.postings[tid]
    # retrieval equivalence after reload
    q = SparseVector({int(t): 1.0 for t in rng.integers(0, 50, size=3)})
    assert retrieve_sparse(loaded, q, 10).entries == retrieve_sparse(index, q, 10).entries


def test_index_corruption_detected(tmp_path):
    index = index_from_vectors({"a": SparseVector({1: 1.0})})
    save_index(index, tmp_path / "idx")
    p = tmp_path / "idx" / "postings.bin"
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_index(tmp_path / "idx")


def test_frequency_round_trip(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    index = build_frequency_index({"d1": "cat dog cat", "d2": "dog"}, vocab)
    save_index(index, tmp_path / "fidx")
    loaded = load_index(tmp_path / "fidx")
    assert loaded.postings == index.postings
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.avgdl == index.avgdl
    a = retrieve_bm25(index, "cat dog", vocab, cutoff=5).entries
    b = retrieve_bm25(loaded, "cat dog", vocab, cutoff=5).entries
    assert a == b


def expected_payloads(doc_lengths, rows):
    """docstore.bin and postings.bin packed one field at a time with struct,
    from doc_id -> length and doc_id -> [(term id, weight)] (docs without
    terms may be left out of rows)."""
    doc_ids = sorted(doc_lengths)
    store = struct.pack("<I", len(doc_ids))
    for doc_id in doc_ids:
        raw = doc_id.encode("utf-8")
        store += struct.pack("<H", len(raw)) + raw + struct.pack("<I", doc_lengths[doc_id])
    postings = [p for d in doc_ids for p in rows.get(d, [])]
    post, end = struct.pack("<I", 0), 0
    for doc_id in doc_ids:
        end += len(rows.get(doc_id, []))
        post += struct.pack("<I", end)
    for tid, _ in postings:
        post += struct.pack("<I", tid)
    for _, weight in postings:
        post += struct.pack("<f", weight)
    return store, post


def assert_saved_bytes(path, store, post):
    assert (path / "docstore.bin").read_bytes() == store
    assert (path / "postings.bin").read_bytes() == post
    meta = json.loads((path / "meta.json").read_text())
    assert meta["schema_version"] == 4
    assert meta["docstore_checksum"] == fnv1a64(store)
    assert meta["postings_checksum"] == fnv1a64(post)
    load_index(path)  # empty rows, inside or at the end, load too


def test_impact_index_bytes_on_disk(tmp_path):
    # weights that float32 rounds, one that it holds exactly, and a term (7)
    # with a single posting; doc "é-c" has no terms and a two-byte UTF-8 id
    reps = {"b": SparseVector({3: 0.1, 7: 2.5, 12: 1e-3}),
            "a": SparseVector({3: 1.0 / 3.0, 12: 7.25}),
            "é-c": SparseVector({})}
    save_index(index_from_vectors(reps), tmp_path / "idx")
    store, post = expected_payloads(
        {"a": 2, "b": 3, "é-c": 0},
        {"a": [(3, 1.0 / 3.0), (12, 7.25)], "b": [(3, 0.1), (7, 2.5), (12, 1e-3)]})
    assert_saved_bytes(tmp_path / "idx", store, post)


def test_frequency_index_bytes_on_disk(tmp_path):
    # d2 holds no vocabulary term: it is in the docstore with an empty row
    vocab = Vocabulary(["cat", "dog", "owl"])
    docs = {"d3": "owl cat owl owl", "d1": "cat dog cat", "d2": "zebra yak"}
    save_index(build_frequency_index(docs, vocab), tmp_path / "fidx")
    cat, dog, owl = (vocab.id_of(w) for w in ("cat", "dog", "owl"))
    assert cat < dog < owl
    store, post = expected_payloads(
        {"d1": 3, "d2": 2, "d3": 4},
        {"d1": [(cat, 2.0), (dog, 1.0)], "d3": [(cat, 1.0), (owl, 3.0)]})
    assert_saved_bytes(tmp_path / "fidx", store, post)


@pytest.mark.parametrize("schema", [1, 2, 3])
def test_schema_1_index_rejected_with_remedy(tmp_path, schema):
    save_index(index_from_vectors({"a": SparseVector({1: 1.0})}), tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["schema_version"] = schema
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as exc:
        load_index(tmp_path / "idx")
    msg = str(exc.value)
    assert str(meta_path) in msg and "schema_version" in msg
    assert "FNV-1a" in msg and "rebuild the index" in msg and "spladapt index" in msg


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.pop("kind"), "missing field 'kind'"),
    (lambda m: m.pop("n_docs"), "missing field 'n_docs'"),
    (lambda m: m.pop("postings_checksum"), "missing field 'postings_checksum'"),
    (lambda m: m.update(kind="dense"), "field 'kind'"),
    ("{not json", "not valid JSON"),
    ("3", "expected a JSON object"),
], ids=["no-kind", "no-n_docs", "no-checksum", "bad-kind", "not-json", "not-object"])
def test_malformed_meta_names_file_and_field(tmp_path, edit, field):
    save_index(index_from_vectors({"a": SparseVector({1: 1.0})}), tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    if isinstance(edit, str):
        meta_path.write_text(edit)
    else:
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as exc:
        load_index(tmp_path / "idx")
    assert str(meta_path) in str(exc.value) and field in str(exc.value)


@pytest.mark.parametrize("avgdl", [0, -1.0, 7.0], ids=["zero", "negative", "wrong"])
def test_meta_avgdl_that_disagrees_with_the_docstore_is_rejected(tmp_path, avgdl):
    # no checksum covers meta.json: an avgdl of 0 ranked nothing, -1
    # reordered results and 7 changed every score, all silently
    vocab = Vocabulary(["cat", "dog"])
    path = tmp_path / "fidx"
    save_index(build_frequency_index({"d1": "cat dog cat", "d2": "dog"}, vocab), path)
    assert load_index(path).avgdl == 2.0
    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["avgdl"] = avgdl
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as exc:
        load_index(path)
    assert str(meta_path) in str(exc.value) and "avgdl" in str(exc.value)


def write_postings(path, post):
    """Replace postings.bin and its checksum, so only the parser can object."""
    (path / "postings.bin").write_bytes(post)
    meta = json.loads((path / "meta.json").read_text())
    meta["postings_checksum"] = fnv1a64(post)
    (path / "meta.json").write_text(json.dumps(meta))


def _two_doc_index(path):
    """Docs a {1: 1.0} and b {1: 2.0, 2: 3.0} saved at path; returns the
    postings.bin payload a loader accepts, checked against the saved bytes."""
    save_index(index_from_vectors({"a": SparseVector({1: 1.0}),
                                   "b": SparseVector({1: 2.0, 2: 3.0})}), path)
    _, good = expected_payloads({"a": 1, "b": 2}, {"a": [(1, 1.0)], "b": [(1, 2.0), (2, 3.0)]})
    assert (path / "postings.bin").read_bytes() == good
    return good


def test_postings_that_overrun_the_file_are_rejected(tmp_path):
    path = tmp_path / "idx"
    good = _two_doc_index(path)
    ptrs, arrays = good[:12], good[12:]  # row pointers 0, 1, 3; then term ids, then weights
    for post, message in (
        # truncated arrays, and bytes after the weights
        (good[:6], "postings.bin: 6 bytes cut the row pointers .* at doc 'a'"),
        (good[:8], "postings.bin: 8 bytes cut the row pointers .* at doc 'b'"),
        (good[:14], "postings.bin: the row of doc 'a' ends past the 0 postings"),
        (good[:-4], "postings.bin: the row of doc 'b' ends past the 2 postings"),
        (good + b"\0" * 8, "postings.bin: the rows end at posting 3 with doc 'b'"),
        (good + b"\0", "postings.bin: the rows end at posting 3 with doc 'b'"),
        # row pointers that do not start at 0, that decrease, or that end past the data
        (struct.pack("<3I", 1, 1, 3) + arrays,
         "postings.bin: the row of doc 'a' starts at posting 1, not 0"),
        (struct.pack("<3I", 0, 2, 1) + arrays,
         "postings.bin: the row of doc 'b' ends before it starts"),
        (struct.pack("<3I", 0, 1, 4) + arrays,
         "postings.bin: the row of doc 'b' ends past the 3 postings"),
        # a term repeated or out of order within a doc; across docs terms start afresh
        (ptrs + struct.pack("<3I", 1, 2, 2) + arrays[12:],
         r"postings.bin: doc 'b', term 2 \(weight 3.0\) is repeated or out of order"),
        (ptrs + struct.pack("<3I", 1, 2, 1) + arrays[12:],
         r"postings.bin: doc 'b', term 1 \(weight 3.0\) is repeated or out of order"),
    ):
        write_postings(path, post)
        with pytest.raises(ValueError, match=message):
            load_index(path)


def test_postings_naming_a_doc_past_the_docstore_are_rejected(tmp_path):
    path = tmp_path / "idx"
    _two_doc_index(path)
    lengths = {"a": 1, "b": 2, "c": 1}
    for rows, message in (
        # more rows than the docstore holds, the extra one empty or not
        ({"a": [(1, 1.0)], "b": [(1, 2.0), (2, 3.0)], "c": [(5, 1.0)]},
         "postings.bin: the rows end at posting 3 with doc 'b'"),
        ({"a": [(1, 1.0)], "b": [(1, 2.0), (2, 3.0)], "c": []},
         "postings.bin: the rows end at posting 3 with doc 'b'"),
        # fewer rows: the first term id is read as doc b's end
        ({"a": [(1, 1.0), (2, 3.0)]}, "postings.bin: the row of doc 'b' ends before it starts"),
        ({"a": [(1, 1.0)]}, "postings.bin: the row of doc 'a' ends past the 0 postings"),
    ):
        _, post = expected_payloads({d: lengths[d] for d in rows}, rows)
        write_postings(path, post)
        with pytest.raises(ValueError, match=message):
            load_index(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_postings_with_a_weight_that_is_not_finite_and_positive_are_rejected(tmp_path, bad):
    # schema 2 loaded these, and a NaN score then ranked
    path = tmp_path / "idx"
    _two_doc_index(path)
    _, post = expected_payloads({"a": 1, "b": 2}, {"a": [(1, 1.0)], "b": [(1, 2.0), (2, bad)]})
    write_postings(path, post)
    with pytest.raises(ValueError, match="postings.bin: doc 'b', term 2 .* not finite and pos"):
        load_index(path)


@pytest.mark.parametrize("weight", [1e-50, 1e39], ids=["underflow", "overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_weights_that_float32_cannot_hold_are_not_saved(tmp_path, weight):
    # float32 makes them 0 and inf, which load_index would refuse
    with pytest.raises(ValueError, match="postings.bin: a weight is not finite and positive"):
        save_index(index_from_vectors({"a": SparseVector({1: weight})}), tmp_path / "idx")


def test_malformed_docstore_is_rejected(tmp_path):
    path = tmp_path / "idx"
    save_index(index_from_vectors({"a": SparseVector({1: 1.0}), "b": SparseVector({2: 3.0})}), path)
    good = (path / "docstore.bin").read_bytes()
    unsorted = struct.pack("<I", 2) + b"".join(struct.pack("<H", 1) + d + struct.pack("<I", 1)
                                               for d in (b"b", b"a"))
    for store in (good[:-2], good + b"\0", unsorted):
        (path / "docstore.bin").write_bytes(store)
        meta = json.loads((path / "meta.json").read_text())
        meta["docstore_checksum"] = fnv1a64(store)
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="docstore.bin"):
            load_index(path)
