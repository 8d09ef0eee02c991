"""Index construction, exact retrieval vs brute force, BM25 oracles,
and serialization round trips."""

import json
import math
import struct

import numpy as np
import pytest

import spladapt.index
from spladapt.index import (
    BM25_B, BM25_K1, bm25_idf, build_frequency_index,
    build_impact_index, encode_corpus, index_from_vectors, load_index,
    retrieve_bm25, retrieve_sparse, save_index,
)
from spladapt.experiment import encode_queries
from spladapt.model import ModelConfig, SparseVector, encode_sparse_batch, init_weights
from spladapt.params import fnv1a64
from spladapt.vocab import N_SPECIALS, PAD_ID, Vocabulary, build_vocabulary


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
    """Doc id -> dense encoder row, from the batches encode_corpus forms: docs
    in order, batch_size at a time, contentless docs dropped, each batch
    padded to its longest sequence."""
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
def test_encode_corpus_refuses_non_finite_encoder_rows_naming_the_text(bad, monkeypatch):
    cfg = ModelConfig(vocab_size=40, n_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_seq_len=12, k_domain_layers=1)
    weights = init_weights(cfg, seed=3)
    vocab = Vocabulary([f"w{i}" for i in range(35)])

    def poisoned(w, ids):  # every encoded row gets a non-finite weight for term 7
        out = encode_sparse_batch(w, ids)
        out.data[:, 7] = bad
        return out

    monkeypatch.setattr(spladapt.index, "encode_sparse_batch", poisoned)
    with pytest.raises(ValueError, match="'d1'"):
        encode_corpus(weights, {"d0": "unknown", "d1": "w1 w2", "d2": "w3"}, vocab)
    with pytest.raises(ValueError, match="'q9'"):
        encode_queries(weights, {"q9": "w4"}, vocab)


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


# ---------------------------------------------------------------- frequency kind


def test_bm25_idf_single_point():
    # N=2, df=1: ln(1 + 1.5/1.5) = ln 2
    assert abs(bm25_idf(2, 1) - math.log(2.0)) < 1e-12
    # df == N stays non-negative
    assert bm25_idf(5, 5) > 0.0


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


def expected_payloads(doc_lengths, postings):
    """docstore.bin and postings.bin packed one field at a time with struct,
    from doc_id -> length and term id -> [(doc position, weight)]."""
    store = struct.pack("<I", len(doc_lengths))
    for doc_id in sorted(doc_lengths):
        raw = doc_id.encode("utf-8")
        store += struct.pack("<H", len(raw)) + raw + struct.pack("<I", doc_lengths[doc_id])
    post = struct.pack("<I", len(postings))
    for tid in sorted(postings):
        post += struct.pack("<II", tid, len(postings[tid]))
        for pos, weight in postings[tid]:
            post += struct.pack("<If", pos, weight)
    return store, post


def assert_saved_bytes(path, store, post):
    assert (path / "docstore.bin").read_bytes() == store
    assert (path / "postings.bin").read_bytes() == post
    meta = json.loads((path / "meta.json").read_text())
    assert meta["docstore_checksum"] == fnv1a64(store)
    assert meta["postings_checksum"] == fnv1a64(post)


def test_impact_index_bytes_on_disk(tmp_path):
    # weights that float32 rounds, one that it holds exactly, and a term (7)
    # with a single posting; doc "é-c" has no terms and a two-byte UTF-8 id
    reps = {"b": SparseVector({3: 0.1, 7: 2.5, 12: 1e-3}),
            "a": SparseVector({3: 1.0 / 3.0, 12: 7.25}),
            "é-c": SparseVector({})}
    save_index(index_from_vectors(reps), tmp_path / "idx")
    store, post = expected_payloads(
        {"a": 2, "b": 3, "é-c": 0},
        {3: [(0, 1.0 / 3.0), (1, 0.1)], 7: [(1, 2.5)], 12: [(0, 7.25), (1, 1e-3)]})
    assert_saved_bytes(tmp_path / "idx", store, post)


def test_frequency_index_bytes_on_disk(tmp_path):
    # d2 holds no vocabulary term: it is in the docstore and in no posting list
    vocab = Vocabulary(["cat", "dog", "owl"])
    docs = {"d3": "owl cat owl owl", "d1": "cat dog cat", "d2": "zebra yak"}
    save_index(build_frequency_index(docs, vocab), tmp_path / "fidx")
    cat, dog, owl = (vocab.id_of(w) for w in ("cat", "dog", "owl"))
    store, post = expected_payloads(
        {"d1": 3, "d2": 2, "d3": 4},
        {cat: [(0, 2.0), (2, 1.0)], dog: [(0, 1.0)], owl: [(2, 3.0)]})
    assert_saved_bytes(tmp_path / "fidx", store, post)


def test_schema_1_index_rejected_with_remedy(tmp_path):
    save_index(index_from_vectors({"a": SparseVector({1: 1.0})}), tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["schema_version"] = 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as exc:
        load_index(tmp_path / "idx")
    msg = str(exc.value)
    assert str(meta_path) in msg and "schema_version" in msg
    assert "FNV-1a" in msg and "rebuild the index" in msg


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


def write_postings(path, post):
    """Replace postings.bin and its checksum, so only the parser can object."""
    (path / "postings.bin").write_bytes(post)
    meta = json.loads((path / "meta.json").read_text())
    meta["postings_checksum"] = fnv1a64(post)
    (path / "meta.json").write_text(json.dumps(meta))


def test_postings_that_overrun_the_file_are_rejected(tmp_path):
    path = tmp_path / "idx"
    save_index(index_from_vectors({"a": SparseVector({1: 1.0}),
                                   "b": SparseVector({1: 2.0, 2: 3.0})}), path)
    _, good = expected_payloads({"a": 1, "b": 2}, {1: [(0, 1.0), (1, 2.0)], 2: [(1, 3.0)]})
    assert (path / "postings.bin").read_bytes() == good
    term1, term2 = good[4:28], good[28:]
    for post, message in (
        (good[:-4], "postings.bin"),                                  # last record cut
        (good[:-12], "postings.bin"),                                 # last header cut
        (good[:-16] + struct.pack("<II", 2, 5) + good[-8:], "postings.bin"),  # count of 5, 1 record
        (struct.pack("<I", 3) + good[4:], "postings.bin"),            # 3 terms, 2 present
        (good + b"\0" * 8, "postings.bin"),                           # bytes after the last term
        # out of order: a repeated term used to replace the earlier list, and
        # a repeated doc position to load as two postings
        (good[:28] + struct.pack("<II", 1, 1) + good[-8:], "postings.bin: term 1 "),  # term 1 twice
        (good[:4] + term2 + term1, "postings.bin: term 1 "),           # terms descending
        (good[:12] + good[20:28] + good[12:20] + term2, "postings.bin: term 1 "),  # positions descending
        (good[:28] + struct.pack("<II", 2, 2) + good[-8:] * 2, "postings.bin: term 2 "),  # position repeated
    ):
        write_postings(path, post)
        with pytest.raises(ValueError, match=message):
            load_index(path)


def test_postings_naming_a_doc_past_the_docstore_are_rejected(tmp_path):
    path = tmp_path / "idx"
    save_index(index_from_vectors({"a": SparseVector({1: 1.0}), "b": SparseVector({2: 3.0})}), path)
    _, post = expected_payloads({"a": 1, "b": 1}, {1: [(0, 1.0)], 2: [(2, 3.0)]})
    write_postings(path, post)
    with pytest.raises(ValueError, match="postings.bin.*doc position past"):
        load_index(path)


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
