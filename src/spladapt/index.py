"""Inverted index, exact top-k sparse retrieval, and BM25.

Two index kinds share one container:
    impact     postings carry learned sparse representation weights; scoring
               is the inner product with a sparse query vector.
    frequency  postings carry raw term counts; scoring is BM25.

Ranking everywhere is (score descending, doc id ascending). Top-k is exact:
every scored document is considered, no approximation.

On disk an index is a directory {meta.json, postings.bin, docstore.bin};
binary payloads are little-endian with doc ids referenced by position in the
docstore, and meta.json (schema 2) holds their blake2b-64 checksums.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import EncoderWeights, SparseVector, encode_sparse_batch, sparse_from_dense
from .params import fnv1a64
from .vocab import N_SPECIALS, PAD_ID, Vocabulary, tokenize

__all__ = [
    "INDEX_KINDS", "BM25_K1", "BM25_B",
    "InvertedIndex", "build_impact_index", "build_frequency_index",
    "save_index", "load_index",
    "RankedList", "retrieve_sparse", "retrieve_bm25", "bm25_idf",
    "encode_corpus",
]

INDEX_KINDS = ("impact", "frequency")
BM25_K1 = 0.9
BM25_B = 0.4

_META_SCHEMA = 2
# one posting in postings.bin: doc position in the docstore, weight
_RECORD = np.dtype([("pos", "<u4"), ("w", "<f4")])


@dataclass
class RankedList:
    """Top documents for one query, best first."""

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]


@dataclass
class InvertedIndex:
    kind: str
    postings: dict[int, list[tuple[str, float]]]  # term id -> [(doc_id, weight)], doc_id ascending
    doc_lengths: dict[str, int]                   # content token count per doc
    avgdl: float
    # array view of the postings, filled by load_index or built on first
    # retrieval (derived, not saved)
    _doc_ids: list[str] | None = field(default=None, repr=False, compare=False)
    _arrays: dict | None = field(default=None, repr=False, compare=False)

    @property
    def n_docs(self) -> int:
        return len(self.doc_lengths)

    def df(self, term_id: int) -> int:
        return len(self.postings.get(term_id, ()))

    def posting_arrays(self) -> tuple[list[str], dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Postings as (doc position, weight) arrays over lexicographic doc
        order, so scoring loops run vectorized. Positions ascend within each
        term because posting lists are kept doc_id-sorted."""
        if self._arrays is None:
            doc_ids = sorted(self.doc_lengths)
            pos = {d: i for i, d in enumerate(doc_ids)}
            self._doc_ids = doc_ids
            self._arrays = {
                tid: (np.fromiter((pos[d] for d, _ in plist), np.int64, count=len(plist)),
                      np.fromiter((w for _, w in plist), np.float64, count=len(plist)))
                for tid, plist in self.postings.items()
            }
        return self._doc_ids, self._arrays


def _finalize(kind: str, postings: dict[int, list[tuple[str, float]]],
              doc_lengths: dict[str, int]) -> InvertedIndex:
    if not doc_lengths:
        raise ValueError("cannot build an index over an empty corpus")
    for tid in postings:
        postings[tid].sort(key=lambda e: e[0])
    avgdl = sum(doc_lengths.values()) / len(doc_lengths)
    return InvertedIndex(kind=kind, postings=dict(postings), doc_lengths=doc_lengths, avgdl=avgdl)


def _content_lengths(docs: dict[str, str]) -> dict[str, int]:
    return {doc_id: len(tokenize(text)) for doc_id, text in docs.items()}


def encode_corpus(weights: EncoderWeights, docs: dict[str, str], vocab: Vocabulary,
                  batch_size: int = 32) -> dict[str, SparseVector]:
    """Sparse representations for every doc, batched for throughput. Docs
    whose text has no content tokens are represented as empty vectors."""
    reps: dict[str, SparseVector] = {}
    items = list(docs.items())
    cfg = weights.config
    for start in range(0, len(items), batch_size):
        chunk = items[start: start + batch_size]
        seqs = [vocab.encode(text, cfg.max_seq_len) for _, text in chunk]
        keep = [i for i, s in enumerate(seqs) if (s >= N_SPECIALS).any()]
        for i, (doc_id, _) in enumerate(chunk):
            if i not in keep:
                reps[doc_id] = SparseVector({})
        if not keep:
            continue
        S = max(len(seqs[i]) for i in keep)
        ids = np.full((len(keep), S), PAD_ID, dtype=np.int64)
        for row, i in enumerate(keep):
            ids[row, : len(seqs[i])] = seqs[i]
        dense = encode_sparse_batch(weights, ids).data
        for row, i in enumerate(keep):
            reps[chunk[i][0]] = sparse_from_dense(dense[row])
    return reps


def build_impact_index(docs: dict[str, str], weights: EncoderWeights,
                       vocab: Vocabulary, batch_size: int = 32) -> InvertedIndex:
    """Index learned representation weights; zero-weight terms never appear."""
    reps = encode_corpus(weights, docs, vocab, batch_size=batch_size)
    return index_from_vectors(reps, _content_lengths(docs))


def index_from_vectors(reps: dict[str, SparseVector],
                       doc_lengths: dict[str, int] | None = None) -> InvertedIndex:
    """Impact index straight from precomputed sparse vectors."""
    postings: dict[int, list[tuple[str, float]]] = defaultdict(list)
    lengths = doc_lengths if doc_lengths is not None else {d: v.l0() for d, v in reps.items()}
    if set(lengths) != set(reps):
        raise ValueError("doc_lengths and representations name different docs")
    for doc_id, vec in reps.items():
        for tid, val in vec.items():
            postings[tid].append((doc_id, val))
    return _finalize("impact", postings, dict(lengths))


def build_frequency_index(docs: dict[str, str], vocab: Vocabulary) -> InvertedIndex:
    """Index raw term counts over vocabulary terms (unknown terms are dropped:
    they can never match a query through the shared vocabulary)."""
    postings: dict[int, list[tuple[str, float]]] = defaultdict(list)
    lengths: dict[str, int] = {}
    for doc_id, text in docs.items():
        tokens = tokenize(text)
        lengths[doc_id] = len(tokens)
        counts = Counter(vocab.id_of(t) for t in tokens)
        counts.pop(1, None)  # UNK
        for tid, tf in counts.items():
            postings[tid].append((doc_id, float(tf)))
    return _finalize("frequency", postings, lengths)


# ---------------------------------------------------------------- retrieval


def _rank(scores: dict[str, float], query_id: str, cutoff: int) -> RankedList:
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:cutoff]
    return RankedList(query_id=query_id, entries=[(d, float(s)) for d, s in ordered])


def retrieve_sparse(index: InvertedIndex, query: SparseVector, cutoff: int,
                    query_id: str = "") -> RankedList:
    """Exact inner-product top-k via term-at-a-time accumulation.

    Accumulates per-term contributions into a dense score array; only touched
    docs are candidates (weights are strictly positive, so touched means
    nonzero). Ties break by ascending doc_id, which is ascending position.
    """
    if index.kind != "impact":
        raise ValueError(f"sparse retrieval needs an impact index, got {index.kind!r}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    doc_ids, arrays = index.posting_arrays()
    scores = np.zeros(len(doc_ids))
    for tid, qval in query.items():
        hit = arrays.get(tid)
        if hit is not None:
            idx, dvals = hit
            scores[idx] += qval * dvals
    cand = np.flatnonzero(scores)
    order = np.lexsort((cand, -scores[cand]))[:cutoff]
    return RankedList(query_id=query_id,
                      entries=[(doc_ids[cand[i]], float(scores[cand[i]])) for i in order])


def bm25_idf(n_docs: int, df: int) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for df <= N."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def retrieve_bm25(index: InvertedIndex, query_text: str, vocab: Vocabulary, cutoff: int,
                  query_id: str = "", k1: float = BM25_K1, b: float = BM25_B) -> RankedList:
    """BM25 over a frequency index; repeated query terms weight by their count."""
    if index.kind != "frequency":
        raise ValueError(f"bm25 needs a frequency index, got {index.kind!r}")
    qcounts = Counter(vocab.id_of(t) for t in tokenize(query_text))
    qcounts.pop(1, None)  # UNK matches nothing
    scores: dict[str, float] = defaultdict(float)
    N = index.n_docs
    avgdl = index.avgdl
    for tid, qtf in qcounts.items():
        plist = index.postings.get(tid)
        if not plist:
            continue
        idf = bm25_idf(N, len(plist))
        for doc_id, tf in plist:
            dl = index.doc_lengths[doc_id]
            tf_part = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
            scores[doc_id] += qtf * idf * tf_part
    return _rank(scores, query_id, cutoff)


# ---------------------------------------------------------------- serialization


def save_index(index: InvertedIndex, path: str | Path) -> Path:
    """Directory {meta.json, postings.bin, docstore.bin}; round-trips bit-exactly."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    doc_ids = sorted(index.doc_lengths)
    doc_pos = {d: i for i, d in enumerate(doc_ids)}

    store = [struct.pack("<I", len(doc_ids))]
    for d in doc_ids:
        raw = d.encode("utf-8")
        store += (struct.pack("<H", len(raw)), raw, struct.pack("<I", index.doc_lengths[d]))

    post = [struct.pack("<I", len(index.postings))]
    for tid in sorted(index.postings):
        plist = index.postings[tid]
        recs = np.empty(len(plist), _RECORD)
        recs["pos"] = [doc_pos[d] for d, _ in plist]
        recs["w"] = [w for _, w in plist]
        post += (struct.pack("<II", tid, len(plist)), recs.tobytes())

    payloads = {"postings.bin": b"".join(post), "docstore.bin": b"".join(store)}
    meta = {
        "schema_version": _META_SCHEMA,
        "kind": index.kind,
        "n_docs": index.n_docs,
        "avgdl": index.avgdl,
        "postings_checksum": fnv1a64(payloads["postings.bin"]),
        "docstore_checksum": fnv1a64(payloads["docstore.bin"]),
    }
    payloads["meta.json"] = json.dumps(meta, indent=1).encode("utf-8")
    for name, payload in payloads.items():  # meta.json last, after the payloads it checks
        tmp = path / (name + ".tmp")
        tmp.write_bytes(payload)
        tmp.replace(path / name)
    return path


def load_index(path: str | Path) -> InvertedIndex:
    """Read and verify an index directory. The posting_arrays view is filled
    from the records as they are read, so the first query does not rebuild it."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if meta.get("schema_version") != _META_SCHEMA:
        raise ValueError(f"{meta_path}: schema_version {meta.get('schema_version')!r} is not "
                         f"{_META_SCHEMA}; v1 used FNV-1a checksums, so rebuild the index "
                         f"(spladapt index)")
    if meta["kind"] not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {meta['kind']!r}")
    store = (path / "docstore.bin").read_bytes()
    post = (path / "postings.bin").read_bytes()
    if fnv1a64(store) != meta["docstore_checksum"]:
        raise ValueError(f"{path}: docstore.bin checksum mismatch")
    if fnv1a64(post) != meta["postings_checksum"]:
        raise ValueError(f"{path}: postings.bin checksum mismatch")

    doc_lengths: dict[str, int] = {}
    try:
        (n_docs,) = struct.unpack_from("<I", store, 0)
        off = 4
        for _ in range(n_docs):
            (ln,) = struct.unpack_from("<H", store, off)
            doc_id = store[off + 2: off + 2 + ln].decode("utf-8")
            (doc_lengths[doc_id],) = struct.unpack_from("<I", store, off + 2 + ln)
            off += 6 + ln
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path / 'docstore.bin'}: malformed: {exc}") from None
    # positions index the sorted doc ids, as posting_arrays() numbers them
    doc_ids = list(doc_lengths)
    if doc_ids != sorted(doc_ids) or len(doc_ids) != n_docs or off != len(store):
        raise ValueError(f"{path / 'docstore.bin'}: doc ids are not unique and ascending, "
                         f"or bytes follow the last doc")
    if n_docs != meta["n_docs"]:
        raise ValueError(f"{path}: docstore holds {n_docs} docs, meta says {meta['n_docs']}")

    try:
        (n_terms,) = struct.unpack_from("<I", post, 0)
        # after the term count: 8-byte cells, each term's (tid, n) header then its n records
        cells = np.frombuffer(post, _RECORD, offset=4)
        spans, i = [], 0
        for _ in range(n_terms):
            tid, n = struct.unpack_from("<II", post, 4 + 8 * i)
            spans.append((tid, i + 1, i + 1 + n))
            i += 1 + n
    except (struct.error, ValueError) as exc:  # ValueError: np.frombuffer of a ragged tail
        raise ValueError(f"{path / 'postings.bin'}: term records overrun the file: {exc}") from None
    if i != len(cells):
        raise ValueError(f"{path / 'postings.bin'}: {n_terms} terms fill {i} of its "
                         f"{len(cells)} records")
    # each term's arrays are slices of one array per field: measured faster to
    # score than arrays allocated one by one between the posting tuples
    pos, w = cells["pos"].astype(np.int64), cells["w"].astype(np.float64)
    pos_list, w_list = pos.tolist(), w.tolist()
    postings: dict[int, list[tuple[str, float]]] = {}
    arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    try:
        for tid, lo, hi in spans:
            postings[tid] = list(zip(map(doc_ids.__getitem__, pos_list[lo:hi]), w_list[lo:hi]))
            arrays[tid] = (pos[lo:hi], w[lo:hi])
    except IndexError:
        raise ValueError(f"{path / 'postings.bin'}: term {tid} names a doc position past "
                         f"the {n_docs} docs of docstore.bin") from None

    return InvertedIndex(kind=meta["kind"], postings=postings, doc_lengths=doc_lengths,
                         avgdl=meta["avgdl"], _doc_ids=doc_ids, _arrays=arrays)
