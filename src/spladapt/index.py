"""Inverted index, exact top-k sparse retrieval, and BM25.

An index is one docs x terms matrix (scipy.sparse CSR, float64), rows in
ascending doc id order, column t for term id t, concatenated from each doc's
(term ids, values) arrays with no loop per posting. Two index kinds share it:
    impact     entries are the learned weights of each doc's SparseVector;
               scoring is the inner product with a query's SparseVector.
    frequency  entries are raw term counts. BM25 is the same product of the
               query's term counts with idf x saturated-tf weights, derived
               once from the counts, doc lengths and avgdl with the
               constants k1 = BM25_K1 = 0.9 and b = BM25_B = 0.4.

encode_corpus sorts the docs with content tokens by length and batches
them, so each batch packs into few length blocks; where a forked worker
gets a core of its own (_fork.fork_pays), it encodes every other batch. A
doc's vector does not depend on its batch-mates, since the encoder packs a
batch without padding, so neither choice moves a byte.

Ranking everywhere is (score descending, doc id ascending). Top-k is exact:
every document with a nonzero score is considered, no approximation. Beyond
cutoff scoring docs, a partition bounds the sort to those scoring at least
the cutoff-th best score, ties at that score included, so the rule holds at
the cutoff too.

On disk an index is a directory {meta.json, postings.bin, docstore.bin}.
postings.bin is the matrix's own CSR arrays, little-endian, one row per
docstore doc in order: row pointers (n_docs + 1 uint32, from 0), then term
ids (nnz uint32, strictly ascending within a doc), then weights (nnz
float32, finite and positive), nnz being the last row pointer. meta.json
(schema 4) holds the checksums (params.fnv1a64: SHA-256, 16 hex digits) of
both payloads, each hashed once on save and once on load.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._fork import forked
from .model import EncoderWeights, SparseVector, encode_sparse_batch
from .params import _read_json, _require, _write_atomic, fnv1a64
from .vocab import N_SPECIALS, UNK_ID, Vocabulary, tokenize

__all__ = [
    "INDEX_KINDS", "BM25_K1", "BM25_B",
    "InvertedIndex", "build_impact_index", "build_frequency_index",
    "save_index", "load_index",
    "RankedList", "retrieve_sparse", "retrieve_sparse_batch", "retrieve_bm25", "bm25_idf",
    "encode_corpus",
]

INDEX_KINDS = ("impact", "frequency")
BM25_K1 = 0.9
BM25_B = 0.4

_META_SCHEMA = 4
_QUERY_BLOCK = 128  # queries per sparse product: bounds its dense operands


@dataclass
class RankedList:
    """Top documents for one query, best first."""

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]


@dataclass(eq=False)
class InvertedIndex:
    kind: str
    matrix: sp.csr_array          # docs (ascending doc id) x (max term id + 1), float64
    doc_lengths: dict[str, int]   # content token count per doc
    avgdl: float

    @property
    def n_docs(self) -> int:
        return len(self.doc_lengths)

    @cached_property
    def doc_ids(self) -> list[str]:
        """Doc id of each matrix row."""
        return sorted(self.doc_lengths)

    @cached_property
    def _dfs(self) -> np.ndarray:
        return np.bincount(self.matrix.indices, minlength=self.matrix.shape[1])

    def df(self, term_id: int) -> int:
        return int(self._dfs[term_id]) if term_id < len(self._dfs) else 0

    @cached_property
    def postings(self) -> dict[int, list[tuple[str, float]]]:
        """Term id -> [(doc_id, weight)], doc_id ascending: a view derived
        from the matrix on first read, for inspection; retrieval never reads it."""
        csc = self.matrix.tocsc()
        bounds, docs, vals = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
        return {tid: [(self.doc_ids[r], v) for r, v in zip(docs[lo:hi], vals[lo:hi])]
                for tid, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo}

    @cached_property
    def _bm25(self) -> sp.csr_array:
        """BM25 weight of every stored count: idf x saturated term frequency."""
        m = self.matrix
        dfs, of_term = np.unique(self._dfs, return_inverse=True)  # bm25_idf once per distinct df
        idf = np.array([bm25_idf(self.n_docs, df) for df in dfs.tolist()])[of_term]
        lengths = np.array([self.doc_lengths[d] for d in self.doc_ids], dtype=np.float64)
        dl, tf = np.repeat(lengths, np.diff(m.indptr)), m.data
        tf_part = tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / self.avgdl))
        return sp.csr_array((idf[m.indices] * tf_part, m.indices, m.indptr), shape=m.shape)


def _index(kind: str, rows: dict[str, tuple], doc_lengths: dict[str, int]) -> InvertedIndex:
    """Index over doc id -> (distinct term ids, float64 values); doc_lengths names every doc."""
    if not doc_lengths:
        raise ValueError("cannot build an index over an empty corpus")
    doc_ids = sorted(doc_lengths)
    indptr = np.cumsum([0] + [len(rows[d][0]) for d in doc_ids])
    tids = np.concatenate([rows[d][0] for d in doc_ids])
    vals = np.concatenate([rows[d][1] for d in doc_ids])
    matrix = sp.csr_array((vals, tids, indptr), shape=(len(doc_ids), tids.max(initial=-1) + 1))
    matrix.sort_indices()
    avgdl = sum(doc_lengths.values()) / len(doc_lengths)
    return InvertedIndex(kind=kind, matrix=matrix, doc_lengths=dict(doc_lengths), avgdl=avgdl)


def encode_corpus(weights: EncoderWeights, docs: dict[str, str], vocab: Vocabulary,
                  batch_size: int = 32) -> dict[str, SparseVector]:
    """Each doc's strictly positive encoder row entries (empty without content
    tokens), in the order of docs; a non-finite row is refused, naming the
    first such doc in that order.

    The docs with content tokens are stably sorted by length and cut into
    the fewest batches of at most batch_size, equal in size to within one
    doc, so a batch packs into few length blocks. Where _fork.fork_pays(),
    a forked worker encodes every other batch while the caller encodes the
    rest; one batch runs inline. A doc encodes to the same bytes in any
    batch, so the vectors do not depend on either choice.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    seqs = {d: vocab.encode(text, weights.config.max_seq_len) for d, text in docs.items()}
    reps: dict[str, SparseVector | None] = dict.fromkeys(seqs, SparseVector())
    items = sorted(((d, s) for d, s in seqs.items() if (s >= N_SPECIALS).any()),
                   key=lambda item: len(item[1]))
    n = -(-len(items) // batch_size)  # the fewest batches of at most batch_size
    batches = [items[len(items) * i // n: len(items) * (i + 1) // n] for i in range(n)]
    share = (_encode_batch(weights, batch) for batch in batches[1::2])
    with forked(share) if len(batches) > 1 else nullcontext() as from_worker:
        for i, batch in enumerate(batches):
            reps.update(from_worker() if i % 2 else _encode_batch(weights, batch))
    bad = next((doc_id for doc_id, vec in reps.items() if vec is None), None)
    if bad is not None:
        raise ValueError(f"encoder row of {bad!r} holds a non-finite weight")
    return reps


def _encode_batch(weights: EncoderWeights,
                  batch: list[tuple[str, np.ndarray]]) -> list[tuple[str, SparseVector | None]]:
    """(doc id, vector) for each (doc id, token ids) of one batch, with None
    for a doc whose encoder row is not finite."""
    rows = encode_sparse_batch(weights, [seq for _, seq in batch]).data
    out = []
    for (doc_id, _), row, finite in zip(batch, rows, np.isfinite(rows).all(axis=1)):
        tids = np.flatnonzero(row > 0)
        out.append((doc_id, SparseVector.from_arrays(tids, row[tids].astype(np.float64))
                    if finite else None))
    return out


def build_impact_index(docs: dict[str, str], weights: EncoderWeights,
                       vocab: Vocabulary, batch_size: int = 32) -> InvertedIndex:
    """Index learned representation weights; zero-weight terms never appear."""
    reps = encode_corpus(weights, docs, vocab, batch_size=batch_size)
    return index_from_vectors(reps, {d: len(tokenize(text)) for d, text in docs.items()})


def index_from_vectors(reps: dict[str, SparseVector],
                       doc_lengths: dict[str, int] | None = None) -> InvertedIndex:
    """Impact index straight from precomputed sparse vectors."""
    lengths = doc_lengths if doc_lengths is not None else {d: v.l0() for d, v in reps.items()}
    if set(lengths) != set(reps):
        raise ValueError("doc_lengths and representations name different docs")
    return _index("impact", {d: (v.tids, v.vals) for d, v in reps.items()}, lengths)


def build_frequency_index(docs: dict[str, str], vocab: Vocabulary) -> InvertedIndex:
    """Index raw term counts over vocabulary terms (unknown terms are dropped:
    they can never match a query through the shared vocabulary)."""
    tokens = {doc_id: tokenize(text) for doc_id, text in docs.items()}
    return _index("frequency", {d: _term_counts(toks, vocab) for d, toks in tokens.items()},
                  {d: len(toks) for d, toks in tokens.items()})


def _term_counts(tokens: list[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Distinct known term ids among tokens, and their float64 counts (UNK dropped)."""
    counts = Counter(vocab.id_of(t) for t in tokens)
    counts.pop(UNK_ID, None)
    return (np.fromiter(counts, np.int64, count=len(counts)),
            np.fromiter(counts.values(), np.float64, count=len(counts)))


# ---------------------------------------------------------------- retrieval


def _top_k(index: InvertedIndex, matrix: sp.csr_array, tids: np.ndarray, vals: np.ndarray,
           cutoff: int, query_id: str) -> RankedList:
    """Exact top-k of one sparse product: each doc scores the inner product
    of its matrix row with the query, distinct term ids tids weighted by vals
    (ids past the last column match nothing)."""
    q = np.zeros(matrix.shape[1])
    keep = tids < len(q)
    q[tids[keep]] = vals[keep]
    return _ranked(index.doc_ids, matrix @ q, cutoff, query_id)


def _ranked(doc_ids: list[str], scores: np.ndarray, cutoff: int, query_id: str) -> RankedList:
    """The cutoff best docs by scores, one per matrix row. Only nonzero
    scores rank; ties break by ascending doc id, which is ascending row.

    When more docs score than cutoff, only those scoring at least the
    cutoff-th best score are sorted, found with np.partition; every doc tied
    at that score is kept, so the doc id still breaks the tie at the cutoff.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    cand = scores.nonzero()[0]
    if len(cand) > cutoff:  # >= keeps every tie with the cutoff-th best score
        best = scores[cand]
        cand = cand[best >= np.partition(best, -cutoff)[-cutoff]]
    top = cand[np.lexsort((cand, -scores[cand]))[:cutoff]]
    return RankedList(query_id=query_id,
                      entries=list(zip([doc_ids[i] for i in top.tolist()], scores[top].tolist())))


def retrieve_sparse(index: InvertedIndex, query: SparseVector, cutoff: int,
                    query_id: str = "") -> RankedList:
    """Exact inner-product top-k over the learned weights."""
    if index.kind != "impact":
        raise ValueError(f"sparse retrieval needs an impact index, got {index.kind!r}")
    return _top_k(index, index.matrix, query.tids, query.vals, cutoff, query_id)


def retrieve_sparse_batch(index: InvertedIndex, queries: dict[str, SparseVector],
                          cutoff: int) -> dict[str, RankedList]:
    """retrieve_sparse for each query id -> vector, _QUERY_BLOCK queries to
    one sparse product. scipy sums each score over a row's entries in the
    same order for many columns as for one, so every list keeps its bytes."""
    if index.kind != "impact":
        raise ValueError(f"sparse retrieval needs an impact index, got {index.kind!r}")
    items, out = list(queries.items()), {}
    for lo in range(0, len(items), _QUERY_BLOCK):
        block = items[lo: lo + _QUERY_BLOCK]
        q = np.zeros((index.matrix.shape[1], len(block)))  # a column per query, as in _top_k
        for j, (_, vec) in enumerate(block):
            keep = vec.tids < len(q)
            q[vec.tids[keep], j] = vec.vals[keep]
        for (query_id, _), scores in zip(block, (index.matrix @ q).T):
            out[query_id] = _ranked(index.doc_ids, scores, cutoff, query_id)
    return out


def bm25_idf(n_docs: int, df: int) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for df <= N."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def retrieve_bm25(index: InvertedIndex, query_text: str, vocab: Vocabulary, cutoff: int,
                  query_id: str = "") -> RankedList:
    """BM25 over a frequency index: the query's term counts against the
    derived BM25 weights, so repeated query terms weight by their count."""
    if index.kind != "frequency":
        raise ValueError(f"bm25 needs a frequency index, got {index.kind!r}")
    return _top_k(index, index._bm25, *_term_counts(tokenize(query_text), vocab), cutoff, query_id)


# ---------------------------------------------------------------- serialization


def save_index(index: InvertedIndex, path: str | Path) -> Path:
    """Directory {meta.json, postings.bin, docstore.bin}; round-trips bit-exactly."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    store = [struct.pack("<I", index.n_docs)]
    for d in index.doc_ids:
        raw = d.encode("utf-8")
        store += (struct.pack("<H", len(raw)), raw, struct.pack("<I", index.doc_lengths[d]))

    m = index.matrix
    weights = m.data.astype("<f4")
    if not ((weights > 0) & (weights < np.inf)).all():  # load_index would refuse the file
        raise ValueError(f"cannot write {path / 'postings.bin'}: a weight is not finite and "
                         f"positive in float32")
    post = b"".join((m.indptr.astype("<u4"), m.indices.astype("<u4"), weights))
    payloads = {"postings.bin": post, "docstore.bin": b"".join(store)}
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
        _write_atomic(path / name, payload)
    return path


def load_index(path: str | Path) -> InvertedIndex:
    """Read and verify an index directory, building the matrix straight
    from the stored CSR arrays."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = _read_json(meta_path)
    if meta.get("schema_version") != _META_SCHEMA:
        raise ValueError(f"{meta_path}: schema_version {meta.get('schema_version')!r} is not "
                         f"{_META_SCHEMA}; v1 used FNV-1a checksums, v2 term-major postings and "
                         f"v3 blake2b-64 checksums, so rebuild the index (spladapt index)")
    _require(meta, ("kind", "n_docs", "avgdl", "postings_checksum", "docstore_checksum"),
             str(meta_path))
    if meta["kind"] not in INDEX_KINDS:
        raise ValueError(f"{meta_path}: unknown index kind {meta['kind']!r} in field 'kind'")
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
    # row r of postings.bin is the r-th of the sorted doc ids
    doc_ids = list(doc_lengths)
    if doc_ids != sorted(doc_ids) or len(doc_ids) != n_docs or off != len(store):
        raise ValueError(f"{path / 'docstore.bin'}: doc ids are not unique and ascending, "
                         f"or bytes follow the last doc")
    if n_docs != meta["n_docs"]:
        raise ValueError(f"{path}: docstore holds {n_docs} docs, meta says {meta['n_docs']}")
    if not n_docs:
        raise ValueError(f"{path / 'docstore.bin'}: holds no docs")
    # no checksum covers meta.json, so avgdl is recomputed as _index computes it
    avgdl = sum(doc_lengths.values()) / n_docs
    if meta["avgdl"] != avgdl:
        raise ValueError(f"{meta_path}: field 'avgdl' is {meta['avgdl']!r}, but the docstore "
                         f"lengths give {avgdl!r}")

    post_path = path / "postings.bin"
    head = 4 * (n_docs + 1)  # bytes of the row pointers
    if len(post) < head:
        raise ValueError(f"{post_path}: {len(post)} bytes cut the row pointers of the docstore's "
                         f"{n_docs} docs at doc {doc_ids[max(len(post) // 4, 1) - 1]!r}")
    indptr = np.frombuffer(post, "<u4", count=n_docs + 1).astype(np.int64)
    nnz, room = int(indptr[-1]), (len(post) - head) // 8
    for bad, what in ((indptr[:1] != 0, f"starts at posting {indptr[0]}, not 0"),
                      (indptr[1:] < indptr[:-1], "ends before it starts"),
                      (indptr[1:] > room, f"ends past the {room} postings the file holds")):
        if bad.any():
            raise ValueError(f"{post_path}: the row of doc {doc_ids[bad.argmax()]!r} {what}")
    if len(post) != head + 8 * nnz:
        raise ValueError(f"{post_path}: the rows end at posting {nnz} with doc {doc_ids[-1]!r}, "
                         f"so the file has {head + 8 * nnz} bytes, not {len(post)}")
    tids = np.frombuffer(post, "<u4", count=nnz, offset=head).astype(np.int64)
    weights = np.frombuffer(post, "<f4", count=nnz, offset=head + 4 * nnz)
    unordered = np.append(False, tids[1:] <= tids[:-1])
    unordered[indptr[:-1][indptr[:-1] < nnz]] = False  # each row starts afresh
    sound = (weights > 0) & (weights < np.inf)  # NaN fails both
    for bad, what in ((unordered, "is repeated or out of order within the doc"),
                      (~sound, "has a weight that is not finite and positive")):
        if bad.any():
            i = int(bad.argmax())
            doc = doc_ids[np.searchsorted(indptr, i, side="right") - 1]
            raise ValueError(f"{post_path}: doc {doc!r}, term {tids[i]} (weight {weights[i]}) "
                             f"{what}")
    matrix = sp.csr_array((weights.astype(np.float64), tids, indptr),
                          shape=(n_docs, tids.max(initial=-1) + 1))
    return InvertedIndex(kind=meta["kind"], matrix=matrix, doc_lengths=doc_lengths, avgdl=avgdl)
