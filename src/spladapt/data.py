"""Dataset container and file ingestion.

On-disk layout of a dataset directory:
    corpus.jsonl   one {"doc_id": ..., "text": ...} object per line
    queries.tsv    query_id<TAB>query_text
    qrels.trec     query_id 0 doc_id grade
    triples.tsv    query_text<TAB>pos_doc_id<TAB>neg_doc_id   (optional)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .vocab import tokenize

__all__ = [
    "TrainTriple", "Dataset", "DatasetStats",
    "load_corpus", "save_corpus", "load_queries", "save_queries",
    "load_triples", "save_triples", "load_qrels", "save_qrels",
    "load_dataset", "save_dataset", "dataset_stats",
]


@dataclass(frozen=True)
class TrainTriple:
    query: str
    pos_doc_id: str
    neg_doc_id: str

    def __post_init__(self):
        if self.pos_doc_id == self.neg_doc_id:
            raise ValueError(f"triple has identical positive and negative doc: {self.pos_doc_id}")


@dataclass
class Dataset:
    docs: dict[str, str]
    queries: dict[str, str] = field(default_factory=dict)
    qrels: dict[str, dict[str, int]] = field(default_factory=dict)
    triples: list[TrainTriple] = field(default_factory=list)

    def validate(self) -> None:
        """Ids are whitespace-free tokens; qrels and triples name only known docs."""
        if not self.docs:
            raise ValueError("dataset has no documents")
        _refuse_non_tokens("doc id", self.docs)
        _refuse_non_tokens("query id", self.queries)
        dangling = sorted({d for per_q in self.qrels.values() for d in per_q} - self.docs.keys())
        if dangling:
            raise ValueError(f"qrels reference unknown docs: {dangling[:10]}")
        missing_q = sorted(self.qrels.keys() - self.queries.keys())
        if missing_q:
            raise ValueError(f"qrels reference unknown queries: {missing_q[:10]}")
        bad = sorted(({t.pos_doc_id for t in self.triples} | {t.neg_doc_id for t in self.triples})
                     - self.docs.keys())
        if bad:
            raise ValueError(f"triples reference unknown docs: {bad[:10]}")


@dataclass(frozen=True)
class DatasetStats:
    n_docs: int
    n_queries: int
    n_judgments: int
    n_triples: int
    avg_doc_tokens: float
    avg_query_tokens: float


def dataset_stats(ds: Dataset) -> DatasetStats:
    doc_lens = [len(tokenize(t)) for t in ds.docs.values()]
    q_lens = [len(tokenize(t)) for t in ds.queries.values()] or [0]
    return DatasetStats(
        n_docs=len(ds.docs),
        n_queries=len(ds.queries),
        n_judgments=sum(len(v) for v in ds.qrels.values()),
        n_triples=len(ds.triples),
        avg_doc_tokens=float(sum(doc_lens)) / max(1, len(doc_lens)),
        avg_query_tokens=float(sum(q_lens)) / max(1, len(q_lens)),
    )


def _fields(path: str | Path, n: int, sep: str | None,
            layout: str) -> Iterator[tuple[str, list[str]]]:
    """("path:line", fields) of each line split on sep (None: on whitespace).
    Lines of no fields are skipped: empty ones, and blank ones with sep None.
    A line of other than n fields is refused, naming it and the layout."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(sep)
            if fields in ([], [""]):
                continue
            where = f"{path}:{lineno}"
            if len(fields) != n:
                raise ValueError(f"{where}: expected {layout}, got {len(fields)} fields")
            yield where, fields


def _refuse_non_tokens(what: str, values: Iterable[str]) -> None:
    """Refuse, naming it, a value that is not one whitespace-free token, as ids
    and run tags must be. One search of the joined values checks them all."""
    values = list(values)
    if "" in values or re.search(r"\s", "".join(values)):
        bad = next(v for v in values if v.split() != [v])
        raise ValueError(f"{what} {bad!r} is not a whitespace-free token")


def _refuse_line_breaks(what: str, texts: Iterable[str]) -> None:
    """Refuse a text that would split its TSV line: a tab or a line break."""
    for text in texts:
        if "\t" in text or "\n" in text or "\r" in text:
            raise ValueError(f"{what} {text!r} holds a tab or a line break")


def load_corpus(path: str | Path) -> dict[str, str]:
    docs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict) or "doc_id" not in obj or "text" not in obj:
                raise ValueError(f"{path}:{lineno}: expected object with doc_id and text")
            doc_id = str(obj["doc_id"])
            _refuse_non_tokens(f"{path}:{lineno}: doc_id", [doc_id])
            if doc_id in docs:
                raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            docs[doc_id] = str(obj["text"])
    return docs


def save_corpus(docs: dict[str, str], path: str | Path) -> None:
    _refuse_non_tokens("doc id", docs)
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in docs.items():
            fh.write(json.dumps({"doc_id": doc_id, "text": text}) + "\n")


def load_queries(path: str | Path) -> dict[str, str]:
    queries: dict[str, str] = {}
    for where, (qid, text) in _fields(path, 2, "\t", "query_id<TAB>text"):
        _refuse_non_tokens(f"{where}: query id", [qid])
        if qid in queries:
            raise ValueError(f"{where}: duplicate query id {qid!r}")
        queries[qid] = text
    return queries


def save_queries(queries: dict[str, str], path: str | Path) -> None:
    _refuse_non_tokens("query id", queries)
    _refuse_line_breaks("query text", queries.values())
    with open(path, "w", encoding="utf-8") as fh:
        for qid, text in queries.items():
            fh.write(f"{qid}\t{text}\n")


def load_triples(path: str | Path) -> list[TrainTriple]:
    triples: list[TrainTriple] = []
    for where, parts in _fields(path, 3, "\t", "query<TAB>pos_doc_id<TAB>neg_doc_id"):
        try:
            triples.append(TrainTriple(*parts))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return triples


def save_triples(triples: list[TrainTriple], path: str | Path) -> None:
    _refuse_non_tokens("triple doc id", [d for t in triples for d in (t.pos_doc_id, t.neg_doc_id)])
    _refuse_line_breaks("triple query text", (t.query for t in triples))
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(f"{t.query}\t{t.pos_doc_id}\t{t.neg_doc_id}\n")


def load_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """TREC qrels: query_id 0 doc_id grade, whitespace separated."""
    qrels: dict[str, dict[str, int]] = {}
    for where, (qid, _, doc_id, grade_s) in _fields(path, 4, None, "query_id 0 doc_id grade"):
        try:
            grade = int(grade_s)
        except ValueError:
            raise ValueError(f"{where}: grade {grade_s!r} is not an integer") from None
        if grade < 0:
            raise ValueError(f"{where}: negative grade {grade}")
        per_q = qrels.setdefault(qid, {})
        if doc_id in per_q:
            raise ValueError(f"{where}: duplicate judgment for ({qid}, {doc_id})")
        per_q[doc_id] = grade
    return qrels


def save_qrels(qrels: dict[str, dict[str, int]], path: str | Path) -> None:
    _refuse_non_tokens("query id", qrels)
    _refuse_non_tokens("doc id", {d for per_q in qrels.values() for d in per_q})
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for doc_id in sorted(qrels[qid]):
                fh.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")


def load_dataset(dirpath: str | Path) -> Dataset:
    dirpath = Path(dirpath)
    ds = Dataset(
        docs=load_corpus(dirpath / "corpus.jsonl"),
        queries=load_queries(dirpath / "queries.tsv"),
        qrels=load_qrels(dirpath / "qrels.trec"),
    )
    triples_path = dirpath / "triples.tsv"
    if triples_path.exists():
        ds.triples = load_triples(triples_path)
    ds.validate()
    return ds


def save_dataset(ds: Dataset, dirpath: str | Path) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    save_corpus(ds.docs, dirpath / "corpus.jsonl")
    save_queries(ds.queries, dirpath / "queries.tsv")
    save_qrels(ds.qrels, dirpath / "qrels.trec")
    if ds.triples:
        save_triples(ds.triples, dirpath / "triples.tsv")
