"""Correctness oracles, written apart from the code they check.

Each check returns a list of failure messages; an empty list means it passed.
The oracles take plain data (texts, arrays, dicts, files on disk), never the
program's own scoring, metric, or checkpoint-reading code.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

TOKEN = re.compile(r"[a-z0-9]+")
BM25_K1 = 0.9
BM25_B = 0.4
TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- rankings


def exact_ranking(scores: np.ndarray, doc_ids: list[str], cutoff: int) -> list[tuple[str, float]]:
    """Top `cutoff` docs with a positive score by (score desc, doc id asc)."""
    hits = [(doc_ids[i], float(scores[i])) for i in np.flatnonzero(scores > 0)]
    hits.sort(key=lambda e: (-e[1], e[0]))
    return hits[:cutoff]


def check_ranking(qid: str, got: list[tuple[str, float]], scores: np.ndarray,
                  doc_ids: list[str], cutoff: int) -> list[str]:
    """Compare a returned top-k with an exhaustive scan. Docs whose true
    scores agree within TOL may trade places; anything else must match."""
    want = exact_ranking(scores, doc_ids, cutoff)
    if len(got) != len(want):
        return [f"{qid}: {len(got)} results, exhaustive scan gives {len(want)}"]
    pos = {d: i for i, d in enumerate(doc_ids)}
    for rank, ((d, s), (_, ws)) in enumerate(zip(got, want), start=1):
        if d not in pos:
            return [f"{qid}: rank {rank} returns unknown doc {d!r}"]
        if not _close(s, ws):
            return [f"{qid}: rank {rank} score {s!r}, exhaustive scan gives {ws!r}"]
        if not _close(s, float(scores[pos[d]])):
            return [f"{qid}: {d} reported {s!r}, its true score is {float(scores[pos[d]])!r}"]
    for rank, ((d0, s0), (d1, s1)) in enumerate(zip(got, got[1:]), start=1):
        if s1 > s0 or (s1 == s0 and d1 < d0):
            return [f"{qid}: ranks {rank}-{rank + 1} out of order ({d0} {s0!r}, {d1} {s1!r})"]
    if len({d for d, _ in got}) != len(got):
        return [f"{qid}: a doc is returned twice"]
    return []


def dense_scores(query_rows: np.ndarray, doc_rows: np.ndarray) -> np.ndarray:
    """Every query against every doc: (Q, V) x (N, V) -> (Q, N), float64."""
    return query_rows.astype(np.float64) @ doc_rows.astype(np.float64).T


class Bm25:
    """BM25 of a query against every doc: k1 0.9, b 0.4,
    idf = ln(1 + (N - df + 0.5) / (df + 0.5)). Doc length counts every
    token; terms outside the vocabulary match nothing."""

    def __init__(self, docs: dict[str, str], doc_ids: list[str], vocab_terms: set[str]):
        self.tf = [Counter(TOKEN.findall(docs[d].lower())) for d in doc_ids]
        self.lengths = np.array([sum(c.values()) for c in self.tf], dtype=np.float64)
        self.vocab_terms = vocab_terms

    def scores(self, query: str) -> np.ndarray:
        n = len(self.tf)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * self.lengths / self.lengths.mean())
        out = np.zeros(n)
        qtf = Counter(t for t in TOKEN.findall(query.lower()) if t in self.vocab_terms)
        for term, count in qtf.items():
            tf = np.array([c[term] for c in self.tf], dtype=np.float64)
            df = int((tf > 0).sum())
            if df:
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                out += count * idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        return out


# ---------------------------------------------------------------- metrics


def read_trec_run(path: Path) -> dict[str, list[str]]:
    """qid -> doc ids ordered by the rank column."""
    rows: dict[str, list[tuple[int, str]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            qid, _, doc, rank, _, _ = line.split()
            rows.setdefault(qid, []).append((int(rank), doc))
    return {q: [d for _, d in sorted(r)] for q, r in rows.items()}


def ndcg_mrr_at_10(ranked: dict[str, list[str]],
                   qrels: dict[str, dict[str, int]]) -> tuple[float, float]:
    """Means over queries with a relevant doc; exponential gain, log2 discount."""
    ndcgs, mrrs = [], []
    for qid, judged in qrels.items():
        if not any(g >= 1 for g in judged.values()):
            continue
        docs = ranked.get(qid, [])[:10]
        gains = [2.0 ** judged.get(d, 0) - 1.0 for d in docs]
        ideal = [2.0 ** g - 1.0 for g in sorted(judged.values(), reverse=True)[:10]]
        dcg = sum(g / math.log2(r + 2) for r, g in enumerate(gains))
        idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal))
        ndcgs.append(dcg / idcg)
        mrrs.append(next((1.0 / (r + 1) for r, d in enumerate(docs) if judged.get(d, 0) >= 1), 0.0))
    return sum(ndcgs) / len(ndcgs), sum(mrrs) / len(mrrs)


def check_report(workdir: Path, qrels: dict[str, dict[str, int]]) -> list[str]:
    """nDCG@10 and MRR@10 of every report row, recomputed from its run file."""
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    errors = []
    for row in report["methods"]:
        ndcg, mrr = ndcg_mrr_at_10(read_trec_run(workdir / "runs" / f"{row['name']}.trec"), qrels)
        if not (_close(ndcg, row["ndcg10"]) and _close(mrr, row["mrr10"])):
            errors.append(f"report row {row['name']}: nDCG@10/MRR@10 {row['ndcg10']!r}/{row['mrr10']!r},"
                          f" run file gives {ndcg!r}/{mrr!r}")
    return errors


# ---------------------------------------------------------------- checkpoints


def domain_names(names, k: int) -> set[str]:
    """Embeddings, the MLM bias, and layers 0..k-1."""
    return {n for n in names
            if n.startswith("emb.") or n == "mlm.bias"
            or (n.startswith("layer.") and int(n.split(".")[1]) < k)}


def read_checkpoint(path: Path) -> dict[str, bytes]:
    """Tensor name -> raw bytes, read from manifest offsets."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    blob = (path / "tensors.bin").read_bytes()
    return {r["name"]: blob[r["offset"]: r["offset"] + r["nbytes"]] for r in manifest["tensors"]}


def tensor_bytes(tensors: dict[str, np.ndarray]) -> dict[str, bytes]:
    return {n: np.ascontiguousarray(a, dtype="<f4").tobytes() for n, a in tensors.items()}


def check_same(what: str, a: dict[str, bytes], b: dict[str, bytes], names=None) -> list[str]:
    """Byte equality of the named tensors (all of them by default)."""
    if names is None:
        if set(a) != set(b):
            return [f"{what}: tensor names differ"]
        names = a
    moved = sorted(n for n in names if a[n] != b[n])
    return [f"{what}: {len(moved)} tensors differ, first {moved[0]}"] if moved else []


def check_stages(ckpts: dict[str, dict[str, bytes]], k: int) -> list[str]:
    """Freeze and compose contracts of one experiment's checkpoints:
    pretrains leave every task tensor as in base, fine-tunes leave every
    domain tensor as in their init, composed tensors equal their donors."""
    names = set(ckpts["base"])
    dom = domain_names(names, k)
    task = names - dom
    errors = []
    for stage in ("pretrain_source", "pretrain_target"):
        if stage in ckpts:
            errors += check_same(f"{stage} task subset vs base", ckpts[stage], ckpts["base"], task)
    init = "pretrain_source" if "pretrain_source" in ckpts else "base"
    errors += check_same(f"finetune_source domain subset vs {init}",
                         ckpts["finetune_source"], ckpts[init], dom)
    if "finetune_from_base" in ckpts:
        errors += check_same("finetune_from_base domain subset vs base",
                             ckpts["finetune_from_base"], ckpts["base"], dom)
    grafts = [("composed", "finetune_source"), ("wo_source", "finetune_from_base")]
    for name, task_donor in grafts:
        if name in ckpts:
            errors += check_same(f"{name} domain subset vs pretrain_target",
                                 ckpts[name], ckpts["pretrain_target"], dom)
            errors += check_same(f"{name} task subset vs {task_donor}",
                                 ckpts[name], ckpts[task_donor], task)
    return errors


# ---------------------------------------------------------------- indexes and logs


def check_index_roundtrip(saved, loaded) -> list[str]:
    """A reloaded index holds exactly what was saved."""
    errors = []
    for field in ("kind", "avgdl", "doc_lengths"):
        if getattr(saved, field) != getattr(loaded, field):
            errors.append(f"index reload: {field} differs")
    if saved.postings.keys() != loaded.postings.keys():
        errors.append("index reload: term sets differ")
    else:
        bad = [t for t in saved.postings if saved.postings[t] != loaded.postings[t]]
        if bad:
            errors.append(f"index reload: {len(bad)} posting lists differ, first term {bad[0]}")
    return errors


def loss_ends(log_path: Path) -> tuple[float, float]:
    """Mean loss over the first and over the last quarter of a stage log."""
    losses = [json.loads(line)["loss"] for line in log_path.read_text(encoding="utf-8").splitlines()]
    n = max(1, len(losses) // 4)
    return float(np.mean(losses[:n])), float(np.mean(losses[-n:]))


def check_loss_falls(log_path: Path) -> list[str]:
    """Mean loss of the last quarter of a stage log below that of the first."""
    head, tail = loss_ends(log_path)
    if not tail < head:
        return [f"{log_path.name}: mean loss {head:.4f} over the first quarter, {tail:.4f} over the last"]
    return []
