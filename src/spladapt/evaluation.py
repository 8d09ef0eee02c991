"""Retrieval metrics, paired significance testing, sparsity accounting,
and TREC-format run/qrels serialization.

nDCG uses exponential gain (2^grade - 1) with a log2(rank + 1) discount; the
ideal ranking sorts the query's judged grades descending. Queries without a
single relevant document are excluded from aggregation.

The paired two-tailed t-test takes its p-value from scipy's regularized
incomplete beta function.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Iterable, Sequence

from scipy.special import betainc

from .data import _fields, _refuse_non_tokens
from .index import RankedList
from .model import SparseVector

__all__ = [
    "dcg", "ndcg_at_k", "mrr_at_k", "evaluate_run",
    "TTestResult", "paired_ttest",
    "sparsity_stats",
    "read_run", "write_run",
    "MethodResult", "SignificanceTest", "EvalReport",
]

DEFAULT_METRIC_DEPTH = 10


# ---------------------------------------------------------------- rank metrics


def dcg(grades: Sequence[int]) -> float:
    """Discounted cumulative gain of a graded ranking, best-first order."""
    return sum((2.0 ** g - 1.0) / math.log2(rank + 1.0)
               for rank, g in enumerate(grades, start=1))


def ndcg_at_k(ranked: RankedList, judgments: dict[str, int], k: int = DEFAULT_METRIC_DEPTH) -> float:
    """Normalized DCG at depth k. Unjudged retrieved docs count as grade 0.
    Raises if the query has no relevant document (such queries are excluded
    upstream)."""
    ideal = sorted(judgments.values(), reverse=True)[:k]
    idcg = dcg(ideal)
    if idcg == 0.0:
        raise ValueError("query has no relevant documents; exclude it from aggregation")
    grades = [judgments.get(d, 0) for d in ranked.doc_ids()[:k]]
    return dcg(grades) / idcg


def mrr_at_k(ranked: RankedList, judgments: dict[str, int], k: int = DEFAULT_METRIC_DEPTH) -> float:
    """Reciprocal rank of the first relevant (grade >= 1) doc in the top k,
    0 when none appears."""
    for rank, doc_id in enumerate(ranked.doc_ids()[:k], start=1):
        if judgments.get(doc_id, 0) >= 1:
            return 1.0 / rank
    return 0.0


def evaluate_run(run: dict[str, RankedList], qrels: dict[str, dict[str, int]],
                 k: int = DEFAULT_METRIC_DEPTH) -> tuple[dict[str, float], dict[str, float]]:
    """Per-query nDCG@k and MRR@k over every judged query that has at least
    one relevant doc. A judged query missing from the run scores 0."""
    ndcg: dict[str, float] = {}
    mrr: dict[str, float] = {}
    for qid, judgments in qrels.items():
        if not any(g >= 1 for g in judgments.values()):
            continue
        ranked = run.get(qid, RankedList(query_id=qid))
        ndcg[qid] = ndcg_at_k(ranked, judgments, k)
        mrr[qid] = mrr_at_k(ranked, judgments, k)
    if not ndcg:
        raise ValueError("no judged query has a relevant document")
    return ndcg, mrr


# ---------------------------------------------------------------- significance


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    mean_diff: float


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-tailed paired Student's t-test on aligned score lists.

    Zero-variance differences degenerate: p = 1 when the mean difference is
    also 0 (t = 0), else p = 0 (t = +/-inf).
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    df = n - 1
    if ss == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, df=df, mean_diff=0.0)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, df=df, mean_diff=mean)
    sd = math.sqrt(ss / df)
    t = mean / (sd / math.sqrt(n))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))  # two-sided tail mass
    return TTestResult(t=t, p=p, df=df, mean_diff=mean)


# ---------------------------------------------------------------- sparsity


def sparsity_stats(vectors: Iterable[SparseVector]) -> dict[str, float]:
    l0s = [len(v) for v in vectors]
    if not l0s:
        raise ValueError("sparsity over an empty collection")
    return {
        "mean_l0": sum(l0s) / len(l0s),
        "median_l0": float(median(l0s)),
        "max_l0": float(max(l0s)),
    }


# ---------------------------------------------------------------- run files


def write_run(runs: dict[str, RankedList], path: str | Path, tag: str = "run") -> None:
    """TREC run lines, queries in id order: query_id Q0 doc_id rank score
    tag. Rank is regenerated from entry order; scores carry 6 decimal
    digits. The tag and every id must be whitespace-free tokens, which is
    checked before the file is opened."""
    _refuse_non_tokens("run tag", [tag])
    _refuse_non_tokens("query id", [r.query_id for r in runs.values()])
    _refuse_non_tokens("doc id", {d for r in runs.values() for d, _ in r.entries})
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for ranked in (runs[qid] for qid in sorted(runs)):
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                fh.write(f"{ranked.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_run(path: str | Path) -> dict[str, RankedList]:
    """Parse a TREC run; entries are ordered by their rank field."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    for where, (qid, _q0, doc_id, rank_s, score_s, _tag) in _fields(
            path, 6, None, "query_id Q0 doc_id rank score tag"):
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise ValueError(f"{where}: bad rank or score") from None
        if (qid, doc_id) in seen:
            raise ValueError(f"{where}: duplicate entry for ({qid}, {doc_id})")
        seen.add((qid, doc_id))
        rows.setdefault(qid, []).append((rank, doc_id, score))
    out: dict[str, RankedList] = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        out[qid] = RankedList(query_id=qid, entries=[(d, s) for _, d, s in entries])
    return out


# ---------------------------------------------------------------- reports


@dataclass
class MethodResult:
    name: str
    ndcg10: float
    mrr10: float
    per_query_ndcg: dict[str, float] = field(default_factory=dict)
    per_query_mrr: dict[str, float] = field(default_factory=dict)
    doc_sparsity: dict[str, float] | None = None
    query_sparsity: dict[str, float] | None = None

    @classmethod
    def from_run(cls, name: str, run: dict[str, RankedList],
                 qrels: dict[str, dict[str, int]]) -> "MethodResult":
        ndcg, mrr = evaluate_run(run, qrels)
        n = len(ndcg)
        return cls(name=name,
                   ndcg10=sum(ndcg.values()) / n,
                   mrr10=sum(mrr.values()) / n,
                   per_query_ndcg=ndcg,
                   per_query_mrr=mrr)


@dataclass
class SignificanceTest:
    method: str
    baseline: str
    metric: str
    t: float
    p: float
    alpha: float = 0.05

    @property
    def significant(self) -> bool:
        return self.p < self.alpha


@dataclass
class EvalReport:
    dataset: str
    cutoff: int
    metric_depth: int
    methods: list[MethodResult]
    significance: list[SignificanceTest] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def method(self, name: str) -> MethodResult:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(f"no method {name!r} in report")

    def add_significance(self, method: str, baseline: str) -> SignificanceTest:
        m, b = self.method(method), self.method(baseline)
        shared = sorted(m.per_query_ndcg.keys() & b.per_query_ndcg.keys())
        if len(shared) != len(m.per_query_ndcg) or len(shared) != len(b.per_query_ndcg):
            raise ValueError(f"{method} and {baseline} were evaluated on different query sets")
        result = paired_ttest([m.per_query_ndcg[q] for q in shared],
                              [b.per_query_ndcg[q] for q in shared])
        test = SignificanceTest(method=method, baseline=baseline, metric=f"ndcg{self.metric_depth}",
                                t=result.t, p=result.p)
        self.significance.append(test)
        return test

    def to_json(self) -> str:
        """The report's fields, with each significance test's verdict."""
        payload = asdict(self)
        for test, s in zip(payload["significance"], self.significance):
            test["significant"] = s.significant
        return json.dumps(payload, indent=1)

    def format_table(self) -> str:
        depth = self.metric_depth
        lines = [f"dataset: {self.dataset}   retrieval cutoff: {self.cutoff}"]
        header = f"{'method':<18} {'nDCG@' + str(depth):>10} {'MRR@' + str(depth):>10} {'doc L0':>10} {'query L0':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for m in self.methods:
            doc_l0 = f"{m.doc_sparsity['mean_l0']:.1f}" if m.doc_sparsity else "-"
            q_l0 = f"{m.query_sparsity['mean_l0']:.1f}" if m.query_sparsity else "-"
            lines.append(f"{m.name:<18} {m.ndcg10:>10.4f} {m.mrr10:>10.4f} {doc_l0:>10} {q_l0:>10}")
        if self.significance:
            lines.append("")
            for s in self.significance:
                marker = "significant" if s.significant else "not significant"
                lines.append(f"{s.method} vs {s.baseline} ({s.metric}): "
                             f"t={s.t:.3f} p={s.p:.4f} -> {marker} at alpha={s.alpha}")
        return "\n".join(lines) + "\n"
