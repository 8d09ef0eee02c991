"""Test-only helpers: finite-difference gradients, per-tensor checksums, the
byte comparison that audits frozen tensors, a full-sort top-k reference, a
field-by-field report.json writer, and the vocabulary and partition lookups
that only tests make."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from spladapt.autodiff import Tensor
from spladapt.evaluation import EvalReport
from spladapt.index import InvertedIndex, RankedList
from spladapt.model import EncoderWeights
from spladapt.params import ParameterPartition, _tensor_bytes, fnv1a64
from spladapt.vocab import N_SPECIALS, SPECIAL_TOKENS, UNK_ID, Vocabulary


def numeric_gradient(fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference d fn() / d param, one forward pair per element.

    fn must rebuild the forward pass from current param values and return a
    scalar Tensor; run it outside any tape. Use float64 params.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn().data)
        flat[i] = orig - eps
        lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def tensor_checksums(weights: EncoderWeights) -> dict[str, str]:
    """Name -> checksum of the tensor's bytes as a checkpoint stores them."""
    return {name: fnv1a64(raw) for name, raw in _tensor_bytes(weights).items()}


@dataclass
class FreezeReport:
    identical: frozenset[str]
    changed: frozenset[str]
    violations: frozenset[str]   # expected-frozen tensors that moved
    trained_moved: bool          # at least one non-frozen tensor changed

    @property
    def ok(self) -> bool:
        return not self.violations


def freeze_verify(before: EncoderWeights, after: EncoderWeights,
                  expected_frozen: frozenset[str]) -> FreezeReport:
    """Byte-compare every tensor between two weight sets."""
    if set(before.tensors) != set(after.tensors):
        raise ValueError("weight sets name different tensors")
    unknown = set(expected_frozen) - set(before.tensors)
    if unknown:
        raise KeyError(f"expected_frozen names unknown tensors: {sorted(unknown)}")
    identical, changed = set(), set()
    for name in before.tensors:
        same = before[name].data.tobytes() == after[name].data.tobytes()
        (identical if same else changed).add(name)
    violations = changed & set(expected_frozen)
    trained_moved = bool(changed - set(expected_frozen))
    return FreezeReport(frozenset(identical), frozenset(changed), frozenset(violations), trained_moved)


def reference_top_k(index: InvertedIndex, matrix: sp.csr_array, tids: np.ndarray,
                    vals: np.ndarray, cutoff: int, query_id: str) -> RankedList:
    """index._top_k by a lexsort of every doc with a nonzero score, and one
    float() per entry."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    q = np.zeros(matrix.shape[1])
    keep = tids < len(q)
    q[tids[keep]] = vals[keep]
    scores = matrix @ q
    cand = np.flatnonzero(scores)
    top = cand[np.lexsort((cand, -scores[cand]))[:cutoff]]
    return RankedList(query_id=query_id,
                      entries=[(index.doc_ids[i], float(scores[i])) for i in top.tolist()])


def reference_report_json(report: EvalReport) -> str:
    """report.json as EvalReport.to_json wrote it field by field, each
    significance test with its significant flag."""
    payload = {
        "dataset": report.dataset,
        "cutoff": report.cutoff,
        "metric_depth": report.metric_depth,
        "methods": [{
            "name": m.name,
            "ndcg10": m.ndcg10,
            "mrr10": m.mrr10,
            "per_query_ndcg": m.per_query_ndcg,
            "per_query_mrr": m.per_query_mrr,
            "doc_sparsity": m.doc_sparsity,
            "query_sparsity": m.query_sparsity,
        } for m in report.methods],
        "significance": [{
            "method": s.method, "baseline": s.baseline, "metric": s.metric,
            "t": s.t, "p": s.p, "alpha": s.alpha, "significant": s.significant,
        } for s in report.significance],
        "metadata": report.metadata,
    }
    return json.dumps(payload, indent=1)


def term_of(vocab: Vocabulary, tid: int) -> str:
    """The term with id tid; the special ids by their token names."""
    if 0 <= tid < N_SPECIALS:
        return SPECIAL_TOKENS[tid]
    if N_SPECIALS <= tid < len(vocab):
        return vocab.terms[tid - N_SPECIALS]
    raise IndexError(f"term id {tid} out of range for vocabulary of {len(vocab)}")


def in_vocabulary(vocab: Vocabulary, term: str) -> bool:
    """Whether term has an id of its own (the specials are not terms)."""
    return vocab.id_of(term) != UNK_ID


def subset_of(part: ParameterPartition, name: str) -> str:
    """"domain" or "task": the subset of part that holds the parameter name."""
    if name in part.domain_names:
        return "domain"
    if name in part.task_names:
        return "task"
    raise KeyError(f"unknown parameter name: {name}")
