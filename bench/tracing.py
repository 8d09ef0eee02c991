"""Spans around the public calls into each spladapt module.

A traced run replaces module attributes with thin wrappers that record one
span per call: name, start, end, parent, the benchmark phase it ran in, and
an optional count taken from the arguments before the call starts (bytes
hashed, ops on the tape, postings the query touches). Spans stay in
memory and are written out when the run ends. Nothing is patched in an
untraced run, so it pays nothing.

Wrappers are installed where the caller looks the name up: a function
imported into another module with ``from .x import f`` is patched in that
module too.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("synth", "vocab", "training", "model", "autodiff", "optim",
          "params", "index", "experiment", "evaluation")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    count: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(data) -> int:
    return data.nbytes if isinstance(data, np.ndarray) else memoryview(data).nbytes


def _postings_touched(args) -> int:
    index, query = args[0], args[1]
    return sum(index.df(tid) for tid, _ in query.items())


class Tracer:
    """Records spans while installed; ``phase`` is set by the benchmark."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = None if count is None else count(args)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.phase, n)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def _patch(self, owner, attr: str, name: str, count=None, kind=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind is classmethod:
            replacement = classmethod(self._wrap(original.__func__, name, count))
        else:
            replacement = self._wrap(original, name, count)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from spladapt import (autodiff, evaluation, experiment, index, params,
                              synth, training, vocab)

        table = [
            (synth, "generate", "synth.generate"),
            (vocab, "build_vocabulary", "vocab.build_vocabulary"),
            (experiment, "run_pipeline", "training.run_pipeline"),
            (training, "pretrain_mlm", "training.pretrain_mlm"),
            (training, "finetune_ir", "training.finetune_ir"),
            (experiment, "finetune_ir", "training.finetune_ir"),
            (training, "build_mlm_batch", "training.build_mlm_batch"),
            (training, "mlm_logits", "model.mlm_logits"),
            (training, "encode_sparse_batch", "model.encode_sparse_batch"),
            (index, "encode_sparse_batch", "model.encode_sparse_batch"),
            (training, "adam_step", "optim.adam_step"),
            (training, "compose", "params.compose"),
            (experiment, "compose", "params.compose"),
            (training, "save_checkpoint", "params.save_checkpoint"),
            (experiment, "save_checkpoint", "params.save_checkpoint"),
            (params, "load_checkpoint", "params.load_checkpoint"),
            (experiment, "benchmark_variants", "experiment.benchmark_variants"),
            (experiment, "run_experiment", "experiment.run_experiment"),
            (experiment, "build_report", "experiment.build_report"),
            (experiment, "encode_queries", "experiment.encode_queries"),
            (experiment, "write_run", "evaluation.write_run"),
            (evaluation.EvalReport, "add_significance", "evaluation.add_significance"),
        ]
        for module in (index, experiment):
            for attr in ("encode_corpus", "index_from_vectors", "save_index",
                         "retrieve_bm25", "build_frequency_index"):
                table.append((module, attr, f"index.{attr}"))
        table.append((index, "load_index", "index.load_index"))
        for owner, attr, name in table:
            self._patch(owner, attr, name)
        for module in (index, experiment):
            self._patch(module, "retrieve_sparse", "index.retrieve_sparse",
                        count=_postings_touched)
        for module in (params, index):
            self._patch(module, "fnv1a64", "params.fnv1a64", count=lambda a: _nbytes(a[0]))
        self._patch(autodiff.GradTape, "backward", "autodiff.backward",
                    count=lambda a: len(a[0]))
        self._patch(evaluation.MethodResult, "from_run", "evaluation.from_run",
                    kind=classmethod)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- analysis


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by a child span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        out[s.layer] += s.duration - child[i]
    return out


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] inside some top-level span."""
    covered = sum(s.duration for s in spans if s.parent is None)
    return covered / (end - start)


def layer_metrics(spans: list[Span], wall_start: float, wall_end: float,
                  rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit). Index
    build and cold-start times are per serving round."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(name, phase=None, parent=None):
        return [s for s in by_name.get(name, [])
                if (phase is None or s.phase == phase)
                and (parent is None or (s.parent is not None and spans[s.parent].name == parent))]

    def total(name, **kw):
        return sum(s.duration for s in pick(name, **kw))

    def per_call_ms(name, stat=np.mean, **kw):
        sel = pick(name, **kw)
        if not sel:
            raise ValueError(f"no {name} spans{kw and f' with {kw}' or ''}")
        return float(stat([s.duration for s in sel])) * 1e3

    def p(q):
        return lambda xs: np.percentile(xs, q)

    m: dict[str, tuple[float, str]] = {
        "training.pretrain_mlm_s": (total("training.pretrain_mlm"), "s"),
        "training.finetune_ir_s": (total("training.finetune_ir"), "s"),
        "training.build_mlm_batch_ms": (per_call_ms("training.build_mlm_batch"), "ms"),
        "model.mlm_logits_ms": (per_call_ms("model.mlm_logits"), "ms"),
        "model.encode_sparse_batch_ms": (per_call_ms("model.encode_sparse_batch",
                                                     parent="training.finetune_ir"), "ms"),
        "autodiff.backward_mlm_ms": (per_call_ms("autodiff.backward",
                                                 parent="training.pretrain_mlm"), "ms"),
        "autodiff.backward_finetune_ms": (per_call_ms("autodiff.backward",
                                                      parent="training.finetune_ir"), "ms"),
        "autodiff.tape_ops": (float(np.mean([s.count for s in by_name["autodiff.backward"]])), "count"),
        "optim.adam_step_ms": (per_call_ms("optim.adam_step"), "ms"),
        "params.save_checkpoint_s": (total("params.save_checkpoint"), "s"),
        "params.compose_s": (total("params.compose"), "s"),
        "params.load_checkpoint_s": (total("params.load_checkpoint", phase="cold_start") / rounds, "s"),
        "params.checksum_s": (total("params.fnv1a64"), "s"),
        "params.hashed_mb": (sum(s.count for s in by_name["params.fnv1a64"]) / 1e6, "MB"),
        "index.encode_corpus_s": (total("index.encode_corpus", phase="index_build") / rounds, "s"),
        "index.index_from_vectors_s": (total("index.index_from_vectors", phase="index_build") / rounds, "s"),
        "index.save_index_s": (total("index.save_index", phase="index_build") / rounds, "s"),
        "index.load_index_s": (total("index.load_index", phase="cold_start") / rounds, "s"),
        "index.retrieve_sparse_p50_ms": (per_call_ms("index.retrieve_sparse", p(50), phase="queries"), "ms"),
        "index.retrieve_sparse_p90_ms": (per_call_ms("index.retrieve_sparse", p(90), phase="queries"), "ms"),
        "index.postings_touched": (float(np.mean([s.count for s in pick("index.retrieve_sparse",
                                                                          phase="queries")])), "count"),
        "index.retrieve_bm25_p50_ms": (per_call_ms("index.retrieve_bm25", p(50), phase="bm25"), "ms"),
        "experiment.encode_queries_ms": (per_call_ms("experiment.encode_queries", np.median,
                                                     phase="queries"), "ms"),
        "experiment.build_report_s": (total("experiment.build_report"), "s"),
        "evaluation.from_run_s": (total("evaluation.from_run"), "s"),
        "evaluation.write_run_s": (total("evaluation.write_run"), "s"),
        "evaluation.add_significance_s": (total("evaluation.add_significance"), "s"),
        "synth.generate_s": (per_call_ms("synth.generate", np.median) / 1e3, "s"),
        "vocab.build_vocabulary_s": (per_call_ms("vocab.build_vocabulary", np.median) / 1e3, "s"),
    }
    for layer, secs in self_times(spans).items():
        m[f"{layer}.self_s"] = (secs, "s")
    m["trace.coverage"] = (coverage(spans, wall_start, wall_end), "share")
    return m
