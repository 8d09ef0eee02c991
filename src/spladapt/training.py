"""MLM pretraining, contrastive fine-tuning, and the adaptation pipeline.

Stage semantics:
    pretrain_source / pretrain_target
        masked-language-model training of the domain subset on one corpus,
        task subset frozen; both start from the same base checkpoint.
    finetune_source
        in-batch softmax contrastive training of the task subset on source
        relevance triples, with FLOPS regularization, domain subset frozen;
        the loss is one autodiff op, ad.ranking_loss.
    composed
        no training: target-domain subset grafted onto source-task subset.

A stage trains one subset and freezes the other: _train_stage turns
requires_grad off on the frozen subset for the stage, so backward computes
no gradient for it and Adam updates, and keeps moments for, the trained
subset only.

The stages hand the encoder lists of 1-D id sequences, with no padding; an
MLM batch's labels follow the concatenation of its sequences.

Each stage owns a single seeded generator; with fixed seeds and inputs the
resulting checkpoints are bit-reproducible on one numpy/BLAS build at one
BLAS thread count. Across thread counts, matrix products sum in a different
order, and training amplifies the last-bit differences (up to ~3e-3 in
single weights between 1 and 2 OpenBLAS threads at 200 MLM steps).

Seeded stages also make the two chains of run_pipeline independent:
pretrain_target reads only the base. Where BLAS is pinned so that a worker
gets cores of its own (_fork.fork_pays), it runs in a forked worker process
beside pretrain_source -> finetune_source, and its checkpoint keeps its
bytes. _Stages holds the wiring every stage shares (the seeded base, stage
specs, log and checkpoint paths), so run_pipeline and
experiment.benchmark_variants differ only in how they schedule the stages.
"""

from __future__ import annotations

import json
import logging
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from ._fork import forked
from .autodiff import GradTape, Tensor
from .data import TrainTriple
from .model import EncoderWeights, ModelConfig, encode_sparse_batch, init_weights, mlm_logits
from .optim import AdamState, adam_step
from .params import Checkpoint, compose, partition_parameters, save_checkpoint
from .vocab import MASK_ID, N_SPECIALS, Vocabulary

__all__ = [
    "MASK_ACTIONS", "mask_tokens", "MlmBatch", "build_mlm_batch",
    "StageSpec", "pretrain_mlm", "finetune_ir",
    "PipelineSpec", "MODES", "run_pipeline",
]

log = logging.getLogger(__name__)

MODES = ("full", "wo_source", "wo_pretraining")

# per-position bookkeeping codes for mask_tokens
MASK_ACTIONS = {"none": 0, "mask": 1, "random": 2, "keep": 3}

_MASK_SPLIT = (0.8, 0.1, 0.1)


def mask_tokens(ids: np.ndarray, rng: np.random.Generator, vocab_size: int,
                mask_prob: float = 0.15) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MLM corruption of one id sequence.

    Non-special positions are selected independently with mask_prob; a
    selected position becomes [MASK] with p=0.8, a random non-special id with
    p=0.1, or keeps its token with p=0.1. Returns (input_ids, labels,
    actions): labels hold the original id at selected positions and
    IGNORE_INDEX elsewhere.
    """
    ids = np.asarray(ids)
    if not 0.0 <= mask_prob <= 1.0:
        raise ValueError(f"mask_prob must be in [0, 1], got {mask_prob}")
    maskable = ids >= N_SPECIALS
    selected = maskable & (rng.random(ids.shape) < mask_prob)
    labels = np.where(selected, ids, ad.IGNORE_INDEX)
    input_ids = ids.copy()
    actions = np.zeros(ids.shape, dtype=np.int8)
    n_sel = int(selected.sum())
    if n_sel:
        roll = rng.random(n_sel)
        random_ids = rng.integers(N_SPECIALS, vocab_size, size=n_sel)
        act = np.full(n_sel, MASK_ACTIONS["keep"], dtype=np.int8)
        act[roll < _MASK_SPLIT[0] + _MASK_SPLIT[1]] = MASK_ACTIONS["random"]
        act[roll < _MASK_SPLIT[0]] = MASK_ACTIONS["mask"]
        sel_idx = np.flatnonzero(selected)
        to_random = act == MASK_ACTIONS["random"]
        input_ids[sel_idx[act == MASK_ACTIONS["mask"]]] = MASK_ID
        input_ids[sel_idx[to_random]] = random_ids[to_random]
        actions[sel_idx] = act
    return input_ids, labels, actions


@dataclass
class MlmBatch:
    input_ids: list[np.ndarray]   # the masked sequences
    labels: np.ndarray            # their labels, concatenated; IGNORE_INDEX where unsupervised

    @property
    def n_supervised(self) -> int:
        return int((self.labels != ad.IGNORE_INDEX).sum())


def build_mlm_batch(sequences: Sequence[np.ndarray], rng: np.random.Generator,
                    vocab_size: int, mask_prob: float = 0.15) -> MlmBatch:
    """Mask each sequence; labels follow the concatenation of the sequences."""
    if not sequences:
        raise ValueError("empty batch")
    masked = [mask_tokens(seq, rng, vocab_size, mask_prob) for seq in sequences]
    return MlmBatch([ids for ids, _, _ in masked], np.concatenate([labels for _, labels, _ in masked]))


@dataclass
class StageSpec:
    """Budget and hyperparameters for one training stage."""

    stage: str
    steps: int
    batch_size: int = 16
    seed: int = 0
    lr: float = 1e-3
    mask_prob: float = 0.15
    lambda_q: float = 1e-3
    lambda_d: float = 1e-4

    def __post_init__(self):
        for name, ok, rule in (
            ("steps", self.steps >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
            ("mask_prob", 0.0 <= self.mask_prob <= 1.0, "in [0, 1]"),
            ("lambda_q", math.isfinite(self.lambda_q) and self.lambda_q >= 0, "finite and >= 0"),
            ("lambda_d", math.isfinite(self.lambda_d) and self.lambda_d >= 0, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(f"{self.stage}: {name} must be {rule}, got {getattr(self, name)!r}")


class _StageLog:
    """JSON lines, each stamped with wall_s, seconds since the stage started,
    and maxrss_mb, the peak resident set of the process running the stage
    so far (a forked worker's own)."""

    def __init__(self, path: str | Path | None):
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self._start = time.perf_counter()

    def write(self, record: dict) -> None:
        if self._fh:
            record = {**record, "wall_s": time.perf_counter() - self._start,
                      "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            self._fh.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._fh:
            self._fh.close()


def _unigram_log_prior(cache: Sequence[np.ndarray], vocab_size: int) -> np.ndarray:
    """log(count + 1) of every id as an MLM target in the encoded corpus,
    shifted so that the maximum is 0. Special ids are never targets, so they
    count as absent and sit at the minimum with the unseen terms."""
    ids = np.concatenate(cache)
    counts = np.bincount(ids[ids >= N_SPECIALS], minlength=vocab_size)
    prior = np.log1p(counts.astype(np.float64))
    return prior - prior.max()


def pretrain_mlm(base: Checkpoint, docs: Sequence[str], vocab: Vocabulary,
                 spec: StageSpec, log_path: str | Path | None = None) -> Checkpoint:
    """MLM-train the domain subset on one corpus; task subset frozen.

    Before the first step, mlm.bias is set to the corpus's log unigram
    prior (_unigram_log_prior). From a zero bias, which Adam moves by at
    most lr per step, the tied embedding matrix has to carry that prior: it
    drags the rows of all terms absent from the corpus along one shared
    vector, and a short run learns nothing about the corpus. A non-positive
    bias never switches a term on in the sparse vector by itself, and
    softmax ignores the shift.

    With steps=0 the returned checkpoint is a byte-exact copy of base under
    the new stage tag.
    """
    if spec.stage not in ("pretrain_source", "pretrain_target"):
        raise ValueError(f"pretrain_mlm got stage {spec.stage!r}")
    if not docs:
        raise ValueError("pretraining corpus is empty")
    cfg = base.config
    if len(vocab) != cfg.vocab_size:
        raise ValueError(f"vocabulary size {len(vocab)} != model vocab_size {cfg.vocab_size}")
    weights = base.weights.copy()
    cache = [vocab.encode(text, cfg.max_seq_len) for text in docs]
    if not any((seq >= N_SPECIALS).any() for seq in cache):
        raise ValueError("no document in the corpus has content tokens")
    if spec.steps > 0:
        bias = weights["mlm.bias"].data
        bias[:] = _unigram_log_prior(cache, cfg.vocab_size).astype(bias.dtype)

    def step_loss(rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
        batch = _sample_supervised_batch(cache, rng, cfg.vocab_size, spec)
        rows = np.flatnonzero(batch.labels != ad.IGNORE_INDEX)
        loss = ad.softmax_cross_entropy(mlm_logits(weights, batch.input_ids, rows), batch.labels[rows])
        return loss, {"loss": float(loss.data)}

    return _train_stage(base, weights, partition_parameters(cfg).domain_names, spec,
                        step_loss, log_path)


def _sample_supervised_batch(cache: list[np.ndarray], rng: np.random.Generator,
                             vocab_size: int, spec: StageSpec, max_tries: int = 100) -> MlmBatch:
    # a draw can select nothing (small docs, low mask_prob); skip and redraw
    for _ in range(max_tries):
        idx = rng.integers(0, len(cache), size=spec.batch_size)
        batch = build_mlm_batch([cache[i] for i in idx], rng, vocab_size, spec.mask_prob)
        if batch.n_supervised > 0:
            return batch
    raise RuntimeError(f"no supervised positions after {max_tries} batch draws; "
                       f"mask_prob={spec.mask_prob} is too low for this corpus")


def finetune_ir(pretrained: Checkpoint, triples: Sequence[TrainTriple], docs: dict[str, str],
                vocab: Vocabulary, spec: StageSpec, log_path: str | Path | None = None) -> Checkpoint:
    """Contrastive-train the task subset on relevance triples; domain frozen.

    Each step draws spec.batch_size triples, encodes their queries,
    positives and negatives as one (3B, V) batch, and takes ad.ranking_loss
    with spec.lambda_q and spec.lambda_d: in-batch softmax cross entropy
    plus the weighted FLOPS terms, which the step log records as loss and
    flops_term.
    """
    if spec.stage != "finetune_source":
        raise ValueError(f"finetune_ir got stage {spec.stage!r}")
    if not triples:
        raise ValueError("no training triples")
    named = {t.pos_doc_id for t in triples} | {t.neg_doc_id for t in triples}
    unknown = sorted(named - docs.keys())
    if unknown:
        raise ValueError(f"triples reference unknown docs: {unknown[:10]}")
    cfg = pretrained.config
    if len(vocab) != cfg.vocab_size:
        raise ValueError(f"vocabulary size {len(vocab)} != model vocab_size {cfg.vocab_size}")
    weights = pretrained.weights.copy()
    doc_cache = {d: vocab.encode(docs[d], cfg.max_seq_len) for d in named}
    empty = sorted(d for d, seq in doc_cache.items() if not (seq >= N_SPECIALS).any())
    if empty:
        raise ValueError(f"triples reference docs with no content tokens: {empty[:10]}")
    query_cache = [vocab.encode(t.query, cfg.max_seq_len) for t in triples]
    for i, seq in enumerate(query_cache):
        if not (seq >= N_SPECIALS).any():
            raise ValueError(f"triple {i} has a query with no content tokens: {triples[i].query!r}")
    B = spec.batch_size

    def step_loss(rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
        idx = rng.integers(0, len(triples), size=B)
        seqs = [query_cache[i] for i in idx]
        seqs += [doc_cache[triples[i].pos_doc_id] for i in idx]
        seqs += [doc_cache[triples[i].neg_doc_id] for i in idx]
        loss, flops_term = ad.ranking_loss(encode_sparse_batch(weights, seqs),
                                           spec.lambda_q, spec.lambda_d)
        return loss, {"loss": float(loss.data), "flops_term": flops_term}

    return _train_stage(pretrained, weights, partition_parameters(cfg).task_names, spec,
                        step_loss, log_path)


def _train_stage(parent: Checkpoint, weights: EncoderWeights, trainable: frozenset[str],
                 spec: StageSpec, step_loss: Callable[[np.random.Generator], tuple[Tensor, dict]],
                 log_path: str | Path | None) -> Checkpoint:
    """Run spec.steps Adam steps on the trainable tensors of weights, a
    private copy of parent's weights, and return them as the stage's
    checkpoint.

    Every other tensor has requires_grad off for the stage, so the tape
    records no op that reads only frozen tensors and backward computes no
    gradient for them; Adam keeps moments for the trainable tensors only.
    step_loss draws the step's batch from the stage generator and runs the
    forward pass; it returns the loss and the log fields of the step.
    """
    train = {n: t for n, t in weights.tensors.items() if n in trainable}
    frozen = [t for n, t in weights.tensors.items() if n not in trainable]
    rng = np.random.default_rng(spec.seed)
    state = AdamState.for_weights(train, lr=spec.lr)
    stage_log = _StageLog(log_path)
    try:
        for t in frozen:
            t.requires_grad = False
        for step in range(spec.steps):
            with GradTape() as tape:
                loss, fields = step_loss(rng)
                tape.backward(loss)
            adam_step(train, {n: t.grad for n, t in train.items()}, state)
            weights.zero_grad()
            stage_log.write({"step": step, "stage": spec.stage, **fields})
            if step % 100 == 0:
                log.info("%s step %d loss %.4f", spec.stage, step, fields["loss"])
    finally:
        for t in frozen:
            t.requires_grad = True
        stage_log.close()
    return Checkpoint(weights, stage=spec.stage, parents=[parent.parent_ref()])


# ---------------------------------------------------------------- pipeline


@dataclass
class PipelineSpec:
    """One experiment: architecture, mode, and per-stage budgets."""

    model: ModelConfig
    mode: str = "full"
    seed: int = 0
    pretrain_steps: int = 1000
    finetune_steps: int = 1000
    batch_size: int = 16
    lr: float = 1e-3
    mask_prob: float = 0.15
    lambda_q: float = 1e-3
    lambda_d: float = 1e-4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        # built once here, so that StageSpec checks every number at construction;
        # stage seeds are derived from the experiment seed with fixed offsets
        self._stages = {
            stage: StageSpec(stage=stage, steps=self.pretrain_steps, batch_size=self.batch_size,
                             seed=self.seed + offset, lr=self.lr, mask_prob=self.mask_prob)
            for offset, stage in enumerate(("pretrain_source", "pretrain_target"), start=1)
        }
        self._stages["finetune_source"] = StageSpec(
            stage="finetune_source", steps=self.finetune_steps, batch_size=self.batch_size,
            seed=self.seed + 3, lr=self.lr, lambda_q=self.lambda_q, lambda_d=self.lambda_d)

    def pretrain_stage(self, stage: str) -> StageSpec:
        return self._stages[stage]

    def finetune_stage(self) -> StageSpec:
        return self._stages["finetune_source"]


class _Stages:
    """The stage, log and checkpoint wiring of one experiment.

    Every stage starts from the same seeded base, takes its StageSpec from
    the PipelineSpec, and with a workdir writes its JSONL log to
    workdir/logs/<name>.jsonl; save() writes checkpoints under workdir.
    run_pipeline and experiment.benchmark_variants schedule the stages.
    """

    def __init__(self, spec: PipelineSpec, source_docs: dict[str, str],
                 target_docs: dict[str, str], triples: Sequence[TrainTriple], vocab: Vocabulary,
                 workdir: str | Path | None):
        partition_parameters(spec.model)  # validates k before any training
        self.spec, self.vocab, self.triples = spec, vocab, list(triples)
        self.source_docs, self.target_docs = source_docs, target_docs
        self.workdir = None if workdir is None else Path(workdir)
        if self.workdir is not None:
            (self.workdir / "logs").mkdir(parents=True, exist_ok=True)
        self.base = Checkpoint(init_weights(spec.model, seed=spec.seed), stage="base")

    def _log_path(self, name: str) -> Path | None:
        return None if self.workdir is None else self.workdir / "logs" / f"{name}.jsonl"

    def pretrain(self, stage: str) -> Checkpoint:
        docs = self.source_docs if stage == "pretrain_source" else self.target_docs
        log.info("pretraining on %s corpus (%d docs)", stage.removeprefix("pretrain_"), len(docs))
        return pretrain_mlm(self.base, list(docs.values()), self.vocab,
                            self.spec.pretrain_stage(stage), self._log_path(stage))

    def finetune(self, init: Checkpoint, log_name: str = "finetune_source") -> Checkpoint:
        log.info("fine-tuning on %d triples from %r", len(self.triples), init.stage)
        return finetune_ir(init, self.triples, self.source_docs, self.vocab,
                           self.spec.finetune_stage(), self._log_path(log_name))

    def save(self, subdir: str, checkpoints: dict[str, Checkpoint]) -> None:
        if self.workdir is not None:
            for name, ckpt in checkpoints.items():
                save_checkpoint(ckpt, self.workdir / subdir / name)


def run_pipeline(spec: PipelineSpec, source_docs: dict[str, str], target_docs: dict[str, str],
                 triples: Sequence[TrainTriple], vocab: Vocabulary,
                 workdir: str | Path | None = None) -> dict[str, Checkpoint]:
    """Run the selected stages and return checkpoints keyed by stage tag.

    full:            pretrain on source and target, fine-tune from the
                     source-pretrained model, compose target-domain with
                     fine-tuned task.
    wo_source:       skip source pretraining; fine-tune starts from base;
                     composition unchanged.
    wo_pretraining:  skip both pretrains; the composed model is the
                     fine-tuned base model itself (zero-shot on target).

    With a workdir, each checkpoint lands in workdir/checkpoints/<stage> and
    each stage appends a JSONL training log under workdir/logs/.

    pretrain_target runs in a forked worker beside the source stages when
    _fork.fork_pays(), and inline after them otherwise; the checkpoints are
    the same bytes either way.
    """
    stages = _Stages(spec, source_docs, target_docs, triples, vocab, workdir)
    out: dict[str, Checkpoint] = {"base": stages.base}
    if spec.mode == "wo_pretraining":
        out["finetune_source"] = stages.finetune(stages.base)
        out["composed"] = out["finetune_source"].derive(
            "composed", parents=[out["finetune_source"].parent_ref()])
    else:
        def target_lane():
            yield stages.pretrain("pretrain_target")

        # the target pretrain reads no source stage: it runs in a forked
        # worker beside the source chain where that pays
        with forked(target_lane()) as pretrained_target:
            if spec.mode == "full":
                out["pretrain_source"] = stages.pretrain("pretrain_source")
            finetuned = stages.finetune(out.get("pretrain_source", stages.base))
            out["pretrain_target"] = pretrained_target()
        out["finetune_source"] = finetuned
        out["composed"] = compose(out["pretrain_target"], finetuned)
    stages.save("checkpoints", out)
    return out
