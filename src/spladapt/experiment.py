"""Experiment orchestration: encode, index, retrieve, and report.

Report rows for one adaptation experiment on the target domain:
    bm25       frequency index + BM25 over target docs (no training)
    zeroshot   the fine-tuned source model applied to the target as-is
    composed   target-domain subset grafted onto the fine-tuned task subset
Significance is paired on per-query nDCG, composed against every other
row. run_experiment (through build_report) and benchmark_variants build
the report in one place, _finish_report.

Where BLAS is pinned so that a worker gets cores of its own
(_fork.fork_pays), parts that read nothing of each other run in one forked
worker process beside the caller: in build_report, every sparse row but
composed; in benchmark_variants, a whole lane of stages and rows, streamed
back as each is made. Every file a run writes keeps its bytes; only timing
and peak-RSS fields of stage logs differ.
"""

from __future__ import annotations

import logging
from pathlib import Path

from ._fork import forked
from .data import Dataset
from .evaluation import (
    EvalReport, MethodResult, sparsity_stats, write_run,
)
from .index import (
    InvertedIndex, RankedList, build_frequency_index, encode_corpus,
    index_from_vectors, retrieve_bm25, retrieve_sparse_batch, save_index,
)
from .model import EncoderWeights, SparseVector
from .params import Checkpoint
from .training import PipelineSpec, _Stages, run_pipeline

# Stages fine-tune, compose and save through training._Stages, and rows
# score through retrieve_sparse_batch. These four names stay importable from
# here because bench/tracing.py patches them in this module.
from .index import retrieve_sparse  # noqa: F401,E402
from .params import compose, save_checkpoint  # noqa: F401,E402
from .training import finetune_ir  # noqa: F401,E402
from .vocab import Vocabulary, tokenize

__all__ = [
    "DEFAULT_CUTOFF", "encode_queries", "bm25_run",
    "sparse_method", "bm25_method", "build_report",
    "run_experiment", "benchmark_variants", "sweep_k", "format_sweep_table",
]

log = logging.getLogger(__name__)

DEFAULT_CUTOFF = 100


def encode_queries(weights: EncoderWeights, queries: dict[str, str],
                   vocab: Vocabulary) -> dict[str, SparseVector]:
    """Sparse query vectors; a query with no content tokens encodes empty."""
    return encode_corpus(weights, queries, vocab)


def bm25_run(index: InvertedIndex, queries: dict[str, str], vocab: Vocabulary,
             cutoff: int) -> dict[str, RankedList]:
    return {qid: retrieve_bm25(index, text, vocab, cutoff, query_id=qid)
            for qid, text in queries.items()}


def sparse_method(name: str, weights: EncoderWeights, dataset: Dataset, vocab: Vocabulary,
                  cutoff: int) -> tuple[MethodResult, dict[str, RankedList], InvertedIndex]:
    """Index the dataset's docs with the encoder, retrieve its queries, and
    aggregate metrics plus doc/query sparsity."""
    doc_reps = encode_corpus(weights, dataset.docs, vocab)
    index = index_from_vectors(doc_reps, {d: len(tokenize(t)) for d, t in dataset.docs.items()})
    query_vecs = encode_queries(weights, dataset.queries, vocab)
    run = retrieve_sparse_batch(index, query_vecs, cutoff)
    method = MethodResult.from_run(name, run, dataset.qrels)
    method.doc_sparsity = sparsity_stats(doc_reps.values())
    method.query_sparsity = sparsity_stats(query_vecs.values())
    return method, run, index


def bm25_method(name: str, dataset: Dataset, vocab: Vocabulary,
                cutoff: int) -> tuple[MethodResult, dict[str, RankedList], InvertedIndex]:
    index = build_frequency_index(dataset.docs, vocab)
    run = bm25_run(index, dataset.queries, vocab, cutoff)
    return MethodResult.from_run(name, run, dataset.qrels), run, index


def build_report(named_weights: dict[str, EncoderWeights], target: Dataset, vocab: Vocabulary,
                 cutoff: int = DEFAULT_CUTOFF, metadata: dict | None = None,
                 workdir: str | Path | None = None) -> EvalReport:
    """Evaluate BM25 plus each named encoder on the target queries, through
    _finish_report. named_weights must hold a "composed" encoder."""
    if "composed" not in named_weights:
        raise ValueError("build_report needs the 'composed' weights")

    # Rows read nothing of each other. A forked worker builds every sparse
    # row but composed and sends back (result, runs); the caller builds
    # bm25 and the composed row, whose index it saves.
    def other_rows():
        yield {name: sparse_method(name, weights, target, vocab, cutoff)[:2]
               for name, weights in named_weights.items() if name != "composed"}

    with forked(other_rows()) as forked_rows:
        bm25 = bm25_method("bm25", target, vocab, cutoff)
        res, runs, composed_index = sparse_method(
            "composed", named_weights["composed"], target, vocab, cutoff)
        rows = forked_rows()
    rows["composed"] = (res, runs)
    return _finish_report(bm25, {name: rows[name] for name in named_weights}, composed_index,
                          cutoff, metadata, workdir)


def _finish_report(bm25: tuple[MethodResult, dict[str, RankedList], InvertedIndex],
                   rows: dict[str, tuple[MethodResult, dict[str, RankedList]]],
                   composed_index: InvertedIndex, cutoff: int, metadata: dict | None,
                   workdir: str | Path | None) -> EvalReport:
    """The report of both drivers: the bm25 row and the sparse rows, in
    rows' order, with composed significance-tested against every other. With
    a workdir, the run files, both indexes, report.json and report.txt are
    written."""
    bm25_res, bm25_runs, bm25_index = bm25
    methods = [bm25_res] + [res for res, _ in rows.values()]
    report = EvalReport(dataset="target", cutoff=cutoff, metric_depth=10,
                        methods=methods, metadata=metadata or {})
    for m in methods:
        if m.name != "composed":
            report.add_significance("composed", m.name)

    if workdir is not None:
        workdir = Path(workdir)
        runs_dir = workdir / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        all_runs = {"bm25": bm25_runs} | {name: runs for name, (_, runs) in rows.items()}
        for tag, runs in all_runs.items():
            write_run(runs, runs_dir / f"{tag}.trec", tag=tag)
        save_index(bm25_index, workdir / "indexes" / "target_frequency")
        save_index(composed_index, workdir / "indexes" / "target_impact_composed")
        (workdir / "report.json").write_text(report.to_json(), encoding="utf-8")
        (workdir / "report.txt").write_text(report.format_table(), encoding="utf-8")
    return report


def _metadata(spec: PipelineSpec) -> dict:
    """The run settings a report records."""
    return {"mode": spec.mode, "seed": spec.seed, "k": spec.model.k_domain_layers,
            "pretrain_steps": spec.pretrain_steps, "finetune_steps": spec.finetune_steps}


def run_experiment(spec: PipelineSpec, source: Dataset, target: Dataset, vocab: Vocabulary,
                   cutoff: int = DEFAULT_CUTOFF,
                   workdir: str | Path | None = None) -> tuple[dict[str, Checkpoint], EvalReport]:
    """Full train-compose-evaluate pass in the selected mode, reported in the
    module docstring's three rows."""
    checkpoints = run_pipeline(spec, source.docs, target.docs, source.triples, vocab,
                               workdir=workdir)
    named = {"zeroshot": checkpoints["finetune_source"].weights,
             "composed": checkpoints["composed"].weights}
    report = build_report(named, target, vocab, cutoff=cutoff, metadata=_metadata(spec),
                          workdir=workdir)
    for line in report.format_table().splitlines():
        log.info("%s", line)
    return checkpoints, report


def benchmark_variants(spec: PipelineSpec, source: Dataset, target: Dataset, vocab: Vocabulary,
                       cutoff: int = DEFAULT_CUTOFF,
                       workdir: str | Path | None = None) -> tuple[dict[str, Checkpoint], EvalReport]:
    """Five-row comparison on the target domain from shared stages.

    Beyond the full pipeline's checkpoints, one extra fine-tune from the raw
    base fills in the ablations:
        composed        compose(target pretrain, fine-tune from source pretrain)
        zeroshot        that same fine-tune applied to the target unchanged
        wo_source       compose(target pretrain, fine-tune from base)
        wo_pretraining  fine-tune from base, applied unchanged
    All variants share the base weights, the target pretrain, and the
    fine-tuning data order, so rows differ only in the ablated ingredient.

    The stages run in two lanes. A forked worker, where _fork.fork_pays(),
    runs the target pretrain, the fine-tune from base, the wo_source
    compose and the two ablation rows, handing back each result as it is
    made. The caller runs the source pretrain and fine-tune, the zeroshot
    and bm25 rows, then the composed checkpoint and row from the target
    pretrain the worker sent, and writes every file. Without the worker the
    same calls run inline, and every file keeps its bytes.
    """
    if spec.mode != "full":
        raise ValueError(f"variant benchmark starts from mode 'full', got {spec.mode!r}")
    stages = _Stages(spec, source.docs, target.docs, source.triples, vocab, workdir)

    def worker_lane():
        pretrained_target = stages.pretrain("pretrain_target")
        yield pretrained_target
        c_base = stages.finetune(stages.base, log_name="finetune_from_base")
        yield c_base
        wo_source = stages.composed(c_base, pretrained_target)
        yield wo_source
        for name, ckpt in (("wo_source", wo_source), ("wo_pretraining", c_base)):
            yield sparse_method(name, ckpt.weights, target, vocab, cutoff)[:2]

    with forked(worker_lane()) as from_worker:
        pretrained_source = stages.pretrain("pretrain_source")
        finetuned = stages.finetune(pretrained_source)
        zeroshot = sparse_method("zeroshot", finetuned.weights, target, vocab, cutoff)[:2]
        bm25 = bm25_method("bm25", target, vocab, cutoff)
        pretrained_target = from_worker()
        composed = stages.composed(finetuned, pretrained_target)
        res, runs, composed_index = sparse_method(
            "composed", composed.weights, target, vocab, cutoff)
        c_base = from_worker()
        wo_source = from_worker()
        wo_source_row = from_worker()
        wo_pretraining_row = from_worker()

    rows = {"zeroshot": zeroshot, "composed": (res, runs),
            "wo_source": wo_source_row, "wo_pretraining": wo_pretraining_row}

    checkpoints = {"base": stages.base, "pretrain_source": pretrained_source,
                   "pretrain_target": pretrained_target, "finetune_source": finetuned,
                   "composed": composed}
    stages.save("checkpoints", checkpoints)
    variants = {"finetune_from_base": c_base, "wo_source": wo_source}
    stages.save("variants", variants)
    report = _finish_report(bm25, rows, composed_index, cutoff,
                            _metadata(spec) | {"mode": "full+variants"}, workdir)
    return checkpoints | variants, report


def sweep_k(spec: PipelineSpec, k_values: list[int], source: Dataset, target: Dataset,
            vocab: Vocabulary, cutoff: int = DEFAULT_CUTOFF,
            workdir: str | Path | None = None) -> list[dict]:
    """Rerun the pipeline per k and collect the composed row of each report.

    Every run shares ``spec.seed``, so rows differ only in where the
    domain/task boundary sits.
    """
    import dataclasses

    if len(set(k_values)) != len(k_values):
        raise ValueError("duplicate k values in sweep")
    rows: list[dict] = []
    for k in k_values:
        k_spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, k_domain_layers=k))
        sub = Path(workdir) / f"k{k}" if workdir is not None else None
        log.info("sweep: k=%d", k)
        _, report = run_experiment(k_spec, source, target, vocab, cutoff=cutoff, workdir=sub)
        composed = report.method("composed")
        rows.append({
            "k": k,
            "ndcg10": composed.ndcg10,
            "mrr10": composed.mrr10,
            "doc_mean_l0": composed.doc_sparsity["mean_l0"],
            "query_mean_l0": composed.query_sparsity["mean_l0"],
            "zeroshot_ndcg10": report.method("zeroshot").ndcg10,
            "bm25_ndcg10": report.method("bm25").ndcg10,
        })
    return rows


def format_sweep_table(rows: list[dict]) -> str:
    header = f"{'k':>3} {'nDCG@10':>10} {'MRR@10':>10} {'doc L0':>10} {'query L0':>10} {'0-shot':>10} {'bm25':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['k']:>3} {r['ndcg10']:>10.4f} {r['mrr10']:>10.4f} "
                     f"{r['doc_mean_l0']:>10.1f} {r['query_mean_l0']:>10.1f} "
                     f"{r['zeroshot_ndcg10']:>10.4f} {r['bm25_ndcg10']:>10.4f}")
    return "\n".join(lines) + "\n"
