"""Batch command-line front end.

Subcommands map one-to-one onto pipeline stages plus dataset generation,
indexing, search, evaluation, and significance testing. Configuration is a
single JSON document; unknown keys are rejected so sweep-config typos fail
loudly instead of silently running defaults.

The workdir keeps data/ and vocab.txt (resolve_data, resolve_vocab), the
stages' checkpoints and logs (training._Stages, the stage store), and
indexes, runs and reports; README "Workdir layout" lists every file.

Every artifact is a function of (config, seed). Rerunning a command
reproduces it byte-exactly on the same numpy/BLAS build at the same BLAS
thread count; another thread count changes the summation order in matrix
products and hence the low bits of trained weights.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .data import Dataset, dataset_stats, load_dataset, load_qrels, load_queries, save_dataset
from .evaluation import evaluate_run, paired_ttest, read_run, write_run
from .experiment import (
    DEFAULT_CUTOFF, benchmark_variants, bm25_run, encode_queries,
    format_sweep_table, run_experiment, sweep_k,
)
from .index import (build_frequency_index, build_impact_index, load_index,
                    retrieve_sparse_batch, save_index)
from .model import ModelConfig
from .params import STAGES, Checkpoint, _read_json, load_checkpoint
from .synth import SynthSpec, generate
from .training import MODES, PipelineSpec, _Stages, read_stage
from .vocab import Vocabulary, build_vocabulary

log = logging.getLogger(__name__)

_DEFAULT_SWEEP = [0, 1, 2, 4]


@dataclasses.dataclass
class CliConfig:
    """Everything a run needs beyond command-line flags."""

    spec: PipelineSpec
    cutoff: int = DEFAULT_CUTOFF
    sweep: list[int] = dataclasses.field(default_factory=lambda: list(_DEFAULT_SWEEP))
    synth: SynthSpec | None = None
    source_dir: str | None = None
    target_dir: str | None = None


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {unknown}")


def _section(obj: dict, key: str) -> dict:
    section = obj.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {key!r} must be a JSON object")
    return section


def _build(cls, path: str | Path | None, section: str, **kwargs):
    """cls(**kwargs), with a TypeError or ValueError re-raised as a
    ValueError naming the config file and its section."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: section {section!r}: {exc}") from None


def load_config(path: str | Path | None) -> CliConfig:
    """Parse the JSON config; absent sections fall back to toy defaults."""
    obj = {} if path is None else _read_json(Path(path))
    _reject_unknown(obj, ("model", "pipeline", "data", "cutoff", "sweep_k"), "config root")

    model_obj = _section(obj, "model")
    _reject_unknown(model_obj, (f.name for f in dataclasses.fields(ModelConfig)), "model")
    model = _build(ModelConfig, path, "model", **model_obj)

    pipe_obj = _section(obj, "pipeline")
    pipe_keys = (f.name for f in dataclasses.fields(PipelineSpec) if f.name != "model")
    _reject_unknown(pipe_obj, pipe_keys, "pipeline")
    spec = _build(PipelineSpec, path, "pipeline", model=model, **pipe_obj)

    data_obj = _section(obj, "data")
    _reject_unknown(data_obj, ("synth", "source_dir", "target_dir"), "data")
    synth = None
    if "synth" in data_obj:
        synth_obj = data_obj["synth"]
        if not isinstance(synth_obj, dict):
            raise ValueError("config section 'data.synth' must be a JSON object")
        _reject_unknown(synth_obj, (f.name for f in dataclasses.fields(SynthSpec)), "data.synth")
        synth = _build(SynthSpec, path, "data.synth", **synth_obj)
    source_dir = data_obj.get("source_dir")
    target_dir = data_obj.get("target_dir")
    if (source_dir is None) != (target_dir is None):
        raise ValueError("data.source_dir and data.target_dir must be given together")
    if synth is not None and source_dir is not None:
        raise ValueError("config gives both data.synth and data directories; pick one")

    cutoff = obj.get("cutoff", DEFAULT_CUTOFF)
    if not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    sweep = obj.get("sweep_k", list(_DEFAULT_SWEEP))
    if not isinstance(sweep, list) or not all(isinstance(k, int) for k in sweep) or not sweep:
        raise ValueError("sweep_k must be a non-empty list of integers")

    return CliConfig(spec=spec, cutoff=cutoff, sweep=sweep, synth=synth,
                     source_dir=source_dir, target_dir=target_dir)


def apply_overrides(cfg: CliConfig, args: argparse.Namespace) -> CliConfig:
    """Command-line flags win over the config file."""
    spec = cfg.spec
    if getattr(args, "mode", None) is not None:
        spec = dataclasses.replace(spec, mode=args.mode)
    if getattr(args, "seed", None) is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if getattr(args, "k", None) is not None:
        spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model,
                                                                   k_domain_layers=args.k))
    cutoff = cfg.cutoff
    if getattr(args, "cutoff", None) is not None:
        if args.cutoff < 1:
            raise ValueError("cutoff must be positive")
        cutoff = args.cutoff
    return dataclasses.replace(cfg, spec=spec, cutoff=cutoff)


# ---------------------------------------------------------------------------
# workspace resolution


def _log_stats(name: str, ds: Dataset) -> None:
    st = dataset_stats(ds)
    log.info("%s: %d docs (avg %.1f tokens), %d queries (avg %.1f tokens), "
             "%d judged queries, %d triples",
             name, st.n_docs, st.avg_doc_tokens, st.n_queries, st.avg_query_tokens,
             len([q for q in ds.qrels if ds.qrels[q]]), st.n_triples)


def resolve_data(cfg: CliConfig, workdir: Path) -> tuple[Dataset, Dataset]:
    """Load datasets, generating and persisting synthetic ones on first use.

    Priority: existing workdir/data -> configured directories -> synthetic
    generation with the configured (or default) SynthSpec.
    """
    sdir, tdir = workdir / "data" / "source", workdir / "data" / "target"
    if (sdir / "corpus.jsonl").exists() and (tdir / "corpus.jsonl").exists():
        source, target = load_dataset(sdir), load_dataset(tdir)
    elif cfg.source_dir is not None:
        source, target = load_dataset(cfg.source_dir), load_dataset(cfg.target_dir)
    else:
        spec = cfg.synth if cfg.synth is not None else SynthSpec()
        log.info("generating synthetic benchmark (seed %d)", spec.seed)
        source, target = generate(spec)
        save_dataset(source, sdir)
        save_dataset(target, tdir)
    source.validate()
    target.validate()
    _log_stats("source", source)
    _log_stats("target", target)
    return source, target


def resolve_vocab(workdir: Path, source: Dataset, target: Dataset, budget: int) -> Vocabulary:
    """The shared vocabulary is built once from both document collections and
    pinned in the workdir so every stage sees identical ids."""
    path = workdir / "vocab.txt"
    if path.exists():
        return Vocabulary.load(path)
    vocab = build_vocabulary([source.docs.values(), target.docs.values()], budget)
    workdir.mkdir(parents=True, exist_ok=True)
    vocab.save(path)
    log.info("built vocabulary: %d entries -> %s", len(vocab), path)
    return vocab


def fit_model(model: ModelConfig, vocab: Vocabulary) -> ModelConfig:
    """The config's vocab_size is a budget; the encoder uses the actual count."""
    if model.vocab_size != len(vocab):
        log.info("vocab_size %d adjusted to the %d-entry vocabulary",
                 model.vocab_size, len(vocab))
        return dataclasses.replace(model, vocab_size=len(vocab))
    return model


def _prepare(args: argparse.Namespace) -> tuple[CliConfig, Path, Dataset, Dataset, Vocabulary]:
    """Shared preamble: config + overrides, data, vocabulary, fitted model."""
    cfg = apply_overrides(load_config(args.config), args)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    source, target = resolve_data(cfg, workdir)
    vocab = resolve_vocab(workdir, source, target, cfg.spec.model.vocab_size)
    model = fit_model(cfg.spec.model, vocab)
    cfg = dataclasses.replace(cfg, spec=dataclasses.replace(cfg.spec, model=model))
    return cfg, workdir, source, target, vocab


def _store(args: argparse.Namespace) -> _Stages:
    """The stage store of the run that the flags and config describe."""
    cfg, workdir, source, target, vocab = _prepare(args)
    return _Stages(cfg.spec, source.docs, target.docs, source.triples, vocab, workdir)


def _resolve_checkpoint(workdir: Path, ref: str) -> Checkpoint:
    """A checkpoint reference is a stage tag or a directory path."""
    if ref in STAGES:
        return read_stage(workdir, ref, "pipeline")
    path = Path(ref)
    if (path / "manifest.json").exists():
        return load_checkpoint(path)
    raise ValueError(f"checkpoint reference {ref!r} is neither a stage tag {STAGES} "
                     f"nor a checkpoint directory")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_gen(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec = cfg.synth if cfg.synth is not None else SynthSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    workdir = Path(args.workdir)
    source, target = generate(spec)
    save_dataset(source, workdir / "data" / "source")
    save_dataset(target, workdir / "data" / "target")
    (workdir / "vocab.txt").unlink(missing_ok=True)  # built from the old corpora
    vocab = resolve_vocab(workdir, source, target, cfg.spec.model.vocab_size)
    for name, ds in (("source", source), ("target", target)):
        st = dataset_stats(ds)
        print(f"{name}: {st.n_docs} docs (avg {st.avg_doc_tokens:.1f} tokens), "
              f"{st.n_queries} queries (avg {st.avg_query_tokens:.1f} tokens), "
              f"{st.n_judgments} judgments, {st.n_triples} triples")
    print(f"vocabulary: {len(vocab)} entries")
    print(f"wrote {workdir / 'data'}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    stages = _store(args)
    stages.saved_base()
    [path] = stages.save("checkpoints", {args.stage: stages.pretrain(args.stage)})
    spec = stages.spec
    print(f"saved {path} ({spec.pretrain_steps} steps, k={spec.model.k_domain_layers})")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    stages = _store(args)
    if stages.spec.mode == "full":
        init = stages.load("pretrain_source", "pretrain --stage pretrain_source")
    else:
        init = stages.saved_base()
    [path] = stages.save("checkpoints", {"finetune_source": stages.finetune(init)})
    print(f"saved {path} (from {init.stage!r}, {stages.spec.finetune_steps} steps)")
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    stages = _store(args)
    finetuned = stages.load("finetune_source", "finetune")
    pretrained = (None if stages.spec.mode == "wo_pretraining"
                  else stages.load("pretrain_target", "pretrain --stage pretrain_target"))
    composed = stages.composed(finetuned, pretrained)
    [path] = stages.save("checkpoints", {"composed": composed})
    parents = ", ".join(f"{p['stage']}@{p['checksum'][:12]}" for p in composed.parents)
    print(f"saved {path} (parents: {parents})")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    cfg, workdir, source, target, vocab = _prepare(args)
    ds = source if args.domain == "source" else target
    if args.kind == "frequency":
        index = build_frequency_index(ds.docs, vocab)
        default_out = workdir / "indexes" / f"{args.domain}_frequency"
    else:
        ckpt = _resolve_checkpoint(workdir, args.checkpoint)
        index = build_impact_index(ds.docs, ckpt.weights, vocab)
        default_out = workdir / "indexes" / f"{args.domain}_impact_{args.checkpoint}"
    out = Path(args.out) if args.out else default_out
    save_index(index, out)
    n_terms = np.count_nonzero(np.bincount(index.matrix.indices))
    print(f"saved {out} ({index.n_docs} docs, {n_terms} posting lists)")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    cfg, workdir, _, _, vocab = _prepare(args)
    index = load_index(args.index)
    queries = load_queries(args.queries)
    if index.kind == "frequency":
        runs = bm25_run(index, queries, vocab, cfg.cutoff)
    else:
        if args.checkpoint is None:
            raise ValueError("searching an impact index needs --checkpoint to encode queries")
        ckpt = _resolve_checkpoint(workdir, args.checkpoint)
        runs = retrieve_sparse_batch(index, encode_queries(ckpt.weights, queries, vocab), cfg.cutoff)
    tag = args.tag if args.tag else index.kind
    write_run(runs, args.out, tag=tag)
    print(f"wrote {args.out} ({len(runs)} queries, cutoff {cfg.cutoff})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    ndcg, mrr = evaluate_run(run, qrels, args.depth)
    n = len(ndcg)
    print(json.dumps({
        f"ndcg{args.depth}": sum(ndcg.values()) / n,
        f"mrr{args.depth}": sum(mrr.values()) / n,
        "n_queries": n,
    }, indent=2))
    return 0


def cmd_ttest(args: argparse.Namespace) -> int:
    qrels = load_qrels(args.qrels)
    ndcg_a, _ = evaluate_run(read_run(args.run_a), qrels, args.depth)
    ndcg_b, _ = evaluate_run(read_run(args.run_b), qrels, args.depth)
    if ndcg_a.keys() != ndcg_b.keys():
        raise ValueError("the two runs cover different evaluated query sets")
    qids = sorted(ndcg_a)
    result = paired_ttest([ndcg_a[q] for q in qids], [ndcg_b[q] for q in qids])
    print(json.dumps({
        "metric": f"ndcg{args.depth}",
        "n_queries": len(qids),
        "mean_a": sum(ndcg_a.values()) / len(qids),
        "mean_b": sum(ndcg_b.values()) / len(qids),
        "mean_diff": result.mean_diff,
        "t": result.t,
        "p": result.p,
        "df": result.df,
    }, indent=2))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg, workdir, source, target, vocab = _prepare(args)
    if args.variants:
        if cfg.spec.mode != "full":
            raise ValueError("--variants needs mode 'full' (it ablates from the full pipeline)")
        _, report = benchmark_variants(cfg.spec, source, target, vocab,
                                       cutoff=cfg.cutoff, workdir=workdir)
    else:
        _, report = run_experiment(cfg.spec, source, target, vocab,
                                   cutoff=cfg.cutoff, workdir=workdir)
    print(report.format_table().rstrip("\n"))
    print(f"report: {workdir / 'report.json'}")
    return 0


def cmd_sweep_k(args: argparse.Namespace) -> int:
    cfg, workdir, source, target, vocab = _prepare(args)
    if args.ks:
        try:
            k_values = [int(part) for part in args.ks.split(",") if part != ""]
        except ValueError:
            raise ValueError(f"k list {args.ks!r} is not comma-separated integers") from None
        if not k_values:
            raise ValueError("empty k list")
    else:
        k_values = cfg.sweep
    rows = sweep_k(cfg.spec, k_values, source, target, vocab,
                   cutoff=cfg.cutoff, workdir=workdir)
    table = format_sweep_table(rows)
    (workdir / "sweep.json").write_text(json.dumps(rows, indent=2), encoding="utf-8")
    (workdir / "sweep.txt").write_text(table, encoding="utf-8")
    print(table.rstrip("\n"))
    print(f"sweep report: {workdir / 'sweep.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp: argparse.ArgumentParser, cutoff: bool = True) -> None:
    sp.add_argument("--config", default=None, help="JSON config (defaults used if omitted)")
    sp.add_argument("--workdir", required=True, help="artifact directory")
    sp.add_argument("--mode", choices=MODES, default=None, help="pipeline mode override")
    sp.add_argument("--k", type=int, default=None, help="domain layer count override")
    sp.add_argument("--seed", type=int, default=None, help="experiment seed override")
    if cutoff:
        sp.add_argument("--cutoff", type=int, default=None,
                        help=f"retrieval depth (default {DEFAULT_CUTOFF})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spladapt",
        description="Cross-domain adaptation experiments for a sparse lexical retriever.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("synth-gen", help="generate the synthetic two-domain benchmark")
    sp.add_argument("--config", default=None)
    sp.add_argument("--workdir", required=True)
    sp.add_argument("--seed", type=int, default=None, help="generator seed override")
    sp.set_defaults(func=cmd_synth_gen)

    sp = sub.add_parser("pretrain", help="masked-language-model training of the domain subset")
    _add_common(sp, cutoff=False)
    sp.add_argument("--stage", required=True, choices=("pretrain_source", "pretrain_target"))
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("finetune", help="relevance training of the task subset")
    _add_common(sp, cutoff=False)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("compose", help="graft the target domain subset onto the fine-tuned task subset")
    _add_common(sp, cutoff=False)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("index", help="build an inverted index over a corpus")
    _add_common(sp, cutoff=False)
    sp.add_argument("--kind", required=True, choices=("impact", "frequency"))
    sp.add_argument("--domain", choices=("source", "target"), default="target")
    sp.add_argument("--checkpoint", default="composed",
                    help="stage tag or checkpoint dir for impact indexing")
    sp.add_argument("--out", default=None, help="index directory (default under workdir)")
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("search", help="run queries against a saved index")
    _add_common(sp)
    sp.add_argument("--index", required=True, help="index directory")
    sp.add_argument("--queries", required=True, help="queries.tsv")
    sp.add_argument("--out", required=True, help="run file to write")
    sp.add_argument("--checkpoint", default=None,
                    help="stage tag or checkpoint dir (impact indexes only)")
    sp.add_argument("--tag", default=None, help="run tag (default: index kind)")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("evaluate", help="score a run file against qrels")
    sp.add_argument("--run", required=True)
    sp.add_argument("--qrels", required=True)
    sp.add_argument("--depth", type=int, default=10, help="metric depth (default 10)")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("ttest", help="paired significance test between two run files")
    sp.add_argument("--run-a", required=True, dest="run_a")
    sp.add_argument("--run-b", required=True, dest="run_b")
    sp.add_argument("--qrels", required=True)
    sp.add_argument("--depth", type=int, default=10)
    sp.set_defaults(func=cmd_ttest)

    sp = sub.add_parser("pipeline", help="run all stages and emit the evaluation report")
    _add_common(sp)
    sp.add_argument("--variants", action="store_true",
                    help="also train the ablations and report all five rows")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("sweep-k", help="rerun the pipeline across domain/task split points")
    _add_common(sp)
    sp.add_argument("ks", nargs="?", default=None,
                    help="comma-separated k values (default: config sweep_k)")
    sp.set_defaults(func=cmd_sweep_k)

    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI contract: diagnostic + nonzero, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
