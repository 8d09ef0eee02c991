"""spladapt benchmark: adapt an encoder to the target domain, then serve it.

    python3 bench/run.py --workload adapt --seed 0 --seconds 18 --trace 0

Both workloads are the same user job on generated inputs, with a different
part of it dominating:

    set-up       generate the synthetic two-domain benchmark, build the
                 vocabulary padded to 2000 terms and draw the BM25 queries
                 (repeated; median reported)
    experiment   train, compose and evaluate, from the generated inputs to
                 report.json in a workdir
    serving      whole rounds until --seconds have passed, each round:
                   index build  encode the target corpus with the served
                                checkpoint, index it, save the index
                   cold start   load the served checkpoint and the saved
                                index, answer the first query
                   a pass       closed loop, one client, one pass over the
                                target queries: encode one query, take the
                                exact top 100; after each such request,
                                BM25_PER_QUERY BM25 requests, top 100

adapt runs the five-row variant experiment at the larger training budget
and serves its composed checkpoint (sparse vectors). search_dense runs the
three-row experiment at a small budget and serves its random-init base
checkpoint (dense vectors).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics from spans
around the package's public calls with --trace 1). Outputs are checked
against oracles in checks.py after the timed phases. A summary of each run,
with its environment and (traced) spans, is written to bench/out/.
"""

import os

# BLAS threads must be fixed before numpy loads. Trained bytes, and with them
# vector density, depend on the thread count; 1 is within nproc anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

VOCAB_SIZE = 2000
K_DOMAIN_LAYERS = 1
LAMBDA_D = 1e-3
CUTOFF = 100
SETUP_REPEATS = 9
BM25_PER_QUERY = 10  # BM25 requests after each learned one: BM25 answers in microseconds
# BM25 traffic: word runs drawn from the target docs. The 100 target queries
# are one or a few words, and whether a seed's queries hit long posting
# lists moved BM25 throughput by 0.2 (quartile spread over ten seeds); 500
# runs of three words spread by 0.04 over the same seeds.
BM25_QUERIES = 500
BM25_QUERY_WORDS = 3
ENCODE_BATCH = 32  # encode_corpus's default batch size
# The loss check needs stages past their first plateaus: MLM loss sits at the
# unigram prior (about 5.5) for roughly 80 steps, and fine-tuning from base can
# stay flat for 20 (adapt trains 100 and 30).
MLM_PLATEAU_STEPS = 80


@dataclass(frozen=True)
class Workload:
    variants: bool       # five-row benchmark_variants, else three-row run_experiment
    pretrain_steps: int
    finetune_steps: int
    served: str          # stage checkpoint the serving phases load
    served_docs: int     # target docs the served index holds (all 800, or the first n by id)


WORKLOADS = {
    "adapt": Workload(variants=True, pretrain_steps=100, finetune_steps=30, served="composed",
                      served_docs=800),
    # A dense index of all 800 docs takes about 14 s to build and cold-start,
    # one sample per serving window; 100 docs give five or six.
    "search_dense": Workload(variants=False, pretrain_steps=2, finetune_steps=2, served="base",
                             served_docs=100),
}


def import_package():
    """The spladapt package under src/ of this checkout, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spladapt
    except ImportError as exc:
        sys.exit(f"bench: cannot import spladapt from {src}: {exc}")
    if Path(spladapt.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: spladapt imported from {spladapt.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def make_inputs(seed: int):
    """Synthetic source/target datasets, the vocabulary padded to VOCAB_SIZE,
    and the BM25 queries as (query id, text)."""
    from spladapt import synth, vocab
    from spladapt.vocab import N_SPECIALS, Vocabulary

    source, target = synth.generate(synth.SynthSpec(seed=seed))
    natural = vocab.build_vocabulary([source.docs.values(), target.docs.values()], max_size=VOCAB_SIZE)
    filler = [f"zfill{i:04d}" for i in range(VOCAB_SIZE - N_SPECIALS - len(natural.terms))]
    rng = np.random.default_rng(seed)
    doc_ids = sorted(target.docs)
    bm25_queries = []
    for n in range(BM25_QUERIES):
        words = target.docs[doc_ids[rng.integers(len(doc_ids))]].split()
        start = int(rng.integers(len(words) - BM25_QUERY_WORDS + 1))
        bm25_queries.append((f"bq{n:03d}", " ".join(words[start: start + BM25_QUERY_WORDS])))
    return source, target, Vocabulary(list(natural.terms) + filler), bm25_queries


def dense_rows(weights, texts: list[str], vocab, batch: int) -> np.ndarray:
    """Dense (n, V) encoder output, batched as the program batches it so the
    rows are bitwise those its sparse vectors came from."""
    from spladapt.model import encode_sparse_batch
    from spladapt.vocab import N_SPECIALS, PAD_ID

    out = np.zeros((len(texts), weights.config.vocab_size), dtype=np.float32)
    for start in range(0, len(texts), batch):
        seqs = [vocab.encode(t, weights.config.max_seq_len) for t in texts[start: start + batch]]
        keep = [i for i, s in enumerate(seqs) if (s >= N_SPECIALS).any()]
        if not keep:
            continue
        ids = np.full((len(keep), max(len(seqs[i]) for i in keep)), PAD_ID, dtype=np.int64)
        for row, i in enumerate(keep):
            ids[row, : len(seqs[i])] = seqs[i]
        out[[start + i for i in keep]] = encode_sparse_batch(weights, ids).data
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from spladapt import experiment, index, params
    from spladapt.model import ModelConfig
    from spladapt.training import PipelineSpec
    from spladapt.vocab import tokenize

    wl = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None

    def phase(name: str) -> None:
        if tracer:
            tracer.phase = name

    if tracer:
        tracer.install()
    try:
        wall_start = time.perf_counter()
        phase("setup")
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            source, target, vocab, bm25_queries = make_inputs(seed)
            setup_times.append(time.perf_counter() - t0)

        phase("experiment")
        exp_dir = workdir / "experiment"
        spec = PipelineSpec(model=ModelConfig(vocab_size=VOCAB_SIZE, k_domain_layers=K_DOMAIN_LAYERS),
                            mode="full", seed=seed, pretrain_steps=wl.pretrain_steps,
                            finetune_steps=wl.finetune_steps, lambda_d=LAMBDA_D)
        run_fn = experiment.benchmark_variants if wl.variants else experiment.run_experiment
        t0 = time.perf_counter()
        ckpts, report = run_fn(spec, source, target, vocab, cutoff=CUTOFF, workdir=exp_dir)
        adapt_s = time.perf_counter() - t0

        phase("bm25_load")
        bm25_index = index.load_index(exp_dir / "indexes" / "target_frequency")

        queries = list(target.queries.items())
        docs = {d: target.docs[d] for d in sorted(target.docs)[: wl.served_docs]}
        doc_lengths = {d: len(tokenize(t)) for d, t in docs.items()}
        index_dir = workdir / "serve_index"
        index_times, cold_times, first_times, latencies, bm25_latencies = [], [], [], [], []
        pass_p50, pass_p90 = [], []  # learned request latency percentiles of each pass
        # first answer per query; later answers are compared with it
        sparse_out: dict[str, list] = {}
        bm25_out: dict[str, list] = {}
        unstable: set[str] = set()

        def keep(out: dict, what: str, qid: str, entries: list) -> None:
            if out.setdefault(qid, entries) != entries:
                unstable.add(f"{what} {qid}")

        failed = rounds = 0

        def request(out: dict, what: str, qid: str, answer) -> float | None:
            """Latency of one request, or None if it raised (counted as failed)."""
            nonlocal failed
            t0 = time.perf_counter()
            try:
                ranked = answer()
            except Exception:  # a failed request is counted and the loop goes on
                if not failed:
                    traceback.print_exc()
                failed += 1
                return None
            lat = time.perf_counter() - t0
            keep(out, what, qid, ranked.entries)
            return lat

        def serve_pass() -> None:
            """One closed-loop pass of one client over the target queries.
            Each learned request (encode one query, exact top 100) is followed
            by BM25_PER_QUERY BM25 requests (top 100) going round the BM25
            queries, so both kinds sample the same stretches of time."""
            pass_lat = []
            for i, (qid, text) in enumerate(queries):
                phase("queries")
                lat = request(sparse_out, "sparse", qid, lambda: index.retrieve_sparse(
                    served, experiment.encode_queries(weights, {qid: text}, vocab)[qid], CUTOFF, query_id=qid))
                if lat is not None:
                    pass_lat.append(lat)
                phase("bm25")
                for j in range(BM25_PER_QUERY):
                    bqid, btext = bm25_queries[(i * BM25_PER_QUERY + j) % len(bm25_queries)]
                    lat = request(bm25_out, "bm25", bqid, lambda: index.retrieve_bm25(
                        bm25_index, btext, vocab, CUTOFF, query_id=bqid))
                    if lat is not None:
                        bm25_latencies.append(lat)
            if pass_lat:
                latencies.extend(pass_lat)
                pass_p50.append(float(np.percentile(pass_lat, 50)))
                pass_p90.append(float(np.percentile(pass_lat, 90)))

        serve_start = time.perf_counter()
        # Whole rounds until --seconds have passed, each sampling every
        # serving metric. The machine's speed drifts within a run, so many
        # short rounds sample the whole window rather than one stretch of it.
        while not rounds or time.perf_counter() - serve_start < seconds:
            reps = built = weights = served = None  # the previous round's copies
            phase("index_build")
            t0 = time.perf_counter()
            reps = index.encode_corpus(ckpts[wl.served].weights, docs, vocab)
            built = index.index_from_vectors(reps, doc_lengths)
            index.save_index(built, index_dir)
            index_times.append(time.perf_counter() - t0)

            phase("cold_start")
            t0 = time.perf_counter()
            weights = params.load_checkpoint(exp_dir / "checkpoints" / wl.served).weights
            served = index.load_index(index_dir)
            phase("first_query")
            t1 = time.perf_counter()
            qid, text = queries[0]
            first = index.retrieve_sparse(served, experiment.encode_queries(weights, {qid: text}, vocab)[qid],
                                          CUTOFF, query_id=qid)
            t2 = time.perf_counter()
            cold_times.append(t2 - t0)
            first_times.append(t2 - t1)
            keep(sparse_out, "sparse", qid, first.entries)

            serve_pass()
            rounds += 1
        wall_end = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()

    # ------------------------------------------------------------ checks
    errors = []
    errors += checks.check_report(exp_dir, target.qrels)
    logs = sorted((exp_dir / "logs").glob("*.jsonl"))
    if wl.pretrain_steps > MLM_PLATEAU_STEPS:
        for log in logs:
            errors += checks.check_loss_falls(log)
    mem = {s: checks.tensor_bytes({n: t.data for n, t in c.weights.tensors.items()})
           for s, c in ckpts.items()}
    errors += checks.check_stages(mem, K_DOMAIN_LAYERS)
    for stage, tensors in mem.items():
        sub = "checkpoints" if (exp_dir / "checkpoints" / stage).is_dir() else "variants"
        errors += checks.check_same(f"saved {stage}", tensors,
                                    checks.read_checkpoint(exp_dir / sub / stage))
    errors += checks.check_same("load_checkpoint", mem[wl.served],
                                checks.tensor_bytes({n: t.data for n, t in weights.tensors.items()}))
    errors += checks.check_index_roundtrip(built, served)

    doc_ids = sorted(docs)
    d_rows = dense_rows(weights, list(docs.values()), vocab, ENCODE_BATCH)
    q_rows = np.concatenate([dense_rows(weights, [t], vocab, 1) for _, t in queries])
    exact = checks.dense_scores(q_rows, d_rows)
    all_ids = sorted(target.docs)
    bm25_oracle = checks.Bm25(target.docs, all_ids, set(vocab.terms))
    # a query that always failed has no answer
    for row, (qid, text) in enumerate(queries):
        if qid in sparse_out:
            errors += checks.check_ranking(f"sparse {qid}", sparse_out[qid], exact[row], doc_ids, CUTOFF)
    for qid, text in bm25_queries:
        if qid in bm25_out:
            errors += checks.check_ranking(f"bm25 {qid}", bm25_out[qid], bm25_oracle.scores(text),
                                           all_ids, CUTOFF)
    errors += [f"{q}: answers differ between passes" for q in sorted(unstable)]

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "adapt_s": (adapt_s, "s"),
        "index_docs_per_s": (len(docs) / statistics.median(index_times), "docs/s"),
        "cold_start_s": (statistics.median(cold_times), "s"),
        "qps": (len(latencies) / sum(latencies), "queries/s"),
        # Per pass, then averaged over the run's passes: a percentile pooled
        # over the run jumps to whichever machine speed held most requests,
        # while the mean over passes weighs each stretch of the run equally.
        "query_p50_ms": (statistics.fmean(pass_p50) * 1e3, "ms"),
        "query_p90_ms": (statistics.fmean(pass_p90) * 1e3, "ms"),
        "bm25_qps": (len(bm25_latencies) / sum(bm25_latencies), "queries/s"),
    }
    if tracer:
        metrics = layer_metrics(tracer.spans, wall_start, wall_end, rounds)
        metrics["index.postings"] = (float(sum(len(p) for p in served.postings.values())), "count")
        metrics["index.bytes_on_disk"] = (float(sum(f.stat().st_size for f in index_dir.iterdir())), "bytes")
        metrics["index.first_query_ms"] = (statistics.median(first_times) * 1e3, "ms")

    return {
        "errors": errors,
        # set-ups, the experiment, then per round an index build, a cold
        # start and a pass
        "attempted": SETUP_REPEATS + 1 + rounds * (2 + (1 + BM25_PER_QUERY) * len(queries)),
        "failed": failed,
        "metrics": metrics,
        "details": {
            "wall_s": wall_end - wall_start,
            "fixed_work_s": serve_start - wall_start,
            "serve_s": wall_end - serve_start,
            "rounds": rounds,
            "requests": len(latencies),
            "index_s": index_times,
            "cold_start_s": cold_times,
            "pass_p50_ms": [x * 1e3 for x in pass_p50],
            "served": wl.served,
            "served_doc_mean_l0": float(np.mean([len(v) for v in reps.values()])),
            "stage_loss_first_last_quarter": {log.stem: checks.loss_ends(log) for log in logs},
            "report": {m.name: {"ndcg10": m.ndcg10,
                                "doc_mean_l0": m.doc_sparsity and m.doc_sparsity["mean_l0"]}
                       for m in report.methods},
        },
        "spans": [vars(s) for s in tracer.spans] if tracer else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_package()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workdir = BENCH / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in res["errors"][:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, **result, "errors": res["errors"],
               "details": res["details"], "spans": res["spans"]}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary), encoding="utf-8")
    print(json.dumps(res["details"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
