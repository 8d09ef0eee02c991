"""Each benchmark check passes on the program's own output and rejects a
deliberately perturbed copy of it.

    python3 -m pytest -q bench/tests
"""

import json

import numpy as np
import pytest

import checks
from spladapt.evaluation import EvalReport, MethodResult, write_run
from spladapt.index import (RankedList, build_frequency_index, index_from_vectors,
                            load_index, retrieve_bm25, retrieve_sparse, save_index)
from spladapt.model import ModelConfig, SparseVector, init_weights
from spladapt.params import Checkpoint, save_checkpoint
from spladapt.vocab import Vocabulary

DOC_IDS = [f"d{i:02d}" for i in range(12)]


@pytest.fixture
def impact():
    """A small impact index with a guaranteed score tie, and its dense rows."""
    rng = np.random.default_rng(0)
    rows = rng.random((len(DOC_IDS), 20)) * (rng.random((len(DOC_IDS), 20)) < 0.4)
    rows[5] = rows[3]  # d03 and d05 tie on every query
    rows = rows.astype(np.float32)
    reps = {d: SparseVector(dict(enumerate(map(float, r)))) for d, r in zip(DOC_IDS, rows)}
    query = np.zeros(20, dtype=np.float32)
    query[[1, 4, 7, 9]] = [0.5, 1.0, 0.25, 2.0]
    qvec = SparseVector(dict(enumerate(map(float, query))))
    index = index_from_vectors(reps)
    scores = checks.dense_scores(query[None, :], rows)[0]
    return index, qvec, scores


def test_ranking_accepts_program_output(impact):
    index, qvec, scores = impact
    got = retrieve_sparse(index, qvec, 5).entries
    assert checks.check_ranking("q", got, scores, DOC_IDS, 5) == []


@pytest.mark.parametrize("perturb", ["swap", "score", "drop", "replace", "duplicate", "tie_order"])
def test_ranking_rejects_perturbed_output(impact, perturb):
    index, qvec, scores = impact
    got = list(retrieve_sparse(index, qvec, 10).entries)
    ties = [i for i, (d, _) in enumerate(got) if d in ("d03", "d05")]
    assert len(ties) == 2, "fixture must rank the tied pair"
    if perturb == "swap":
        got[0], got[1] = got[1], got[0]
    elif perturb == "score":
        got[2] = (got[2][0], got[2][1] * (1 + 1e-6))
    elif perturb == "drop":
        got = got[:-1]
    elif perturb == "replace":
        missing = next(d for d in DOC_IDS if d not in {e[0] for e in got})
        got[-1] = (missing, got[-1][1])
    elif perturb == "duplicate":
        got[-1] = got[-2]
    else:
        i, j = ties
        got[i], got[j] = got[j], got[i]
    assert checks.check_ranking("q", got, scores, DOC_IDS, 10)


def test_bm25_oracle_agrees_and_rejects_perturbation():
    docs = {"a": "red fish blue fish", "b": "one fish two fish red", "c": "blue sky",
            "d": "red red red car", "e": "unknownword fish"}
    vocab = Vocabulary(["fish", "red", "blue", "one", "two", "sky", "car"])
    doc_ids = sorted(docs)
    oracle = checks.Bm25(docs, doc_ids, set(vocab.terms))
    index = build_frequency_index(docs, vocab)
    for query in ("red fish", "fish fish blue", "sky car one"):
        got = retrieve_bm25(index, query, vocab, 3).entries
        assert checks.check_ranking(query, got, oracle.scores(query), doc_ids, 3) == []
    got = retrieve_bm25(index, "red fish", vocab, 3).entries
    bad = [(got[0][0], got[0][1] + 1e-6)] + got[1:]
    assert checks.check_ranking("red fish", bad, oracle.scores("red fish"), doc_ids, 3)


@pytest.fixture
def report_dir(tmp_path):
    qrels = {"q1": {"a": 1, "b": 1}, "q2": {"c": 1}, "q3": {"x": 0}}
    run = {"q1": [("b", 3.0), ("z", 2.0), ("a", 1.0)], "q2": [("z", 2.0), ("y", 1.5), ("c", 1.0)]}
    ranked = {q: RankedList(q, e) for q, e in run.items()}
    (tmp_path / "runs").mkdir()
    write_run(ranked, tmp_path / "runs" / "sys.trec", tag="sys")
    report = EvalReport(dataset="t", cutoff=3, metric_depth=10,
                        methods=[MethodResult.from_run("sys", ranked, qrels)])
    (tmp_path / "report.json").write_text(report.to_json(), encoding="utf-8")
    return tmp_path, qrels


def test_report_accepts_program_output(report_dir):
    path, qrels = report_dir
    assert checks.check_report(path, qrels) == []


def test_report_rejects_perturbed_metric(report_dir):
    path, qrels = report_dir
    report = json.loads((path / "report.json").read_text())
    report["methods"][0]["ndcg10"] += 1e-6
    (path / "report.json").write_text(json.dumps(report))
    assert checks.check_report(path, qrels)


def test_report_rejects_perturbed_run_file(report_dir):
    path, qrels = report_dir
    run_file = path / "runs" / "sys.trec"
    lines = run_file.read_text().splitlines()
    lines[0], lines[1] = lines[0].replace(" 1 ", " 2 "), lines[1].replace(" 2 ", " 1 ")
    run_file.write_text("\n".join(lines) + "\n")
    assert checks.check_report(path, qrels)


def _stage_set():
    """Byte tensors of a consistent experiment: k=1 of 2 layers."""
    names = ["emb.token", "mlm.bias", "layer.0.w", "layer.1.w"]

    def make(tag):
        return {n: f"{tag}:{n}".encode() for n in names}

    base, ps, pt, ft = make("base"), make("ps"), make("pt"), make("ft")
    for n in ("layer.1.w",):
        ps[n] = pt[n] = base[n]
    for n in ("emb.token", "mlm.bias", "layer.0.w"):
        ft[n] = ps[n]
    composed = {**pt, "layer.1.w": ft["layer.1.w"]}
    return {"base": base, "pretrain_source": ps, "pretrain_target": pt,
            "finetune_source": ft, "composed": composed}


def test_stages_accept_consistent_checkpoints():
    assert checks.check_stages(_stage_set(), k=1) == []


@pytest.mark.parametrize("stage,name", [("pretrain_target", "layer.1.w"),
                                        ("finetune_source", "emb.token"),
                                        ("composed", "mlm.bias"),
                                        ("composed", "layer.1.w")])
def test_stages_reject_a_moved_tensor(stage, name):
    ckpts = _stage_set()
    ckpts[stage][name] = b"moved"
    assert checks.check_stages(ckpts, k=1)


def test_saved_checkpoint_reads_back_and_rejects_a_flipped_byte(tmp_path):
    weights = init_weights(ModelConfig(vocab_size=30, n_layers=2, d_model=8, n_heads=2,
                                       d_ffn=16, max_seq_len=8, k_domain_layers=1), seed=0)
    path = save_checkpoint(Checkpoint(weights, stage="base"), tmp_path / "base")
    mem = checks.tensor_bytes({n: t.data for n, t in weights.tensors.items()})
    assert checks.check_same("saved", mem, checks.read_checkpoint(path)) == []
    blob = bytearray((path / "tensors.bin").read_bytes())
    blob[100] ^= 1
    (path / "tensors.bin").write_bytes(bytes(blob))
    assert checks.check_same("saved", mem, checks.read_checkpoint(path))


def test_index_roundtrip_accepts_reload_and_rejects_changes(impact, tmp_path):
    index = impact[0]
    loaded = load_index(save_index(index, tmp_path / "idx"))
    assert checks.check_index_roundtrip(index, loaded) == []
    tid = next(iter(loaded.postings))
    doc, w = loaded.postings[tid][0]
    loaded.postings[tid][0] = (doc, w + 1e-3)
    assert checks.check_index_roundtrip(index, loaded)
    loaded = load_index(tmp_path / "idx")
    loaded.avgdl += 1.0
    assert checks.check_index_roundtrip(index, loaded)


def test_loss_check(tmp_path):
    log = tmp_path / "stage.jsonl"
    log.write_text("".join(json.dumps({"step": i, "loss": 5.0 - 0.01 * i}) + "\n" for i in range(40)))
    assert checks.check_loss_falls(log) == []
    log.write_text("".join(json.dumps({"step": i, "loss": 5.0 + 0.001 * (i % 3)}) + "\n"
                           for i in range(40)))
    assert checks.check_loss_falls(log)
