"""The forked stage worker: when it is used, that it streams results in
order, that outputs keep their bytes on it, that the variant benchmark
keeps one worker at a time, and that errors and children never escape it."""

import json
import multiprocessing
import os
import threading
import time

import pytest

from spladapt import _fork, experiment, index, training
from spladapt.data import Dataset
from spladapt.experiment import benchmark_variants
from spladapt.model import ModelConfig, init_weights
from spladapt.synth import SynthSpec, generate
from spladapt.training import PipelineSpec
from spladapt.vocab import build_vocabulary


def pin(monkeypatch, cores, **threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    for var in _fork.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, n in threads.items():
        monkeypatch.setenv(var, n)


@pytest.mark.parametrize("cores, threads, pays", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (8, {"OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "2"}, True),
    (2, {}, False),                                                   # unpinned
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),                        # one core
    (2, {"OPENBLAS_NUM_THREADS": "2"}, False),                        # threads > cores / 2
    (8, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "5"}, False),  # one pin too wide
    (4, {"OPENBLAS_NUM_THREADS": "0"}, False),
    (4, {"OPENBLAS_NUM_THREADS": "auto"}, False),
], ids=["pinned-1-of-2", "pinned-2-of-8", "unpinned", "one-core", "over-half", "one-wide",
        "zero", "not-a-number"])
def test_fork_pays_only_with_blas_pinned_to_half_the_cores(monkeypatch, cores, threads, pays):
    pin(monkeypatch, cores, **threads)
    assert _fork.fork_pays() is pays


def test_fork_pays_needs_the_fork_start_method(monkeypatch):
    pin(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not _fork.fork_pays()


def test_fork_pays_not_beside_another_thread(monkeypatch):
    pin(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    assert _fork.fork_pays()
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert not _fork.fork_pays()
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()


def no_worker_left():
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@pytest.mark.parametrize("cores, nests", [(2, False), (4, True)])
def test_a_forked_block_nested_in_another_forks_only_with_a_core_for_it(monkeypatch, cores, nests):
    pin(monkeypatch, cores, OPENBLAS_NUM_THREADS="1")
    caller = os.getpid()

    def pid():
        yield os.getpid()

    with _fork.forked(pid()) as outer:
        with _fork.forked(pid()) as inner:
            assert (inner() != caller) is nests
        assert outer() != caller
    no_worker_left()


def test_encode_corpus_starts_a_helper_only_where_a_core_is_free(monkeypatch, tmp_path):
    """Pinned to 1 BLAS thread on 2 cores, encode_corpus encodes on a helper
    thread beside the caller when it runs alone, but neither beside a live
    worker nor inside one, whose sender thread is running: so the
    experiment's rows stay inline. The log holds, for each batch, the
    process that encoded it and whether its main thread did."""
    pin(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    log, encode = tmp_path / "batches", index.encode_sparse_batch

    def logged_encode(w, seqs):  # the worker inherits the patch, so its batches are logged too
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {threading.current_thread() is threading.main_thread()}\n")
        return encode(w, seqs)
    monkeypatch.setattr(index, "encode_sparse_batch", logged_encode)
    spec, source, target, vocab = tiny_benchmark()
    weights = init_weights(spec.model, seed=0)
    caller = os.getpid()

    def encoders():
        encoded = set(log.read_text().splitlines())
        log.unlink()
        return encoded

    alone = index.encode_corpus(weights, target.docs, vocab, batch_size=8)
    assert encoders() == {f"{caller} True", f"{caller} False"}
    no_worker_left()

    def lane():
        yield index.encode_corpus(weights, target.docs, vocab, batch_size=8)
        time.sleep(60)  # alive while the caller encodes
        yield None

    with _fork.forked(lane()) as from_worker:
        in_worker = from_worker()
        (worker_line,) = encoders()
        beside = index.encode_corpus(weights, target.docs, vocab, batch_size=8)
    assert worker_line.endswith(" True") and not worker_line.startswith(f"{caller} ")
    assert encoders() == {f"{caller} True"}
    no_worker_left()
    for reps in (in_worker, beside):
        assert list(reps) == list(alone)
        assert all(reps[d].items() == alone[d].items() for d in alone)


@pytest.fixture(params=[True, False], ids=["child", "inline"])
def path(request, monkeypatch):
    monkeypatch.setattr(_fork, "fork_pays", lambda: request.param)
    return request.param


def test_result_comes_back_from_the_child_and_inline(path):
    """Several results, in the order they were yielded."""
    parent = os.getpid()

    def results():
        for i in range(5):
            yield os.getpid(), [i] * i

    with _fork.forked(results()) as next_result:
        got = [next_result() for _ in range(5)]
    assert [value for _, value in got] == [[i] * i for i in range(5)]
    assert {pid != parent for pid, _ in got} == {path}
    no_worker_left()


def test_a_result_larger_than_the_pipe_buffer_arrives(path):
    """A 4 MB first result does not hold up the child's next one while the
    caller is busy; inline, each result is made when it is asked for."""
    def results():
        yield b"x" * (4 << 20)
        yield time.monotonic()

    with _fork.forked(results()) as next_result:
        time.sleep(1.0)
        busy_until = time.monotonic()
        assert len(next_result()) == 4 << 20
        assert (next_result() < busy_until) is path
    no_worker_left()


def test_an_error_at_the_second_yield_keeps_its_type_and_message(path):
    def results():
        yield 1
        raise KeyError("second")

    with _fork.forked(results()) as next_result:
        assert next_result() == 1
        with pytest.raises(KeyError) as exc:
            next_result()
    assert type(exc.value) is KeyError and exc.value.args == ("second",)
    no_worker_left()


def tiny_benchmark():
    source, target = generate(SynthSpec(n_topics=2, shared_vocab=16, exclusive_vocab=6,
                                        docs_per_domain=24, queries_per_domain=6, seed=5))
    vocab = build_vocabulary([source.docs.values(), target.docs.values()], max_size=200)
    model = ModelConfig(vocab_size=len(vocab), n_layers=2, d_model=16, n_heads=2, d_ffn=32,
                        max_seq_len=32, k_domain_layers=1)
    spec = PipelineSpec(model=model, seed=4, pretrain_steps=6, finetune_steps=6, batch_size=4)
    return spec, source, target, vocab


def test_a_stage_error_in_the_child_reaches_the_caller_as_inline(path):
    spec, source, target, vocab = tiny_benchmark()
    # no target doc holds a vocabulary term, so the target pretrain refuses it
    no_content = Dataset(docs={d: "zz yy" for d in target.docs}, queries=target.queries,
                         qrels=target.qrels)
    with pytest.raises(ValueError) as exc:
        benchmark_variants(spec, source, no_content, vocab, cutoff=5)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "no document in the corpus has content tokens"
    no_worker_left()


def test_benchmark_variants_keeps_one_worker_and_the_dense_row_off_the_caller(monkeypatch):
    """On the worker path, at most one worker is alive during every stage
    the caller runs, and the caller never builds the wo_pretraining row,
    whose dense encoder makes the largest index."""
    pin(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    caller = os.getpid()
    live = {}  # caller stage -> live workers at its start and end

    def watch(module, name, stage):
        fn = getattr(module, name)

        def watched(*args, **kwargs):
            counts = live.setdefault(stage(*args), []) if os.getpid() == caller else []
            counts.append(len(multiprocessing.active_children()))
            out = fn(*args, **kwargs)
            counts.append(len(multiprocessing.active_children()))
            return out
        monkeypatch.setattr(module, name, watched)

    watch(training, "pretrain_mlm", lambda base, docs, vocab, spec, log_path: spec.stage)
    watch(training, "finetune_ir", lambda init, *_: f"finetune from {init.stage}")
    watch(training, "compose", lambda domain, task: f"compose {task.parents[0]['stage']}")
    watch(experiment, "sparse_method", lambda name, *_: name)
    watch(experiment, "bm25_method", lambda name, *_: name)
    spec, source, target, vocab = tiny_benchmark()
    benchmark_variants(spec, source, target, vocab, cutoff=10)
    assert max(n for counts in live.values() for n in counts) == 1
    assert set(live) == {"pretrain_source", "finetune from pretrain_source", "zeroshot", "bm25",
                         "compose pretrain_source", "composed"}
    no_worker_left()


def test_a_caller_error_stops_the_child_in_flight(path):
    def results():
        yield 1
        time.sleep(60)
        yield 2

    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="caller"):
        with _fork.forked(results()) as next_result:
            assert next_result() == 1
            raise KeyError("caller")
    assert time.perf_counter() - t0 < 10.0  # terminated, not waited for
    no_worker_left()


def test_a_child_that_dies_is_reported(monkeypatch):
    """Child path only: inline, os._exit would end the test process."""
    monkeypatch.setattr(_fork, "fork_pays", lambda: True)

    def results():
        yield 1
        time.sleep(0.5)  # os._exit drops a result the sender thread has not written yet
        os._exit(3)

    t0 = time.perf_counter()
    with _fork.forked(results()) as next_result:
        assert next_result() == 1
        with pytest.raises(RuntimeError, match="exited with code 3"):
            next_result()
    assert time.perf_counter() - t0 < 10.0
    no_worker_left()


def _workdir_files(root):
    """Every file under root as bytes, with the per-record timing and RSS
    fields dropped from the stage logs."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        raw = path.read_bytes()
        if path.suffix == ".jsonl":
            records = [json.loads(line) for line in raw.splitlines()]
            for r in records:
                assert r.pop("wall_s") >= 0.0 and r.pop("maxrss_mb") > 0.0
            raw = json.dumps(records).encode()
        out[str(path.relative_to(root))] = raw
    return out


def test_benchmark_variants_writes_the_same_bytes_on_either_path(tmp_path, monkeypatch):
    spec, source, target, vocab = tiny_benchmark()
    files = {}
    for forks in (True, False):
        monkeypatch.setattr(_fork, "fork_pays", lambda: forks)
        benchmark_variants(spec, source, target, vocab, cutoff=10, workdir=tmp_path / str(forks))
        assert multiprocessing.active_children() == []
        files[forks] = _workdir_files(tmp_path / str(forks))
    assert len(files[True]) >= 30
    assert files[True].keys() == files[False].keys()
    assert [f for f in files[True] if files[True][f] != files[False][f]] == []
