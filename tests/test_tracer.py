"""The benchmark's tracer still finds every name it patches, and the spans
its per-call layer metrics read appear in both experiment drivers."""

import importlib.util
import sys
from pathlib import Path

import pytest

from spladapt import experiment
from spladapt.model import ModelConfig
from spladapt.synth import SynthSpec, generate
from spladapt.training import PipelineSpec
from spladapt.vocab import build_vocabulary

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("driver", ["run_experiment", "benchmark_variants"])
def test_tracer_sees_every_span_layer_metrics_reads(driver, tmp_path):
    source, target = generate(SynthSpec(n_topics=4, shared_vocab=40, exclusive_vocab=12,
                                        docs_per_domain=40, queries_per_domain=8, seed=5))
    vocab = build_vocabulary([source.docs.values(), target.docs.values()], 400)
    spec = PipelineSpec(model=ModelConfig(vocab_size=len(vocab), n_layers=2, d_model=16,
                                          n_heads=2, d_ffn=32, max_seq_len=32,
                                          k_domain_layers=1),
                        mode="full", seed=3, pretrain_steps=2, finetune_steps=2, batch_size=4)
    tracer = load_tracer()
    tracer.install()  # raises if a patched name is gone
    try:
        # looked up on the module, as the benchmark does, so the patch applies
        getattr(experiment, driver)(spec, source, target, vocab, cutoff=20, workdir=tmp_path)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    names = {s.name for s in spans}
    under = {(s.name, spans[s.parent].name) for s in spans if s.parent is not None}
    for name in ("training.build_mlm_batch", "model.mlm_logits", "optim.adam_step",
                 "params.fnv1a64", f"experiment.{driver}"):
        assert name in names, name
    for pair in (("model.encode_sparse_batch", "training.finetune_ir"),
                 ("autodiff.backward", "training.pretrain_mlm"),
                 ("autodiff.backward", "training.finetune_ir")):
        assert pair in under, pair
    if driver == "run_experiment":
        assert "experiment.build_report" in names
