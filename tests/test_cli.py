"""Command-line interface: config parsing, stage commands, reports, errors."""

import json
import posixpath
import re
import shutil
from pathlib import Path

import pytest

from spladapt.cli import apply_overrides, load_config, main
from spladapt.evaluation import EvalReport, read_run
from spladapt.index import load_index
from spladapt.params import STAGES
from spladapt.training import MODES

TINY = {
    "model": {"vocab_size": 400, "n_layers": 2, "d_model": 16, "n_heads": 2,
              "d_ffn": 32, "max_seq_len": 32, "k_domain_layers": 1},
    "pipeline": {"mode": "full", "seed": 3, "pretrain_steps": 8,
                 "finetune_steps": 8, "batch_size": 4},
    "data": {"synth": {"n_topics": 4, "shared_vocab": 40, "exclusive_vocab": 12,
                       "docs_per_domain": 60, "queries_per_domain": 16, "seed": 11}},
    "cutoff": 20,
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(config_path, tmp_path_factory):
    """One full-mode pipeline run shared by the read-only tests."""
    workdir = tmp_path_factory.mktemp("pipe")
    assert main(["pipeline", "--config", config_path, "--workdir", str(workdir)]) == 0
    return workdir


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.spec.mode == "full"
        assert cfg.spec.model.n_layers == 6
        assert cfg.cutoff == 100

    def test_unknown_root_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"modle": {}}')
        with pytest.raises(ValueError, match="modle"):
            load_config(path)

    def test_unknown_model_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"model": {"d_modell": 8}}')
        with pytest.raises(ValueError, match="d_modell"):
            load_config(path)

    def test_unknown_pipeline_key(self, tmp_path):
        path = tmp_path / "c.json"
        for key in ("stepz", "pretrain_lr"):
            path.write_text(f'{{"pipeline": {{"{key}": 1}}}}')
            with pytest.raises(ValueError, match=key):
                load_config(path)

    def test_unknown_synth_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"data": {"synth": {"topics": 4}}}')
        with pytest.raises(ValueError, match="topics"):
            load_config(path)

    def test_synth_and_dirs_conflict(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"data": {"synth": {}, "source_dir": "a", "target_dir": "b"}}')
        with pytest.raises(ValueError, match="pick one"):
            load_config(path)

    def test_source_dir_requires_target_dir(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"data": {"source_dir": "a"}}')
        with pytest.raises(ValueError, match="together"):
            load_config(path)

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"pipeline": {"mode": "half"}}')
        with pytest.raises(ValueError, match="half"):
            load_config(path)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"model": {"n_layers": 2,}}')
        with pytest.raises(ValueError, match=r"c\.json: not valid JSON: Expecting property name"):
            load_config(path)
        path.write_text('[{"model": {}}]')
        with pytest.raises(ValueError, match=r"c\.json: expected a JSON object, got list"):
            load_config(path)

    @pytest.mark.parametrize("body, section, detail", [
        ('"model": {"n_layers": "6"}', "model", "n_layers must be a positive integer, got '6'"),
        ('"pipeline": {"lr": "fast"}', "pipeline", "lr must be a real number, got 'fast'"),
        ('"pipeline": {"seed": 1.5}', "pipeline", "seed must be an integer, got 1.5"),
        ('"data": {"synth": {"n_topics": "4"}}', "data.synth", "n_topics must be an integer, got '4'"),
        ('"data": {"synth": {"cooccurrence": null}}', "data.synth",
         "cooccurrence must be a real number, got None"),
    ])
    def test_a_value_of_the_wrong_type_names_the_file_and_section(self, tmp_path, body,
                                                                   section, detail):
        path = tmp_path / "c.json"
        path.write_text("{" + body + "}")
        with pytest.raises(ValueError, match=rf"c\.json: section '{section}': .*{detail}"):
            load_config(path)

    def test_flag_overrides(self, tmp_path):
        import argparse
        cfg = load_config(None)
        args = argparse.Namespace(mode="wo_source", seed=9, k=3, cutoff=50)
        out = apply_overrides(cfg, args)
        assert out.spec.mode == "wo_source"
        assert out.spec.seed == 9
        assert out.spec.model.k_domain_layers == 3
        assert out.cutoff == 50
        # the original is untouched
        assert cfg.spec.mode == "full" and cfg.cutoff == 100


class TestSynthGen:
    def test_writes_datasets_vocab_and_stats(self, config_path, tmp_path, capsys):
        assert main(["synth-gen", "--config", config_path, "--workdir", str(tmp_path)]) == 0
        for domain in ("source", "target"):
            for fname in ("corpus.jsonl", "queries.tsv", "qrels.trec"):
                assert (tmp_path / "data" / domain / fname).exists()
        # only the source domain carries supervision
        assert (tmp_path / "data" / "source" / "triples.tsv").exists()
        assert not (tmp_path / "data" / "target" / "triples.tsv").exists()
        assert (tmp_path / "vocab.txt").exists()
        out = capsys.readouterr().out
        assert "60 docs" in out and "vocabulary" in out

    def test_a_rerun_at_another_seed_rebuilds_the_vocabulary(self, config_path, tmp_path):
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        for workdir, seeds in ((rerun, ("1", "2")), (fresh, ("2",))):
            for seed in seeds:
                assert main(["synth-gen", "--config", config_path, "--workdir", str(workdir),
                             "--seed", seed]) == 0
        for name in ("data/source/corpus.jsonl", "data/target/corpus.jsonl", "vocab.txt"):
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


class TestPipeline:
    def test_full_mode_emits_four_stage_checkpoints_and_report(self, pipeline_dir):
        for stage in ("pretrain_source", "pretrain_target", "finetune_source", "composed"):
            assert (pipeline_dir / "checkpoints" / stage / "manifest.json").exists()
        report = EvalReport.from_json((pipeline_dir / "report.json").read_text())
        assert [m.name for m in report.methods] == ["bm25", "zeroshot", "composed"]
        assert {(s.method, s.baseline) for s in report.significance} == {
            ("composed", "bm25"), ("composed", "zeroshot")}
        assert (pipeline_dir / "report.txt").exists()
        for tag in ("bm25", "zeroshot", "composed"):
            assert (pipeline_dir / "runs" / f"{tag}.trec").exists()

    def test_wo_pretraining_composed_row_equals_zeroshot_row(self, config_path, tmp_path):
        assert main(["pipeline", "--config", config_path, "--workdir", str(tmp_path),
                     "--mode", "wo_pretraining"]) == 0
        report = EvalReport.from_json((tmp_path / "report.json").read_text())
        composed, zeroshot = report.method("composed"), report.method("zeroshot")
        assert composed.per_query_ndcg == zeroshot.per_query_ndcg
        assert composed.ndcg10 == zeroshot.ndcg10

    def test_variants_report_has_five_rows(self, config_path, tmp_path):
        assert main(["pipeline", "--config", config_path, "--workdir", str(tmp_path),
                     "--variants"]) == 0
        report = EvalReport.from_json((tmp_path / "report.json").read_text())
        assert [m.name for m in report.methods] == [
            "bm25", "zeroshot", "composed", "wo_source", "wo_pretraining"]
        # ablation checkpoints saved alongside the standard stages
        assert (tmp_path / "variants" / "finetune_from_base" / "manifest.json").exists()
        assert (tmp_path / "variants" / "wo_source" / "manifest.json").exists()

    def test_variants_require_full_mode(self, config_path, tmp_path, capsys):
        rc = main(["pipeline", "--config", config_path, "--workdir", str(tmp_path),
                   "--mode", "wo_source", "--variants"])
        assert rc == 1
        assert "full" in capsys.readouterr().err


_STAGE_COMMANDS = {
    "full": (["pretrain", "--stage", "pretrain_source"], ["pretrain", "--stage", "pretrain_target"],
             ["finetune"], ["compose"]),
    "wo_source": (["pretrain", "--stage", "pretrain_target"], ["finetune"], ["compose"]),
    "wo_pretraining": (["finetune"], ["compose"]),
}


# what each placeholder of README's "Workdir layout" stands for
_PLACEHOLDERS = {"<stage>": "|".join(STAGES), "<domain>": "source|target",
                 "<kind>": "impact|frequency", "<checkpoint>": "|".join(STAGES),
                 "<k>": r"\d+", "*": r"[^/]*"}


def _layout_patterns() -> list[str]:
    """A regex for each file that README's "Workdir layout" block lists.

    A line names a path, then free text. Where the path ends in "/", the
    file names in the text are files in that directory; otherwise the path
    is a file, and the file names in the text are its siblings."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Workdir layout", 1)[1].split("```")[1]
    paths = []
    for line in block.splitlines():
        if not line.strip() or line == "workdir/":
            continue
        first, *rest = line.split()
        names = [t for t in rest if re.fullmatch(r"[\w<>*]+\.\w+", t)]
        if first.endswith("/"):
            paths += [first + name for name in names]
        else:
            paths += [first] + [posixpath.join(posixpath.dirname(first), n) for n in names]
    patterns = []
    for path in paths:
        parts = re.split(r"(\[_<\w+>\]|<\w+>|\*)", path)
        patterns.append("".join(
            f"(?:_(?:{_PLACEHOLDERS[p[2:-1]]}))?" if p.startswith("[")
            else f"(?:{_PLACEHOLDERS[p]})" if p in _PLACEHOLDERS else re.escape(p)
            for p in parts))
    return patterns


class TestDocs:
    def test_the_readme_layout_lists_every_file_a_variants_run_writes(self, config_path,
                                                                      tmp_path):
        assert main(["pipeline", "--config", config_path, "--workdir", str(tmp_path),
                     "--variants"]) == 0
        patterns = _layout_patterns()
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        files = [f for f in written if (tmp_path / f).is_file()]
        unlisted = [f for f in files if not any(re.fullmatch(p, f) for p in patterns)]
        assert unlisted == [], "files missing from README's Workdir layout"
        # so every directory is listed too, as the directory of a listed file
        assert all(any(f.startswith(d + "/") for f in files) for d in written if d not in files)


class TestStagewise:
    @pytest.mark.parametrize("mode", MODES)
    def test_stage_commands_reproduce_the_pipeline_byte_exactly(self, config_path, mode,
                                                                tmp_path):
        pipe, stages = tmp_path / "pipe", tmp_path / "stages"
        assert main(["pipeline", "--config", config_path, "--workdir", str(pipe),
                     "--mode", mode]) == 0
        assert main(["synth-gen", "--config", config_path, "--workdir", str(stages)]) == 0
        for command in _STAGE_COMMANDS[mode]:
            assert main([*command, "--config", config_path, "--workdir", str(stages),
                         "--mode", mode]) == 0
        written = sorted(p.name for p in (pipe / "checkpoints").iterdir())
        assert sorted(p.name for p in (stages / "checkpoints").iterdir()) == written
        for stage in written:
            for fname in ("manifest.json", "tensors.bin"):
                mine = (stages / "checkpoints" / stage / fname).read_bytes()
                ref = (pipe / "checkpoints" / stage / fname).read_bytes()
                assert mine == ref, f"{stage}/{fname} differs from the one-shot pipeline"
        # the stage commands accept the stages that the pipeline saved
        composed = (pipe / "checkpoints" / "composed" / "tensors.bin").read_bytes()
        assert main(["compose", "--config", config_path, "--workdir", str(pipe),
                     "--mode", mode]) == 0
        assert (pipe / "checkpoints" / "composed" / "tensors.bin").read_bytes() == composed

    def test_a_base_of_another_seed_is_refused(self, config_path, tmp_path, capsys):
        # the base is init_weights(config, seed): a workdir first used at seed 3
        # must not lend its base to a pretrain at seed 4
        w = str(tmp_path)
        assert main(["pretrain", "--config", config_path, "--workdir", w,
                     "--stage", "pretrain_source"]) == 0
        base = (tmp_path / "checkpoints" / "base" / "tensors.bin").read_bytes()
        capsys.readouterr()
        for command in (["pretrain", "--stage", "pretrain_target"], ["finetune", "--mode", "wo_source"]):
            rc = main([*command, "--config", config_path, "--workdir", w, "--seed", "4"])
            assert rc == 1
            err = capsys.readouterr().err
            assert str(tmp_path / "checkpoints" / "base") in err and "seed 4" in err
        assert (tmp_path / "checkpoints" / "base" / "tensors.bin").read_bytes() == base
        assert not (tmp_path / "checkpoints" / "pretrain_target").exists()
        assert main(["pretrain", "--config", config_path, "--workdir", w,
                     "--stage", "pretrain_target", "--seed", "3"]) == 0

    def test_an_input_stage_of_another_seed_is_refused(self, config_path, tmp_path, capsys):
        # pretrain_source descends from the seed-3 base: fine-tuning it at seed 4
        # would pair it with seed 4's stage generator
        w = str(tmp_path)
        for stage in ("pretrain_source", "pretrain_target"):
            assert main(["pretrain", "--config", config_path, "--workdir", w,
                         "--stage", stage]) == 0
        capsys.readouterr()
        assert main(["finetune", "--config", config_path, "--workdir", w, "--seed", "4"]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "checkpoints" / "pretrain_source" / "manifest.json") in err
        assert "'parents'" in err and "seed 4" in err
        assert not (tmp_path / "checkpoints" / "finetune_source").exists()
        assert main(["finetune", "--config", config_path, "--workdir", w]) == 0
        capsys.readouterr()
        assert main(["compose", "--config", config_path, "--workdir", w, "--seed", "4"]) == 1
        assert "'parents'" in capsys.readouterr().err
        # a pretrain_source re-run at seed 4 breaks finetune_source's lineage
        assert main(["pretrain", "--config", config_path, "--workdir", str(tmp_path / "w4"),
                     "--stage", "pretrain_source", "--seed", "4"]) == 0
        shutil.copytree(tmp_path / "w4" / "checkpoints" / "pretrain_source",
                        tmp_path / "checkpoints" / "pretrain_source", dirs_exist_ok=True)
        capsys.readouterr()
        assert main(["compose", "--config", config_path, "--workdir", w]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "checkpoints" / "finetune_source" / "manifest.json") in err
        assert not (tmp_path / "checkpoints" / "composed").exists()

    def test_an_input_stage_of_another_config_is_refused(self, config_path, tmp_path, capsys):
        w = str(tmp_path)
        for command in (["pretrain", "--stage", "pretrain_source"],
                        ["pretrain", "--stage", "pretrain_target"], ["finetune"]):
            assert main([*command, "--config", config_path, "--workdir", w]) == 0
        capsys.readouterr()
        for command, stage in ((["compose"], "finetune_source"),
                               (["finetune"], "pretrain_source")):
            assert main([*command, "--config", config_path, "--workdir", w, "--k", "0"]) == 1
            err = capsys.readouterr().err
            assert str(tmp_path / "checkpoints" / stage / "manifest.json") in err
            assert "'config'" in err
        manifest = tmp_path / "checkpoints" / "pretrain_target" / "manifest.json"
        text = manifest.read_text()
        obj = json.loads(text)
        del obj["parents"][0]["checksum"]
        manifest.write_text(json.dumps(obj))
        assert main(["compose", "--config", config_path, "--workdir", w]) == 1
        assert f"{manifest}: parents[0]: missing field 'checksum'" in capsys.readouterr().err
        manifest.write_text(text)
        assert not (tmp_path / "checkpoints" / "composed").exists()
        assert main(["compose", "--config", config_path, "--workdir", w]) == 0
        # a stage directory holding another stage's checkpoint
        ckpts = tmp_path / "checkpoints"
        shutil.copytree(ckpts / "pretrain_target", ckpts / "pretrain_source", dirs_exist_ok=True)
        capsys.readouterr()
        assert main(["finetune", "--config", config_path, "--workdir", w]) == 1
        err = capsys.readouterr().err
        assert f"{ckpts / 'pretrain_source' / 'manifest.json'}: field 'stage'" in err

    def test_compose_without_finetune_names_the_missing_stage(self, config_path, tmp_path,
                                                              capsys):
        rc = main(["compose", "--config", config_path, "--workdir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "finetune_source" in err


class TestIndexSearch:
    def test_impact_search_matches_pipeline_run(self, config_path, pipeline_dir, tmp_path):
        w = str(pipeline_dir)
        idx = tmp_path / "idx"
        out = tmp_path / "run.trec"
        assert main(["index", "--config", config_path, "--workdir", w,
                     "--kind", "impact", "--checkpoint", "composed",
                     "--out", str(idx)]) == 0
        assert main(["search", "--config", config_path, "--workdir", w,
                     "--index", str(idx), "--checkpoint", "composed",
                     "--queries", str(pipeline_dir / "data" / "target" / "queries.tsv"),
                     "--out", str(out)]) == 0
        mine = read_run(out)
        ref = read_run(pipeline_dir / "runs" / "composed.trec")
        assert {q: r.entries for q, r in mine.items()} == {q: r.entries for q, r in ref.items()}

    @pytest.mark.parametrize("kind", ["impact", "frequency"])
    def test_index_prints_the_number_of_terms_with_postings(self, config_path, pipeline_dir,
                                                            tmp_path, capsys, kind):
        idx = tmp_path / "idx"
        capsys.readouterr()
        assert main(["index", "--config", config_path, "--workdir", str(pipeline_dir),
                     "--kind", kind, "--checkpoint", "composed", "--out", str(idx)]) == 0
        index = load_index(idx)
        n_terms = sum(index.df(t) > 0 for t in range(index.matrix.shape[1]))
        assert f"({index.n_docs} docs, {n_terms} posting lists)" in capsys.readouterr().out

    def test_bm25_search_matches_pipeline_run(self, config_path, pipeline_dir, tmp_path):
        out = tmp_path / "run.trec"
        assert main(["search", "--config", config_path, "--workdir", str(pipeline_dir),
                     "--index", str(pipeline_dir / "indexes" / "target_frequency"),
                     "--queries", str(pipeline_dir / "data" / "target" / "queries.tsv"),
                     "--out", str(out)]) == 0
        mine = read_run(out)
        ref = read_run(pipeline_dir / "runs" / "bm25.trec")
        assert {q: r.entries for q, r in mine.items()} == {q: r.entries for q, r in ref.items()}

    def test_impact_search_requires_checkpoint(self, config_path, pipeline_dir, tmp_path,
                                               capsys):
        idx = pipeline_dir / "indexes" / "target_impact_composed"
        rc = main(["search", "--config", config_path, "--workdir", str(pipeline_dir),
                   "--index", str(idx),
                   "--queries", str(pipeline_dir / "data" / "target" / "queries.tsv"),
                   "--out", str(tmp_path / "r.trec")])
        assert rc == 1
        assert "--checkpoint" in capsys.readouterr().err


class TestEvaluateTtest:
    def test_evaluate_matches_report_row(self, config_path, pipeline_dir, capsys):
        assert main(["evaluate",
                     "--run", str(pipeline_dir / "runs" / "composed.trec"),
                     "--qrels", str(pipeline_dir / "data" / "target" / "qrels.trec")]) == 0
        out = json.loads(capsys.readouterr().out)
        report = EvalReport.from_json((pipeline_dir / "report.json").read_text())
        assert out["ndcg10"] == pytest.approx(report.method("composed").ndcg10, abs=1e-12)
        assert out["n_queries"] == len(report.method("composed").per_query_ndcg)

    def test_ttest_matches_report_significance(self, config_path, pipeline_dir, capsys):
        assert main(["ttest",
                     "--run-a", str(pipeline_dir / "runs" / "composed.trec"),
                     "--run-b", str(pipeline_dir / "runs" / "bm25.trec"),
                     "--qrels", str(pipeline_dir / "data" / "target" / "qrels.trec")]) == 0
        out = json.loads(capsys.readouterr().out)
        report = EvalReport.from_json((pipeline_dir / "report.json").read_text())
        sig = next(s for s in report.significance if s.baseline == "bm25")
        assert out["t"] == pytest.approx(sig.t, abs=1e-12)
        assert out["p"] == pytest.approx(sig.p, abs=1e-12)


class TestSweep:
    def test_sweep_emits_a_row_per_k(self, config_path, tmp_path, capsys):
        assert main(["sweep-k", "0,1", "--config", config_path,
                     "--workdir", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert [r["k"] for r in rows] == [0, 1]
        for r in rows:
            assert set(r) >= {"k", "ndcg10", "mrr10", "doc_mean_l0"}
        table = capsys.readouterr().out
        assert "nDCG@10" in table and "doc L0" in table
        assert (tmp_path / "k0" / "report.json").exists()
        assert (tmp_path / "k1" / "report.json").exists()

    def test_bad_k_list(self, config_path, tmp_path, capsys):
        rc = main(["sweep-k", "0,x", "--config", config_path, "--workdir", str(tmp_path)])
        assert rc == 1
        assert "comma" in capsys.readouterr().err


class TestErrors:
    def test_unknown_config_key_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {"d_modell": 8}}')
        rc = main(["pipeline", "--config", str(bad), "--workdir", str(tmp_path / "w")])
        assert rc == 1
        assert "d_modell" in capsys.readouterr().err

    def test_out_of_range_k_fails(self, config_path, tmp_path, capsys):
        rc = main(["pipeline", "--config", config_path, "--workdir", str(tmp_path),
                   "--k", "99"])
        assert rc == 1
        assert "task layers" in capsys.readouterr().err
