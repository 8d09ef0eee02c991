"""Partition law, checkpoint integrity, surgery, and freeze auditing."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spladapt.model import ModelConfig, init_weights, parameter_shapes
from spladapt.params import (
    Checkpoint, CorruptionError, compose, fnv1a64, load_checkpoint, partition_parameters,
    save_checkpoint,
)

from helpers import FreezeReport, freeze_verify, subset_of, tensor_checksums

CFG = ModelConfig(vocab_size=40, n_layers=3, d_model=8, n_heads=2, d_ffn=16,
                  max_seq_len=10, k_domain_layers=1)


def make_ckpt(seed=0, stage="base", cfg=CFG, parents=None):
    return Checkpoint(init_weights(cfg, seed=seed), stage=stage, parents=parents or [])


# ---------------------------------------------------------------- checksum


def sha256_16(data) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_fnv1a64_is_sha256_16_known_answers():
    # fnv1a64 kept its name when checkpoint schema 3 and index schema 4
    # switched it to SHA-256 truncated to 16 hex digits
    for data, digest in ((b"", "e3b0c44298fc1c14"), (b"a", "ca978112ca1bbdca"),
                         (b"foobar", "c3ab8ff13720e8ad")):
        assert sha256_16(data) == digest
        assert fnv1a64(data) == digest


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_fnv1a64_matches_hashlib_sha256(data):
    assert fnv1a64(data) == sha256_16(data)


def test_fnv1a64_accepts_arrays():
    arr = np.arange(6, dtype=np.float32)
    assert fnv1a64(arr) == fnv1a64(arr.tobytes())


# ---------------------------------------------------------------- partition


def test_partition_law_every_k():
    for k in range(6):
        cfg = dataclasses.replace(ModelConfig(), k_domain_layers=k)
        part = partition_parameters(cfg)
        names = set(parameter_shapes(cfg))
        assert part.domain_names | part.task_names == names
        assert not (part.domain_names & part.task_names)
        assert {"emb.token", "emb.position", "mlm.bias"} <= part.domain_names
        for i in range(cfg.n_layers):
            layer_names = {n for n in names if n.startswith(f"layer.{i}.")}
            target = part.domain_names if i < k else part.task_names
            assert layer_names <= target


def test_partition_k0_domain_is_embeddings_only():
    part = partition_parameters(dataclasses.replace(CFG, k_domain_layers=0))
    assert part.domain_names == {"emb.token", "emb.position", "mlm.bias"}


def test_partition_rejects_bad_k():
    with pytest.raises(ValueError):
        partition_parameters(dataclasses.replace(CFG, k_domain_layers=3))  # == n_layers
    with pytest.raises(ValueError):
        partition_parameters(dataclasses.replace(CFG, k_domain_layers=7))
    with pytest.raises(ValueError):
        partition_parameters(dataclasses.replace(CFG, k_domain_layers=-1))


def test_partition_prefix_matching_not_fooled_by_double_digits():
    cfg = ModelConfig(vocab_size=30, n_layers=12, d_model=4, n_heads=2, d_ffn=8,
                      max_seq_len=8, k_domain_layers=2)
    part = partition_parameters(cfg)
    assert "layer.1.attn.wq" in part.domain_names
    assert "layer.10.attn.wq" in part.task_names
    assert "layer.11.ffn.w2" in part.task_names


def test_subset_of():
    part = partition_parameters(CFG)
    assert subset_of(part, "emb.token") == "domain"
    assert subset_of(part, "layer.2.ffn.w1") == "task"
    with pytest.raises(KeyError):
        subset_of(part, "nope")


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ckpt = make_ckpt(seed=1, stage="base")
    ckpt.parents = [{"stage": "base", "checksum": "0" * 16}]
    save_checkpoint(ckpt, tmp_path / "ck")
    loaded = load_checkpoint(tmp_path / "ck")
    assert loaded.stage == "base"
    assert loaded.parents == ckpt.parents
    assert loaded.config == CFG
    for name in ckpt.weights.names():
        assert loaded.weights[name].data.tobytes() == ckpt.weights[name].data.tobytes()
    assert loaded.checksum() == ckpt.checksum()


def test_loaded_tensors_are_writable_float32_with_the_saved_bytes(tmp_path):
    """Training updates loaded tensors in place: each is its own writable
    float32 array, and writing one moves no other tensor and no file byte."""
    ckpt = make_ckpt(seed=5)
    save_checkpoint(ckpt, tmp_path / "ck")
    on_disk = (tmp_path / "ck" / "tensors.bin").read_bytes()
    loaded = load_checkpoint(tmp_path / "ck")
    for name in ckpt.weights.names():
        data = loaded.weights[name].data
        assert data.dtype == np.float32 and data.flags.writeable and data.flags.c_contiguous
        assert data.tobytes() == ckpt.weights[name].data.tobytes()
    loaded.weights["emb.token"].data += 1.0
    for name in ckpt.weights.names():
        if name != "emb.token":
            assert loaded.weights[name].data.tobytes() == ckpt.weights[name].data.tobytes()
    assert (tmp_path / "ck" / "tensors.bin").read_bytes() == on_disk


def test_checkpoint_save_is_idempotent(tmp_path):
    ckpt = make_ckpt(seed=2)
    save_checkpoint(ckpt, tmp_path / "ck")
    first = (tmp_path / "ck" / "tensors.bin").read_bytes()
    save_checkpoint(ckpt, tmp_path / "ck")
    assert (tmp_path / "ck" / "tensors.bin").read_bytes() == first


def test_corrupted_tensor_is_named(tmp_path):
    ckpt = make_ckpt(seed=3)
    save_checkpoint(ckpt, tmp_path / "ck")
    blob_path = tmp_path / "ck" / "tensors.bin"
    blob = bytearray(blob_path.read_bytes())
    # manifest order is lexicographic, so emb.position sits right after emb.token
    blob[4] ^= 0xFF
    blob_path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(tmp_path / "ck")
    assert "emb.position" in str(exc.value) or "emb.token" in str(exc.value)


def test_truncated_blob_rejected(tmp_path):
    ckpt = make_ckpt(seed=4)
    save_checkpoint(ckpt, tmp_path / "ck")
    blob_path = tmp_path / "ck" / "tensors.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "ck")


def _shift_after(manifest, i, by):
    """Move the records after tensors[i] by `by` bytes."""
    for rec in manifest["tensors"][i + 1:]:
        rec["offset"] += by


def _gap(manifest, blob):
    # 4 bytes between tensors[0] and tensors[1]; every checksum still holds
    end = manifest["tensors"][0]["nbytes"]
    _shift_after(manifest, 0, 4)
    return blob[:end] + bytes(4) + blob[end:]


def _overlap(manifest, blob):
    # tensors[1] starts inside tensors[0] (make_ckpt makes the 4 bytes they
    # share equal), so every checksum still holds
    end = manifest["tensors"][0]["nbytes"]
    _shift_after(manifest, 0, -4)
    return blob[:end] + blob[end + 4:]


def _trailing(manifest, blob):
    return blob + bytes(8)


def _zero_blob_checksum(manifest, blob):
    manifest["blob_checksum"] = "0" * 16
    return blob


def _zero_tensor_checksum(manifest, blob):
    manifest["tensors"][2]["checksum"] = "0" * 16
    return blob


@pytest.mark.parametrize("edit, file, named", [
    (_gap, "tensors.bin", ("emb.token", "'offset'")),
    (_overlap, "tensors.bin", ("emb.token", "'offset'")),
    (_trailing, "tensors.bin", ("8 bytes follow the last tensor",)),
    (_zero_blob_checksum, "manifest.json", ("'blob_checksum'",)),
    (_zero_tensor_checksum, "tensors.bin", ("layer.0.attn.bk", "'checksum'")),
], ids=["gap", "overlap", "trailing-bytes", "blob-checksum", "tensor-checksum"])
def test_records_must_tile_the_blob_and_match_both_checksums(tmp_path, edit, file, named):
    import json
    ckpt = make_ckpt(seed=8)
    ckpt.weights["emb.token"].data.flat[0] = ckpt.weights["emb.position"].data.flat[-1]
    save_checkpoint(ckpt, tmp_path / "ck")
    manifest_path, blob_path = tmp_path / "ck" / "manifest.json", tmp_path / "ck" / "tensors.bin"
    manifest = json.loads(manifest_path.read_text())
    assert [r["name"] for r in manifest["tensors"][:3]] == [
        "emb.position", "emb.token", "layer.0.attn.bk"]
    blob_path.write_bytes(edit(manifest, blob_path.read_bytes()))
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(tmp_path / "ck")
    msg = str(exc.value)
    assert str(tmp_path / "ck" / file) in msg
    for part in named:
        assert part in msg


def test_schema_1_checkpoint_rejected_with_remedy(tmp_path):
    import json
    save_checkpoint(make_ckpt(seed=4), tmp_path / "ck")
    manifest_path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for schema in (1, 2):  # FNV-1a checksums; a blake2b-64 whole-blob checksum
        manifest["schema_version"] = schema
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(tmp_path / "ck")
        msg = str(exc.value)
        assert str(manifest_path) in msg and "schema_version" in msg
        assert "FNV-1a" in msg and "re-save the checkpoint by re-running the stage" in msg


def _drop(key):
    return lambda m: m.pop(key)


def _set_shape(m):
    m["tensors"][0]["shape"] = [3, 3]


@pytest.mark.parametrize("edit, field", [
    (_drop("config"), "'config'"),
    (_drop("stage"), "'stage'"),
    (lambda m: m["tensors"][2].pop("offset"), "tensors[2]: missing field 'offset'"),
    (_set_shape, "field 'shape'"),
    (lambda m: m.update(stage="trained"), "unknown stage 'trained'"),
    (lambda m: m["config"].update(d_model=-1), "field 'config'"),
    ("{not json", "not valid JSON"),
    ("[1, 2]", "expected a JSON object"),
], ids=["no-config", "no-stage", "no-offset", "wrong-shape", "bad-stage", "bad-config",
        "not-json", "not-object"])
def test_malformed_manifest_names_file_and_field(tmp_path, edit, field):
    import json
    save_checkpoint(make_ckpt(seed=6), tmp_path / "ck")
    manifest_path = tmp_path / "ck" / "manifest.json"
    if isinstance(edit, str):
        manifest_path.write_text(edit)
    else:
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(tmp_path / "ck")
    assert str(manifest_path) in str(exc.value) and field in str(exc.value)


def test_checkpoint_checksum_is_the_blob_checksum(tmp_path):
    import json
    ckpt = make_ckpt(seed=5)
    save_checkpoint(ckpt, tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest["schema_version"] == 3
    assert ckpt.checksum() == manifest["blob_checksum"]
    # the checksum of the per-tensor checksums, in manifest order
    blob = (tmp_path / "ck" / "tensors.bin").read_bytes()
    digests = "".join(sha256_16(blob[r["offset"]: r["offset"] + r["nbytes"]])
                      for r in manifest["tensors"])
    assert ckpt.checksum() == sha256_16(digests.encode("ascii"))
    assert tensor_checksums(ckpt.weights) == {r["name"]: r["checksum"] for r in manifest["tensors"]}


def test_each_tensor_byte_is_hashed_once(tmp_path, monkeypatch):
    import json

    import spladapt.params as params
    ckpt = make_ckpt(seed=7)
    hashed = []
    real = params.fnv1a64

    def counting(data):
        hashed.append(memoryview(data).nbytes)
        return real(data)

    def hashed_by(fn):
        hashed.clear()
        fn()
        return sorted(hashed)

    monkeypatch.setattr(params, "fnv1a64", counting)
    by_save = hashed_by(lambda: save_checkpoint(ckpt, tmp_path / "ck"))
    records = json.loads((tmp_path / "ck" / "manifest.json").read_text())["tensors"]
    assert sum(r["nbytes"] for r in records) == (tmp_path / "ck" / "tensors.bin").stat().st_size
    # each tensor's bytes once, then the root over 16 hex digits per tensor
    once = sorted([r["nbytes"] for r in records] + [16 * len(records)])
    assert by_save == once
    assert hashed_by(lambda: load_checkpoint(tmp_path / "ck")) == once
    assert hashed_by(ckpt.checksum) == once


def test_missing_checkpoint_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent")


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        make_ckpt(stage="warmup")


def test_float64_weights_refused(tmp_path):
    ckpt = Checkpoint(init_weights(CFG, seed=5, dtype=np.float64), stage="base")
    with pytest.raises(ValueError):
        save_checkpoint(ckpt, tmp_path / "ck")


def test_blob_order_is_lexicographic(tmp_path):
    import json
    save_checkpoint(make_ckpt(seed=6), tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    names = [r["name"] for r in manifest["tensors"]]
    assert names == sorted(names)
    offsets = [r["offset"] for r in manifest["tensors"]]
    sizes = [r["nbytes"] for r in manifest["tensors"]]
    assert offsets[0] == 0
    for i in range(1, len(offsets)):
        assert offsets[i] == offsets[i - 1] + sizes[i - 1]


# ---------------------------------------------------------------- compose


def test_compose_identity_byte_exact():
    x = make_ckpt(seed=7, stage="composed")
    out = compose(x, x)
    assert tensor_checksums(out.weights) == tensor_checksums(x.weights)
    assert out.checksum() == x.checksum()
    assert out.stage == "composed"


def test_compose_takes_each_subset_from_the_right_parent():
    dom = make_ckpt(seed=8, stage="pretrain_target")
    task = make_ckpt(seed=9, stage="finetune_source")
    out = compose(dom, task)
    part = partition_parameters(CFG)
    dom_sums = tensor_checksums(dom.weights)
    task_sums = tensor_checksums(task.weights)
    out_sums = tensor_checksums(out.weights)
    for name in part.domain_names:
        assert out_sums[name] == dom_sums[name]
    for name in part.task_names:
        assert out_sums[name] == task_sums[name]
    assert out.parents[0]["stage"] == "pretrain_target"
    assert out.parents[1]["stage"] == "finetune_source"
    assert out.parents[0]["checksum"] == dom.checksum()


def test_compose_idempotent_per_argument():
    dom = make_ckpt(seed=10, stage="pretrain_target")
    task = make_ckpt(seed=11, stage="finetune_source")
    once = compose(dom, task)
    again_domain = compose(once, task)
    assert tensor_checksums(again_domain.weights) == tensor_checksums(once.weights)
    again_task = compose(dom, once)
    assert tensor_checksums(again_task.weights) == tensor_checksums(once.weights)


def test_compose_rejects_config_mismatch():
    other = dataclasses.replace(CFG, d_model=16, d_ffn=32)
    a = make_ckpt(seed=12, stage="pretrain_target")
    b = Checkpoint(init_weights(other, seed=12), stage="finetune_source")
    with pytest.raises(ValueError):
        compose(a, b)


def test_compose_rejects_wrong_stages():
    base = make_ckpt(seed=13, stage="base")
    ft = make_ckpt(seed=14, stage="finetune_source")
    with pytest.raises(ValueError):
        compose(base, base)  # base cannot donate the task subset
    with pytest.raises(ValueError):
        compose(ft, ft)  # finetune_source cannot donate the domain subset
    compose(base, ft)  # base domain + fine-tuned task is the ablation path


# ---------------------------------------------------------------- freeze audit


def test_freeze_verify_reports_violations():
    before = init_weights(CFG, seed=15)
    after = before.copy()
    after["layer.2.ffn.w1"].data += 1.0
    after["emb.token"].data[0, 0] += 0.5
    part = partition_parameters(CFG)

    # pretend emb.token was supposed to stay frozen: violation
    report = freeze_verify(before, after, part.domain_names)
    assert not report.ok
    assert report.violations == {"emb.token"}
    assert report.trained_moved

    # with task frozen instead, the task change is the violation
    report2 = freeze_verify(before, after, part.task_names)
    assert report2.violations == {"layer.2.ffn.w1"}

    # with nothing frozen, everything is fair game
    report3 = freeze_verify(before, after, frozenset())
    assert report3.ok and report3.changed == {"layer.2.ffn.w1", "emb.token"}
    assert isinstance(report3, FreezeReport)


def test_freeze_verify_unknown_name():
    w = init_weights(CFG, seed=16)
    with pytest.raises(KeyError):
        freeze_verify(w, w.copy(), frozenset({"ghost"}))
