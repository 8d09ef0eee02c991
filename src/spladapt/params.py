"""Parameter partition, checkpoint serialization, and checkpoint surgery.

The domain subset is the token/position embeddings, the MLM output bias, and
the first k transformer layers; everything above layer k-1 is the task
subset. The two subsets are disjoint and exhaustive by construction, which
is what makes composing a target-domain checkpoint with a source-task
checkpoint a well-defined operation.

Checkpoint layout: a directory holding manifest.json and tensors.bin. The
blob is every tensor's float32 little-endian row-major bytes concatenated in
lexicographic name order; the manifest (schema 3) records per-tensor offsets
and checksums, the parent provenance chain, and blob_checksum: the checksum
of the per-tensor checksums' hex digits, concatenated in manifest order. So
saving, loading and Checkpoint.checksum() each hash a tensor's bytes once.
A load also asks that the records tile the blob, which catches gaps,
overlaps and trailing bytes that no per-tensor checksum covers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import EncoderWeights, ModelConfig, parameter_shapes

__all__ = [
    "STAGES", "SCHEMA_VERSION", "CorruptionError",
    "fnv1a64",
    "ParameterPartition", "partition_parameters",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "compose",
]

STAGES = ("base", "pretrain_source", "pretrain_target", "finetune_source", "composed")
SCHEMA_VERSION = 3


class CorruptionError(RuntimeError):
    """Checkpoint bytes disagree with their manifest checksums."""


def fnv1a64(data: bytes | memoryview | np.ndarray) -> str:
    """SHA-256 of the bytes, truncated to its first 16 hex digits (64 bits).

    Not FNV-1a: schema 1 checkpoints and indexes used 64-bit FNV-1a here and
    schema 2 (indexes: 3) blake2b-64. SHA-256 runs on OpenSSL, which uses
    the CPU's SHA extensions where it has them. The name stays because the
    benchmark's tracer (bench/tracing.py) wraps this attribute of params and
    index by name to time every checksum.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return hashlib.sha256(data).hexdigest()[:16]


def _root(checksums: list[str]) -> str:
    """A checkpoint's blob_checksum: the checksum of its per-tensor
    checksums, concatenated in manifest order."""
    return fnv1a64("".join(checksums).encode("ascii"))


# ---------------------------------------------------------------- partition


@dataclass(frozen=True)
class ParameterPartition:
    k: int
    domain_names: frozenset[str]
    task_names: frozenset[str]


def partition_parameters(config: ModelConfig) -> ParameterPartition:
    """Split parameter names into the domain subset (embeddings, MLM bias,
    layers 0..k-1) and the task subset (layers k..L-1)."""
    k = config.k_domain_layers
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k >= config.n_layers:
        raise ValueError(
            f"k={k} with {config.n_layers} layers leaves no task layers; k must be < n_layers"
        )
    domain: set[str] = set()
    task: set[str] = set()
    for name in parameter_shapes(config):
        if name.startswith("emb.") or name == "mlm.bias":
            domain.add(name)
        elif name.startswith("layer."):
            layer_idx = int(name.split(".", 2)[1])
            (domain if layer_idx < k else task).add(name)
        else:  # pragma: no cover - parameter_shapes defines all names
            raise KeyError(f"unpartitionable parameter name: {name}")
    return ParameterPartition(k=k, domain_names=frozenset(domain), task_names=frozenset(task))


# ---------------------------------------------------------------- checkpoints


@dataclass
class Checkpoint:
    weights: EncoderWeights
    stage: str
    parents: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; expected one of {STAGES}")

    @property
    def config(self) -> ModelConfig:
        return self.weights.config

    def checksum(self) -> str:
        """The blob_checksum a save of these weights records."""
        return _root([fnv1a64(raw) for raw in _tensor_bytes(self.weights).values()])

    def parent_ref(self) -> dict:
        return {"stage": self.stage, "checksum": self.checksum()}


def _tensor_bytes(weights: EncoderWeights) -> dict[str, memoryview]:
    """A flat view of each tensor's float32 little-endian row-major bytes,
    in lexicographic name order: the blob is their concatenation."""
    out = {}
    for name in sorted(weights.tensors):
        data = weights.tensors[name].data
        if data.dtype != np.float32:
            raise ValueError(f"checkpoints store float32 tensors; {name} is {data.dtype}")
        out[name] = memoryview(np.ascontiguousarray(data, dtype="<f4")).cast("B")
    return out


def _read_json(path: Path) -> dict:
    """The JSON object stored in path; anything else raises ValueError naming
    the file."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    _require(obj, (), str(path))
    return obj


def _require(obj, fields: tuple[str, ...], where: str) -> None:
    """Raise ValueError naming where and the field unless obj is a JSON
    object holding every one of fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for name in fields:
        if name not in obj:
            raise ValueError(f"{where}: missing field {name!r}")


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> Path:
    """Write manifest.json + tensors.bin under path (a directory)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    raws = _tensor_bytes(ckpt.weights)
    records, offset = [], 0
    for name, raw in raws.items():
        records.append({"name": name, "shape": list(ckpt.weights[name].data.shape),
                        "dtype": "float32", "offset": offset, "nbytes": len(raw),
                        "checksum": fnv1a64(raw)})
        offset += len(raw)
    blob = b"".join(raws.values())
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "stage": ckpt.stage,
        "config": ckpt.config.to_dict(),
        "tensors": records,
        "blob_checksum": _root([rec["checksum"] for rec in records]),
        "parents": ckpt.parents,
    }
    _write_atomic(path / "tensors.bin", blob)
    _write_atomic(path / "manifest.json", json.dumps(manifest, indent=1).encode("utf-8"))
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint directory; a tensor whose bytes do not
    match its checksum, or a record that does not start where the previous
    one ends, raises CorruptionError naming the tensor."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    blob_path = path / "tensors.bin"
    if not manifest_path.is_file() or not blob_path.is_file():
        raise FileNotFoundError(f"{path} is not a checkpoint directory (manifest.json/tensors.bin)")
    manifest = _read_json(manifest_path)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{manifest_path}: schema_version {manifest.get('schema_version')!r} is "
                         f"not {SCHEMA_VERSION}; v1 used FNV-1a checksums and v2 a blake2b-64 "
                         f"whole-blob checksum, so re-save the checkpoint by re-running the "
                         f"stage that wrote it")
    _require(manifest, ("stage", "config", "tensors", "blob_checksum"), str(manifest_path))
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: field 'config': {exc}") from None
    with open(blob_path, "rb") as fh:  # one writable buffer, which the tensors view
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    view = memoryview(blob)
    expected = parameter_shapes(config)
    tensors: dict[str, Tensor] = {}
    checksums, offset = [], 0
    for i, rec in enumerate(manifest["tensors"]):
        _require(rec, ("name", "shape", "offset", "nbytes", "checksum"),
                 f"{manifest_path}: tensors[{i}]")
        name = rec["name"]
        if name not in expected:
            raise ValueError(f"{path}: manifest names unknown tensor {name!r}")
        shape = list(expected[name])
        if rec["shape"] != shape or rec["nbytes"] != 4 * math.prod(shape):
            raise ValueError(f"{manifest_path}: tensor {name} field 'shape' {rec['shape']} / "
                             f"'nbytes' {rec['nbytes']}; the config needs {shape} in "
                             f"{4 * math.prod(shape)} bytes")
        if rec["offset"] != offset:  # the records tile the blob, in order
            raise CorruptionError(f"{blob_path}: tensor {name} field 'offset' is "
                                  f"{rec['offset']!r}, but the records before it end at {offset}")
        raw = view[offset: offset + rec["nbytes"]]
        if len(raw) != rec["nbytes"]:
            raise CorruptionError(f"{path}: tensor {name} extends past the end of tensors.bin")
        if fnv1a64(raw) != rec["checksum"]:
            raise CorruptionError(f"{blob_path}: tensor {name} bytes do not match its field "
                                  f"'checksum' in manifest.json")
        checksums.append(rec["checksum"])
        offset += len(raw)
        data = np.frombuffer(raw, dtype="<f4").reshape(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    if offset != len(blob):
        raise CorruptionError(f"{blob_path}: {len(blob) - offset} bytes follow the last tensor's "
                              f"record, which ends at offset {offset}")
    if _root(checksums) != manifest["blob_checksum"]:
        raise CorruptionError(f"{manifest_path}: field 'blob_checksum' is not the checksum of "
                              f"the tensor checksums")
    try:  # validates completeness and the stage tag
        return Checkpoint(EncoderWeights(config, tensors), stage=manifest["stage"],
                          parents=manifest.get("parents", []))
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


# ---------------------------------------------------------------- surgery


_COMPOSE_DOMAIN_STAGES = {"base", "pretrain_source", "pretrain_target", "composed"}
_COMPOSE_TASK_STAGES = {"finetune_source", "composed"}


def compose(domain_ckpt: Checkpoint, task_ckpt: Checkpoint) -> Checkpoint:
    """Graft the domain subset of one checkpoint onto the task subset of
    another. Tensor bytes pass through untouched."""
    if domain_ckpt.config != task_ckpt.config:
        raise ValueError(
            f"cannot compose checkpoints with different configs: "
            f"{domain_ckpt.config} vs {task_ckpt.config}"
        )
    if domain_ckpt.stage not in _COMPOSE_DOMAIN_STAGES:
        raise ValueError(f"stage {domain_ckpt.stage!r} cannot donate the domain subset")
    if task_ckpt.stage not in _COMPOSE_TASK_STAGES:
        raise ValueError(f"stage {task_ckpt.stage!r} cannot donate the task subset")
    part = partition_parameters(domain_ckpt.config)
    tensors = {}
    for name in part.domain_names:
        tensors[name] = Tensor(domain_ckpt.weights[name].data.copy(), requires_grad=True)
    for name in part.task_names:
        tensors[name] = Tensor(task_ckpt.weights[name].data.copy(), requires_grad=True)
    return Checkpoint(
        EncoderWeights(domain_ckpt.config, tensors),
        stage="composed",
        parents=[domain_ckpt.parent_ref(), task_ckpt.parent_ref()],
    )
