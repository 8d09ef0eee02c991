"""Parameter partition, checkpoint serialization, and checkpoint surgery.

The domain subset is the token/position embeddings, the MLM output bias, and
the first k transformer layers; everything above layer k-1 is the task
subset. The two subsets are disjoint and exhaustive by construction, which
is what makes composing a target-domain checkpoint with a source-task
checkpoint a well-defined operation.

Checkpoint layout: a directory holding manifest.json and tensors.bin. The
blob is every tensor's float32 little-endian row-major bytes concatenated in
lexicographic name order; the manifest (schema 2) records per-tensor offsets
and blake2b-64 checksums plus a whole-blob checksum and the parent provenance
chain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import EncoderWeights, ModelConfig, parameter_shapes

__all__ = [
    "STAGES", "SCHEMA_VERSION", "CorruptionError",
    "fnv1a64", "tensor_checksums",
    "ParameterPartition", "partition_parameters",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "compose", "FreezeReport", "freeze_verify",
]

STAGES = ("base", "pretrain_source", "pretrain_target", "finetune_source", "composed")
SCHEMA_VERSION = 2


class CorruptionError(RuntimeError):
    """Checkpoint bytes disagree with their manifest checksums."""


def fnv1a64(data: bytes | memoryview | np.ndarray) -> str:
    """blake2b with an 8-byte digest of the bytes, as 16 hex digits.

    Schema 1 checkpoints and indexes used 64-bit FNV-1a here; the name stayed
    because the benchmark's tracer (bench/tracing.py) wraps this attribute of
    params and index by name to time every checksum.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return hashlib.blake2b(data, digest_size=8).hexdigest()


# ---------------------------------------------------------------- partition


@dataclass(frozen=True)
class ParameterPartition:
    k: int
    domain_names: frozenset[str]
    task_names: frozenset[str]

    def subset_of(self, name: str) -> str:
        if name in self.domain_names:
            return "domain"
        if name in self.task_names:
            return "task"
        raise KeyError(f"unknown parameter name: {name}")


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
        return fnv1a64(b"".join(_tensor_bytes(self.weights).values()))

    def derive(self, stage: str, parents: list[dict]) -> "Checkpoint":
        """Deep-copied weights under a new stage tag."""
        return Checkpoint(self.weights.copy(), stage=stage, parents=parents)

    def parent_ref(self) -> dict:
        return {"stage": self.stage, "checksum": self.checksum()}


def _tensor_bytes(weights: EncoderWeights) -> dict[str, bytes]:
    """Each tensor's float32 little-endian row-major bytes, in lexicographic
    name order: the blob is their concatenation."""
    out = {}
    for name in sorted(weights.tensors):
        data = weights.tensors[name].data
        if data.dtype != np.float32:
            raise ValueError(f"checkpoints store float32 tensors; {name} is {data.dtype}")
        out[name] = np.ascontiguousarray(data, dtype="<f4").tobytes()
    return out


def tensor_checksums(weights: EncoderWeights) -> dict[str, str]:
    return {name: fnv1a64(raw) for name, raw in _tensor_bytes(weights).items()}


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
        "blob_checksum": fnv1a64(blob),
        "parents": ckpt.parents,
    }
    _write_atomic(path / "tensors.bin", blob)
    _write_atomic(path / "manifest.json", json.dumps(manifest, indent=1).encode("utf-8"))
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint directory; any checksum mismatch raises
    CorruptionError naming the offending tensor."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    blob_path = path / "tensors.bin"
    if not manifest_path.is_file() or not blob_path.is_file():
        raise FileNotFoundError(f"{path} is not a checkpoint directory (manifest.json/tensors.bin)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{manifest_path}: schema_version {manifest.get('schema_version')!r} is "
                         f"not {SCHEMA_VERSION}; v1 used FNV-1a checksums, so re-save the "
                         f"checkpoint by re-running the stage that wrote it")
    config = ModelConfig.from_dict(manifest["config"])
    blob = blob_path.read_bytes()
    expected = parameter_shapes(config)
    tensors: dict[str, Tensor] = {}
    for rec in manifest["tensors"]:
        name = rec["name"]
        if name not in expected:
            raise ValueError(f"{path}: manifest names unknown tensor {name!r}")
        raw = blob[rec["offset"]: rec["offset"] + rec["nbytes"]]
        if len(raw) != rec["nbytes"]:
            raise CorruptionError(f"{path}: tensor {name} extends past the end of tensors.bin")
        if fnv1a64(raw) != rec["checksum"]:
            raise CorruptionError(f"{path}: tensor {name} bytes do not match manifest checksum")
        data = np.frombuffer(raw, dtype="<f4").reshape(rec["shape"]).copy()
        tensors[name] = Tensor(data, requires_grad=True)
    if fnv1a64(blob) != manifest["blob_checksum"]:
        raise CorruptionError(f"{path}: tensors.bin does not match its manifest blob checksum")
    weights = EncoderWeights(config, tensors)  # validates completeness + shapes
    return Checkpoint(weights, stage=manifest["stage"], parents=manifest.get("parents", []))


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


# ---------------------------------------------------------------- freeze auditing


@dataclass
class FreezeReport:
    identical: frozenset[str]
    changed: frozenset[str]
    violations: frozenset[str]   # expected-frozen tensors that moved
    trained_moved: bool          # at least one non-frozen tensor changed

    @property
    def ok(self) -> bool:
        return not self.violations


def freeze_verify(before: EncoderWeights, after: EncoderWeights,
                  expected_frozen: frozenset[str]) -> FreezeReport:
    """Byte-compare every tensor between two weight sets."""
    if set(before.tensors) != set(after.tensors):
        raise ValueError("weight sets name different tensors")
    unknown = set(expected_frozen) - set(before.tensors)
    if unknown:
        raise KeyError(f"expected_frozen names unknown tensors: {sorted(unknown)}")
    identical, changed = set(), set()
    for name in before.tensors:
        same = before[name].data.tobytes() == after[name].data.tobytes()
        (identical if same else changed).add(name)
    violations = changed & set(expected_frozen)
    trained_moved = bool(changed - set(expected_frozen))
    return FreezeReport(frozenset(identical), frozenset(changed), frozenset(violations), trained_moved)
