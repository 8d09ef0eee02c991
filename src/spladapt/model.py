"""Small post-layer-norm transformer encoder with a tied MLM head, and the
sparse document/query representations derived from it: a SparseVector is two
numpy arrays, ascending term ids (int64) and their finite positive weights
(float64).

A layer is three fused autodiff ops plus two residual layer norms:
ad.self_attention and ad.linear (its output projection), then ad.add of the
residual and ad.layer_norm; ad.feed_forward, then the same again.

A representation weight for vocabulary term j is
    w_j = log(1 + relu(max_i logit_ij))
with the max over non-special positions i. The whole head (tied projection,
masked max-pool, log1p-relu) is one autodiff op, ad.splade_pool. It pools
before log1p(relu(.)), which is nondecreasing, so the result is identical
to pooling the transformed logits; it computes the pooling argmax only while
a tape records, i.e. while training.

The MLM output projection is tied to the token embedding matrix and is never
materialized; only its bias ("mlm.bias") is a separate parameter. MLM
training projects only the supervised positions.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import N_SPECIALS, PAD_ID

__all__ = [
    "ModelConfig", "EncoderWeights", "SparseVector",
    "parameter_shapes", "init_weights",
    "mlm_logits", "encode_sparse_batch",
    "LN_EPS",
]

LN_EPS = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. k_domain_layers is the number of leading
    transformer layers assigned to the domain subset (validated where the
    partition is taken, so invalid k values are representable but unusable)."""

    vocab_size: int = 2000
    n_layers: int = 6
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 128
    max_seq_len: int = 64
    k_domain_layers: int = 2

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for field_name in ("vocab_size", "n_layers", "d_model", "n_heads", "d_ffn", "max_seq_len"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.vocab_size <= N_SPECIALS:
            raise ValueError(f"vocab_size must exceed the {N_SPECIALS} special tokens")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable tensor. The names are load-bearing:
    the domain/task partition and the checkpoint manifest key on them."""
    d, f, V = config.d_model, config.d_ffn, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "emb.token": (V, d),
        "emb.position": (config.max_seq_len, d),
        "mlm.bias": (V,),
    }
    for i in range(config.n_layers):
        p = f"layer.{i}."
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.bq"] = (d,)
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.bk"] = (d,)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.bv"] = (d,)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
    return shapes


class EncoderWeights:
    """Config plus name-keyed parameter tensors (all requires_grad)."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        expected = parameter_shapes(config)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise ValueError(f"weight names do not match config: missing {missing}, unexpected {extra}")
        for name, shape in expected.items():
            if tuple(tensors[name].shape) != shape:
                raise ValueError(f"{name}: shape {tensors[name].shape}, expected {shape}")
        self.config = config
        self.tensors = tensors

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "EncoderWeights":
        return EncoderWeights(
            self.config,
            {n: Tensor(t.data.copy(), requires_grad=True) for n, t in self.tensors.items()},
        )

    def astype(self, dtype) -> "EncoderWeights":
        return EncoderWeights(
            self.config,
            {n: Tensor(t.data.astype(dtype), requires_grad=True) for n, t in self.tensors.items()},
        )


def init_weights(config: ModelConfig, seed: int, dtype=np.float32) -> EncoderWeights:
    """Projection and embedding matrices ~ N(0, 0.02^2); biases zero; layer
    norm at identity. Draws happen in sorted name order, so the result is a
    pure function of (config, seed)."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in sorted(parameter_shapes(config).items()):
        leaf = name.rsplit(".", 1)[1]
        if leaf in ("gain",):
            data = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b") or leaf == "bias" or name == "mlm.bias":
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True)
    return EncoderWeights(config, tensors)


def _validate_ids(config: ModelConfig, ids: np.ndarray) -> None:
    if ids.ndim != 2:
        raise ValueError(f"token ids must be 2-D [batch, seq], got shape {ids.shape}")
    if ids.shape[1] > config.max_seq_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_seq_len {config.max_seq_len}")
    if ids.size == 0:
        raise ValueError("empty token id batch")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError(f"token id out of range [0, {config.vocab_size})")


def _encoder_hidden(w: EncoderWeights, ids: np.ndarray) -> Tensor:
    """ids (B, S) int -> hidden states (B*S, d). [PAD] positions are blocked
    as attention keys but still produce (ignored) outputs."""
    cfg = w.config
    B, S = ids.shape
    flat_ids = ids.reshape(-1)
    pos_ids = np.tile(np.arange(S, dtype=np.int64), B)
    h = ad.add(ad.gather_rows(w["emb.token"], flat_ids), ad.gather_rows(w["emb.position"], pos_ids))

    key_mask = np.where(ids == PAD_ID, h.dtype.type(-np.inf), h.dtype.type(0.0))
    for i in range(cfg.n_layers):
        p = f"layer.{i}."
        ctx = ad.self_attention(h, w[p + "attn.wq"], w[p + "attn.bq"], w[p + "attn.wk"], w[p + "attn.bk"],
                                w[p + "attn.wv"], w[p + "attn.bv"], key_mask, cfg.n_heads)
        attn_out = ad.linear(ctx, w[p + "attn.wo"], w[p + "attn.bo"])
        h = ad.layer_norm(ad.add(h, attn_out), w[p + "ln1.gain"], w[p + "ln1.bias"], eps=LN_EPS)
        ffn = ad.feed_forward(h, w[p + "ffn.w1"], w[p + "ffn.b1"], w[p + "ffn.w2"], w[p + "ffn.b2"])
        h = ad.layer_norm(ad.add(h, ffn), w[p + "ln2.gain"], w[p + "ln2.bias"], eps=LN_EPS)
    return h


def mlm_logits(w: EncoderWeights, ids: np.ndarray, rows: np.ndarray) -> Tensor:
    """ids (B, S) -> logits (len(rows), V) through the tied output projection,
    at the flat positions rows (indices into B*S), in that order."""
    _validate_ids(w.config, ids)
    h = ad.gather_rows(_encoder_hidden(w, ids), rows)
    return ad.linear(h, ad.transpose2d(w["emb.token"]), w["mlm.bias"])


class SparseVector:
    """Strictly ascending term ids tids (int64) and their finite positive
    weights vals (float64), from a term id -> weight dict that may hold zeros."""

    __slots__ = ("tids", "vals")

    def __init__(self, weights: dict[int, float] | None = None):
        items = sorted((int(tid), float(val)) for tid, val in (weights or {}).items())
        for tid, val in items:
            if not 0 <= val < np.inf:
                raise ValueError(f"sparse weight {val} for term {tid} is negative or non-finite")
        self.tids = np.array([tid for tid, val in items if val > 0], np.int64)
        self.vals = np.array([val for _, val in items if val > 0], np.float64)

    @classmethod
    def from_arrays(cls, tids: np.ndarray, vals: np.ndarray) -> "SparseVector":
        """Wrap arrays that already keep the invariant, without checks or copies."""
        vec = cls.__new__(cls)
        vec.tids, vec.vals = tids, vals
        return vec

    def __len__(self) -> int:
        return len(self.tids)

    l0 = __len__

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.items() == other.items()

    def items(self) -> list[tuple[int, float]]:
        return list(zip(self.tids.tolist(), self.vals.tolist()))


def encode_sparse_batch(w: EncoderWeights, ids: np.ndarray) -> Tensor:
    """ids (B, S) -> dense representations (B, V): per-term max of MLM logits
    over non-special positions, then log1p(relu(.)). Differentiable; run it
    under a tape during training."""
    _validate_ids(w.config, ids)
    content = ids >= N_SPECIALS
    if not content.any(axis=1).all():
        bad = int(np.flatnonzero(~content.any(axis=1))[0])
        raise ValueError(f"sequence {bad} has no content terms to pool over")
    return ad.splade_pool(_encoder_hidden(w, ids), w["emb.token"], w["mlm.bias"], content)
