"""Small post-layer-norm transformer encoder with a tied MLM head, and the
sparse document/query representations derived from it: a SparseVector is two
numpy arrays, ascending term ids (int64) and their finite positive weights
(float64).

A batch is a sequence of 1-D token id arrays. _pack drops their [PAD] ids
and concatenates them sorted by length, one block of rows per length, with
no padding; attention and pooling work within each sequence, and outputs
come back in the caller's order. So a text encodes to the same bytes alone
as in any batch.

Each part of the encoder is one autodiff op: ad.embed sums the token and
position embeddings; a layer is ad.self_attention (with its output
projection), then ad.add_layer_norm of the residual sum, then
ad.feed_forward and ad.add_layer_norm again; ad.mlm_head is the tied MLM
head.

A representation weight for vocabulary term j is
    w_j = log(1 + relu(max_i logit_ij))
with the max over the sequence's non-special positions i. The whole head
(tied projection, max-pool, log1p-relu) is one autodiff op, ad.splade_pool.
It pools before log1p(relu(.)), which is nondecreasing, so the result is
identical to pooling the transformed logits; it computes the pooling argmax
only while a tape records, i.e. while training.

The MLM output projection is tied to the token embedding matrix and is never
materialized; only its bias ("mlm.bias") is a separate parameter. MLM
training projects only the supervised positions.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

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
    transformer layers assigned to the domain subset: an integer >= 0 here,
    checked against n_layers where the partition is taken."""

    vocab_size: int = 2000
    n_layers: int = 6
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 128
    max_seq_len: int = 64
    k_domain_layers: int = 2

    def __post_init__(self):
        for field_name in ("vocab_size", "n_layers", "d_model", "n_heads", "d_ffn", "max_seq_len"):
            value = getattr(self, field_name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ValueError(f"{field_name} must be a positive integer, got {value!r}")
        if not isinstance(self.k_domain_layers, (int, np.integer)) or self.k_domain_layers < 0:
            raise ValueError(f"k_domain_layers must be an integer >= 0, got {self.k_domain_layers!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
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


class _Packed(NamedTuple):
    """A batch's tokens with no [PAD] row, its sequences stably sorted by
    length so that each length is one contiguous block of rows."""

    ids: np.ndarray                  # (n,) token ids, sequence after sequence
    positions: np.ndarray            # (n,) each token's position in its sequence
    blocks: list[tuple[slice, int]]  # (rows, length) per run of equal lengths
    order: list[int]                 # the caller's index of each packed sequence
    spans: list[slice]               # per caller sequence, its packed rows


def _pack(config: ModelConfig, seqs: Sequence[np.ndarray]) -> _Packed:
    """Pack 1-D id sequences without their [PAD] ids, so the rows of a
    PAD-padded (B, S) matrix read as their own sequences."""
    arrays = []
    for i, seq in enumerate(map(np.asarray, seqs)):
        seq = seq[seq != PAD_ID] if seq.ndim == 1 else seq
        if seq.ndim != 1 or not 0 < len(seq) <= config.max_seq_len:
            raise ValueError(f"sequence {i}: ids of shape {seq.shape} without [PAD]; expected "
                             f"1-D, of length 1 to max_seq_len {config.max_seq_len}")
        arrays.append(seq)
    if not arrays:
        raise ValueError("empty batch: no sequences to encode")
    lengths = [len(seq) for seq in arrays]
    order = sorted(range(len(arrays)), key=lengths.__getitem__)
    ids = np.concatenate([arrays[i] for i in order])
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        bad = next(i for i, seq in enumerate(arrays) if seq.min() < 0 or seq.max() >= config.vocab_size)
        raise ValueError(f"sequence {bad}: token id out of range [0, {config.vocab_size})")
    blocks, spans, row = [], [slice(0)] * len(arrays), 0
    for i in order:
        S = lengths[i]
        first = blocks.pop()[0].start if blocks and blocks[-1][1] == S else row
        blocks.append((slice(first, row + S), S))
        spans[i], row = slice(row, row + S), row + S
    positions = np.concatenate([np.arange(lengths[i]) for i in order])
    return _Packed(ids, positions, blocks, order, spans)


def _encoder_hidden(w: EncoderWeights, batch: _Packed) -> Tensor:
    """Packed ids (n,) -> hidden states (n, d)."""
    cfg = w.config
    h = ad.embed(w["emb.token"], w["emb.position"], batch.ids, batch.positions)
    for i in range(cfg.n_layers):
        p = f"layer.{i}."
        attn = ad.self_attention(h, w[p + "attn.wq"], w[p + "attn.bq"], w[p + "attn.wk"], w[p + "attn.bk"],
                                 w[p + "attn.wv"], w[p + "attn.bv"], w[p + "attn.wo"], w[p + "attn.bo"],
                                 batch.blocks, cfg.n_heads)
        h = ad.add_layer_norm(h, attn, w[p + "ln1.gain"], w[p + "ln1.bias"], LN_EPS)
        ffn = ad.feed_forward(h, w[p + "ffn.w1"], w[p + "ffn.b1"], w[p + "ffn.w2"], w[p + "ffn.b2"])
        h = ad.add_layer_norm(h, ffn, w[p + "ln2.gain"], w[p + "ln2.bias"], LN_EPS)
    return h


def mlm_logits(w: EncoderWeights, seqs: Sequence[np.ndarray], rows: np.ndarray) -> Tensor:
    """1-D id sequences -> logits (len(rows), V) through the tied output
    projection, at rows, indices into the concatenation of the sequences
    (without [PAD]), in that order."""
    batch = _pack(w.config, seqs)
    rows = np.asarray(rows)
    if rows.size and (rows.min() < 0 or rows.max() >= len(batch.ids)):
        raise IndexError(f"mlm_logits: row out of range for {len(batch.ids)} tokens")
    packed_rows = np.concatenate([np.arange(span.start, span.stop) for span in batch.spans])
    return ad.mlm_head(_encoder_hidden(w, batch), packed_rows[rows], w["emb.token"], w["mlm.bias"])


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


def encode_sparse_batch(w: EncoderWeights, seqs: Sequence[np.ndarray]) -> Tensor:
    """1-D id sequences -> dense representations (len(seqs), V), in their
    order: per-term max of MLM logits over non-special positions, then
    log1p(relu(.)). Differentiable; run it under a tape during training."""
    batch = _pack(w.config, seqs)
    content = batch.ids >= N_SPECIALS
    has_content = np.logical_or.reduceat(content, sorted(span.start for span in batch.spans))
    if not has_content.all():
        bad = min(batch.order[j] for j in np.flatnonzero(~has_content))
        raise ValueError(f"sequence {bad} has no content terms to pool over")
    return ad.splade_pool(_encoder_hidden(w, batch), w["emb.token"], w["mlm.bias"], content,
                          batch.blocks, batch.order)
