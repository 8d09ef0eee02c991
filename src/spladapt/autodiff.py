"""Reverse-mode automatic differentiation over numpy arrays.

A ``GradTape`` records every op executed inside its ``with`` block, in
execution order. ``tape.backward(loss)`` seeds the scalar loss gradient,
replays the recorded ops in reverse, accumulates ``.grad`` on every
participating tensor that requires grad, and clears the tape. Forward
calls outside any active tape record nothing, so pure inference is
reentrant. Training runs in float32; pass float64 arrays for
gradient-check work (ops keep the input dtype).

The encoder's layers run on three fused ops with hand-written backward
passes: linear (x @ w + b), self_attention (Q/K/V projections, heads as
numpy views, scaled masked softmax, head merge) and feed_forward (linear,
exact GELU, linear). Each computes the gradient only of an input that
requires grad, so a frozen op still passes the gradient back to its input.

splade_pool fuses the whole SPLADE head. It computes the pooling argmax only
while a tape records it (training), and its backward builds the logit
gradient as a sparse matrix with one entry per (sequence, term).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import erf

__all__ = [
    "Tensor",
    "GradTape",
    "matmul",
    "linear",
    "self_attention",
    "feed_forward",
    "transpose2d",
    "reshape",
    "add",
    "mul",
    "scale",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "gather_rows",
    "sum_axis",
    "sum_all",
    "layer_norm",
    "splade_pool",
    "softmax_cross_entropy",
    "numeric_gradient",
    "IGNORE_INDEX",
]

IGNORE_INDEX = -100

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


class Tensor:
    """numpy array plus an accumulated gradient of the same shape/dtype."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class GradTape:
    """Op recorder; one backward pass per recording."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        top = _tape_stack().pop()
        if top is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad of recorded tensors; clears the tape."""
        if not self._ops:
            raise RuntimeError("backward on an empty tape: no ops were recorded")
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        try:
            for op in reversed(self._ops):
                op()
        finally:
            self._ops.clear()


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn: Callable[[], None]) -> None:
    tape = _active_tape()
    if tape is None:
        return
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._ops.append(backward_fn)


def _accum(t: Tensor, g: np.ndarray, own: bool = True) -> None:
    # own=True means g is a freshly built array (or a view of a grad buffer that
    # is never read again: backward runs in strict reverse execution order, so a
    # consumed output's buffer can be donated to its input).
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else g.copy()
    else:
        np.add(t.grad, g, out=t.grad)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to shape, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (m, k) @ b (k, n) -> (m, n)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    _record((a, b), out, backward)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (n, k) @ w (k, m) + b (m,) -> (n, m), the bias added in place."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(_affine(x.data, w.data, b.data))

    def backward():
        g = out.grad
        if g is None:
            return
        _linear_grads(x.data, g, w, b)
        if x.requires_grad:
            _accum(x, g @ w.data.T)

    _record((x, w, b), out, backward)
    return out


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def _linear_grads(x: np.ndarray, g: np.ndarray, w: Tensor, b: Tensor) -> None:
    """Accumulate the weight and bias gradients of x @ w + b, given its output gradient g."""
    if w.requires_grad:
        _accum(w, x.T @ g)
    if b.requires_grad:
        _accum(b, g.sum(axis=0))


def transpose2d(x: Tensor) -> Tensor:
    """x (m, n) -> (n, m)."""
    if x.ndim != 2:
        raise ValueError(f"transpose2d expects a 2-D tensor, got {x.shape}")
    out = Tensor(x.data.T.copy())

    def backward():
        if out.grad is not None:
            _accum(x, out.grad.T)

    _record((x,), out, backward)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward():
        if out.grad is not None:
            _accum(x, out.grad.reshape(x.data.shape))

    _record((x,), out, backward)
    return out


# ---------------------------------------------------------------- pointwise / reductions


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may broadcast against a (bias over trailing dims)."""
    out = Tensor(a.data + b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape), own=False)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape), own=False)

    _record((a, b), out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    _record((a, b), out, backward)
    return out


def scale(x: Tensor, s: float) -> Tensor:
    s = x.data.dtype.type(s)
    out = Tensor(x.data * s)

    def backward():
        if out.grad is not None:
            _accum(x, out.grad * s)

    _record((x,), out, backward)
    return out


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack along axis 0."""
    out = Tensor(np.concatenate((a.data, b.data), axis=0))
    split = a.data.shape[0]

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(a, g[:split], own=False)
        _accum(b, g[split:], own=False)

    _record((a, b), out, backward)
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Stack along axis 1 (2-D operands)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("concat_cols expects 2-D operands")
    out = Tensor(np.concatenate((a.data, b.data), axis=1))
    split = a.data.shape[1]

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(a, g[:, :split], own=False)
        _accum(b, g[:, split:], own=False)

    _record((a, b), out, backward)
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[start:stop].copy())

    def backward():
        g = out.grad
        if g is None:
            return
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        _accum(x, gx)

    _record((x,), out, backward)
    return out


def gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: x (V, d), ids int (n,) -> (n, d). Repeated ids accumulate grads."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"gather_rows expects 1-D indices, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= x.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for {x.data.shape[0]} rows")
    out = Tensor(x.data[ids])

    def backward():
        g = out.grad
        if g is None:
            return
        gx = np.zeros_like(x.data)
        np.add.at(gx, ids, g)
        _accum(x, gx)

    _record((x,), out, backward)
    return out


def sum_axis(x: Tensor, axis: int) -> Tensor:
    out = Tensor(x.data.sum(axis=axis))

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape), own=False)

    _record((x,), out, backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(x, np.broadcast_to(g, x.data.shape), own=False)

    _record((x,), out, backward)
    return out


# ---------------------------------------------------------------- nonlinearities


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    x (..., d), gain (d,), bias (d,). Variance is the biased estimate (divide by d).
    """
    d = x.data.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over a zero-length axis")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = centered * inv_std
    out = Tensor(xhat * gain.data + bias.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            _accum(x, inv_std * (gx_hat - m1 - xhat * m2))

    _record((x, gain, bias), out, backward)
    return out


# ---------------------------------------------------------------- fused encoder layer ops


def self_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                   wv: Tensor, bv: Tensor, key_mask: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention, before the output projection.

    x (B*S, d) holds B sequences of S positions; key_mask (B, S) is added to
    every query's scores for that key (0 to attend, -inf to block). Each of
    the H = heads heads attends with d/H of the columns of
    q = x @ wq + bq, k = x @ wk + bk and v = x @ wv + bv; the heads' contexts
    are merged back to (B*S, d).
    """
    B, S = key_mask.shape
    n, d = x.shape
    if n != B * S or d % heads:
        raise ValueError(f"self_attention: input {x.shape}, key mask {key_mask.shape} "
                         f"and {heads} heads do not fit")
    dh = d // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))

    def split(t: np.ndarray) -> np.ndarray:  # (B*S, d) -> (B, H, S, dh), a view
        return t.reshape(B, S, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (_affine(x.data, w.data, b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    q4, k4, v4 = split(q), split(k), split(v)
    p = q4 @ k4.transpose(0, 1, 3, 2)  # (B, H, S, S): scores, then probabilities
    p *= scale
    p += key_mask[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor((p @ v4).transpose(0, 2, 1, 3).reshape(n, d))

    def backward():
        g = out.grad
        if g is None:
            return
        g4 = split(g)
        dqkv = np.empty((B, S, 3, heads, dh), dtype=g.dtype)  # rows of [dq | dk | dv]
        dq4, dk4, dv4 = (dqkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
        np.matmul(p.transpose(0, 1, 3, 2), g4, out=dv4)
        ds = g4 @ v4.transpose(0, 1, 3, 2)  # d p, then d scores
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        np.matmul(ds, k4, out=dq4)
        np.matmul(ds.transpose(0, 1, 3, 2), q4, out=dk4)
        dqkv = dqkv.reshape(n, 3 * d)
        for i, (w, b) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            _linear_grads(x.data, dqkv[:, i * d:(i + 1) * d], w, b)
        if x.requires_grad:
            _accum(x, dqkv @ np.concatenate((wq.data, wk.data, wv.data), axis=1).T)

    _record((x, wq, bq, wk, bk, wv, bv), out, backward)
    return out


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2, with the exact GELU 0.5 a (1 + erf(a / sqrt(2)))."""
    a = _affine(x.data, w1.data, b1.data)
    cdf = 0.5 * (1.0 + erf(a * a.dtype.type(_INV_SQRT2)))
    act = a * cdf
    out = Tensor(_affine(act, w2.data, b2.data))

    def backward():
        g = out.grad
        if g is None:
            return
        _linear_grads(act, g, w2, b2)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        da = g @ w2.data.T
        pdf = np.exp(-0.5 * a * a) * a.dtype.type(_INV_SQRT2PI)
        da *= cdf + a * pdf
        _linear_grads(x.data, da, w1, b1)
        if x.requires_grad:
            _accum(x, da @ w1.data.T)

    _record((x, w1, b1, w2, b2), out, backward)
    return out


# ---------------------------------------------------------------- SPLADE head and loss


def splade_pool(h: Tensor, emb: Tensor, bias: Tensor, content: np.ndarray) -> Tensor:
    """The SPLADE head: h (B*S, d) hidden states, emb (V, d) tied token
    embeddings, bias (V,), content bool (B, S) -> (B, V) with

        out[b, v] = log(1 + relu(max over content s of h[b*S + s] . emb[v] + bias[v])).

    The gradient of the max goes to the first maximal content position. The
    (B*S, V) logits are not kept; a row without content pools to 0, and a
    NaN max stays NaN.
    """
    B, S = content.shape
    V = emb.shape[0]
    if B * S != h.shape[0] or emb.shape[1] != h.shape[1] or bias.shape != (V,):
        raise ValueError(f"splade_pool: hidden {h.shape}, embeddings {emb.shape}, "
                         f"bias {bias.shape} and content {content.shape} do not fit")
    logits = h.data @ emb.data.T
    logits += bias.data
    logits = logits.reshape(B, S, V)
    logits[~content] = -np.inf
    m = logits.max(axis=1)
    pos = ~(m <= 0)  # true for NaN too
    relu = np.where(pos, m, 0)
    out = Tensor(np.log1p(relu))

    def backward():
        g = out.grad
        if g is None:
            return
        dm = np.where(pos, g / (1 + relu), 0)
        # d logits, transposed: row v holds the B entries (rows[b, v], dm[b, v])
        dlt = sp.csr_array((dm.T.ravel(), rows.T.ravel(), np.arange(0, B * V + 1, B)),
                           shape=(V, B * S))
        if h.requires_grad:
            _accum(h, dlt.T @ emb.data)
        if emb.requires_grad:
            _accum(emb, dlt @ h.data)
        if bias.requires_grad:
            _accum(bias, dm.sum(axis=0))

    _record((h, emb, bias), out, backward)
    if out.requires_grad:  # recorded: backward needs the flat row of each max
        rows = (logits == m[:, None, :]).argmax(axis=1) + (np.arange(B) * S)[:, None]
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-softmax over rows whose target is not ignore_index.

    logits (n, V), targets int (n,) -> scalar. Raises if no row is supervised.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ValueError(f"cross entropy shape mismatch: logits {logits.shape}, targets {targets.shape}")
    valid = targets != ignore_index
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross entropy with no supervised rows (all targets ignored)")
    tv = targets[valid]
    V = logits.data.shape[1]
    if tv.min() < 0 or tv.max() >= V:
        raise IndexError(f"cross entropy target out of range [0, {V})")
    z = logits.data[valid]
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    log_norm = np.log(ez.sum(axis=-1)) + zmax[:, 0]
    nll = log_norm - z[np.arange(count), tv]
    out = Tensor(np.asarray(nll.sum() / count, dtype=logits.dtype))

    def backward():
        g = out.grad
        if g is None:
            return
        glogits = np.zeros_like(logits.data)
        sm = ez / ez.sum(axis=-1, keepdims=True)
        sm[np.arange(count), tv] -= 1.0
        glogits[valid] = sm * (g / logits.dtype.type(count))
        _accum(logits, glogits)

    _record((logits,), out, backward)
    return out


# ---------------------------------------------------------------- gradient checking


def numeric_gradient(fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference d fn() / d param, one forward pair per element.

    fn must rebuild the forward pass from current param values and return a
    scalar Tensor; run it outside any tape. Use float64 params.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn().data)
        flat[i] = orig - eps
        lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
