"""Reverse-mode automatic differentiation over numpy arrays.

A ``GradTape`` records every op executed inside its ``with`` block, in
execution order. ``tape.backward(loss)`` seeds the scalar loss gradient,
replays the recorded ops in reverse, accumulates ``.grad`` on every
participating tensor that requires grad, and clears the tape. Forward
calls outside any active tape record nothing, so pure inference is
reentrant. Training runs in float32; pass float64 arrays for
gradient-check work (ops keep the input dtype).

Each part of the encoder is one op with a hand-written backward pass:
embed (token plus position embeddings), self_attention (Q/K/V projections,
heads as numpy views, scaled softmax, head merge, output projection),
add_layer_norm (the residual sum and its layer norm), feed_forward (linear,
exact GELU, linear) and mlm_head (the tied MLM projection of chosen rows).
Each computes the gradient only of an input that requires grad, so a frozen
op still passes the gradient back to its input.

The rows of self_attention and splade_pool are packed sequences with no
padding, tiled by blocks of (rows, S) pairs, each rows slice holding whole
sequences of S positions. Both ops work on reshaped views of each block, so
each sequence's arithmetic depends on that sequence alone.

splade_pool fuses the whole SPLADE head. It computes the pooling argmax only
while a tape records it (training), and its backward builds the logit
gradient as a sparse matrix with one entry per (sequence, term).

ranking_loss fuses the fine-tune loss: in-batch softmax cross entropy over
the (3B, V) query/positive/negative batch plus its two FLOPS terms, with one
(3B, V) gradient buffer. softmax_cross_entropy is the MLM loss.
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
    "embed",
    "self_attention",
    "add_layer_norm",
    "feed_forward",
    "mlm_head",
    "splade_pool",
    "softmax_cross_entropy",
    "ranking_loss",
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


# ---------------------------------------------------------------- helpers


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


def _scatter_rows(like: np.ndarray, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the row lookup like[ids], given its output gradient g:
    zeros, with each row of g added at its id; repeated ids accumulate."""
    gx = np.zeros_like(like)
    np.add.at(gx, ids, g)
    return gx


# ---------------------------------------------------------------- fused encoder ops


def embed(tok: Tensor, pos: Tensor, ids: np.ndarray, positions: np.ndarray) -> Tensor:
    """tok[ids] + pos[positions]: token plus position embeddings, (n, d) for
    ids and positions int (n,). The caller checks the ids."""
    out = Tensor(tok.data[ids] + pos.data[positions])

    def backward():
        g = out.grad
        if g is None:
            return
        if pos.requires_grad:
            _accum(pos, _scatter_rows(pos.data, positions, g))
        if tok.requires_grad:
            _accum(tok, _scatter_rows(tok.data, ids, g))

    _record((tok, pos), out, backward)
    return out


def self_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor,
                   wo: Tensor, bo: Tensor, blocks: Sequence[tuple[slice, int]], heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention with its output projection.

    x (n, d) holds packed sequences, tiled by blocks (_n_seqs); a position
    attends only within its own sequence. Each of the H = heads heads
    attends with d/H of the columns of
    q = x @ wq + bq, k = x @ wk + bk and v = x @ wv + bv; the heads'
    contexts are merged back to (n, d), then projected: ctx @ wo + bo.
    """
    n, d = x.shape
    _n_seqs(n, blocks)
    if d % heads:
        raise ValueError(f"self_attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))

    def split(t: np.ndarray, S: int) -> np.ndarray:  # (c*S, d) -> (c, H, S, dh), a view
        return t.reshape(-1, S, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (_affine(x.data, w.data, b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    ctx = np.empty_like(q)
    probs = []  # per block (c, H, S, S): scores, then probabilities
    for rows, S in blocks:
        p = split(q[rows], S) @ split(k[rows], S).transpose(0, 1, 3, 2)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, split(v[rows], S), out=split(ctx[rows], S))
        probs.append(p)
    out = Tensor(_affine(ctx, wo.data, bo.data))

    def backward():
        g = out.grad
        if g is None:
            return
        _linear_grads(ctx, g, wo, bo)
        if not any(t.requires_grad for t in (x, wq, bq, wk, bk, wv, bv)):
            return
        g = g @ wo.data.T  # d ctx
        dqkv = np.empty((n, 3, heads, dh), dtype=g.dtype)  # rows of [dq | dk | dv]
        for (rows, S), p in zip(blocks, probs):
            q4, k4, v4, g4 = (split(t[rows], S) for t in (q, k, v, g))
            dq4, dk4, dv4 = (split(dqkv[rows, i], S) for i in range(3))
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

    _record((x, wq, bq, wk, bk, wv, bv, wo, bo), out, backward)
    return out


def _n_seqs(n: int, blocks: Sequence[tuple[slice, int]]) -> int:
    """The number of sequences in blocks, which must tile rows 0..n in order,
    each (rows, S) a step-1 slice of whole sequences of S positions."""
    start = count = 0
    for rows, S in blocks:
        if rows.start != start or rows.step is not None or S < 1 or rows.stop <= start \
                or (rows.stop - start) % S:
            break
        start, count = rows.stop, count + (rows.stop - start) // S
    else:
        if start == n:
            return count
    raise ValueError(f"blocks {list(blocks)} do not tile {n} rows")


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) with the same bits and less overhead:
    mean divides the float32 sum by an integer in float64 and rounds back,
    which equals the correctly rounded float32 divide done here."""
    total = np.add.reduce(a, axis=-1, keepdims=True)
    total /= a.shape[-1]
    return total


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """The residual sum x + y of two (..., d) tensors, normalized over its
    last axis to zero mean and unit variance (the biased variance, divided
    by d), then scaled by gain (d,) and shifted by bias (d,)."""
    if x.shape != y.shape:
        raise ValueError(f"add_layer_norm expects equal shapes, got {x.shape} and {y.shape}")
    d = x.shape[-1]
    if d == 0:
        raise ValueError("add_layer_norm over a zero-length axis")
    xhat = x.data + y.data
    xhat -= _row_mean(xhat)
    buf = xhat * xhat
    inv_std = _row_mean(buf)
    inv_std += x.dtype.type(eps)
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    out = Tensor(np.multiply(xhat, gain.data, out=buf))
    out.data += bias.data

    def backward():
        g = out.grad
        if g is None:
            return
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad or y.requires_grad:
            dx = g * gain.data
            m1 = _row_mean(dx)
            m2 = _row_mean(dx * xhat)
            dx -= m1
            dx -= xhat * m2
            dx *= inv_std
            _accum(x, dx, own=False)  # x may be y, whose sum then takes dx twice
            _accum(y, dx)

    _record((x, y, gain, bias), out, backward)
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


def mlm_head(h: Tensor, rows: np.ndarray, emb: Tensor, bias: Tensor) -> Tensor:
    """The tied MLM output projection of the hidden states h (n, d) at rows
    int (m,): h[rows] @ emb.T + bias -> (m, V), for emb (V, d) and bias (V,).
    The caller checks the rows."""
    if h.ndim != 2 or emb.ndim != 2 or emb.shape[1] != h.shape[1] or bias.shape != (emb.shape[0],):
        raise ValueError(f"mlm_head: hidden {h.shape}, embeddings {emb.shape} and bias {bias.shape} do not fit")
    hr = h.data[rows]
    # emb.T is copied: OpenBLAS sums a product with a transposed operand in
    # another order, and trained checkpoints keep their bytes with this one
    emb_t = emb.data.T.copy()
    out = Tensor(_affine(hr, emb_t, bias.data))

    def backward():
        g = out.grad
        if g is None:
            return
        if emb.requires_grad:
            _accum(emb, (hr.T @ g).T)
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))
        if h.requires_grad:
            _accum(h, _scatter_rows(h.data, rows, g @ emb_t.T))

    _record((h, emb, bias), out, backward)
    return out


def splade_pool(h: Tensor, emb: Tensor, bias: Tensor, content: np.ndarray,
                blocks: Sequence[tuple[slice, int]], order: Sequence[int]) -> Tensor:
    """The SPLADE head: h (n, d) hidden states of packed sequences, emb (V, d)
    tied token embeddings, bias (V,), content bool (n,) marking the rows
    that pool, blocks as in self_attention, and order[j] the output row of
    the j-th packed sequence -> (len(order), V) with

        out[order[j], v] = log(1 + relu(max over content rows r of sequence j
                                        of h[r] . emb[v] + bias[v])).

    The gradient of the max goes to the first maximal content row. The
    (n, V) logits are not kept; a sequence without content pools to 0, and
    a NaN max stays NaN.
    """
    n, V, B = h.shape[0], emb.shape[0], len(order)
    if emb.shape[1] != h.shape[1] or bias.shape != (V,) or content.shape != (n,) or B != _n_seqs(n, blocks):
        raise ValueError(f"splade_pool: hidden {h.shape}, embeddings {emb.shape}, bias {bias.shape}, "
                         f"content {content.shape} and {B} sequences do not fit")
    logits = h.data @ emb.data.T
    logits += bias.data
    logits[~content] = -np.inf
    m = np.empty((B, V), dtype=logits.dtype)
    per_block, j = [], 0  # its (c, S, V) logits, their maxima, output rows, first row, S
    for rows, S in blocks:
        blk = logits[rows].reshape(-1, S, V)
        at, j = order[j: j + len(blk)], j + len(blk)
        m[at] = blk_max = blk.max(axis=1)
        per_block.append((blk, blk_max, at, rows.start, S))
    pos = ~(m <= 0)  # true for NaN too
    relu = np.where(pos, m, 0)
    out = Tensor(np.log1p(relu))

    def backward():
        g = out.grad
        if g is None:
            return
        dm = np.where(pos, g / (1 + relu), 0)
        # d logits, transposed: row v holds the B entries (arg[b, v], dm[b, v])
        dlt = sp.csr_array((dm.T.ravel(), arg.T.ravel(), np.arange(0, B * V + 1, B)), shape=(V, n))
        if h.requires_grad:
            _accum(h, dlt.T @ emb.data)
        if emb.requires_grad:
            _accum(emb, dlt @ h.data)
        if bias.requires_grad:
            _accum(bias, dm.sum(axis=0))

    _record((h, emb, bias), out, backward)
    if out.requires_grad:  # recorded: backward needs the packed row of each max
        arg = np.empty(m.shape, dtype=np.int64)
        for blk, blk_max, at, start, S in per_block:
            first_rows = start + S * np.arange(len(blk))
            arg[at] = (blk == blk_max[:, None, :]).argmax(axis=1) + first_rows[:, None]
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-softmax over rows whose target is not ignore_index.

    logits (n, V), targets int (n,) -> scalar. Raises if no row is supervised.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ValueError(f"cross entropy shape mismatch: logits {logits.shape}, targets {targets.shape}")
    valid = targets != ignore_index
    if not valid.any():
        raise ValueError("cross entropy with no supervised rows (all targets ignored)")
    tv = targets[valid]
    V = logits.data.shape[1]
    if tv.min() < 0 or tv.max() >= V:
        raise IndexError(f"cross entropy target out of range [0, {V})")
    loss, d_logits = _cross_entropy(logits.data[valid], tv)
    out = Tensor(loss)

    def backward():
        g = out.grad
        if g is None:
            return
        glogits = np.zeros_like(logits.data)
        glogits[valid] = d_logits(g)
        _accum(logits, glogits)

    _record((logits,), out, backward)
    return out


def ranking_loss(reps: Tensor, lambda_q: float, lambda_d: float) -> tuple[Tensor, float]:
    """In-batch softmax contrastive loss plus FLOPS regularization.

    reps (3B, V) holds B query rows, then their B positives, then B
    negatives, row-aligned by triple. Query i scores its own positive and
    every negative in the batch, and the cross entropy target is always the
    positive. The FLOPS term of a row block is the sum over terms of its
    squared mean activation; lambda_q weights that of the queries and
    lambda_d that of the 2B doc rows, and a zero weight skips its term.
    Returns the scalar loss and, for the step log, the weighted FLOPS term
    as a float. The backward writes the whole (3B, V) gradient into one
    buffer.
    """
    x = reps.data
    if reps.ndim != 2 or x.shape[0] == 0 or x.shape[0] % 3:
        raise ValueError(f"ranking_loss expects (3B, V) representations, B >= 1; got {reps.shape}")
    B = x.shape[0] // 3
    dt = x.dtype.type
    q, pos, neg = x[:B], x[B:2 * B], x[2 * B:]
    # neg.T is copied: OpenBLAS sums a product with a transposed operand in
    # another order, and trained checkpoints keep their bytes with this one
    scores = np.concatenate(((q * pos).sum(axis=1)[:, None], q @ neg.T.copy()), axis=1)
    loss, d_scores = _cross_entropy(scores, np.zeros(B, dtype=np.int64))
    flops_term, flops = 0.0, []
    for rows, n, lam in ((slice(0, B), B, lambda_q), (slice(B, 3 * B), 2 * B, lambda_d)):
        if lam:
            mean = x[rows].sum(axis=0) * dt(1.0 / n)
            term = (mean * mean).sum()
            flops_term += lam * float(term)
            loss = loss + term * dt(lam)
            flops.append((rows, n, lam, mean))
    out = Tensor(np.asarray(loss))

    def backward():
        g = out.grad
        if g is None:
            return
        # summed into +0 in a fixed order (a query row takes its FLOPS part,
        # then the negatives', then the positive's), so the bytes are fixed
        grad = np.zeros_like(x)
        for rows, n, lam, mean in flops:
            grad[rows] += 2 * (g * dt(lam) * mean) * dt(1.0 / n)
        ds = d_scores(g)
        d_pos, d_neg = ds[:, :1], ds[:, 1:]
        grad[:B] += d_neg @ neg
        grad[:B] += d_pos * pos
        grad[B:2 * B] += d_pos * q
        grad[2 * B:] += (q.T @ d_neg).T
        _accum(reps, grad)

    _record((reps,), out, backward)
    return out, flops_term


def _cross_entropy(z: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The mean over rows of -log softmax(z)[row, target], as a 0-d array of
    z's dtype, and the map from its upstream gradient to the gradient of z."""
    rows = np.arange(len(targets))
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    nll = np.log(ez.sum(axis=-1)) + zmax[:, 0] - z[rows, targets]

    def grad(g: np.ndarray) -> np.ndarray:
        sm = ez / ez.sum(axis=-1, keepdims=True)
        sm[rows, targets] -= 1.0
        sm *= g / z.dtype.type(len(targets))
        return sm

    return np.asarray(nll.sum() / len(targets), dtype=z.dtype), grad
