"""Test-only helpers: finite-difference gradients, per-tensor checksums and
the byte comparison that audits frozen tensors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spladapt.autodiff import Tensor
from spladapt.model import EncoderWeights
from spladapt.params import _tensor_bytes, fnv1a64


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


def tensor_checksums(weights: EncoderWeights) -> dict[str, str]:
    """Name -> checksum of the tensor's bytes as a checkpoint stores them."""
    return {name: fnv1a64(raw) for name, raw in _tensor_bytes(weights).items()}


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
