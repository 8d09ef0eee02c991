"""Adam over a name-keyed dict of tensors.

State holds first and second moments for exactly the tensors it was built
for; each step updates every tensor of the dict it is given, in sorted name
order. Only the rate is set per state; BETA1, BETA2 and EPS are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step", "BETA1", "BETA2", "EPS"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_weights(cls, weights: dict[str, Tensor], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, tensor in weights.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(weights: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One in-place update of every tensor in weights; increments state.t.

    A grad entry of None (tensor did not participate in the loss) counts as a
    zero gradient.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name in sorted(weights):
        w = weights[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(w.data)
        elif g.shape != w.data.shape:
            raise ValueError(f"grad shape {g.shape} does not match weight {name} {w.data.shape}")
        m = state.m[name]
        v = state.v[name]
        dt = w.data.dtype.type
        np.add(dt(BETA1) * m, dt(1.0 - BETA1) * g, out=m)
        np.add(dt(BETA2) * v, dt(1.0 - BETA2) * (g * g), out=v)
        m_hat = m / dt(bc1)
        v_hat = v / dt(bc2)
        w.data -= dt(state.lr) * m_hat / (np.sqrt(v_hat) + dt(EPS))
