"""Adam over a name-keyed dict of tensors.

State holds first and second moments for exactly the tensors it was built
for; each step updates every tensor of the dict it is given, in sorted name
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_weights(cls, weights: dict[str, Tensor], lr: float = 1e-3,
                    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
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
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
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
        np.add(dt(b1) * m, dt(1.0 - b1) * g, out=m)
        np.add(dt(b2) * v, dt(1.0 - b2) * (g * g), out=v)
        m_hat = m / dt(bc1)
        v_hat = v / dt(bc2)
        w.data -= dt(state.lr) * m_hat / (np.sqrt(v_hat) + dt(state.eps))
