"""Bias-corrected Adam over the named parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .net import MlpParams, zeros_like_params

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params))


def adam_update(params: MlpParams, grads: Dict[str, np.ndarray],
                state: AdamState, lr: float) -> MlpParams:
    """In-place Adam step; returns params for convenience."""
    state.t += 1
    t = state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        getattr(params, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
