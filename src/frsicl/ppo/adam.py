"""Bias-corrected Adam over the flat parameter vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import MlpParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_update(params: MlpParams, grad: np.ndarray, state: AdamState,
                lr: float) -> MlpParams:
    """In-place Adam step on params.flat; returns params for convenience."""
    state.t += 1
    state.m[...] = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v[...] = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    params.flat -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
