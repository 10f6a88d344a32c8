"""Small tanh MLP with three heads (sensor logits, velocity-bin logits,
value), hand-rolled forward pass over plain numpy arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

N_VELOCITY_BINS = 5
VELOCITY_FRACTIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

# Flat layout order for parameters (row-major within each array).
PARAM_ORDER = ("W1", "b1", "W2", "b2", "Ws", "bs", "Wv", "bv", "Wc", "bc")


def param_shapes(n_sensors: int, input_dim: int,
                 hidden: Tuple[int, int]) -> Dict[str, Tuple[int, ...]]:
    """Shape of each named parameter array, in PARAM_ORDER."""
    h1, h2 = hidden
    return {"W1": (input_dim, h1), "b1": (h1,), "W2": (h1, h2), "b2": (h2,),
            "Ws": (h2, n_sensors), "bs": (n_sensors,),
            "Wv": (h2, N_VELOCITY_BINS), "bv": (N_VELOCITY_BINS,),
            "Wc": (h2, 1), "bc": (1,)}


def param_count(n_sensors: int, input_dim: int, hidden: Tuple[int, int]) -> int:
    return sum(math.prod(s) for s in param_shapes(n_sensors, input_dim, hidden).values())


@dataclass
class MlpParams:
    """Every parameter in one C-contiguous float64 vector, `flat`, laid out
    in PARAM_ORDER. W1, b1, W2, b2 (trunk), Ws, bs (sensor head), Wv, bv
    (velocity head) and Wc, bc (value head) are reshaped views of it."""
    n_sensors: int
    input_dim: int
    hidden: Tuple[int, int]
    flat: np.ndarray

    def __post_init__(self):
        self.__dict__.update(self.views(self.flat))

    def views(self, buf: np.ndarray) -> Dict[str, np.ndarray]:
        """Name the slices of any vector laid out like `flat`."""
        named, end = {}, 0
        for name, shape in param_shapes(self.n_sensors, self.input_dim,
                                        self.hidden).items():
            start, end = end, end + math.prod(shape)
            named[name] = buf[start:end].reshape(shape)
        return named


def init_params(n_sensors: int, input_dim: int, hidden: Tuple[int, int],
                rng: np.random.Generator) -> MlpParams:
    """Xavier-scaled gaussian weights suited to tanh activations, zero biases."""
    params = MlpParams(n_sensors, input_dim, tuple(hidden),
                       np.zeros(param_count(n_sensors, input_dim, hidden)))
    for W in (params.W1, params.W2, params.Ws, params.Wv, params.Wc):
        W[...] = rng.normal(0.0, np.sqrt(2.0 / sum(W.shape)), size=W.shape)
    return params


def forward(params: MlpParams, features: np.ndarray):
    """Return (sensor_logits, velocity_logits, value) plus the cache needed
    for backprop. Accepts a single feature vector or a (B, F) batch."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[1] != params.input_dim:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match params input_dim {params.input_dim}")
    h1 = np.tanh(X @ params.W1 + params.b1)
    h2 = np.tanh(h1 @ params.W2 + params.b2)
    ls = h2 @ params.Ws + params.bs
    lv = h2 @ params.Wv + params.bv
    value = (h2 @ params.Wc + params.bc).ravel()
    return ls, lv, value, (X, h1, h2)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _draw(log_probs: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw by inverse CDF: the steps, and the one uniform,
    that `rng.choice(len(p), p=p)` takes; of its argument checks, only the
    one that makes NaN logits fail is kept."""
    cdf = np.exp(log_probs).cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError("probabilities are not finite")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_action(sensor_logits: np.ndarray, velocity_logits: np.ndarray,
                  rng: np.random.Generator):
    """Independent categorical draw per head; returns indices and the joint
    log-probability of the sampled pair."""
    lp_s = log_softmax(sensor_logits.ravel())
    lp_v = log_softmax(velocity_logits.ravel())
    a_s = _draw(lp_s, rng)
    a_v = _draw(lp_v, rng)
    return a_s, a_v, float(lp_s[a_s] + lp_v[a_v])


def velocity_from_bin(bin_index: int, v_max: float) -> float:
    return float(VELOCITY_FRACTIONS[bin_index] * v_max)
