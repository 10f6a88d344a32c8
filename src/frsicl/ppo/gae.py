"""Generalized advantage estimation over a finished trajectory."""

from __future__ import annotations

import numpy as np


def gae_advantages(rewards: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float):
    """Backward GAE recursion over one episode that ends at its last entry.

    delta_t = r_t + gamma V_{t+1} - V_t,  with V_T = 0
    A_t     = delta_t + gamma lam A_{t+1},  with A_T = 0
    returns = A + V
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    T = len(rewards)
    adv = np.zeros(T)
    next_adv = 0.0
    next_value = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        next_adv = delta + gamma * lam * next_adv
        adv[t] = next_adv
        next_value = values[t]
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance; a singleton batch is returned centered only."""
    adv = np.asarray(adv, dtype=np.float64)
    centered = adv - adv.mean()
    std = centered.std()
    if len(adv) < 2 or std < 1e-12:
        return centered
    return centered / std
