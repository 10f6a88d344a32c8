"""Clipped-surrogate PPO loss and its exact analytic gradient.

The computation graph is fixed (affine/tanh/softmax/clip), so reverse-mode
derivatives are written out by hand; correctness is pinned by central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import MlpParams, forward, log_softmax


@dataclass
class Minibatch:
    features: np.ndarray   # (B, F)
    sensor_actions: np.ndarray   # (B,) int
    velocity_actions: np.ndarray  # (B,) int
    old_log_probs: np.ndarray    # (B,)
    advantages: np.ndarray       # (B,)
    returns: np.ndarray          # (B,)


def _entropy(p: np.ndarray, lp: np.ndarray) -> np.ndarray:
    return -(p * lp).sum(axis=-1)


def ppo_loss_and_grads(params: MlpParams, batch: Minibatch, clip_eps: float,
                       value_coef: float, entropy_coef: float):
    """Return (loss, grad), grad one flat vector laid out like params.flat.

    loss = -mean(min(rho A, clip(rho, 1-eps, 1+eps) A))
           + value_coef * mean((V - returns)^2)
           - entropy_coef * mean(H_sensor + H_velocity)
    """
    X = np.atleast_2d(batch.features)
    B = X.shape[0]
    idx = np.arange(B)
    a_s = batch.sensor_actions
    a_v = batch.velocity_actions
    A = batch.advantages
    ret = batch.returns

    ls, lv, value, (X, h1, h2) = forward(params, X)
    lp_s = log_softmax(ls)
    lp_v = log_softmax(lv)
    new_logp = lp_s[idx, a_s] + lp_v[idx, a_v]
    rho = np.exp(new_logp - batch.old_log_probs)

    surr1 = rho * A
    surr2 = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps) * A
    policy_loss = -np.minimum(surr1, surr2).mean()
    value_err = value - ret
    value_loss = value_coef * np.mean(value_err ** 2)
    p_s = np.exp(lp_s)
    p_v = np.exp(lp_v)
    H_s = _entropy(p_s, lp_s)
    H_v = _entropy(p_v, lp_v)
    entropy = (H_s + H_v).mean()
    loss = float(policy_loss + value_loss - entropy_coef * entropy)

    # Policy term: gradient flows through the unclipped branch only; where
    # the clip is active on the selected branch the contribution is zero.
    unclipped = surr1 <= surr2
    dlogp = np.where(unclipped, -rho * A, 0.0) / B

    onehot_s = np.zeros_like(p_s)
    onehot_s[idx, a_s] = 1.0
    onehot_v = np.zeros_like(p_v)
    onehot_v[idx, a_v] = 1.0

    dls = dlogp[:, None] * (onehot_s - p_s)
    dlv = dlogp[:, None] * (onehot_v - p_v)
    # entropy regularizer: dH/dl = -p (log p + H)
    dls += (entropy_coef / B) * p_s * (lp_s + H_s[:, None])
    dlv += (entropy_coef / B) * p_v * (lp_v + H_v[:, None])
    dvalue = 2.0 * value_coef * value_err / B

    grad = np.empty_like(params.flat)
    g = params.views(grad)
    g["Ws"][...] = h2.T @ dls
    g["bs"][...] = dls.sum(axis=0)
    g["Wv"][...] = h2.T @ dlv
    g["bv"][...] = dlv.sum(axis=0)
    g["Wc"][...] = h2.T @ dvalue[:, None]
    g["bc"][...] = dvalue.sum()

    dh2 = dls @ params.Ws.T + dlv @ params.Wv.T + np.outer(dvalue, params.Wc.ravel())
    dz2 = dh2 * (1.0 - h2 ** 2)
    g["W2"][...] = h1.T @ dz2
    g["b2"][...] = dz2.sum(axis=0)
    dh1 = dz2 @ params.W2.T
    dz1 = dh1 * (1.0 - h1 ** 2)
    g["W1"][...] = X.T @ dz1
    g["b1"][...] = dz1.sum(axis=0)

    if not np.isfinite(grad).all():
        name = next(n for n, a in g.items() if not np.isfinite(a).all())
        raise FloatingPointError(f"non-finite gradient in {name}")
    return loss, grad
