"""Independent oracles used by the test suite.

Everything here re-derives expected values from first principles (closed
forms, brute-force enumeration, finite differences) without calling the
implementation paths under test.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import List, Sequence, Tuple

import numpy as np

VELOCITY_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


# --- channel math, re-derived term by term -------------------------------

def oracle_path_loss_db(d: float, h: float, a: float, b: float,
                        eta_los: float, eta_nlos: float,
                        f_hz: float, c: float) -> float:
    phi = 90.0 if d == 0 else math.degrees(math.atan(h / d))
    p_los = 1.0 / (1.0 + a * math.exp(-b * (phi - a)))
    slant = math.sqrt(d * d + h * h)
    fspl = 20 * math.log10(slant) + 20 * math.log10(f_hz) + 20 * math.log10(4 * math.pi / c)
    return p_los * (eta_los - eta_nlos) + fspl + eta_nlos


# --- brute-force AoI evaluator (threshold mode, deterministic) -----------

def oracle_episode_avg_aoi(cfg, sensor_positions: Sequence[Tuple[float, float]],
                           actions: Sequence[Tuple[int, float]]) -> float:
    """Average (over steps) of the per-step mean AoI for one action sequence.

    Re-implements the frame rules directly: move along the circle, then a
    deterministic threshold-success attempt at the post-move position, then
    generate-at-will aging with the optional cap.
    """
    n = len(sensor_positions)
    aoi = [0.0] * n
    battery = [cfg.battery_j] * n
    arc = 0.0
    cx, cy = cfg.orbit_center
    step_means = []
    for sensor_id, velocity in actions:
        v = min(max(velocity, cfg.v_min_mps), cfg.v_max_mps)
        arc += v * cfg.dt_s
        theta = arc / cfg.orbit_radius_m
        ux = cx + cfg.orbit_radius_m * math.cos(theta)
        uy = cy + cfg.orbit_radius_m * math.sin(theta)
        j = sensor_id - 1
        success = False
        if battery[j] >= cfg.e_tx_j:
            battery[j] -= cfg.e_tx_j
            sx, sy = sensor_positions[j]
            d = math.hypot(ux - sx, uy - sy)
            gamma = oracle_path_loss_db(
                d, cfg.altitude_m, cfg.env_a, cfg.env_b, cfg.eta_los_db,
                cfg.eta_nlos_db, cfg.carrier_hz, cfg.light_speed_mps)
            snr = cfg.ptx_dbm - gamma - cfg.noise_dbm
            success = snr >= cfg.snr_threshold_db
        for k in range(n):
            if success and k == j:
                aoi[k] = cfg.dt_s
            else:
                aoi[k] += cfg.dt_s
            if cfg.aoi_cap_s is not None:
                aoi[k] = min(aoi[k], cfg.aoi_cap_s)
        step_means.append(sum(aoi) / n)
    return sum(step_means) / len(step_means)


def enumerate_action_sequences(n_sensors: int, n_steps: int, v_max: float):
    """All (sensor, velocity-bin) sequences of the given length."""
    moves = [(s, frac * v_max)
             for s in range(1, n_sensors + 1)
             for frac in VELOCITY_FRACTIONS]
    return itertools.product(moves, repeat=n_steps)


# --- finite differences --------------------------------------------------

def central_difference_grad(loss_fn, params, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn over params.flat, perturbing
    one entry in place at a time."""
    flat = params.flat
    base = flat.copy()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        flat[i] = base[i] + h
        lp = loss_fn(params)
        flat[i] = base[i] - h
        lm = loss_fn(params)
        flat[i] = base[i]
        grad[i] = (lp - lm) / (2 * h)
    return grad


# --- per-array Adam ---------------------------------------------------------

def per_array_adam(arrays, grads, m, v, t: int, lr: float,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> None:
    """Bias-corrected Adam step t, one named array at a time, updating the
    dicts `arrays`, `m` and `v` in place."""
    for name, g in grads.items():
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        arrays[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# --- balanced-brace scan for the first JSON object -----------------------

def balanced_object_literals(raw: str):
    """Yield substrings that are balanced {...} literals, left to right,
    rescanning from every "{" (quadratic in the worst case)."""
    i = 0
    n = len(raw)
    while i < n:
        if raw[i] != "{":
            i += 1
            continue
        depth = 0
        in_string = False
        escaped = False
        for j in range(i, n):
            ch = raw[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    yield raw[i:j + 1]
                    break
        i += 1


def scanned_first_object(raw: str):
    """The first balanced literal that json.loads reads as a dict, or None."""
    for candidate in balanced_object_literals(raw):
        try:
            parsed = json.loads(candidate)
        except (ValueError, RecursionError):
            continue
        if isinstance(parsed, dict):
            return parsed
    return None


# --- episode summary, frame by frame -------------------------------------

def frame_by_frame_per_sensor_aoi(log, n_sensors: int) -> Tuple[List[float], List[float]]:
    """(per-sensor mean, per-sensor final) AoI of a step log, adding the
    frames into a zero vector one at a time, in log order."""
    total = np.zeros(n_sensors)
    for rec in log:
        total += np.frombuffer(rec.per_sensor_aoi)
    final = log[-1].per_sensor_aoi if log else total
    return (total / max(len(log), 1)).tolist(), final.tolist()


# --- retrieval sort oracle ------------------------------------------------

def brute_force_top_k(records: List, current: np.ndarray, k: int) -> List:
    """The experience pool's sort-based retrieval before its matrix-backed
    rewrite: rank `records` (oldest first) by negative Euclidean distance,
    one norm per record, with ties going to the newer record; return the
    top k in insertion order."""
    if k <= 0 or not records:
        return []
    scored = sorted(
        enumerate(records),
        key=lambda pair: (-float(np.linalg.norm(pair[1].features - current)), pair[0]),
        reverse=True)
    picked = sorted(scored[:k], key=lambda pair: pair[0])
    return [rec for _, rec in picked]


# --- baseline decisions, masked as the rule was first written -------------

def eligible_or_all(values: np.ndarray, eligible: np.ndarray, fill: float) -> np.ndarray:
    """`values` with ineligible entries set to `fill`, unless none is
    eligible. The first argmin (argmax) of it, with fill inf (-inf), is the
    nearest (stalest) sensor's index."""
    return np.where(eligible, values, fill) if eligible.any() else values


# --- CSV cell rendering ---------------------------------------------------

def fmt(x: float) -> str:
    """A float cell as the CSV formats should render it: 6 significant
    digits, '.' separator, by format() on a Python float rather than by
    the "%" operator the harness applies to its line formats."""
    return f"{float(x):.6g}"
