"""Air-to-ground channel: elevation angle, LoS probability, path loss, SNR.

All functions are pure and array-native: `sensor_pos` is one (x, y) pair,
giving scalars, or an (N, 2) array, giving N values. Angles are in degrees
throughout the public interface; the LoS sigmoid mixes the dimensionless
constant `a` with the elevation angle in degrees, which is the standard
convention for this model family.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .config import WorldConfig


def horizontal_distance(uav_pos: Sequence[float], sensor_pos) -> np.ndarray:
    pos = np.asarray(sensor_pos, dtype=np.float64)
    return np.hypot(uav_pos[0] - pos[..., 0], uav_pos[1] - pos[..., 1])


def _elevation_deg(d, h: float):
    # h / 0 is inf, and atan(inf) is exactly 90 degrees
    with np.errstate(divide="ignore", over="ignore"):
        return np.degrees(np.arctan(h / d))


def elevation_angle(uav_pos: Sequence[float], sensor_pos):
    """Elevation angle atan(h / d) in degrees; exactly 90 directly overhead."""
    return _elevation_deg(horizontal_distance(uav_pos, sensor_pos), uav_pos[2])


def los_probability(phi_deg, a: float, b: float):
    """Sigmoid LoS probability 1 / (1 + a exp(-b (phi - a))), phi in degrees."""
    # exp overflows past 709; the probability is then exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + a * np.exp(-b * (phi_deg - a)))


def slant_distance(uav_pos: Sequence[float], sensor_pos):
    """Straight-line UAV-to-sensor range sqrt(d^2 + h^2) = d sec(phi)."""
    return np.hypot(horizontal_distance(uav_pos, sensor_pos), uav_pos[2])


def path_loss_db(uav_pos: Sequence[float], sensor_pos, cfg: WorldConfig):
    """Probabilistic mean path loss in dB (see link_budget)."""
    return link_budget(uav_pos, sensor_pos, cfg)[1]


def snr_db(path_loss, cfg: WorldConfig):
    return cfg.ptx_dbm - path_loss - cfg.noise_dbm


def success_probability(snr, cfg: WorldConfig):
    """Packet success probability for one collection attempt.

    threshold mode: hard cutoff at snr_threshold_db.
    logistic mode: 1 / (1 + exp((threshold - snr) / scale)).
    """
    if cfg.success_model == "threshold":
        return 1.0 * (snr >= cfg.snr_threshold_db)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp((cfg.snr_threshold_db - snr) / cfg.logistic_scale_db))


def link_budget(uav_pos: Sequence[float], sensor_pos,
                cfg: WorldConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(horizontal distance, path loss, SNR) from the UAV to each sensor.

    path loss = P_LoS (eta_LoS - eta_NLoS) + 20 log10(slant) + 20 log10(f)
                + 20 log10(4 pi / c) + eta_NLoS

    The 20 log10 terms together are free-space path loss at carrier
    frequency f; P_LoS enters as an expectation, never as a per-frame
    Bernoulli draw.
    """
    d = horizontal_distance(uav_pos, sensor_pos)
    h = uav_pos[2]
    p_los = los_probability(_elevation_deg(d, h), cfg.env_a, cfg.env_b)
    fspl = (20.0 * np.log10(np.hypot(d, h))
            + 20.0 * math.log10(cfg.carrier_hz)
            + 20.0 * math.log10(4.0 * math.pi / cfg.light_speed_mps))
    pl = p_los * (cfg.eta_los_db - cfg.eta_nlos_db) + fspl + cfg.eta_nlos_db
    return d, pl, snr_db(pl, cfg)
