"""Air-to-ground channel: elevation angle, LoS probability, path loss, SNR.

All functions are pure and array-native: `sensor_pos` is one (x, y) pair,
giving scalars, or an (N, 2) array, giving N values; `uav_pos` is one
(x, y, h) position, or a (K, 3) array of K positions, which adds a leading
axis of K rows. Angles are in degrees throughout the public interface; the
LoS sigmoid mixes the dimensionless constant `a` with the elevation angle
in degrees, which is the standard convention for this model family.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .config import WorldConfig


def _geometry(uav_pos, sensor_pos):
    """(horizontal distance d, UAV altitude h). K UAV positions enter as
    (K, 1) columns, or (K,) for one sensor, so the subtraction broadcasts
    to (K, N) and every later ufunc runs on row i as on position i alone."""
    pos = np.asarray(sensor_pos, dtype=np.float64)
    uav = np.asarray(uav_pos, dtype=np.float64)
    x, y, h = uav.T.reshape((3,) + uav.shape[:-1] + (1,) * (pos.ndim - 1))
    return np.hypot(x - pos[..., 0], y - pos[..., 1]), h


def _elevation_deg(d, h):
    # h / 0 is inf, and atan(inf) is exactly 90 degrees
    with np.errstate(divide="ignore", over="ignore"):
        return np.degrees(np.arctan(h / d))


def elevation_angle(uav_pos, sensor_pos):
    """Elevation angle atan(h / d) in degrees; exactly 90 directly overhead."""
    return _elevation_deg(*_geometry(uav_pos, sensor_pos))


def los_probability(phi_deg, a: float, b: float):
    """Sigmoid LoS probability 1 / (1 + a exp(-b (phi - a))), phi in degrees."""
    # exp overflows past 709; the probability is then exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + a * np.exp(-b * (phi_deg - a)))


def slant_distance(uav_pos, sensor_pos):
    """Straight-line UAV-to-sensor range sqrt(d^2 + h^2) = d sec(phi)."""
    return np.hypot(*_geometry(uav_pos, sensor_pos))


def path_loss_db(uav_pos, sensor_pos, cfg: WorldConfig):
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


def link_budget(uav_pos, sensor_pos,
                cfg: WorldConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(horizontal distance, path loss, SNR) from the UAV to each sensor;
    for a (K, 3) array of UAV positions, (K, N) arrays, or (K,) for one
    sensor, whose row i equals bit for bit a call at position i alone.

    path loss = P_LoS (eta_LoS - eta_NLoS) + 20 log10(slant) + 20 log10(f)
                + 20 log10(4 pi / c) + eta_NLoS

    The 20 log10 terms together are free-space path loss at carrier
    frequency f; P_LoS enters as an expectation, never as a per-frame
    Bernoulli draw.
    """
    d, h = _geometry(uav_pos, sensor_pos)
    p_los = los_probability(_elevation_deg(d, h), cfg.env_a, cfg.env_b)
    fspl = (20.0 * np.log10(np.hypot(d, h))
            + 20.0 * math.log10(cfg.carrier_hz)
            + 20.0 * math.log10(4.0 * math.pi / cfg.light_speed_mps))
    pl = p_los * (cfg.eta_los_db - cfg.eta_nlos_db) + fspl + cfg.eta_nlos_db
    return d, pl, snr_db(pl, cfg)
