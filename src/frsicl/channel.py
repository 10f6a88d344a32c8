"""Air-to-ground channel: elevation angle, LoS probability, path loss, SNR.

All functions are pure. Angles are in degrees throughout the public
interface; the LoS sigmoid mixes the dimensionless constant `a` with the
elevation angle in degrees, which is the standard convention for this
model family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .config import WorldConfig


@dataclass(frozen=True)
class LinkBudget:
    elevation_deg: float
    p_los: float
    path_loss_db: float
    snr_db: float
    success_p: float


def horizontal_distance(uav_pos: Sequence[float], sensor_pos: Sequence[float]) -> float:
    return math.hypot(uav_pos[0] - sensor_pos[0], uav_pos[1] - sensor_pos[1])


def elevation_angle(uav_pos: Sequence[float], sensor_pos: Sequence[float]) -> float:
    """Elevation angle atan(h / d) in degrees; exactly 90 directly overhead."""
    d = horizontal_distance(uav_pos, sensor_pos)
    h = uav_pos[2]
    if d == 0.0:
        return 90.0
    return math.degrees(math.atan(h / d))


def los_probability(phi_deg: float, a: float, b: float) -> float:
    """Sigmoid LoS probability 1 / (1 + a exp(-b (phi - a))), phi in degrees."""
    x = -b * (phi_deg - a)
    # exp overflows past 709; the probability is then below 1e-300
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + a * math.exp(x))


def slant_distance(uav_pos: Sequence[float], sensor_pos: Sequence[float]) -> float:
    """Straight-line UAV-to-sensor range sqrt(d^2 + h^2) = d sec(phi)."""
    d = horizontal_distance(uav_pos, sensor_pos)
    return math.hypot(d, uav_pos[2])


def path_loss_db(uav_pos: Sequence[float], sensor_pos: Sequence[float],
                 cfg: WorldConfig) -> float:
    """Probabilistic mean path loss in dB.

    gamma = P_LoS (eta_LoS - eta_NLoS) + 20 log10(slant) + 20 log10(f)
            + 20 log10(4 pi / c) + eta_NLoS

    The 20 log10 terms together are free-space path loss at carrier
    frequency f; P_LoS enters as an expectation, never as a per-frame
    Bernoulli draw.
    """
    phi = elevation_angle(uav_pos, sensor_pos)
    p_los = los_probability(phi, cfg.env_a, cfg.env_b)
    slant = slant_distance(uav_pos, sensor_pos)
    fspl = (20.0 * math.log10(slant)
            + 20.0 * math.log10(cfg.carrier_hz)
            + 20.0 * math.log10(4.0 * math.pi / cfg.light_speed_mps))
    return p_los * (cfg.eta_los_db - cfg.eta_nlos_db) + fspl + cfg.eta_nlos_db


def snr_db(path_loss: float, cfg: WorldConfig) -> float:
    return cfg.ptx_dbm - path_loss - cfg.noise_dbm


def success_probability(snr: float, cfg: WorldConfig) -> float:
    """Packet success probability for one collection attempt.

    threshold mode: hard cutoff at snr_threshold_db.
    logistic mode: 1 / (1 + exp((threshold - snr) / scale)).
    """
    if cfg.success_model == "threshold":
        return 1.0 if snr >= cfg.snr_threshold_db else 0.0
    x = (cfg.snr_threshold_db - snr) / cfg.logistic_scale_db
    # clamp to avoid overflow in exp for extreme SNR values
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def link_budget(uav_pos: Sequence[float], sensor_pos: Sequence[float],
                cfg: WorldConfig) -> LinkBudget:
    phi = elevation_angle(uav_pos, sensor_pos)
    pl = path_loss_db(uav_pos, sensor_pos, cfg)
    snr = snr_db(pl, cfg)
    return LinkBudget(
        elevation_deg=phi,
        p_los=los_probability(phi, cfg.env_a, cfg.env_b),
        path_loss_db=pl,
        snr_db=snr,
        success_p=success_probability(snr, cfg),
    )
