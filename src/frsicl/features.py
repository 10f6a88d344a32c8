"""Normalized feature vector shared by the PPO policy and the ICL
experience pool: per-sensor AoI and SNR, UAV position and orbit phase."""

from __future__ import annotations

import math

import numpy as np

from .config import WorldConfig
from .states import Observation

SNR_NORM_MIN_DB = -20.0
SNR_NORM_MAX_DB = 60.0
AOI_NORM_FALLBACK_S = 40.0


def feature_dim(n_sensors: int) -> int:
    return 2 * n_sensors + 4


def feature_vector(obs: Observation, cfg: WorldConfig) -> np.ndarray:
    """[aoi_1..aoi_N, snr_1..snr_N, x/area, y/area, sin(theta), cos(theta)].

    AoI is scaled by aoi_cap_s (40 s if the cap is off); SNR is clipped into
    [-20, 60] dB then scaled to [0, 1]; theta is the UAV's angle on its orbit.
    """
    aoi_scale = cfg.aoi_cap_s if cfg.aoi_cap_s is not None else AOI_NORM_FALLBACK_S
    aoi = obs.aoi_s / aoi_scale
    snr = (np.clip(obs.snr_db, SNR_NORM_MIN_DB, SNR_NORM_MAX_DB) - SNR_NORM_MIN_DB) \
        / (SNR_NORM_MAX_DB - SNR_NORM_MIN_DB)
    x, y = obs.uav_pos[0], obs.uav_pos[1]
    cx, cy = cfg.orbit_center
    theta = math.atan2(y - cy, x - cx)
    tail = np.array([x / cfg.area_size_m, y / cfg.area_size_m,
                     math.sin(theta), math.cos(theta)])
    return np.concatenate([aoi, snr, tail])
