"""Shared domain records: UAV, actions, observations, step logs."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np


@dataclass
class UavState:
    """UAV pose on the fixed circular trajectory, and how it got there."""

    pos: Tuple[float, float, float]
    arc_s: float = 0.0
    velocity_mps: float = 0.0  # of the last move
    run: int = 0  # moves in a row at velocity_mps


class Action(NamedTuple):
    """One frame's decision: which sensor to poll and how fast to fly."""

    sensor: int  # 1-based index
    velocity_mps: float


class Observation(NamedTuple):
    """Frame-start view; entry j of each array is sensor j + 1. A tuple
    compares by value, which an array does not: compare fields, not
    observations."""

    t_s: float
    uav_pos: Tuple[float, float, float]
    aoi_s: np.ndarray
    snr_db: np.ndarray
    path_loss_db: np.ndarray
    distance_m: np.ndarray
    eligible: np.ndarray  # bool


@dataclass(frozen=True)
class StepRecord:
    step: int
    action: Action
    success: bool
    avg_aoi_s: float
    per_sensor_aoi: array  # typecode "d": sensor j + 1 at index j


@dataclass
class RunSummary:
    """Episode statistics; every field is an exact function of the step log."""

    run_id: str
    time_avg_aoi_s: float
    per_sensor_mean_aoi: List[float]
    per_sensor_final_aoi: List[float]
    success_count: int
    n_steps: int
    wall_ms: float = 0.0

    @property
    def success_rate(self) -> float:
        return self.success_count / self.n_steps if self.n_steps else 0.0
