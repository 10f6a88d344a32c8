"""Shared domain records: sensors, UAV, actions, observations, step logs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class SensorState:
    """One ground sensor: position, current AoI and battery."""

    id: int  # 1-based
    pos: Tuple[float, float]
    aoi_s: float = 0.0
    last_gen_s: float = 0.0
    battery_j: float = 0.0


@dataclass
class UavState:
    """UAV pose on the fixed circular trajectory."""

    pos: Tuple[float, float, float]
    arc_s: float = 0.0
    velocity_mps: float = 0.0


@dataclass(frozen=True)
class Action:
    """One frame's decision: which sensor to poll and how fast to fly."""

    sensor: int  # 1-based index
    velocity_mps: float


@dataclass(frozen=True)
class ObsRow:
    """Per-sensor view at observation time (pre-move UAV position)."""

    id: int
    aoi_s: float
    path_loss_db: float
    snr_db: float
    battery_j: float
    eligible: bool
    distance_m: float


@dataclass(frozen=True)
class Observation:
    t_s: float
    uav_pos: Tuple[float, float, float]
    rows: Tuple[ObsRow, ...]


@dataclass(frozen=True)
class StepRecord:
    step: int
    action: Action
    success: bool
    avg_aoi_s: float
    per_sensor_aoi: Tuple[float, ...]


@dataclass
class RunSummary:
    """Episode statistics; every field is an exact function of the step log."""

    run_id: str
    time_avg_aoi_s: float
    per_sensor_mean_aoi: List[float]
    per_sensor_final_aoi: List[float]
    velocity_trace: List[float]
    success_count: int
    n_steps: int
    wall_ms: float = 0.0

    @property
    def success_rate(self) -> float:
        return self.success_count / self.n_steps if self.n_steps else 0.0
