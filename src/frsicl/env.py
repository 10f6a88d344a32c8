"""Discrete-time world: circular UAV kinematics, the beacon/data/ack frame,
AoI bookkeeping and the episode loop."""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import channel
from .config import WorldConfig, validate_config
from .rng import RngStream
from .states import Action, Observation, RunSummary, StepRecord, UavState


class HorizonError(RuntimeError):
    """step() called past the configured episode horizon."""


class ActionError(ValueError):
    """An action names no sensor of the world, or a non-finite velocity."""


Link = Tuple[np.ndarray, np.ndarray, np.ndarray]


class LinkMemo(dict):
    """uav.pos -> (distance, path loss, SNR), shared by worlds with one `pos`
    and one `cfg`. It takes no new position once it holds `capacity`."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity


class SensorView(NamedTuple):
    id: int  # 1-based
    pos: Tuple[float, float]


@dataclass
class World:
    cfg: WorldConfig
    t_s: float
    uav: UavState
    # per-sensor arrays: row j of pos (N, 2), aoi_s and battery_j is sensor j + 1
    pos: np.ndarray
    aoi_s: np.ndarray
    battery_j: np.ndarray
    env_rng: RngStream
    policy_rng: RngStream
    log: List[StepRecord] = field(default_factory=list)
    # (distance, path loss, SNR) arrays at uav.pos: filled on first use by
    # _link_at_uav, cleared by advance_uav. The post-move position of frame k
    # is the pre-move position of frame k + 1, so one link budget per frame
    # serves both attempt_collection and the next observe. Code that moves a
    # sensor or sets uav.pos directly must reset it to None.
    link: Optional[Link] = field(default=None, repr=False)
    # Link budgets by UAV position, kept across worlds with this pos and cfg;
    # its arrays are read-only. A world that moves a sensor must not use one.
    link_memo: Optional[LinkMemo] = field(default=None, repr=False)

    @property
    def sensors(self) -> Tuple[SensorView, ...]:
        """Read-only (id, pos) records of the layout."""
        return tuple(SensorView(j, tuple(p)) for j, p in enumerate(self.pos.tolist(), 1))


def _orbit_pos(cfg: WorldConfig, arc_s: float):
    theta = arc_s / cfg.orbit_radius_m
    cx, cy = cfg.orbit_center
    return (cx + cfg.orbit_radius_m * math.cos(theta),
            cy + cfg.orbit_radius_m * math.sin(theta),
            cfg.altitude_m)


def init_world(cfg: WorldConfig, seed: Optional[int] = None) -> World:
    """Fresh world: sensors i.i.d. uniform on the area, UAV at orbit angle 0."""
    validate_config(cfg)
    if seed is None:
        seed = cfg.seed
    rng = RngStream(seed)
    n = cfg.n_sensors
    pos = rng.substream("layout").uniform(0.0, cfg.area_size_m, size=(n, 2))
    uav = UavState(pos=_orbit_pos(cfg, 0.0))
    return World(cfg=cfg, t_s=0.0, uav=uav, pos=pos, aoi_s=np.zeros(n),
                 battery_j=np.full(n, cfg.battery_j, dtype=np.float64),
                 env_rng=rng.substream("env"), policy_rng=rng.substream("policy"))


def advance_uav(world: World, velocity: float) -> None:
    """Move the UAV along the circle by velocity*dt; altitude unchanged."""
    uav = world.uav
    uav.arc_s += velocity * world.cfg.dt_s
    uav.pos = _orbit_pos(world.cfg, uav.arc_s)
    world.link = None


def _link_at_uav(world: World) -> Link:
    """(distance, path loss, SNR) to every sensor from the UAV's position."""
    if world.link is None:
        memo, pos = world.link_memo, world.uav.pos
        link = None if memo is None else memo.get(pos)
        if link is None:
            link = channel.link_budget(pos, world.pos, world.cfg)
            if memo is not None:
                for a in link:
                    a.flags.writeable = False
                if len(memo) < memo.capacity:
                    memo[pos] = link
        world.link = link
    return world.link


def attempt_collection(world: World, sensor_id: int) -> bool:
    """One beacon/data/ack exchange at the UAV's current (post-move) position.

    A sensor is eligible only if it can afford one transmission; every
    attempt costs e_tx_j. In threshold mode success is deterministic;
    logistic mode draws a Bernoulli from the env substream.
    """
    cfg = world.cfg
    j = sensor_id - 1
    if world.battery_j[j] < cfg.e_tx_j:
        return False
    world.battery_j[j] -= cfg.e_tx_j
    p = channel.success_probability(_link_at_uav(world)[2][j], cfg)
    if cfg.success_model == "threshold":
        return bool(p >= 1.0)
    return bool(world.env_rng.random() < p)


def update_aoi(world: World, selected: int, success: bool) -> None:
    """Frame-end AoI update.

    Generate-at-will: a successful collection resets the selected sensor's
    AoI to dt (fresh sample generated at frame start, delivered by frame
    end); every other sensor, and the selected one on failure, ages by dt.
    The optional aoi_cap_s clips afterwards.
    """
    cfg, aoi = world.cfg, world.aoi_s
    aoi += cfg.dt_s
    if success:
        aoi[selected - 1] = cfg.dt_s
    if cfg.aoi_cap_s is not None:
        np.minimum(aoi, cfg.aoi_cap_s, out=aoi)


def clamp_velocity(cfg: WorldConfig, velocity: float) -> float:
    return min(max(velocity, cfg.v_min_mps), cfg.v_max_mps)


def check_action(cfg: WorldConfig, action: Action) -> Tuple[int, float]:
    """(sensor, velocity) as int and float, or ActionError: the sensor must be an
    integer in 1..N (numpy integers count, bool does not), the velocity finite."""
    s, v = action.sensor, action.velocity_mps
    # exact types first: an isinstance test against a numbers ABC costs ~1 us
    if (not (type(s) is int or isinstance(s, numbers.Integral) and not isinstance(s, bool))
            or not 1 <= s <= cfg.n_sensors):
        raise ActionError(f"sensor must be an integer in 1..{cfg.n_sensors}, got {s!r}")
    # abs(v) <= max is False for nan, for inf and for an int too large for a float
    if (not (type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
            or not abs(v) <= sys.float_info.max):
        raise ActionError(f"velocity must be a finite number, got {v!r}")
    return int(s), float(v)


def step(world: World, action: Action) -> StepRecord:
    """Advance one frame: check, clamp, move, collect, age, log. Fixed order."""
    cfg = world.cfg
    k = len(world.log)
    if k >= cfg.n_steps:
        raise HorizonError(f"episode horizon of {cfg.n_steps} steps exceeded")
    sensor, v = check_action(cfg, action)
    v = clamp_velocity(cfg, v)
    advance_uav(world, v)
    success = attempt_collection(world, sensor)
    update_aoi(world, sensor, success)
    world.t_s += cfg.dt_s
    per_sensor = array("d", world.aoi_s.tobytes())
    record = StepRecord(step=k, action=Action(sensor, v), success=success,
                        avg_aoi_s=sum(per_sensor) / len(per_sensor), per_sensor_aoi=per_sensor)
    world.log.append(record)
    return record


def observe(world: World) -> Observation:
    """Frame-start snapshot with link budgets at the pre-move UAV position;
    `aoi_s` is a copy, which step() leaves at the frame-start values."""
    cfg = world.cfg
    distance, path_loss, snr = _link_at_uav(world)
    eligible = world.battery_j >= cfg.e_tx_j
    if cfg.success_model == "threshold":
        eligible &= snr >= cfg.snr_threshold_db
    return Observation(t_s=world.t_s, uav_pos=world.uav.pos,
                       aoi_s=world.aoi_s.copy(), snr_db=snr,
                       path_loss_db=path_loss, distance_m=distance,
                       eligible=eligible)


def summarize(world: World, run_id: str = "run") -> RunSummary:
    log = world.log
    n = len(log)
    total = np.zeros(world.cfg.n_sensors)
    for rec in log:  # frame by frame, the order in which sum() adds
        total += np.frombuffer(rec.per_sensor_aoi)
    return RunSummary(
        run_id=run_id,
        time_avg_aoi_s=sum(rec.avg_aoi_s for rec in log) / n if n else 0.0,
        per_sensor_mean_aoi=(total / max(n, 1)).tolist(),
        per_sensor_final_aoi=(log[-1].per_sensor_aoi if n else total).tolist(),
        success_count=sum(1 for rec in log if rec.success),
        n_steps=n,
    )


def run_episode(world: World, policy, run_id: str = "run") -> RunSummary:
    """observe -> decide -> step for the full horizon.

    A policy may expose an optional feedback(observation, record) hook,
    called after each frame.
    """
    feedback = getattr(policy, "feedback", None)
    for _ in range(world.cfg.n_steps):
        obs = observe(world)
        action = policy.decide(obs, world.policy_rng)
        record = step(world, action)
        if feedback is not None:
            feedback(obs, record)
    return summarize(world, run_id)
