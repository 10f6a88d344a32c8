"""Discrete-time world: circular UAV kinematics, the beacon/data/ack frame,
AoI bookkeeping and the episode loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from . import channel
from .config import WorldConfig, validate_config
from .rng import RngStream
from .states import Action, Observation, ObsRow, RunSummary, SensorState, StepRecord, UavState


class HorizonError(RuntimeError):
    """step() called past the configured episode horizon."""


@dataclass
class World:
    cfg: WorldConfig
    t_s: float
    uav: UavState
    sensors: List[SensorState]
    rng: RngStream
    env_rng: RngStream
    policy_rng: RngStream
    log: List[StepRecord] = field(default_factory=list)

    @property
    def step_index(self) -> int:
        return len(self.log)


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
    layout_rng = rng.substream("layout")
    sensors = []
    for j in range(1, cfg.n_sensors + 1):
        x = layout_rng.uniform(0.0, cfg.area_size_m)
        y = layout_rng.uniform(0.0, cfg.area_size_m)
        sensors.append(SensorState(id=j, pos=(float(x), float(y)),
                                   battery_j=cfg.battery_j))
    uav = UavState(pos=_orbit_pos(cfg, 0.0), arc_s=0.0, velocity_mps=0.0)
    return World(cfg=cfg, t_s=0.0, uav=uav, sensors=sensors, rng=rng,
                 env_rng=rng.substream("env"), policy_rng=rng.substream("policy"))


def advance_uav(world: World, velocity: float) -> UavState:
    """Move the UAV along the circle by velocity*dt; altitude unchanged."""
    uav = world.uav
    uav.arc_s += velocity * world.cfg.dt_s
    uav.velocity_mps = velocity
    uav.pos = _orbit_pos(world.cfg, uav.arc_s)
    return uav


def attempt_collection(world: World, sensor_id: int) -> bool:
    """One beacon/data/ack exchange at the UAV's current (post-move) position.

    A sensor is eligible only if it can afford one transmission; every
    attempt costs e_tx_j. In threshold mode success is deterministic;
    logistic mode draws a Bernoulli from the env substream.
    """
    cfg = world.cfg
    sensor = world.sensors[sensor_id - 1]
    if sensor.battery_j < cfg.e_tx_j:
        return False
    sensor.battery_j -= cfg.e_tx_j
    lb = channel.link_budget(world.uav.pos, sensor.pos, cfg)
    if cfg.success_model == "threshold":
        return lb.success_p >= 1.0
    return world.env_rng.random() < lb.success_p


def update_aoi(world: World, selected: int, success: bool) -> None:
    """Frame-end AoI update.

    Generate-at-will: a successful collection resets the selected sensor's
    AoI to dt (fresh sample generated at frame start, delivered by frame
    end); every other sensor, and the selected one on failure, ages by dt.
    The optional aoi_cap_s clips afterwards.
    """
    cfg = world.cfg
    frame_start = world.t_s
    for sensor in world.sensors:
        if success and sensor.id == selected:
            sensor.last_gen_s = frame_start
            sensor.aoi_s = cfg.dt_s
        else:
            sensor.aoi_s += cfg.dt_s
        if cfg.aoi_cap_s is not None:
            sensor.aoi_s = min(sensor.aoi_s, cfg.aoi_cap_s)


def clamp_velocity(cfg: WorldConfig, velocity: float) -> float:
    return min(max(velocity, cfg.v_min_mps), cfg.v_max_mps)


def step(world: World, action: Action) -> StepRecord:
    """Advance one frame: clamp, move, collect, age, log. Fixed order."""
    cfg = world.cfg
    if world.step_index >= cfg.n_steps:
        raise HorizonError(f"episode horizon of {cfg.n_steps} steps exceeded")
    v = clamp_velocity(cfg, action.velocity_mps)
    advance_uav(world, v)
    success = attempt_collection(world, action.sensor)
    update_aoi(world, action.sensor, success)
    world.t_s += cfg.dt_s
    per_sensor = tuple(s.aoi_s for s in world.sensors)
    record = StepRecord(
        step=world.step_index,
        action=Action(sensor=action.sensor, velocity_mps=v),
        success=success,
        avg_aoi_s=sum(per_sensor) / len(per_sensor),
        per_sensor_aoi=per_sensor,
    )
    world.log.append(record)
    return record


def observe(world: World) -> Observation:
    """Frame-start snapshot with link budgets at the pre-move UAV position."""
    cfg = world.cfg
    rows = []
    for sensor in world.sensors:
        lb = channel.link_budget(world.uav.pos, sensor.pos, cfg)
        has_energy = sensor.battery_j >= cfg.e_tx_j
        if cfg.success_model == "threshold":
            eligible = has_energy and lb.snr_db >= cfg.snr_threshold_db
        else:
            eligible = has_energy
        rows.append(ObsRow(
            id=sensor.id,
            aoi_s=sensor.aoi_s,
            path_loss_db=lb.path_loss_db,
            snr_db=lb.snr_db,
            battery_j=sensor.battery_j,
            eligible=eligible,
            distance_m=channel.horizontal_distance(world.uav.pos, sensor.pos),
        ))
    return Observation(t_s=world.t_s, uav_pos=world.uav.pos, rows=tuple(rows))


def summarize(world: World, run_id: str = "run") -> RunSummary:
    log = world.log
    n = len(log)
    n_sensors = world.cfg.n_sensors
    per_sensor_mean = [
        sum(rec.per_sensor_aoi[j] for rec in log) / n if n else 0.0
        for j in range(n_sensors)
    ]
    per_sensor_final = list(log[-1].per_sensor_aoi) if n else [0.0] * n_sensors
    return RunSummary(
        run_id=run_id,
        time_avg_aoi_s=sum(rec.avg_aoi_s for rec in log) / n if n else 0.0,
        per_sensor_mean_aoi=per_sensor_mean,
        per_sensor_final_aoi=per_sensor_final,
        velocity_trace=[rec.action.velocity_mps for rec in log],
        success_count=sum(1 for rec in log if rec.success),
        n_steps=n,
    )


def run_episode(world: World, policy, run_id: str = "run") -> RunSummary:
    """observe -> decide -> step for the full horizon.

    Policies may expose two optional hooks: feedback(observation, record)
    after each frame, and notify(summary) at episode end.
    """
    feedback = getattr(policy, "feedback", None)
    for _ in range(world.cfg.n_steps):
        obs = observe(world)
        action = policy.decide(obs, world.policy_rng)
        record = step(world, action)
        if feedback is not None:
            feedback(obs, record)
    summary = summarize(world, run_id)
    notify = getattr(policy, "notify", None)
    if notify is not None:
        notify(summary)
    return summary
