"""Discrete-time world: circular UAV kinematics, the beacon/data/ack frame,
AoI bookkeeping and the episode loop."""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from collections.abc import Sequence
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


# (distance, path loss, SNR, SNR >= snr_threshold_db)
Link = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# One link-budget call covers at most this many (position, sensor) pairs:
# 32 KiB per result array, and no lookahead from 2 049 sensors up.
MAX_BATCH_LINKS = 4096


class LinkMemo(dict):
    """uav.pos -> read-only (distance, path loss, SNR, in range) arrays, for worlds
    with one `pos` and one `cfg`. A batch of new positions that would take
    it past `capacity` empties it first: capacity 0 keeps only the newest
    batch."""

    def __init__(self, capacity: int = 0):
        super().__init__()
        self.capacity = capacity

    def put(self, positions: List[Tuple[float, float, float]], link: Link) -> None:
        """Store row i of each (K, N) array of `link` under positions[i],
        K positions that the memo does not hold."""
        if len(self) + len(positions) > self.capacity:
            self.clear()
        for a in link:
            a.flags.writeable = False
        self.update(zip(positions, zip(*link)))


class SensorView(NamedTuple):
    id: int  # 1-based
    pos: Tuple[float, float]


@dataclass
class World:
    """One episode's state. observe and attempt_collection read the link
    budgets at uav.pos, and whether each sensor's SNR reaches the
    threshold, from link_memo; a miss computes them together with the
    positions ahead (_fill_links).

    The step log is columnar: entry k of sensor_log, velocity_log,
    success_log and avg_aoi_log, and row k of aoi_log (n_steps, N), is
    frame k; `frames` is the length of the lists. After the first frame,
    aoi_s is the last row written, so writing to it rewrites the log.
    `log` is a read-only view that builds frame k's StepRecord on demand.
    """

    cfg: WorldConfig
    t_s: float
    uav: UavState
    # per-sensor arrays: row j of pos (N, 2), aoi_s and battery_j is sensor j + 1
    pos: np.ndarray
    aoi_s: np.ndarray
    battery_j: np.ndarray
    env_rng: RngStream
    policy_rng: RngStream
    aoi_log: np.ndarray = field(repr=False)
    sensor_log: List[int] = field(default_factory=list, repr=False)
    velocity_log: List[float] = field(default_factory=list, repr=False)  # clamped
    success_log: List[bool] = field(default_factory=list, repr=False)
    avg_aoi_log: List[float] = field(default_factory=list, repr=False)
    # private to this world unless worlds with one pos and cfg share it (see
    # ppo.train.default_world_factory). Code that moves a sensor must clear
    # it, and must not move one of a world that shares it.
    link_memo: LinkMemo = field(default_factory=LinkMemo, repr=False)

    @property
    def frames(self) -> int:
        return len(self.sensor_log)

    @property
    def log(self) -> "StepLog":
        return StepLog(self)

    @property
    def sensors(self) -> Tuple[SensorView, ...]:
        """Read-only (id, pos) records of the layout."""
        return tuple(SensorView(j, tuple(p)) for j, p in enumerate(self.pos.tolist(), 1))


class StepLog(Sequence):
    """Read-only sequence of a world's StepRecords, built from its columns
    on demand; equal to any list or StepLog of equal records."""

    __slots__ = ("_world",)

    def __init__(self, world: World):
        self._world = world

    def __len__(self) -> int:
        return self._world.frames

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(self._world.frames)[k]  # IndexError past either end
        return _step_record(self._world, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (StepLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def _step_record(w: World, k: int) -> StepRecord:
    """Frame k's StepRecord, for 0 <= k < w.frames."""
    return StepRecord(step=k, action=Action(w.sensor_log[k], w.velocity_log[k]),
                      success=w.success_log[k], avg_aoi_s=w.avg_aoi_log[k],
                      per_sensor_aoi=array("d", w.aoi_log[k].tobytes()))


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
                 env_rng=rng.substream("env"), policy_rng=rng.substream("policy"),
                 aoi_log=np.empty((cfg.n_steps, n)))


def advance_uav(world: World, velocity: float) -> None:
    """Move the UAV along the circle by velocity*dt; altitude unchanged."""
    uav = world.uav
    uav.arc_s += velocity * world.cfg.dt_s
    uav.pos = _orbit_pos(world.cfg, uav.arc_s)
    uav.run = uav.run + 1 if velocity == uav.velocity_mps else 1
    uav.velocity_mps = velocity


def _link_at_uav(world: World) -> Link:
    """(distance, path loss, SNR, SNR >= threshold) to every sensor from the
    UAV's position."""
    link = world.link_memo.get(world.uav.pos)
    return _fill_links(world) if link is None else link


def _fill_links(world: World) -> Link:
    """One link-budget call for the UAV's position and the positions that
    the velocity just flown reaches next, stored in world.link_memo.

    It looks as many frames ahead as the UAV has flown at that velocity, so
    a policy that changes speed wastes at most the positions it used; no
    further than the horizon (the frames left after the current one, so a
    frame-start miss may stop one position short), nor past MAX_BATCH_LINKS
    per call, nor past a position the memo holds or the UAV's own. The positions come from
    the additions advance_uav makes, so a frame that keeps the velocity
    finds its position under the same key.
    """
    cfg, uav, memo = world.cfg, world.uav, world.link_memo
    ahead = min(uav.run, cfg.n_steps - world.frames - 1,
                MAX_BATCH_LINKS // cfg.n_sensors - 1)
    positions = [uav.pos]
    arc, stride = uav.arc_s, uav.velocity_mps * cfg.dt_s
    for _ in range(ahead):
        arc += stride
        pos = _orbit_pos(cfg, arc)
        if pos in memo or pos == positions[-1]:  # velocity 0
            break
        positions.append(pos)
    distance, path_loss, snr = channel.link_budget(np.array(positions), world.pos, cfg)
    link = distance, path_loss, snr, snr >= cfg.snr_threshold_db
    memo.put(positions, link)
    return tuple(a[0] for a in link)


def attempt_collection(world: World, sensor_id: int) -> bool:
    """One beacon/data/ack exchange at the UAV's current (post-move) position.

    A sensor is eligible only if it can afford one transmission; every
    attempt costs e_tx_j. In threshold mode success is deterministic (the
    memo's SNR >= threshold, which is channel.success_probability == 1);
    logistic mode draws a Bernoulli from the env substream.
    """
    cfg = world.cfg
    j = sensor_id - 1
    if world.battery_j[j] < cfg.e_tx_j:
        return False
    world.battery_j[j] -= cfg.e_tx_j
    _, _, snr, in_range = _link_at_uav(world)
    if cfg.success_model == "threshold":
        return bool(in_range[j])
    return bool(world.env_rng.random() < channel.success_probability(snr[j], cfg))


def update_aoi(world: World, selected: int, success: bool) -> None:
    """Frame-end AoI update, written into the log row of the current frame,
    which world.aoi_s then becomes.

    Generate-at-will: a successful collection resets the selected sensor's
    AoI to dt (fresh sample generated at frame start, delivered by frame
    end); every other sensor, and the selected one on failure, ages by dt.
    The optional aoi_cap_s clips afterwards.
    """
    cfg = world.cfg
    aoi = world.aoi_log[world.frames]
    np.add(world.aoi_s, cfg.dt_s, out=aoi)
    if success:
        aoi[selected - 1] = cfg.dt_s
    if cfg.aoi_cap_s is not None:
        np.minimum(aoi, cfg.aoi_cap_s, out=aoi)
    world.aoi_s = aoi


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


def step(world: World, action: Action) -> None:
    """Advance one frame: check, clamp, move, collect, age, log. Fixed order.
    Frame k's entry of the log columns is written last; world.log[-1] is
    its StepRecord."""
    cfg = world.cfg
    k = world.frames
    if k >= cfg.n_steps:
        raise HorizonError(f"episode horizon of {cfg.n_steps} steps exceeded")
    sensor, v = check_action(cfg, action)
    v = clamp_velocity(cfg, v)
    advance_uav(world, v)
    success = attempt_collection(world, sensor)
    update_aoi(world, sensor, success)
    world.t_s += cfg.dt_s
    row = world.aoi_s
    world.sensor_log.append(sensor)
    world.velocity_log.append(v)
    world.success_log.append(success)
    # left to right, as sum() adds: a numpy row sum is pairwise
    world.avg_aoi_log.append(sum(memoryview(row)) / len(row))


def observe(world: World) -> Observation:
    """Frame-start snapshot with link budgets at the pre-move UAV position;
    `aoi_s` is a copy, which step() leaves at the frame-start values."""
    cfg = world.cfg
    distance, path_loss, snr, in_range = _link_at_uav(world)
    eligible = world.battery_j >= cfg.e_tx_j
    if cfg.success_model == "threshold":
        eligible &= in_range
    return Observation(t_s=world.t_s, uav_pos=world.uav.pos,
                       aoi_s=world.aoi_s.copy(), snr_db=snr,
                       path_loss_db=path_loss, distance_m=distance,
                       eligible=eligible)


def summarize(world: World, run_id: str = "run") -> RunSummary:
    n = world.frames
    frames = world.aoi_log[:n]
    # Frame by frame, the order in which sum() adds: numpy reduces axis 0 of
    # a C-contiguous array row by row, but adds up a lone column pairwise.
    if n and world.cfg.n_sensors == 1:
        total = np.add.accumulate(frames)[-1]
    else:
        total = frames.sum(axis=0)
    return RunSummary(
        run_id=run_id,
        time_avg_aoi_s=sum(world.avg_aoi_log) / n if n else 0.0,
        per_sensor_mean_aoi=(total / max(n, 1)).tolist(),
        per_sensor_final_aoi=(frames[-1] if n else total).tolist(),
        success_count=world.success_log.count(True),
        n_steps=n,
    )


def run_episode(world: World, policy, run_id: str = "run") -> RunSummary:
    """observe -> decide -> step for the full horizon.

    A policy may expose an optional feedback(observation, world) hook,
    called after each frame; the frame is entry world.frames - 1 of the
    world's log columns.
    """
    feedback = getattr(policy, "feedback", None)
    for _ in range(world.cfg.n_steps):
        obs = observe(world)
        step(world, policy.decide(obs, world.policy_rng))
        if feedback is not None:
            feedback(obs, world)
    return summarize(world, run_id)
