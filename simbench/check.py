"""Independent AoI evaluator and per-episode property checks.

The evaluator re-derives the air-to-ground channel and the frame rules
from the model's equations. It imports nothing from `frsicl.channel` or
`frsicl.env`: it reads the program's reported layout, actions, success
flags and AoI values, recomputes every flag and every per-step average
AoI, and raises CheckError on any disagreement.

Channel (threshold mode), per poll at the post-move UAV position:
    d     = horizontal UAV-sensor distance, h = altitude
    phi   = atan2(h, d) in degrees
    P_LoS = 1 / (1 + a exp(-b (phi - a)))
    PL    = P_LoS (eta_LoS - eta_NLoS) + 20 log10(4 pi f sqrt(d^2 + h^2) / c)
            + eta_NLoS
    SNR   = P_tx - PL - N_0;  success iff SNR >= threshold

Frame t: the UAV advances v dt along its orbit, the polled sensor pays
e_tx if its battery allows and transmits, then the polled sensor's AoI
becomes dt on success while every other AoI grows by dt, clipped at the
cap.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from frsicl.rng import RngStream

# The program computes the SNR with a different but equivalent arrangement
# of the same terms; the two agree to ~1e-13 dB. A flag may differ only
# for a link this close to the threshold.
SNR_TIE_DB = 1e-9

# Floats in the CSVs carry 6 significant digits.
CSV_REL_TOL = 1e-5
MEMORY_REL_TOL = 1e-9


class CheckError(AssertionError):
    """The program's output disagrees with the model or a property."""


@dataclass
class Episode:
    """One episode as the program reported it."""

    label: str
    seed: int
    layout: List[Tuple[float, float]]
    actions: List[Tuple[int, float]]
    success: List[bool]
    avg_aoi: List[float]
    summary_avg_aoi: float
    summary_success_rate: Optional[float]
    # Per-sensor AoI values the program reported: sensors.csv mean and final
    # (CSV episodes) or every step's per-sensor AoI (in-memory episodes).
    per_sensor_mean: Optional[List[float]]
    per_sensor_final: Optional[List[float]]
    per_sensor_steps: Optional[List[Tuple[float, ...]]]
    rel_tol: float


def _close(a: float, b: float, rel_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-9)


def _fail(episode: Episode, message: str) -> None:
    raise CheckError(f"{episode.label}: {message}")


def layout_for_seed(cfg, seed: int) -> List[Tuple[float, float]]:
    """Sensor positions: x then y for sensors 1..N, each uniform on
    [0, area), drawn from the seed's 'layout' substream."""
    rng = RngStream(seed).substream("layout")
    out = []
    for _ in range(cfg.n_sensors):
        x = float(rng.uniform(0.0, cfg.area_size_m))
        y = float(rng.uniform(0.0, cfg.area_size_m))
        out.append((x, y))
    return out


def snr_db(cfg, uav: Tuple[float, float, float], sensor: Tuple[float, float]) -> float:
    dx = uav[0] - sensor[0]
    dy = uav[1] - sensor[1]
    d = math.sqrt(dx * dx + dy * dy)
    h = uav[2]
    phi = math.degrees(math.atan2(h, d))
    p_los = 1.0 / (1.0 + cfg.env_a * math.exp(-cfg.env_b * (phi - cfg.env_a)))
    slant = math.sqrt(d * d + h * h)
    fspl = 20.0 * math.log10(4.0 * math.pi * cfg.carrier_hz * slant
                             / cfg.light_speed_mps)
    path_loss = p_los * (cfg.eta_los_db - cfg.eta_nlos_db) + fspl + cfg.eta_nlos_db
    return cfg.ptx_dbm - path_loss - cfg.noise_dbm


def aoi_sum_lower_bound(cfg, t: int) -> float:
    """Smallest AoI sum any one-poll-per-frame schedule can have after
    frame t: the m = min(t, N) most recently polled sensors hold dt..m dt,
    the rest have never been reset."""
    cap = cfg.aoi_cap_s if cfg.aoi_cap_s is not None else math.inf
    m = min(t, cfg.n_sensors)
    return (sum(min(k * cfg.dt_s, cap) for k in range(1, m + 1))
            + (cfg.n_sensors - m) * min(t * cfg.dt_s, cap))


def check_properties(cfg, ep: Episode) -> None:
    """Ranges and bounds every episode of any policy must satisfy."""
    n = cfg.n_sensors
    cap = cfg.aoi_cap_s if cfg.aoi_cap_s is not None else math.inf
    for t, (sensor, velocity) in enumerate(ep.actions):
        if not 1 <= sensor <= n:
            _fail(ep, f"step {t}: sensor id {sensor} outside 1..{n}")
        if not cfg.v_min_mps <= velocity <= cfg.v_max_mps:
            _fail(ep, f"step {t}: velocity {velocity} outside "
                      f"[{cfg.v_min_mps}, {cfg.v_max_mps}]")
    for t, avg in enumerate(ep.avg_aoi, start=1):
        bound = aoi_sum_lower_bound(cfg, t)
        if n * avg < bound * (1.0 - ep.rel_tol) - 1e-9:
            _fail(ep, f"after frame {t}: AoI sum {n * avg} below the "
                      f"one-poll-per-frame bound {bound}")
    reported = [v for values in (ep.per_sensor_mean, ep.per_sensor_final)
                if values is not None for v in values]
    for values in ep.per_sensor_steps or ():
        reported.extend(values)
    for value in reported:
        if not 0.0 <= value <= cap:
            _fail(ep, f"sensor AoI {value} outside [0, {cap}]")


def replay(cfg, ep: Episode) -> float:
    """Recompute the episode from its layout and actions; return the
    time-averaged AoI. Raises CheckError on the first disagreement."""
    if cfg.success_model != "threshold":
        raise ValueError("the evaluator covers the threshold success model only")
    n = cfg.n_sensors
    if len(ep.layout) != n:
        _fail(ep, f"layout has {len(ep.layout)} sensors, expected {n}")
    if not (len(ep.actions) == len(ep.success) == len(ep.avg_aoi) == cfg.n_steps):
        _fail(ep, f"expected {cfg.n_steps} logged steps")
    layout = layout_for_seed(cfg, ep.seed)
    for j, (exact, reported) in enumerate(zip(layout, ep.layout), start=1):
        if not (_close(exact[0], reported[0], ep.rel_tol)
                and _close(exact[1], reported[1], ep.rel_tol)):
            _fail(ep, f"sensor {j} at {reported}, layout stream gives {exact}")

    cx, cy = cfg.orbit_center
    radius = cfg.orbit_radius_m
    cap = cfg.aoi_cap_s if cfg.aoi_cap_s is not None else math.inf
    aoi = [0.0] * n
    aoi_total = [0.0] * n
    battery = [cfg.battery_j] * n
    arc = 0.0
    step_avgs = []
    for t, (sensor, velocity) in enumerate(ep.actions):
        arc += velocity * cfg.dt_s
        theta = arc / radius
        uav = (cx + radius * math.cos(theta), cy + radius * math.sin(theta),
               cfg.altitude_m)
        j = sensor - 1
        ok = False
        snr = None
        if battery[j] >= cfg.e_tx_j:
            battery[j] -= cfg.e_tx_j
            snr = snr_db(cfg, uav, layout[j])
            ok = snr >= cfg.snr_threshold_db
        if ok != ep.success[t]:
            if snr is None or abs(snr - cfg.snr_threshold_db) > SNR_TIE_DB:
                _fail(ep, f"step {t}: success flag {int(ep.success[t])}, "
                          f"model gives {int(ok)} (SNR {snr} dB)")
            ok = ep.success[t]
        for k in range(n):
            aoi[k] = min(cfg.dt_s if ok and k == j else aoi[k] + cfg.dt_s, cap)
            aoi_total[k] += aoi[k]
        avg = sum(aoi) / n
        if not _close(avg, ep.avg_aoi[t], ep.rel_tol):
            _fail(ep, f"step {t}: average AoI {ep.avg_aoi[t]}, model gives {avg}")
        step_avgs.append(avg)

    time_avg = sum(step_avgs) / len(step_avgs)
    if not _close(time_avg, ep.summary_avg_aoi, ep.rel_tol):
        _fail(ep, f"summary AoI {ep.summary_avg_aoi}, mean of steps {time_avg}")
    if ep.summary_success_rate is not None:
        rate = sum(ep.success) / len(ep.success)
        if not _close(rate, ep.summary_success_rate, ep.rel_tol):
            _fail(ep, f"summary success rate {ep.summary_success_rate}, "
                      f"steps give {rate}")
    if ep.per_sensor_mean is not None:
        for j in range(n):
            if not _close(aoi_total[j] / len(ep.actions), ep.per_sensor_mean[j],
                          ep.rel_tol):
                _fail(ep, f"sensor {j + 1}: mean AoI {ep.per_sensor_mean[j]}, "
                          f"model gives {aoi_total[j] / len(ep.actions)}")
            if not _close(aoi[j], ep.per_sensor_final[j], ep.rel_tol):
                _fail(ep, f"sensor {j + 1}: final AoI {ep.per_sensor_final[j]}, "
                          f"model gives {aoi[j]}")
    return time_avg


def check_episode(cfg, ep: Episode) -> float:
    check_properties(cfg, ep)
    return replay(cfg, ep)


def _read_rows(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def episodes_from_csv(out_dir: str, cfg) -> List[Episode]:
    """Read every run of one run_experiment output directory."""
    steps = _read_rows(os.path.join(out_dir, "steps.csv"))
    sensors = _read_rows(os.path.join(out_dir, "sensors.csv"))
    summary = _read_rows(os.path.join(out_dir, "summary.csv"))
    episodes = []
    for run in summary:
        run_id = run["run_id"]
        run_steps = [r for r in steps if r["run_id"] == run_id]
        run_sensors = [r for r in sensors if r["run_id"] == run_id]
        label = f"{out_dir}:{run_id}"
        if [int(r["step"]) for r in run_steps] != list(range(len(run_steps))):
            raise CheckError(f"{label}: steps are not numbered 0..T-1")
        if [int(r["sensor_id"]) for r in run_sensors] != list(range(1, cfg.n_sensors + 1)):
            raise CheckError(f"{label}: sensor ids are not 1..{cfg.n_sensors}")
        flags = [r["success"] for r in run_steps]
        if any(f not in ("0", "1") for f in flags):
            raise CheckError(f"{label}: success flags must be 0 or 1")
        episodes.append(Episode(
            label=label,
            seed=int(run["seed"]),
            layout=[(float(r["x_m"]), float(r["y_m"])) for r in run_sensors],
            actions=[(int(r["selected_sensor"]), float(r["velocity_mps"]))
                     for r in run_steps],
            success=[f == "1" for f in flags],
            avg_aoi=[float(r["avg_aoi_s"]) for r in run_steps],
            summary_avg_aoi=float(run["time_avg_aoi_s"]),
            summary_success_rate=float(run["success_rate"]),
            per_sensor_mean=[float(r["mean_aoi_s"]) for r in run_sensors],
            per_sensor_final=[float(r["final_aoi_s"]) for r in run_sensors],
            per_sensor_steps=None,
            rel_tol=CSV_REL_TOL,
        ))
    return episodes


def episode_from_world(world, seed: int, summary_avg_aoi: float,
                       label: str) -> Episode:
    """An episode the program kept in memory (a finished World)."""
    log = world.log
    return Episode(
        label=label,
        seed=seed,
        layout=[tuple(s.pos) for s in world.sensors],
        actions=[(rec.action.sensor, rec.action.velocity_mps) for rec in log],
        success=[rec.success for rec in log],
        avg_aoi=[rec.avg_aoi_s for rec in log],
        summary_avg_aoi=summary_avg_aoi,
        summary_success_rate=None,
        per_sensor_mean=None,
        per_sensor_final=None,
        per_sensor_steps=[rec.per_sensor_aoi for rec in log],
        rel_tol=MEMORY_REL_TOL,
    )


@dataclass
class ExchangeStats:
    decisions: int
    attempts: int
    request_chars: int
    fallbacks: int


def read_exchange_log(path: str) -> ExchangeStats:
    """Count decisions, attempts, prompt size and fallbacks in one ICL
    exchange log (a decision falls back when no attempt parsed)."""
    by_step = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            by_step.setdefault(entry["step"], []).append(entry)
    return ExchangeStats(
        decisions=len(by_step),
        attempts=sum(len(v) for v in by_step.values()),
        request_chars=sum(e["request_chars"] for v in by_step.values() for e in v),
        fallbacks=sum(1 for v in by_step.values()
                      if not any(e["parse_result"] == "ok" for e in v)),
    )


def check_first_attempt_parses(stats: ExchangeStats, n_steps: int, label: str) -> None:
    """Every decision of a well-formed backend parses on its first try."""
    if stats.decisions != n_steps:
        raise CheckError(f"{label}: {stats.decisions} logged decisions, "
                         f"expected {n_steps}")
    if stats.attempts != n_steps or stats.fallbacks:
        raise CheckError(f"{label}: {stats.attempts} attempts and "
                         f"{stats.fallbacks} fallbacks over {n_steps} decisions")


def check_same_actions(a: Episode, b: Episode) -> None:
    if len(a.actions) != len(b.actions):
        raise CheckError(f"{a.label} and {b.label} differ in length")
    for t, (x, y) in enumerate(zip(a.actions, b.actions)):
        if x != y:
            raise CheckError(f"{a.label} and {b.label} differ at step {t}: {x} != {y}")


def check_all(cfg, episodes: Sequence[Episode]) -> List[float]:
    return [check_episode(cfg, ep) for ep in episodes]
