"""Experiment recipes: seeded runs, CSV emission, the sensor-count sweep
and replay verification of published step logs."""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError, WorldConfig, save_world_config, validate_config
from .env import ActionError, init_world, run_episode, step as env_step
from .icl import IclConfig, IclPolicy
from .policies import MaxAoiPolicy, NearestNeighborPolicy, RoundRobinPolicy
from .ppo import ParamsFileError, PpoPolicy, load_params
from .states import Action, RunSummary

POLICY_NAMES = ("icl", "ppo", "nearest", "roundrobin", "maxaoi")

STEPS_HEADER = "run_id,step,selected_sensor,velocity_mps,success,avg_aoi_s"
SENSORS_HEADER = "run_id,sensor_id,x_m,y_m,mean_aoi_s,final_aoi_s"
SUMMARY_HEADER = "run_id,policy,n_sensors,seed,time_avg_aoi_s,success_rate,wall_ms"
SWEEP_HEADER = "n_sensors,policy,mean_aoi_s,std_aoi_s,n_runs"


class ReplayDivergence(RuntimeError):
    pass


def fmt(x: float) -> str:
    """Canonical float rendering: 6 significant digits, '.' separator."""
    return f"{float(x):.6g}"


def _check_policy(policy: str) -> None:
    if policy not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {policy!r}; choose one of {POLICY_NAMES}")


@dataclass
class ExperimentSpec:
    world: WorldConfig
    policy: str
    seeds: List[int]
    out_dir: str
    icl: IclConfig = field(default_factory=IclConfig)
    ppo_params_path: Optional[str] = None

    def __post_init__(self):
        _check_policy(self.policy)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("replicate seeds must be distinct")


def build_policy(spec: ExperimentSpec):
    cfg = spec.world
    if spec.policy == "nearest":
        return NearestNeighborPolicy(cfg)
    if spec.policy == "roundrobin":
        return RoundRobinPolicy(cfg)
    if spec.policy == "maxaoi":
        return MaxAoiPolicy(cfg)
    if spec.policy == "icl":
        return IclPolicy(cfg, spec.icl)
    if spec.policy == "ppo":
        if not spec.ppo_params_path:
            raise ConfigError("ppo policy requires a trained parameters file")
        return PpoPolicy(load_params(spec.ppo_params_path), cfg, greedy=True)
    raise ConfigError(f"unknown policy {spec.policy!r}")


@dataclass
class RunArtifacts:
    summaries: List[RunSummary]
    step_rows: List[List[str]]
    sensor_rows: List[List[str]]
    summary_rows: List[List[str]]


def _execute_runs(spec: ExperimentSpec) -> RunArtifacts:
    artifacts = RunArtifacts([], [], [], [])
    for seed in spec.seeds:
        run_id = f"{spec.policy}-s{seed}"
        world = init_world(spec.world, seed=seed)
        policy = build_policy(spec)
        started = time.perf_counter()
        summary = run_episode(world, policy, run_id=run_id)
        summary.wall_ms = (time.perf_counter() - started) * 1000.0
        artifacts.summaries.append(summary)
        for rec in world.log:
            artifacts.step_rows.append([
                run_id, str(rec.step), str(rec.action.sensor),
                fmt(rec.action.velocity_mps), "1" if rec.success else "0",
                fmt(rec.avg_aoi_s),
            ])
        for j, ((x, y), mean, final) in enumerate(zip(
                world.pos.tolist(), summary.per_sensor_mean_aoi,
                summary.per_sensor_final_aoi), start=1):
            artifacts.sensor_rows.append(
                [run_id, str(j), fmt(x), fmt(y), fmt(mean), fmt(final)])
        artifacts.summary_rows.append([
            run_id, spec.policy, str(spec.world.n_sensors), str(seed),
            fmt(summary.time_avg_aoi_s), fmt(summary.success_rate),
            fmt(summary.wall_ms),
        ])
        if isinstance(policy, IclPolicy):
            os.makedirs(spec.out_dir, exist_ok=True)
            policy.write_exchange_log(
                os.path.join(spec.out_dir, f"exchanges-{run_id}.log"))
    return artifacts


def _write_csv(path: str, header: str, rows: Sequence[Sequence[str]]) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(header + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> List[RunSummary]:
    """One episode per replicate seed; writes steps/sensors/summary CSVs and
    the world config (world.json) that replay reads back."""
    artifacts = _execute_runs(spec)
    _write_csv(os.path.join(spec.out_dir, "steps.csv"),
               STEPS_HEADER, artifacts.step_rows)
    _write_csv(os.path.join(spec.out_dir, "sensors.csv"),
               SENSORS_HEADER, artifacts.sensor_rows)
    _write_csv(os.path.join(spec.out_dir, "summary.csv"),
               SUMMARY_HEADER, artifacts.summary_rows)
    save_world_config(spec.world, os.path.join(spec.out_dir, "world.json"))
    return artifacts.summaries


def _check_ppo_params_fit(spec: ExperimentSpec, counts: Sequence[int]) -> None:
    """A sweep gives every count the one PPO parameters file, and a network
    fits one sensor count: fail before the first run if any count misfits."""
    if not spec.ppo_params_path:
        raise ConfigError("ppo policy requires a trained parameters file")
    params = load_params(spec.ppo_params_path)
    misfits = []
    for n in counts:
        try:
            PpoPolicy(params, spec.world.replace(n_sensors=n))
        except ParamsFileError:
            misfits.append(str(n))
    if misfits:
        raise ConfigError(
            f"PPO parameters in {spec.ppo_params_path} are for {params.n_sensors} "
            f"sensors and do not fit sensor count(s) {','.join(misfits)}")


def sweep_sensors(spec: ExperimentSpec, policies: Sequence[str],
                  counts: Sequence[int] = (5, 10, 15)) -> List[Tuple[int, str, float, float, int]]:
    """Sensor-count sweep: every count x policy x seed; aggregates the
    per-run time-averaged AoI. Emits sweep.csv. Empty or repeated lists,
    an unknown policy and a count the config rejects fail before the first
    run; so does, with "ppo" among the policies, a parameters file that
    misfits a count."""
    for name, items in (("policies", policies), ("counts", counts)):
        if not items or len(set(items)) != len(items):
            raise ConfigError(f"sweep {name} must be non-empty and distinct, "
                              f"got {list(items)}")
    for policy in policies:
        _check_policy(policy)
    for n in counts:
        validate_config(spec.world.replace(n_sensors=n))
    if "ppo" in policies:
        _check_ppo_params_fit(spec, counts)
    rows = []
    for n in counts:
        for policy in policies:
            sub = ExperimentSpec(
                world=spec.world.replace(n_sensors=n),
                policy=policy, seeds=list(spec.seeds),
                out_dir=os.path.join(spec.out_dir, f"n{n}-{policy}"),
                icl=spec.icl, ppo_params_path=spec.ppo_params_path)
            summaries = run_experiment(sub)
            values = np.array([s.time_avg_aoi_s for s in summaries])
            rows.append((n, policy, float(values.mean()),
                         float(values.std()), len(values)))
    _write_csv(os.path.join(spec.out_dir, "sweep.csv"), SWEEP_HEADER,
               [[str(n), policy, fmt(mean), fmt(std), str(count)]
                for n, policy, mean, std, count in rows])
    return rows


def _seed_from_run_id(run_id: str) -> int:
    try:
        return int(run_id.rsplit("-s", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ReplayDivergence(
            f"run id {run_id!r} does not encode a seed ('<policy>-s<seed>')") from exc


def replay_steps_csv(path: str, cfg: WorldConfig) -> int:
    """Re-simulate each run from its logged action sequence and require the
    rendered avg_aoi_s (and success flag) to match exactly. Returns the
    number of verified runs."""
    runs: Dict[str, List[dict]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != STEPS_HEADER.split(","):
            raise ReplayDivergence(f"{path}: unexpected header {reader.fieldnames}")
        for row in reader:
            runs.setdefault(row["run_id"], []).append(row)
    for run_id, rows in runs.items():
        world = init_world(cfg, seed=_seed_from_run_id(run_id))
        rows.sort(key=lambda r: int(r["step"]))
        for row in rows:
            k = int(row["step"])
            try:
                rec = env_step(world, Action(
                    sensor=int(row["selected_sensor"]),
                    velocity_mps=float(row["velocity_mps"])))
            except ActionError as exc:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: {exc}") from exc
            if fmt(rec.avg_aoi_s) != row["avg_aoi_s"]:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: "
                    f"avg_aoi_s {fmt(rec.avg_aoi_s)} != logged {row['avg_aoi_s']}")
            if ("1" if rec.success else "0") != row["success"]:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: success flag")
    return len(runs)
