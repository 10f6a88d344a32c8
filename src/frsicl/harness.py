"""Experiment recipes: seeded runs, CSV emission, the sensor-count sweep
and replay verification of published step logs."""

from __future__ import annotations

import contextlib
import csv
import os
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    sensor_rows: List[List[str]]
    summary_rows: List[List[str]]


class _CsvFile:
    """A CSV file written under a temporary name, a block of rows at a
    time, and renamed to `path` when the `with` block ends; if the block
    raises, the partial file is removed, and so is its directory if this
    made it and nothing else is in it. The file and directory are made
    with the first block."""

    def __init__(self, path: str, header: str):
        self.path = path
        self.header = header
        self._partial = path + ".partial"
        self._made_dir = None
        self._fh = None

    def write(self, rows: Iterable[Sequence[str]]) -> None:
        try:
            if self._fh is None:
                directory = os.path.dirname(self.path) or "."
                if not os.path.isdir(directory):
                    os.makedirs(directory)
                    self._made_dir = directory
                self._fh = open(self._partial, "w", newline="", encoding="utf-8")
                self._fh.write(self.header + "\n")
                self._writer = csv.writer(self._fh, lineterminator="\n")
            self._writer.writerows(rows)
            self._fh.flush()
        except OSError as exc:
            raise IOError(f"cannot write {self.path}: {exc}") from exc

    def __enter__(self) -> "_CsvFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.write(())
            try:
                self._fh.close()
                os.replace(self._partial, self.path)
            except OSError as exc:
                raise IOError(f"cannot write {self.path}: {exc}") from exc
        elif self._fh is not None:
            self._fh.close()
            with contextlib.suppress(OSError):
                os.remove(self._partial)
                if self._made_dir is not None:
                    os.rmdir(self._made_dir)


def _step_rows(run_id: str, world) -> Iterator[Tuple[str, ...]]:
    """steps.csv rows of a finished run, formatted from its log columns."""
    return zip(repeat(run_id), map(str, range(world.frames)), map(str, world.sensor_log),
               map(fmt, world.velocity_log),
               ("1" if success else "0" for success in world.success_log),
               map(fmt, world.avg_aoi_log))


def _execute_runs(spec: ExperimentSpec, steps: _CsvFile) -> RunArtifacts:
    """Every replicate run; a run's steps.csv rows go to `steps` as it ends."""
    artifacts = RunArtifacts([], [], [])
    for seed in spec.seeds:
        run_id = f"{spec.policy}-s{seed}"
        world = init_world(spec.world, seed=seed)
        policy = build_policy(spec)
        started = time.perf_counter()
        summary = run_episode(world, policy, run_id=run_id)
        summary.wall_ms = (time.perf_counter() - started) * 1000.0
        artifacts.summaries.append(summary)
        steps.write(_step_rows(run_id, world))
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
    with _CsvFile(path, header) as out:
        out.write(rows)


def run_experiment(spec: ExperimentSpec) -> List[RunSummary]:
    """One episode per replicate seed; writes steps/sensors/summary CSVs and
    the world config (world.json) that replay reads back. Each run's steps
    are written as it ends, so memory holds one episode's log at a time; a
    run that fails leaves no steps.csv."""
    with _CsvFile(os.path.join(spec.out_dir, "steps.csv"), STEPS_HEADER) as steps:
        artifacts = _execute_runs(spec, steps)
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


def _check_step_numbers(run_id: str, steps: Sequence[int], n_steps: int) -> None:
    """A run logs steps 0..k-1 once each, with k within the horizon."""
    for i, k in enumerate(sorted(steps)):
        if k > i:
            raise ReplayDivergence(f"{run_id} does not log step {i}")
        if k < 0:
            raise ReplayDivergence(f"{run_id} logs negative step {k}")
        if k < i:
            raise ReplayDivergence(f"{run_id} logs step {k} twice")
    if len(steps) > n_steps:
        raise ReplayDivergence(f"{run_id} logs {len(steps)} steps, past the "
                               f"world's horizon of {n_steps}")


def _read_steps_csv(path: str) -> Dict[str, List[Tuple[int, Action, dict]]]:
    """run_id -> (step, action, row) of each row; a row without exactly the
    header's fields, or a cell that does not parse, is named by its line."""
    runs: Dict[str, List[Tuple[int, Action, dict]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != STEPS_HEADER.split(","):
                raise ReplayDivergence(f"{path}: unexpected header {reader.fieldnames}")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if None in row or None in row.values():
                    raise ReplayDivergence(f"{where}: expected the {len(reader.fieldnames)} "
                                           f"fields {STEPS_HEADER}")
                try:
                    entry = (int(row["step"]), Action(
                        sensor=int(row["selected_sensor"]),
                        velocity_mps=float(row["velocity_mps"])), row)
                except ValueError as exc:
                    raise ReplayDivergence(f"{where}: {exc}") from exc
                runs.setdefault(row["run_id"], []).append(entry)
        except csv.Error as exc:
            # the reader stopped inside the record after the last one it read
            raise ReplayDivergence(f"{path} line {reader.line_num + 1}: {exc}") from exc
    return runs


def replay_steps_csv(path: str, cfg: WorldConfig) -> int:
    """Re-simulate each run from its logged action sequence and require the
    rendered avg_aoi_s (and success flag) to match exactly. Returns the
    number of verified runs. A malformed row, and a run whose steps are not
    0..k-1 within the horizon, are named before the run is simulated."""
    runs = _read_steps_csv(path)
    for run_id, rows in runs.items():
        _check_step_numbers(run_id, [k for k, _, _ in rows], cfg.n_steps)
        world = init_world(cfg, seed=_seed_from_run_id(run_id))
        rows.sort(key=lambda r: r[0])
        for k, action, row in rows:
            try:
                env_step(world, action)
            except ActionError as exc:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: {exc}") from exc
            avg_aoi = fmt(world.avg_aoi_log[-1])
            if avg_aoi != row["avg_aoi_s"]:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: "
                    f"avg_aoi_s {avg_aoi} != logged {row['avg_aoi_s']}")
            if ("1" if world.success_log[-1] else "0") != row["success"]:
                raise ReplayDivergence(
                    f"replay divergence at step {k} of {run_id}: success flag")
    return len(runs)
