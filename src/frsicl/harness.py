"""Experiment recipes: seeded runs, CSV emission, the sensor-count sweep
and replay verification of published step logs."""

from __future__ import annotations

import contextlib
import csv
import os
import time
from dataclasses import dataclass, field
from itertools import repeat, takewhile
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple

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

# One "%" format per CSV line, also the form replay checks each steps.csv
# row against: floats take 6 significant digits ("%.6g" renders Python and
# numpy floats alike). No cell needs CSV quoting: a run id is a POLICY_NAMES
# entry and "-s<int>", a policy is a POLICY_NAMES entry, and every other
# cell is a number.
STEPS_LINE = "%s,%d,%d,%.6g,%d,%.6g\n"
SENSORS_LINE = "%s,%d,%.6g,%.6g,%.6g,%.6g\n"
SUMMARY_LINE = "%s,%s,%s,%s,%.6g,%.6g,%.6g\n"
SWEEP_LINE = "%s,%s,%.6g,%.6g,%d\n"


class ReplayDivergence(RuntimeError):
    pass


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


class OutputDir:
    """Stages every file of one command in the directory `path`, made on
    entry, as "<name>.partial"; a clean exit renames each to its name, and
    an exception removes the partials and the empty directories made."""

    def __init__(self, path: str):
        self.path = path
        self._made, self._staged, self._handles = [], [], contextlib.ExitStack()

    def __enter__(self) -> "OutputDir":
        level = os.path.abspath(self.path)
        while not os.path.lexists(level):
            self._made.append(level)  # deepest first
            level = os.path.dirname(level)
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as exc:
            self.__exit__(OSError, exc, None)
            raise
        return self

    def staged(self, name: str) -> str:
        """The path `name` is written at until the block ends."""
        self._staged.append(os.path.join(self.path, name))
        return self._staged[-1] + ".partial"

    def open(self, name: str, header: str) -> TextIO:
        """A text handle on the staged `name`, begun with the header line."""
        fh = self._handles.enter_context(
            open(self.staged(name), "w", newline="", encoding="utf-8"))
        fh.write(header + "\n")
        return fh

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._handles.close()  # closes every handle, even past one that fails
            if exc_type is None:
                for path in self._staged:
                    os.replace(path + ".partial", path)
                return
        except OSError as failed:
            exc = exc or failed
        for path in self._staged:
            with contextlib.suppress(OSError):
                os.remove(path + ".partial")
        for level in self._made:
            with contextlib.suppress(OSError):
                os.rmdir(level)
        # publishing failed, or a write, flush or close, which names no file
        if exc_type is None or isinstance(exc, OSError) and exc.filename is None:
            raise IOError(f"cannot write into {self.path}: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> List[RunSummary]:
    """One episode per replicate seed, all files in one OutputDir. As each
    run ends, its lines of steps.csv, sensors.csv and summary.csv (and an
    ICL run's exchanges-<run id>.log) are written, so memory holds one
    episode's log. world.json holds the config replay reads back."""
    summaries = []
    with OutputDir(spec.out_dir) as out:
        steps = out.open("steps.csv", STEPS_HEADER)
        sensors = out.open("sensors.csv", SENSORS_HEADER)
        table = out.open("summary.csv", SUMMARY_HEADER)
        for seed in spec.seeds:
            run_id = f"{spec.policy}-s{seed}"
            world = init_world(spec.world, seed=seed)
            policy = build_policy(spec)
            started = time.perf_counter()
            summary = run_episode(world, policy, run_id=run_id)
            summary.wall_ms = (time.perf_counter() - started) * 1000.0
            summaries.append(summary)
            steps.writelines(map(STEPS_LINE.__mod__, zip(
                repeat(run_id), range(world.frames), world.sensor_log,
                world.velocity_log, world.success_log, world.avg_aoi_log)))
            sensors.writelines(
                SENSORS_LINE % (run_id, j, x, y, mean, final)
                for j, ((x, y), mean, final) in enumerate(zip(
                    world.pos.tolist(), summary.per_sensor_mean_aoi,
                    summary.per_sensor_final_aoi), start=1))
            table.write(SUMMARY_LINE % (
                run_id, spec.policy, spec.world.n_sensors, seed,
                summary.time_avg_aoi_s, summary.success_rate, summary.wall_ms))
            for fh in (steps, sensors, table):
                fh.flush()
            if isinstance(policy, IclPolicy):
                policy.write_exchange_log(out.staged(f"exchanges-{run_id}.log"))
        save_world_config(spec.world, out.staged("world.json"))
    return summaries


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
    per-run time-averaged AoI into sweep.csv. Empty or repeated lists,
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
    with OutputDir(spec.out_dir) as out:
        table = out.open("sweep.csv", SWEEP_HEADER)
        for n in counts:
            for policy in policies:
                sub = ExperimentSpec(
                    world=spec.world.replace(n_sensors=n),
                    policy=policy, seeds=list(spec.seeds),
                    out_dir=os.path.join(spec.out_dir, f"n{n}-{policy}"),
                    icl=spec.icl, ppo_params_path=spec.ppo_params_path)
                values = np.array([s.time_avg_aoi_s for s in run_experiment(sub)])
                rows.append((n, policy, float(values.mean()),
                             float(values.std()), len(values)))
                table.write(SWEEP_LINE % rows[-1])
    return rows


def _seed_from_run_id(run_id: str) -> int:
    try:
        return int(run_id.rsplit("-s", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ReplayDivergence(
            f"run id {run_id!r} does not encode a seed ('<policy>-s<seed>')") from exc


def _parsed_rows(path: str, reader) -> Iterator[Tuple[str, int, Action, List[str], int]]:
    """(run_id, step, action, row, line) of each row after the header; a
    row without exactly the header's fields, or a cell that does not
    parse, is named by its line. Blank lines are skipped."""
    n_fields = STEPS_HEADER.count(",") + 1
    for row in reader:
        if not row:
            continue
        where = reader.line_num
        if len(row) != n_fields:
            raise ReplayDivergence(f"{path} line {where}: expected the {n_fields} "
                                   f"fields {STEPS_HEADER}")
        try:
            k, action = int(row[1]), Action(int(row[2]), float(row[3]))
        except ValueError as exc:
            raise ReplayDivergence(f"{path} line {where}: {exc}") from exc
        yield row[0], k, action, row, where


def _step_fault(path: str, run_id: str, k: int, line: int, frames: int,
                n_steps: int, rows) -> ReplayDivergence:
    """The fault of a run whose steps 0..frames-1 replayed and whose row at
    `line` logs step k, when k is not `frames` or `frames` is the horizon;
    `rows` holds the rows after it. A gap, a step out of order and a run
    past the horizon read the rest of the run to say which it is."""
    if k < 0:
        return ReplayDivergence(f"{run_id} logs negative step {k}")
    if k < frames:
        return ReplayDivergence(f"{run_id} logs step {k} twice")
    later = [step for _, step, _, _, _ in takewhile(lambda r: r[0] == run_id, rows)]
    if k == frames:
        return ReplayDivergence(f"{run_id} logs {frames + 1 + len(later)} steps, past "
                                f"the world's horizon of {n_steps}")
    if frames in later:
        return ReplayDivergence(f"{path} line {line}: {run_id} logs step {k} "
                                f"before step {frames}")
    return ReplayDivergence(f"{run_id} does not log step {frames}")


def _replay_rows(path: str, reader, cfg: WorldConfig) -> int:
    header = next(reader, None)
    if header != STEPS_HEADER.split(","):
        raise ReplayDivergence(f"{path}: unexpected header {header}")
    rows = _parsed_rows(path, reader)
    frames, run_id, world = {}, None, None  # run id -> steps replayed
    for rid, k, action, row, line in rows:
        if rid != run_id:
            if rid in frames:
                raise ReplayDivergence(f"{path} line {line}: the rows of {rid} are "
                                       "not contiguous")
            run_id, world = rid, init_world(cfg, seed=_seed_from_run_id(rid))
        if k != world.frames or k >= cfg.n_steps:
            raise _step_fault(path, run_id, k, line, world.frames, cfg.n_steps, rows)
        try:
            env_step(world, action)
        except ActionError as exc:
            raise ReplayDivergence(
                f"replay divergence at step {k} of {run_id}: {exc}") from exc
        frames[rid] = k + 1
        expected = STEPS_LINE % (rid, k, world.sensor_log[k], world.velocity_log[k],
                                 world.success_log[k], world.avg_aoi_log[k])
        if expected != ",".join(row) + "\n":
            column, want, got = next(cells for cells in zip(
                STEPS_HEADER.split(","), expected[:-1].split(","), row)
                if cells[1] != cells[2])
            raise ReplayDivergence(f"replay divergence at step {k} of {run_id}: "
                                   f"{column} {want} != logged {got}")
    for rid, n in frames.items():
        if n < cfg.n_steps:
            raise ReplayDivergence(f"{rid} logs {n} steps, short of the world's "
                                   f"horizon of {cfg.n_steps}")
    return len(frames)


def replay_steps_csv(path: str, cfg: WorldConfig) -> int:
    """Re-simulate each run from its logged actions, a row at a time as the
    file is read, render each replayed step with STEPS_LINE and require the
    row to match it exactly; a mismatch names the first cell that differs.
    Returns the number of verified runs. A run's rows must be contiguous,
    with steps 0, 1, ... in order up to the horizon; a malformed row, a
    gap, a repeated step, a step out of order, a run past the horizon and a
    run short of it are named."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _replay_rows(path, reader, cfg)
        except csv.Error as exc:
            # line_num counts the line the reader stopped on
            raise ReplayDivergence(f"{path} line {reader.line_num}: {exc}") from exc
