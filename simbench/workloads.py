"""The benchmark's workloads. Each drives the program only through
`harness.run_experiment`, `ppo.train` and `ppo.evaluate`, and checks every
episode it runs with the independent evaluator in check.py.

A workload runs in rounds. Round r replays input set r mod `aoi_rounds`,
so every round does the same kind of work, and mean_aoi_s covers exactly
the first `aoi_rounds` rounds whatever the run length. A traced run passes
its span tracer to `run_round`, which pauses it around program work that
only a check needs.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import List

from frsicl import env, harness, ppo
from frsicl.config import WorldConfig
from frsicl.harness import ExperimentSpec
from frsicl.icl import IclConfig
from frsicl.ppo.train import default_world_factory

import check


@dataclass
class RoundResult:
    episodes: int = 0
    frames: int = 0
    job_s: float = 0.0
    episode_ms: List[float] = field(default_factory=list)
    aoi: List[float] = field(default_factory=list)
    # ppo-train: the learning curve's mean AoI of every training episode.
    train_aoi: List[float] = field(default_factory=list)
    output_bytes: int = 0
    exchanges: List[check.ExchangeStats] = field(default_factory=list)


def _episode_seeds(seed: int, rounds: int, per_round: int) -> List[List[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(2 ** 31) for _ in range(per_round)]
            for _ in range(rounds)]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


class Workload:
    name = ""
    aoi_rounds = 1

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def run_round(self, r: int, tracer=None) -> RoundResult:
        raise NotImplementedError

    def _timed_experiment(self, spec: ExperimentSpec, res: RoundResult) -> None:
        # A fresh directory, so that it holds this call's output alone.
        shutil.rmtree(spec.out_dir, ignore_errors=True)
        started = time.perf_counter()
        harness.run_experiment(spec)
        elapsed = time.perf_counter() - started
        res.job_s += elapsed
        res.episode_ms.append(elapsed * 1000.0)
        res.episodes += 1
        res.frames += spec.world.n_steps
        res.output_bytes += _dir_bytes(spec.out_dir)


class Rollout(Workload):
    """Three plain schedulers, one episode each per round, on one layout."""

    name = "rollout-n100"

    def __init__(self, seed: int, out_dir: str, n_sensors: int = 100,
                 n_steps: int = 300, aoi_rounds: int = 4):
        super().__init__(out_dir)
        self.cfg = WorldConfig(area_size_m=400.0, n_sensors=n_sensors,
                               n_steps=n_steps)
        self.policies = ("maxaoi", "nearest", "roundrobin")
        self.aoi_rounds = aoi_rounds
        self.seeds = _episode_seeds(seed, aoi_rounds, 1)

    def run_round(self, r: int, tracer=None) -> RoundResult:
        res = RoundResult()
        (seed,) = self.seeds[r % self.aoi_rounds]
        for policy in self.policies:
            self._timed_experiment(ExperimentSpec(
                world=self.cfg, policy=policy, seeds=[seed],
                out_dir=os.path.join(self.out_dir, policy)), res)
        res.aoi = check.check_all(self.cfg, self.episodes())
        return res

    def episodes(self) -> List[check.Episode]:
        """The last round's episodes, as its CSVs report them."""
        return [ep for policy in self.policies for ep in check.episodes_from_csv(
            os.path.join(self.out_dir, policy), self.cfg)]


class IclPool(Workload):
    """The ICL controller on both offline mock backends; episodes outlast
    the experience pool, so it fills and then evicts."""

    name = "icl-pool"

    def __init__(self, seed: int, out_dir: str, n_sensors: int = 10,
                 n_steps: int = 600, aoi_rounds: int = 12):
        super().__init__(out_dir)
        self.cfg = WorldConfig(n_sensors=n_sensors, n_steps=n_steps)
        self.backends = ("mock:max-aoi", "mock:nearest")
        self.aoi_rounds = aoi_rounds
        self.seeds = _episode_seeds(seed, aoi_rounds, 1)

    def run_round(self, r: int, tracer=None) -> RoundResult:
        res = RoundResult()
        (seed,) = self.seeds[r % self.aoi_rounds]
        for backend in self.backends:
            spec = ExperimentSpec(world=self.cfg, policy="icl", seeds=[seed],
                                  out_dir=self._backend_dir(backend),
                                  icl=IclConfig(backend=backend))
            self._timed_experiment(spec, res)
            stats = check.read_exchange_log(
                os.path.join(spec.out_dir, f"exchanges-icl-s{seed}.log"))
            check.check_first_attempt_parses(stats, self.cfg.n_steps,
                                             f"{spec.out_dir} icl-s{seed}")
            res.exchanges.append(stats)
        episodes = self.episodes()
        res.aoi = check.check_all(self.cfg, episodes)

        reference = ExperimentSpec(world=self.cfg, policy="maxaoi", seeds=[seed],
                                   out_dir=os.path.join(self.out_dir, "reference"))
        with tracer.paused() if tracer else contextlib.nullcontext():
            harness.run_experiment(reference)
        (expected,) = check.episodes_from_csv(reference.out_dir, self.cfg)
        check.check_same_actions(episodes[0], expected)
        return res

    def episodes(self) -> List[check.Episode]:
        """The last round's episodes, one per backend, as its CSVs report them."""
        return [ep for backend in self.backends for ep in check.episodes_from_csv(
            self._backend_dir(backend), self.cfg)]

    def _backend_dir(self, backend: str) -> str:
        return os.path.join(self.out_dir, backend.replace(":", "-"))


class PpoTrain(Workload):
    """PPO training on the default world, then the greedy policy on
    held-out layouts."""

    name = "ppo-train"

    def __init__(self, seed: int, out_dir: str, episodes: int = 100,
                 held_out: int = 5, aoi_rounds: int = 4):
        super().__init__(out_dir)
        self.cfg = WorldConfig()
        self.ppo_cfg = ppo.PpoConfig(episodes=episodes,
                                     steps_per_episode=self.cfg.n_steps)
        self.aoi_rounds = aoi_rounds
        self.seeds = _episode_seeds(seed, aoi_rounds, 1 + held_out)

    def run_round(self, r: int, tracer=None) -> RoundResult:
        res = RoundResult()
        train_seed, *held_out = self.seeds[r % self.aoi_rounds]
        make_world = default_world_factory(self.cfg, train_seed)
        stamps: List[float] = []
        worlds = []

        def world_factory(episode: int):
            stamps.append(time.perf_counter())
            worlds.append(make_world(episode))
            return worlds[-1]

        started = time.perf_counter()
        result = ppo.train(self.cfg, self.ppo_cfg, seed=train_seed,
                           world_factory=world_factory)
        ended = time.perf_counter()
        for seed in held_out:
            world = env.init_world(self.cfg, seed=seed)
            res.aoi.append(ppo.evaluate(result.params, world).time_avg_aoi_s)
            worlds.append(world)
        res.job_s = time.perf_counter() - started
        res.episode_ms = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:] + [ended])]
        res.episodes = len(worlds)
        res.frames = sum(len(w.log) for w in worlds)

        res.train_aoi = [aoi for _, _, aoi in result.curve]
        reported = res.train_aoi + res.aoi
        seeds = [train_seed] * len(result.curve) + held_out
        self._last = [check.episode_from_world(world, seed, aoi, f"ppo s{seed} ep{k}")
                      for k, (world, seed, aoi) in enumerate(zip(worlds, seeds, reported))]
        check.check_all(self.cfg, self._last)
        return res

    def episodes(self) -> List[check.Episode]:
        """The last round's training episodes, then its greedy evaluations,
        with the mean AoI the learning curve and evaluate reported."""
        return self._last


WORKLOADS = {w.name: w for w in (Rollout, IclPool, PpoTrain)}
