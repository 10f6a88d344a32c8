"""PPO training loop: one 30-step episode per update, minibatched epochs,
fully seeded. Reward is the negative per-frame average AoI."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..config import ConfigError, WorldConfig
from ..env import (LinkMemo, World, init_world, observe, run_episode,
                   step as env_step)
from ..features import feature_dim, feature_vector
from ..rng import RngStream
from ..states import Action, RunSummary
from .adam import AdamState, adam_update
from .gae import gae_advantages, normalize_advantages
from .io import ParamsFileError
from .loss import Minibatch, ppo_loss_and_grads
from .net import (MlpParams, N_VELOCITY_BINS, forward, init_params,
                  sample_action, velocity_from_bin)


@dataclass
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    epochs_per_update: int = 4
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    episodes: int = 2000
    steps_per_episode: int = 30
    hidden: Tuple[int, int] = (64, 64)

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError(f"episodes must be at least 1, got {self.episodes}")


class PpoPolicy:
    """Frozen (or training-time) policy over the trained network."""

    def __init__(self, params: MlpParams, cfg: WorldConfig, greedy: bool = True):
        world = (cfg.n_sensors, feature_dim(cfg.n_sensors))
        if (params.n_sensors, params.input_dim) != world:
            raise ParamsFileError(
                f"parameters for (n_sensors, input_dim) = ({params.n_sensors}, "
                f"{params.input_dim}) do not fit the world's {world}")
        self.params = params
        self.cfg = cfg
        self.greedy = greedy

    def decide(self, obs, rng: RngStream) -> Action:
        x = feature_vector(obs, self.cfg)
        ls, lv, _, _ = forward(self.params, x)
        if self.greedy:
            a_s = int(np.argmax(ls.ravel()))
            a_v = int(np.argmax(lv.ravel()))
        else:
            a_s, a_v, _ = sample_action(ls, lv, rng.gen)
        return Action(sensor=a_s + 1,
                      velocity_mps=velocity_from_bin(a_v, self.cfg.v_max_mps))


@dataclass
class TrainResult:
    params: MlpParams
    curve: List[Tuple[int, float, float]]  # (episode, mean_reward, mean_aoi)


def default_world_factory(cfg: WorldConfig, seed: int) -> Callable[[int], World]:
    """Fresh episodes of the same fixed deployment: the sensor layout is a
    function of the seed alone, matching training on one field.

    The worlds share one LinkMemo of capacity (N_VELOCITY_BINS - 1) *
    n_steps + 1. That is every orbit position an episode can reach when
    v_min_mps is 0 and the sums of v * dt_s are exact, as at the defaults
    (multiples of v_max / 4 times 1 s). Otherwise more positions are
    reachable: the memo empties when full and computes them again, so its
    hit rate falls but no result changes.
    """
    memo = LinkMemo((N_VELOCITY_BINS - 1) * cfg.n_steps + 1)

    def factory(episode: int) -> World:
        world = init_world(cfg, seed=seed)
        world.link_memo = memo
        return world

    return factory


def _collect_episode(params: MlpParams, world: World, cfg: WorldConfig,
                     ppo_cfg: PpoConfig, act_rng: np.random.Generator):
    n = min(cfg.n_steps, ppo_cfg.steps_per_episode)
    feats, a_s_list, a_v_list, logps, values, rewards = [], [], [], [], [], []
    for t in range(n):
        obs = observe(world)
        x = feature_vector(obs, cfg)
        ls, lv, value, _ = forward(params, x)
        a_s, a_v, logp = sample_action(ls, lv, act_rng)
        record = env_step(world, Action(
            sensor=a_s + 1, velocity_mps=velocity_from_bin(a_v, cfg.v_max_mps)))
        feats.append(x)
        a_s_list.append(a_s)
        a_v_list.append(a_v)
        logps.append(logp)
        values.append(float(value[0]))
        rewards.append(-record.avg_aoi_s)
    return (np.array(feats), np.array(a_s_list), np.array(a_v_list),
            np.array(logps), np.array(values), np.array(rewards))


def train(cfg: WorldConfig, ppo_cfg: PpoConfig, seed: int,
          world_factory: Optional[Callable[[int], World]] = None,
          curve_path: Optional[str] = None) -> TrainResult:
    """Train for ppo_cfg.episodes episodes; returns parameters and the
    per-episode learning curve. Aborts on a non-finite loss."""
    if world_factory is None:
        world_factory = default_world_factory(cfg, seed)
    net_rng = RngStream(seed, "ppo-init").gen
    act_rng = RngStream(seed, "ppo-actions").gen
    shuffle_rng = RngStream(seed, "ppo-shuffle").gen
    params = init_params(cfg.n_sensors, feature_dim(cfg.n_sensors),
                         ppo_cfg.hidden, net_rng)
    adam_state = AdamState.for_params(params)
    curve: List[Tuple[int, float, float]] = []

    for episode in range(ppo_cfg.episodes):
        world = world_factory(episode)
        feats, a_s, a_v, logps, values, rewards = _collect_episode(
            params, world, cfg, ppo_cfg, act_rng)
        adv, rets = gae_advantages(rewards, values, ppo_cfg.gamma,
                                   ppo_cfg.gae_lambda)
        adv = normalize_advantages(adv)
        n = len(rewards)
        for _ in range(ppo_cfg.epochs_per_update):
            order = shuffle_rng.permutation(n)
            for start in range(0, n, ppo_cfg.minibatch_size):
                sel = order[start:start + ppo_cfg.minibatch_size]
                batch = Minibatch(
                    features=feats[sel],
                    sensor_actions=a_s[sel],
                    velocity_actions=a_v[sel],
                    old_log_probs=logps[sel],
                    advantages=adv[sel],
                    returns=rets[sel],
                )
                loss, grad = ppo_loss_and_grads(
                    params, batch, ppo_cfg.clip_eps,
                    ppo_cfg.value_coef, ppo_cfg.entropy_coef)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss at episode {episode}")
                adam_update(params, grad, adam_state, ppo_cfg.learning_rate)
        curve.append((episode, float(rewards.mean()), float(-rewards.mean())))

    if curve_path is not None:
        write_curve(curve, curve_path)
    return TrainResult(params=params, curve=curve)


def write_curve(curve, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "mean_reward", "mean_aoi"])
        for episode, mean_reward, mean_aoi in curve:
            writer.writerow([episode, f"{mean_reward:.6g}", f"{mean_aoi:.6g}"])


def evaluate(params: MlpParams, world: World, greedy: bool = True,
             run_id: str = "ppo") -> RunSummary:
    policy = PpoPolicy(params, world.cfg, greedy=greedy)
    return run_episode(world, policy, run_id=run_id)
