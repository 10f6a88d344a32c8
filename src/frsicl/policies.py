"""Non-learning scheduling baselines and the policy protocol.

A policy exposes decide(observation, rng) -> Action and must return a valid
action for every observation. Ties in argmin/argmax rules break toward the
lowest sensor id so episodes replay deterministically: argmin and argmax
return the first extreme.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .config import WorldConfig
from .rng import RngStream
from .states import Action, Observation


class Policy(Protocol):
    def decide(self, obs: Observation, rng: RngStream) -> Action: ...


def nearest_neighbor_decide(obs: Observation, v_max: float) -> Action:
    """Poll the horizontally nearest sensor (among eligible ones, if any)."""
    eligible = obs.eligible
    j = int(np.where(eligible, obs.distance_m, np.inf).argmin())
    # An ineligible pick means every masked entry is the fill: only then can
    # no sensor be eligible, and only then is any() worth its cost.
    if not eligible[j] and not eligible.any():
        j = int(obs.distance_m.argmin())
    return Action(j + 1, v_max)


def max_aoi_decide(obs: Observation, v_max: float) -> Action:
    """Poll the stalest sensor (among eligible ones, if any)."""
    eligible = obs.eligible
    j = int(np.where(eligible, obs.aoi_s, -np.inf).argmax())
    if not eligible[j] and not eligible.any():
        j = int(obs.aoi_s.argmax())
    return Action(j + 1, v_max)


class NearestNeighborPolicy:
    """Paper-style baseline: always the nearest sensor, constant v_max.

    The published baseline leaves the velocity rule open; constant v_max is
    our choice and is not claimed to match the reference curves.
    """

    def __init__(self, cfg: WorldConfig):
        self.v_max = cfg.v_max_mps

    def decide(self, obs: Observation, rng: RngStream) -> Action:
        return nearest_neighbor_decide(obs, self.v_max)


class MaxAoiPolicy:
    """Greedy freshness policy; also the ICL fallback."""

    def __init__(self, cfg: WorldConfig):
        self.v_max = cfg.v_max_mps

    def decide(self, obs: Observation, rng: RngStream) -> Action:
        return max_aoi_decide(obs, self.v_max)


class RoundRobinPolicy:
    """Cycles sensors 1..N at half maximum speed; counter resets per episode."""

    def __init__(self, cfg: WorldConfig):
        self.n = cfg.n_sensors
        self.velocity = cfg.v_max_mps / 2.0
        self.counter = 0

    def decide(self, obs: Observation, rng: RngStream) -> Action:
        sensor = (self.counter % self.n) + 1
        self.counter += 1
        return Action(sensor, self.velocity)
