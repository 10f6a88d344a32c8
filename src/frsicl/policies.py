"""Non-learning scheduling baselines and the policy protocol.

A policy exposes decide(observation, rng) -> Action and must return a valid
action for every observation. Ties in argmin/argmax rules break toward the
lowest sensor id so episodes replay deterministically.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .config import WorldConfig
from .rng import RngStream
from .states import Action, Observation


class Policy(Protocol):
    def decide(self, obs: Observation, rng: RngStream) -> Action: ...


def _eligible_or_all(values: np.ndarray, eligible: np.ndarray, fill: float) -> np.ndarray:
    """`values` with ineligible entries set to `fill`, unless none is eligible.
    argmin and argmax return the first extreme: the lowest sensor id."""
    return np.where(eligible, values, fill) if eligible.any() else values


def nearest_neighbor_decide(obs: Observation, v_max: float) -> Action:
    """Poll the horizontally nearest sensor (among eligible ones, if any)."""
    distance = _eligible_or_all(obs.distance_m, obs.eligible, np.inf)
    return Action(sensor=int(distance.argmin()) + 1, velocity_mps=v_max)


def max_aoi_decide(obs: Observation, v_max: float) -> Action:
    """Poll the stalest sensor (among eligible ones, if any)."""
    aoi = _eligible_or_all(obs.aoi_s, obs.eligible, -np.inf)
    return Action(sensor=int(aoi.argmax()) + 1, velocity_mps=v_max)


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
        return Action(sensor=sensor, velocity_mps=self.velocity)
