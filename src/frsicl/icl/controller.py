"""The in-context-learning controller: prompt assembly, backend calls with
retry and greedy fallback, experience feedback, and a verbatim audit log."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..config import WorldConfig
from ..features import feature_vector
from ..policies import max_aoi_decide
from ..rng import RngStream
from ..env import World
from ..states import Action, Observation
from .backends import BackendError, check_backend, make_backend
from .parsing import ParseError, parse_action
from .pool import ExperiencePool, ExperienceRecord
from .prompts import build_step_prompt, build_system_prompt, corrective_line


# Extra attempts after the first, before the greedy max-AoI fallback decides.
MAX_RETRIES = 2
# Pool records shown as examples in each step prompt.
TOP_K_EXAMPLES = 4


@dataclass
class IclConfig:
    model: str = "gpt-4o-mini"
    timeout_s: float = 10.0
    backend: str = "mock:max-aoi"  # "mock:<strategy>" or an http(s):// endpoint URL

    def __post_init__(self):
        check_backend(self.backend)
        # also False for NaN
        if not 0.0 < self.timeout_s < float("inf"):
            raise ValueError(f"timeout_s must be finite and positive, got {self.timeout_s!r}")


@dataclass
class LlmExchange:
    """One completion attempt, retained verbatim for post-hoc audit."""

    step: int
    attempt: int
    request_chars: int
    raw_response: str
    parse_result: str  # "ok" | error tag | "backend-error"
    latency_ms: float

    def to_log_line(self) -> str:
        return json.dumps({
            "step": self.step,
            "attempt": self.attempt,
            "request_chars": self.request_chars,
            "raw_response": self.raw_response,
            "parse_result": self.parse_result,
            "latency_ms": round(self.latency_ms, 3),
        })


def icl_decide(obs: Observation, features: np.ndarray, pool: ExperiencePool,
               backend, world_cfg: WorldConfig, system_prompt: str,
               exchange_log: List[LlmExchange], step_index: int) -> Action:
    """Total decision function: never raises, always returns a valid Action.

    `features` is feature_vector(obs, world_cfg). Each attempt, whatever
    its outcome, appends one LlmExchange to `exchange_log`. A parse failure
    or a backend error appends a corrective line quoting the output grammar
    and retries; after MAX_RETRIES extra attempts the greedy max-AoI
    fallback decides.
    """
    examples = pool.retrieve(features, TOP_K_EXAMPLES)
    user = build_step_prompt(obs, examples, world_cfg)

    for attempt in range(MAX_RETRIES + 1):
        started = time.perf_counter()
        try:
            raw = backend.complete(system_prompt, user)
            result = None
        except BackendError as exc:
            raw, result = f"<backend error: {exc}>", "backend-error"
        latency_ms = (time.perf_counter() - started) * 1000.0
        if result is None:
            try:
                action = parse_action(raw, world_cfg)
                result = "ok"
            except ParseError as exc:
                result = exc.tag
        exchange_log.append(LlmExchange(
            step=step_index, attempt=attempt,
            request_chars=len(system_prompt) + len(user),
            raw_response=raw, parse_result=result, latency_ms=latency_ms))
        if result == "ok":
            return action
        user = user + "\n" + corrective_line(world_cfg, result)

    return max_aoi_decide(obs, world_cfg.v_max_mps)


class IclPolicy:
    """Policy-protocol wrapper around icl_decide with per-step feedback."""

    def __init__(self, world_cfg: WorldConfig, icl_cfg: IclConfig, backend=None):
        self.world_cfg = world_cfg
        self.backend = backend if backend is not None else make_backend(
            icl_cfg.backend, icl_cfg.model, icl_cfg.timeout_s)
        self.pool = ExperiencePool()
        self.exchanges: List[LlmExchange] = []
        self.system_prompt = build_system_prompt(world_cfg)
        self._step_index = 0
        self._features: Optional[np.ndarray] = None  # of the last decided obs

    def decide(self, obs: Observation, rng: RngStream) -> Action:
        self._features = feature_vector(obs, self.world_cfg)
        return icl_decide(obs, self._features, self.pool, self.backend,
                          self.world_cfg, self.system_prompt, self.exchanges,
                          self._step_index)

    def feedback(self, obs: Observation, world: World) -> None:
        """Store the frame just decided, the last in `world`'s log: the
        features decide computed for `obs`, the action taken, and the mean
        AoI before and after it."""
        k = world.frames - 1
        self.pool.add(ExperienceRecord(
            features=self._features,
            action=Action(world.sensor_log[k], world.velocity_log[k]),
            outcome_avg_aoi=world.avg_aoi_log[k],
            avg_aoi_before_s=sum(obs.aoi_s.tolist()) / len(obs.aoi_s)))
        self._step_index += 1

    def write_exchange_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for exchange in self.exchanges:
                fh.write(exchange.to_log_line() + "\n")
