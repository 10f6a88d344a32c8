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
from ..states import Action, Observation, StepRecord
from .backends import BackendError, CompletionRequest, make_backend
from .parsing import ParseError, parse_action
from .pool import DEFAULT_CAPACITY, ExperiencePool, ExperienceRecord
from .prompts import build_step_prompt, build_system_prompt, corrective_line


@dataclass
class IclConfig:
    endpoint: Optional[str] = None
    model: str = "gpt-4o-mini"
    temperature: float = 0.0
    max_retries: int = 2
    timeout_s: float = 10.0
    top_k_examples: int = 4
    backend: str = "mock:max-aoi"  # "http" | "mock:max-aoi" | "mock:nearest" | "mock:invalid"
    pool_capacity: int = DEFAULT_CAPACITY
    max_tokens: int = 64

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.top_k_examples > self.pool_capacity:
            raise ValueError("top_k_examples must not exceed pool capacity")
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


def icl_decide(obs: Observation, pool: ExperiencePool, backend,
               world_cfg: WorldConfig, icl_cfg: IclConfig,
               exchange_log: List[LlmExchange], step_index: int,
               system_prompt: Optional[str] = None,
               features: Optional[np.ndarray] = None) -> Action:
    """Total decision function: never raises, always returns a valid Action.

    Each parse failure appends a corrective line quoting the output grammar
    and retries; backend errors count as failed attempts too. After
    max_retries extra attempts the greedy max-AoI fallback decides.
    `features` is feature_vector(obs, world_cfg), computed here if not given.
    """
    if system_prompt is None:
        system_prompt = build_system_prompt(world_cfg)
    if features is None:
        features = feature_vector(obs, world_cfg)
    examples = pool.retrieve(features, icl_cfg.top_k_examples)
    user = build_step_prompt(obs, examples, world_cfg)

    for attempt in range(icl_cfg.max_retries + 1):
        request = CompletionRequest(
            model=icl_cfg.model, system=system_prompt, user=user,
            temperature=icl_cfg.temperature, max_tokens=icl_cfg.max_tokens)
        started = time.perf_counter()
        try:
            raw = backend.complete(request)
        except BackendError as exc:
            latency = (time.perf_counter() - started) * 1000.0
            exchange_log.append(LlmExchange(
                step=step_index, attempt=attempt,
                request_chars=len(system_prompt) + len(user),
                raw_response=f"<backend error: {exc}>",
                parse_result="backend-error", latency_ms=latency))
            user = user + "\n" + corrective_line(world_cfg, "backend-error")
            continue
        latency = (time.perf_counter() - started) * 1000.0
        try:
            action = parse_action(raw, world_cfg)
        except ParseError as exc:
            exchange_log.append(LlmExchange(
                step=step_index, attempt=attempt,
                request_chars=len(system_prompt) + len(user),
                raw_response=raw, parse_result=exc.tag, latency_ms=latency))
            user = user + "\n" + corrective_line(world_cfg, exc.tag)
            continue
        exchange_log.append(LlmExchange(
            step=step_index, attempt=attempt,
            request_chars=len(system_prompt) + len(user),
            raw_response=raw, parse_result="ok", latency_ms=latency))
        return action

    return max_aoi_decide(obs, world_cfg.v_max_mps)


class IclPolicy:
    """Policy-protocol wrapper around icl_decide with per-step feedback."""

    def __init__(self, world_cfg: WorldConfig, icl_cfg: IclConfig,
                 backend=None, pool: Optional[ExperiencePool] = None):
        self.world_cfg = world_cfg
        self.icl_cfg = icl_cfg
        self.backend = backend if backend is not None else make_backend(
            icl_cfg.backend, icl_cfg.endpoint, icl_cfg.timeout_s)
        self.pool = pool if pool is not None else ExperiencePool(icl_cfg.pool_capacity)
        self.exchanges: List[LlmExchange] = []
        self.system_prompt = build_system_prompt(world_cfg)
        self._step_index = 0
        self._features: Optional[np.ndarray] = None  # of the last decided obs

    def decide(self, obs: Observation, rng: RngStream) -> Action:
        self._features = feature_vector(obs, self.world_cfg)
        return icl_decide(obs, self.pool, self.backend, self.world_cfg,
                          self.icl_cfg, self.exchanges, self._step_index,
                          system_prompt=self.system_prompt,
                          features=self._features)

    def feedback(self, obs: Observation, record: StepRecord) -> None:
        """Store the frame just decided: the features decide computed for
        `obs`, the action taken, and the mean AoI before and after it."""
        self.pool.add(ExperienceRecord(
            features=self._features, action=record.action,
            outcome_avg_aoi=record.avg_aoi_s, step=record.step,
            avg_aoi_before_s=sum(obs.aoi_s.tolist()) / len(obs.aoi_s)))
        self._step_index += 1

    def write_exchange_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for exchange in self.exchanges:
                fh.write(exchange.to_log_line() + "\n")
