"""Seeded simulator of UAV-assisted wildfire-sensor data collection with
AoI-minimizing schedulers: an LLM in-context-learning controller, a PPO
baseline and greedy heuristics, over an air-to-ground LoS channel model."""

from .config import ConfigError, WorldConfig, validate_config
from .env import ActionError, HorizonError, World, init_world, observe, run_episode, step
from .states import Action, Observation, RunSummary, StepRecord, UavState

__all__ = [
    "ConfigError", "WorldConfig", "validate_config", "ActionError",
    "HorizonError", "World", "init_world", "observe", "run_episode", "step",
    "Action", "Observation", "RunSummary", "StepRecord", "UavState",
]

__version__ = "0.1.0"
