"""World configuration: every physical, channel and episode parameter of a run."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

LIGHT_SPEED_MPS = 299792458.0


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant."""


@dataclass(frozen=True)
class WorldConfig:
    """Single source of truth for one simulation run.

    Defaults follow the reference deployment: 10 sensors uniformly placed in a
    100 m x 100 m area, 30 one-second frames per episode, UAV capped at 15 m/s,
    100 mW (20 dBm) sensor transmit power. Channel constants (env_a, env_b,
    eta_los_db, eta_nlos_db) are conventional urban values and are
    configuration, not ground truth.
    """

    area_size_m: float = 100.0
    n_sensors: int = 10
    n_steps: int = 30
    dt_s: float = 1.0
    v_min_mps: float = 0.0
    v_max_mps: float = 15.0
    altitude_m: float = 10.0
    orbit_radius_m: float = 35.0
    orbit_center: Tuple[float, float] = (50.0, 50.0)
    ptx_dbm: float = 20.0
    noise_dbm: float = -90.0
    env_a: float = 9.61
    env_b: float = 0.16
    eta_los_db: float = 1.0
    eta_nlos_db: float = 20.0
    carrier_hz: float = 2.4e9
    light_speed_mps: float = LIGHT_SPEED_MPS
    success_model: str = "threshold"  # "threshold" | "logistic"
    snr_threshold_db: float = 5.0
    logistic_scale_db: float = 2.0
    battery_j: float = 50.0
    e_tx_j: float = 0.05
    aoi_cap_s: Optional[float] = 40.0
    seed: int = 0

    def replace(self, **kwargs) -> "WorldConfig":
        return dataclasses.replace(self, **kwargs)


_INT_FIELDS = ("n_sensors", "n_steps", "seed")

# Every float field; aoi_cap_s may also be None.
_REAL_FIELDS = tuple(
    f.name for f in dataclasses.fields(WorldConfig)
    if f.name not in _INT_FIELDS + ("orbit_center", "success_model", "aoi_cap_s"))

_POSITIVE_FIELDS = (
    "area_size_m",
    "n_sensors",
    "n_steps",
    "dt_s",
    "altitude_m",
    "orbit_radius_m",
    "carrier_hz",
    "light_speed_mps",
    "env_a",
    "logistic_scale_db",
    "battery_j",
    "e_tx_j",
)


MAX_SENSORS = 10_000
MAX_STEPS = 1_000_000
MAX_LOGGED_AOI = 10_000_000


def validate_config(cfg: WorldConfig) -> WorldConfig:
    """Return cfg unchanged if every invariant holds, else raise ConfigError.

    The error message names the first violated field. Size caps and their
    reasons: N <= MAX_SENSORS, as each frame computes N link budgets and the
    ICL prompt has a row per sensor; T <= MAX_STEPS and N * T <=
    MAX_LOGGED_AOI, as the step log keeps one 8-byte AoI per sensor and
    frame in memory (80 MB at the cap). Bounds that keep the run finite:
    the orbit angle T * dt_s * v_max_mps / orbit_radius_m and the AoI sum
    N * T * min(T * dt_s, aoi_cap_s).
    """
    for name in _INT_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    reals = [(name, getattr(cfg, name)) for name in _REAL_FIELDS]
    reals += [("orbit_center", c) for c in cfg.orbit_center]
    if cfg.aoi_cap_s is not None:
        reals.append(("aoi_cap_s", cfg.aoi_cap_s))
    for name, value in reals:
        if not _is_real(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.v_min_mps < 0:
        raise ConfigError("v_min_mps must be >= 0")
    if cfg.v_max_mps <= 0:
        raise ConfigError("v_max must be positive")
    if cfg.v_min_mps > cfg.v_max_mps:
        raise ConfigError("v_min_mps must not exceed v_max_mps")
    for name in _POSITIVE_FIELDS:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be strictly positive")
    n, t = cfg.n_sensors, cfg.n_steps
    for name, value, cap in (("n_sensors", n, MAX_SENSORS), ("n_steps", t, MAX_STEPS),
                             ("n_sensors * n_steps", n * t, MAX_LOGGED_AOI)):
        if value > cap:
            raise ConfigError(f"{name} must be at most {cap}")
    horizon_s = t * cfg.dt_s
    if not math.isfinite(horizon_s * cfg.v_max_mps / cfg.orbit_radius_m):
        raise ConfigError("n_steps * dt_s * v_max_mps / orbit_radius_m "
                          "overflows: the UAV's orbit angle is not finite")
    largest_aoi = horizon_s if cfg.aoi_cap_s is None else min(horizon_s, cfg.aoi_cap_s)
    if not math.isfinite(n * t * largest_aoi):
        raise ConfigError("n_sensors * n_steps * the largest AoI overflows: "
                          "the AoI sums are not finite")
    if cfg.success_model not in ("threshold", "logistic"):
        raise ConfigError("success_model must be 'threshold' or 'logistic'")
    if cfg.aoi_cap_s is not None and cfg.aoi_cap_s <= 0:
        raise ConfigError("aoi_cap_s must be strictly positive when set")
    cx, cy = cfg.orbit_center
    r = cfg.orbit_radius_m
    if min(cx - r, cy - r) < 0 or max(cx + r, cy + r) > cfg.area_size_m:
        raise ConfigError("orbit exits area: orbit_center +/- orbit_radius_m "
                          "must lie within [0, area_size_m]")
    return cfg


def _is_real(value) -> bool:
    """A finite int or float, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


_FIELD_NAMES = {f.name for f in dataclasses.fields(WorldConfig)}


def config_to_dict(cfg: WorldConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["orbit_center"] = list(d["orbit_center"])
    return d


def config_from_dict(data: dict) -> WorldConfig:
    """Build a validated WorldConfig from a flat dict; unknown keys are an error."""
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    kwargs = dict(data)
    if "orbit_center" in kwargs:
        oc = kwargs["orbit_center"]
        if not (isinstance(oc, (list, tuple)) and len(oc) == 2
                and all(map(_is_real, oc))):
            raise ConfigError("orbit_center must be a 2-element [x, y] list "
                              "of finite numbers")
        kwargs["orbit_center"] = (float(oc[0]), float(oc[1]))
    return validate_config(WorldConfig(**kwargs))


def load_world_config(path: str) -> WorldConfig:
    """Load a WorldConfig from a flat JSON file; absent fields take defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return config_from_dict(data)


def save_world_config(cfg: WorldConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
