"""Strict extraction of the controller's action from free-form model text."""

from __future__ import annotations

import json
import math

from ..config import WorldConfig
from ..env import clamp_velocity
from ..states import Action

NO_OBJECT = "no-object-found"
MISSING_FIELD = "missing-field"
SENSOR_OUT_OF_RANGE = "sensor-out-of-range"
NON_NUMERIC = "non-numeric"
NON_FINITE = "non-finite"


class ParseError(ValueError):
    """Tagged parse failure; the tag feeds retry accounting."""

    def __init__(self, tag: str, message: str):
        super().__init__(message)
        self.tag = tag


def _first_object_literal(raw: str):
    """Yield substrings that are balanced {...} literals, left to right."""
    i = 0
    n = len(raw)
    while i < n:
        if raw[i] != "{":
            i += 1
            continue
        depth = 0
        in_string = False
        escaped = False
        for j in range(i, n):
            ch = raw[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    yield raw[i:j + 1]
                    break
        i += 1


def parse_action(raw: str, cfg: WorldConfig) -> Action:
    """Scan raw text for the first balanced JSON object and read the action.

    Surrounding prose is ignored. The sensor must be an integer in
    [1, n_sensors]; the velocity must be a finite number and is clamped
    into the configured bounds.
    """
    obj = None
    for candidate in _first_object_literal(raw):
        try:
            parsed = json.loads(candidate)
        # ValueError also covers integer literals over Python's digit limit
        except (ValueError, RecursionError):
            continue
        if isinstance(parsed, dict):
            obj = parsed
            break
    if obj is None:
        raise ParseError(NO_OBJECT, "no JSON object literal found in response")

    if "sensor" not in obj or "velocity" not in obj:
        raise ParseError(MISSING_FIELD, "response object lacks sensor/velocity")
    sensor = obj["sensor"]
    velocity = obj["velocity"]
    if isinstance(sensor, bool) or not isinstance(sensor, int):
        raise ParseError(NON_NUMERIC, f"sensor must be an integer, got {sensor!r}")
    if not 1 <= sensor <= cfg.n_sensors:
        raise ParseError(SENSOR_OUT_OF_RANGE,
                         f"sensor {sensor} outside 1..{cfg.n_sensors}")
    if isinstance(velocity, bool) or not isinstance(velocity, (int, float)):
        raise ParseError(NON_NUMERIC, f"velocity must be numeric, got {velocity!r}")
    try:
        velocity = float(velocity)
    except OverflowError:  # an integer literal too large for a float
        velocity = math.inf
    if not math.isfinite(velocity):
        raise ParseError(NON_FINITE, f"velocity must be finite, got {velocity!r}")
    return Action(sensor=sensor, velocity_mps=clamp_velocity(cfg, velocity))
