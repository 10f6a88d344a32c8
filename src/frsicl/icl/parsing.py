"""Strict extraction of the controller's action from free-form model text."""

from __future__ import annotations

import json
import math
import re

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


_DECODER = json.JSONDecoder()
# A "{" that can open an object: JSON whitespace, then a key or "}".
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')
# First window decoded from a "{"; it holds a whole reply of the grammar.
_FIRST_WINDOW = 64
# Lookahead of the decoder past the character it fails at: 9 for
# "-Infinity", 5 for a \uXXXX escape.
_LOOKAHEAD = 16


# Characters the decode attempts of one reply may read: linear in the
# reply, where each "{" of a deeply nested reply would otherwise cost up to
# the recursion limit. A reply that needs more finds no object.
_BUDGET_PER_CHAR = 16
_BUDGET_BASE = 1 << 16


def _object_at(raw: str, i: int, budget: int):
    """(the JSON object that decodes from raw[i] or None, the characters
    decoded); None as well once the windows would pass `budget`.

    A JSONDecodeError counts the lines before its position, which costs
    O(i) on raw itself; so raw[i:i + w] is decoded instead, w doubling
    while the failure may be due to the cut, and a failure costs about
    the characters the decoder read.
    """
    w, spent = _FIRST_WINDOW, 0
    while True:
        window = raw[i:i + w]
        spent += len(window)
        if spent > budget:
            return None, spent
        try:
            return _DECODER.raw_decode(window)[0], spent
        except RecursionError:
            return None, spent
        # ValueError also covers integer literals over Python's digit limit
        except ValueError as exc:
            pos = getattr(exc, "pos", None)
            cut = (i + w < len(raw) and pos is not None
                   and (pos > w - _LOOKAHEAD or exc.msg.startswith("Unterminated string")))
            if not cut:
                return None, spent
        w *= 2


def _first_object(raw: str):
    """The first JSON object that decodes from a "{" in raw, left to right,
    or None: one decode attempt per "{" that can open an object, within
    the reply's budget of decoded characters."""
    budget = _BUDGET_PER_CHAR * len(raw) + _BUDGET_BASE
    for start in _OBJECT_START.finditer(raw):
        obj, spent = _object_at(raw, start.start(), budget)
        if obj is not None:
            return obj
        budget -= spent
        if budget < 0:
            return None
    return None


def parse_action(raw: str, cfg: WorldConfig) -> Action:
    """Read the action from the first JSON object in raw text.

    Surrounding prose is ignored. The sensor must be an integer in
    [1, n_sensors]; the velocity must be a finite number and is clamped
    into the configured bounds.
    """
    return _read_action(_first_object(raw), cfg)


def _read_action(obj, cfg: WorldConfig) -> Action:
    """The action in a decoded object; None stands for no object found."""
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
