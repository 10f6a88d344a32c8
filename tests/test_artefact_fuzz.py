"""Artefact fuzz: the files the CLI writes, mutated one cell, row, key or
byte at a time, and read back by `replay` or `eval-ppo`.

Every call must return one of the documented exit codes (0, 1 or 2) with
no traceback: a mutated artefact either still describes a valid run, or it
is rejected with a named error. An `eval-ppo` run that exits 0 must report
a finite time-average AoI.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frsicl.cli import cli_main

SMALL_WORLD = {"n_sensors": 3, "n_steps": 8}
STEPS_ROWS = 1 + 2 * SMALL_WORLD["n_steps"]  # the header, then seeds 0 and 1
EXIT_CODES = {0, 1, 2}

CELL_TEXT = st.one_of(
    st.sampled_from(["", "-1", "0", "1", "2", "3", "7", "8", "9", "30", "nan",
                     "inf", "-inf", "1e309", "0.5", "x", "maxaoi-s0",
                     "maxaoi-s1", "maxaoi-s-1", "-s", " 1", "1_0", "9" * 5000]),
    st.text(max_size=8))
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
    st.text(max_size=6), st.lists(st.floats(-1e3, 1e3), max_size=3))


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """steps.csv, world.json and ppo_params.bin of a small world, as bytes."""
    root = tmp_path_factory.mktemp("artefacts")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_WORLD))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["run", "--policy", "maxaoi", "--seed", "0,1",
                         "--config", str(config), "--out-dir", str(root)]) == 0
        assert cli_main(["train-ppo", "--episodes", "1", "--config", str(config),
                         "--out-dir", str(root)]) == 0
    return {name: (root / name).read_bytes()
            for name in ("steps.csv", "world.json", "ppo_params.bin")}


def run_cli(files, command):
    """Write `files` into a fresh directory and run `command` on them;
    returns the exit code after checking stderr holds no traceback, and
    that an evaluation that succeeds prints a finite AoI."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        if command == "replay":
            argv = ["replay", "--steps-csv", os.path.join(tmp, "steps.csv")]
        else:
            argv = ["eval-ppo", "--config", os.path.join(tmp, "world.json"),
                    "--params", os.path.join(tmp, "ppo_params.bin")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert "Traceback" not in err.getvalue()
    if command == "eval-ppo" and code == 0:
        (aoi,) = re.findall(r"time_avg_aoi_s=(\S+)", out.getvalue())
        assert math.isfinite(float(aoi))
    return code


def test_unmutated_artefacts_replay_and_evaluate(artefacts):
    assert run_cli(artefacts, "replay") == 0
    assert run_cli(artefacts, "eval-ppo") == 0


def harness_form(column, text, world):
    """Whether `text` is how the harness writes a value in steps.csv column
    2 or 3: a sensor as "%d", a velocity as "%.6g" after the world's clamp."""
    try:
        if column == 2:
            return text == "%d" % int(text)
        velocity = min(max(float(text), world["v_min_mps"]), world["v_max_mps"])
        return text == "%.6g" % velocity
    except ValueError:
        return False


@settings(max_examples=100, deadline=None)
@given(r=st.integers(0, STEPS_ROWS - 1), c=st.integers(0, 5),
       kind=st.sampled_from(["replace", "truncate", "extend", "duplicate", "delete"]),
       text=CELL_TEXT)
@example(r=4, c=3, kind="replace", text="-1")  # a velocity below v_min_mps
@example(r=STEPS_ROWS - 1, c=0, kind="delete", text="")  # maxaoi-s1 stops short
@example(r=STEPS_ROWS - 1, c=0, kind="truncate", text="")  # a blank last line
def test_steps_csv_cell_or_row(artefacts, r, c, kind, text):
    """A changed steps.csv replays with exit 0 only when the edit puts a
    sensor or velocity of a data row in the form the harness writes it."""
    rows = list(csv.reader(io.StringIO(artefacts["steps.csv"].decode())))
    assert len(rows) == STEPS_ROWS
    if kind == "replace":
        rows[r][c] = text
    elif kind == "truncate":
        del rows[r][c:]
    elif kind == "extend":
        rows[r].append(text)
    elif kind == "duplicate":
        rows.append(list(rows[r]))
    else:
        del rows[r]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    steps = out.getvalue().encode()
    code = run_cli(dict(artefacts, **{"steps.csv": steps}), "replay")
    assert code in EXIT_CODES
    if code == 0 and steps != artefacts["steps.csv"]:
        assert kind == "replace" and r != 0 and c in (2, 3)
        assert harness_form(c, text, json.loads(artefacts["world.json"]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_world_json_key(artefacts, data):
    world = json.loads(artefacts["world.json"])
    key = data.draw(st.sampled_from(sorted(world)), label="key")
    kind = data.draw(st.sampled_from(["value", "rename", "delete"]), label="kind")
    if kind == "value":
        world[key] = data.draw(JSON_VALUE, label="value")
    elif kind == "rename":
        world[data.draw(st.text(max_size=12), label="name")] = world.pop(key)
    else:
        del world[key]
    files = dict(artefacts, **{"world.json": json.dumps(world).encode()})
    assert run_cli(files, "replay") in EXIT_CODES
    assert run_cli(files, "eval-ppo") in EXIT_CODES


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ppo_params_byte(artefacts, data):
    params = bytearray(artefacts["ppo_params.bin"])
    i = data.draw(st.integers(0, len(params) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        del params[i:]
    else:
        params[i] = data.draw(st.integers(0, 255), label="byte")
    files = dict(artefacts, **{"ppo_params.bin": bytes(params)})
    assert run_cli(files, "eval-ppo") in EXIT_CODES
