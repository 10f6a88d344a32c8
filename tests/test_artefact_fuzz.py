"""Artefact fuzz: the files the CLI writes, mutated one cell, row, key or
byte at a time, and read back by `replay` or `eval-ppo`.

Every call must return one of the documented exit codes (0, 1 or 2) with
no traceback: a mutated artefact either still describes a valid run, or it
is rejected with a named error.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.cli import cli_main

SMALL_WORLD = {"n_sensors": 3, "n_steps": 8}
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
    returns the exit code after checking stderr holds no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        if command == "replay":
            argv = ["replay", "--steps-csv", os.path.join(tmp, "steps.csv")]
        else:
            argv = ["eval-ppo", "--config", os.path.join(tmp, "world.json"),
                    "--params", os.path.join(tmp, "ppo_params.bin")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def test_unmutated_artefacts_replay_and_evaluate(artefacts):
    assert run_cli(artefacts, "replay") == 0
    assert run_cli(artefacts, "eval-ppo") == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_steps_csv_cell_or_row(artefacts, data):
    rows = list(csv.reader(io.StringIO(artefacts["steps.csv"].decode())))
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    c = data.draw(st.integers(0, len(rows[r]) - 1), label="column")
    kind = data.draw(st.sampled_from(
        ["replace", "truncate", "extend", "duplicate", "delete"]), label="kind")
    if kind == "replace":
        rows[r][c] = data.draw(CELL_TEXT, label="text")
    elif kind == "truncate":
        del rows[r][c:]
    elif kind == "extend":
        rows[r].append(data.draw(CELL_TEXT, label="text"))
    elif kind == "duplicate":
        rows.append(list(rows[r]))
    else:
        del rows[r]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    files = dict(artefacts, **{"steps.csv": text.getvalue().encode()})
    assert run_cli(files, "replay") in EXIT_CODES


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
