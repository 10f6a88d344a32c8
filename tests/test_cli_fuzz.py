"""CLI argv fuzz: every subcommand, with options drawn from `build_parser()`'s
own actions, on a tiny world.

Each option takes one of its `choices`, a value that makes sense for it, or
a hostile value: a number at the edge of what parses, an empty list, a
missing path, a directory, or a file where a directory belongs. Every call
must return one of the documented exit codes (0, 1 or 2) with no traceback
on stderr, and a call that fails must leave no new directory behind. A
`run` that exits 0 must replay.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from frsicl import harness
from frsicl.cli import build_parser, cli_main

# the module: frsicl.ppo re-exports its train function under the same name
ppo_train = importlib.import_module("frsicl.ppo.train")

TINY_WORLD = {"n_sensors": 3, "n_steps": 6}
EXIT_CODES = {0, 1, 2}

# Placeholders, replaced by paths in each call's fresh directory (<new>,
# <dir>, <file>, <missing>) or by the module's artefacts (<config>,
# <steps>, <params>). No value names a network address.
HOSTILE = ["nan", "inf", "-1", "0", str(2**64), "1e400", "", ",", "1,,2",
           "<missing>", "<dir>", "<file>"]
# Values that let a call get as far as its episodes. Required options,
# --config and --episodes are always given, the last two from bounded
# values: the defaults train for 2 000 episodes on a 30-frame world.
SENSIBLE = {
    "config": ["<config>"],
    "seed": ["0", "1,2", "3"],
    "out_dir": ["<new>", "<dir>"],
    "episodes": ["1", "2"],
    "counts": ["2,3", "3"],
    "policies": ["maxaoi,nearest", "roundrobin", "icl", "ppo"],
    "steps_csv": ["<steps>"],
    "params": ["<params>"],
    "ppo_params": ["<params>"],
    "llm_timeout": ["0.5"],
    "llm_model": ["m"],
}
ALWAYS = {"config", "episodes"}
BOUNDED = {"episodes": ["nan", "-1", "0", "", "1e400"]}  # no huge episode count


def subcommand_options():
    """subcommand -> [(option string, dest, choices, takes a value, required)]."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [(a.option_strings[0], a.dest, a.choices, a.nargs != 0, a.required)
                   for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()}


OPTIONS = subcommand_options()


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)), label="command")
    argv = [command]
    for flag, dest, choices, takes_value, required in OPTIONS[command]:
        if not (required or dest in ALWAYS or draw(st.booleans(), label=f"has {flag}")):
            continue
        argv.append(flag)
        if takes_value:
            good = list(choices or []) + SENSIBLE.get(dest, [])
            # one value in five is hostile, so that some calls get to their episodes
            if not good or draw(st.integers(0, 4), label=f"{flag} hostile") == 0:
                good = BOUNDED.get(dest, HOSTILE)
            argv.append(draw(st.sampled_from(good), label=flag))
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny world config, a steps.csv it wrote and PPO parameters for it."""
    root = tmp_path_factory.mktemp("cli-inputs")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_WORLD))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["run", "--policy", "maxaoi", "--seed", "0,1", "--config",
                         str(config), "--out-dir", str(root / "run")]) == 0
        assert cli_main(["train-ppo", "--episodes", "1", "--config", str(config),
                         "--out-dir", str(root / "ppo")]) == 0
    return {"<config>": str(config), "<steps>": str(root / "run" / "steps.csv"),
            "<params>": str(root / "ppo" / "ppo_params.bin")}


def directories(root):
    return {d for d, _, _ in os.walk(root)}


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code(inputs, argv):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        os.mkdir("existing")
        with open("file", "w") as fh:
            fh.write("not a directory\n")
        paths = dict(inputs, **{"<new>": os.path.join(tmp, "new"),
                                "<dir>": os.path.join(tmp, "existing"),
                                "<file>": os.path.join(tmp, "file"),
                                "<missing>": os.path.join(tmp, "missing", "x")})
        argv = [paths.get(arg, arg) for arg in argv]
        assert not any("://" in arg for arg in argv)
        before = directories(tmp)
        episodes = []

        def counted(run_episode):
            def wrapper(*args, **kwargs):
                episodes.append(1)
                return run_episode(*args, **kwargs)
            return wrapper

        err = io.StringIO()
        with mock.patch.object(harness, "run_episode", counted(harness.run_episode)), \
                mock.patch.object(ppo_train, "run_episode", counted(ppo_train.run_episode)), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        event(f"{argv[0]} exits {code}" + (" after an episode" if episodes else ""))
        assert code in EXIT_CODES, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert directories(tmp) == before, (argv, err.getvalue())
        if argv[0] == "run" and code == 0:
            out_dir = argv[argv.index("--out-dir") + 1] if "--out-dir" in argv else "out"
            steps = os.path.join(out_dir, "steps.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                # "=": argparse reads a separate "-1/steps.csv" as an option
                assert cli_main(["replay", f"--steps-csv={steps}"]) == 0
