import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.cli import EXIT_VALIDATION, cli_main
from frsicl.config import (ConfigError, WorldConfig, config_from_dict,
                           config_to_dict, load_world_config,
                           save_world_config, validate_config)
from frsicl.env import init_world, run_episode
from frsicl.policies import RoundRobinPolicy
from frsicl.rng import RngStream


def test_defaults_are_valid():
    cfg = validate_config(WorldConfig())
    assert cfg.n_sensors == 10
    assert cfg.n_steps == 30
    assert cfg.v_max_mps == 15.0
    assert cfg.battery_j == 50.0
    assert cfg.ptx_dbm == 20.0  # 100 mW


def test_zero_v_max_rejected():
    with pytest.raises(ConfigError, match="v_max must be positive"):
        validate_config(WorldConfig(v_min_mps=0.0, v_max_mps=0.0))


def test_orbit_must_fit_in_area():
    with pytest.raises(ConfigError, match="orbit exits area"):
        validate_config(WorldConfig(orbit_radius_m=60.0,
                                    orbit_center=(50.0, 50.0),
                                    area_size_m=100.0))


def test_v_min_above_v_max_rejected():
    with pytest.raises(ConfigError, match="v_min_mps"):
        validate_config(WorldConfig(v_min_mps=10.0, v_max_mps=5.0))


def test_negative_length_names_field():
    with pytest.raises(ConfigError, match="altitude_m"):
        validate_config(WorldConfig(altitude_m=-1.0))


def test_config_round_trip(tmp_path):
    cfg = WorldConfig(n_sensors=7, seed=123, aoi_cap_s=None,
                      success_model="logistic")
    path = tmp_path / "cfg.json"
    save_world_config(cfg, str(path))
    loaded = load_world_config(str(path))
    for f in dataclasses.fields(WorldConfig):
        assert getattr(loaded, f.name) == getattr(cfg, f.name), f.name


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"n_sensor": 5})


def test_dict_round_trip():
    cfg = WorldConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_rng_reproducibility():
    a = RngStream(42, "episode")
    b = RngStream(42, "episode")
    assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))


def test_rng_substreams_differ():
    root = RngStream(42)
    assert not np.array_equal(root.substream("layout").uniform(size=100),
                              root.substream("env").uniform(size=100))


@pytest.mark.parametrize("key,value,match", [
    ("n_sensors", 2.5, "n_sensors must be an integer"),
    ("n_steps", "30", "n_steps must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("area_size_m", float("nan"), "area_size_m must be a finite number"),
    ("dt_s", float("inf"), "dt_s must be a finite number"),
    ("ptx_dbm", "20", "ptx_dbm must be a finite number"),
    ("battery_j", False, "battery_j must be a finite number"),
    ("aoi_cap_s", float("-inf"), "aoi_cap_s must be a finite number"),
    pytest.param("noise_dbm", 10 ** 400, "noise_dbm must be a finite number",
                 id="noise_dbm-int-too-large-for-float"),
    ("orbit_center", [50.0, None], "orbit_center"),
    ("orbit_center", [50.0, float("nan")], "orbit_center"),
])
def test_wrong_type_or_non_finite_rejected(key, value, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict({key: value})


def test_string_n_steps_in_file_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_steps": "30"}))
    code = cli_main(["run", "--policy", "maxaoi", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "n_steps must be an integer" in capsys.readouterr().err


def test_seed_and_env_a_ranges():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="env_a must be strictly positive"):
        config_from_dict({"env_a": 0.0})


def test_steep_los_sigmoid_runs():
    # -b (phi - a) passes 709 at low elevation, where exp overflows
    cfg = config_from_dict({"env_b": 1000.0})
    world = init_world(cfg, seed=0)
    run_episode(world, RoundRobinPolicy(cfg))
    assert all(math.isfinite(rec.avg_aoi_s) for rec in world.log)


def _config_value(name):
    """A value for one config key: usually well typed, sometimes not.

    Finite floats span +-1e9, every physical scale the model is used at;
    integer counts stay small because an episode's cost grows with them
    (no upper bound is validated).
    """
    junk = [None, "30", True, [], float("nan"), float("inf"), -float("inf"), 2.5]
    if name in ("n_sensors", "n_steps"):
        good = st.integers(-2, 12)
    elif name == "seed":
        good = st.integers(-2, 2 ** 40)
    elif name == "orbit_center":
        good = st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(junk)),
                        min_size=1, max_size=3)
    elif name == "success_model":
        good = st.sampled_from(["threshold", "logistic", "ideal"])
    else:
        good = st.floats(-1e9, 1e9)
        junk.append(10 ** 400)  # an int too large for a float
    return st.one_of(good, good, st.sampled_from(junk))  # junk about 1 in 3


# At most four keys, so that a fair share of the dicts is valid.
CONFIG_DICTS = st.lists(
    st.sampled_from([f.name for f in dataclasses.fields(WorldConfig)]),
    max_size=4, unique=True,
).flatmap(lambda keys: st.fixed_dictionaries(
    {key: _config_value(key) for key in keys}))


@settings(max_examples=400, deadline=None)
@given(CONFIG_DICTS)
def test_fuzzed_config_rejected_or_runs_finite(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    world = init_world(cfg)
    run_episode(world, RoundRobinPolicy(cfg))
    state = [world.t_s, world.uav.arc_s, *world.uav.pos]
    state += [x for s in world.sensors for x in (*s.pos, s.aoi_s, s.battery_j)]
    state += [rec.avg_aoi_s for rec in world.log]
    assert all(math.isfinite(x) for x in state)
