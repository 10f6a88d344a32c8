import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from frsicl.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, cli_main
from frsicl.config import ConfigError, WorldConfig, load_world_config
from frsicl.harness import (ExperimentSpec, ReplayDivergence, fmt,
                            replay_steps_csv, run_experiment, sweep_sensors)
from frsicl.ppo import init_params, save_params

CFG = WorldConfig()


def spec_for(tmp_path, policy="maxaoi", seeds=(0, 1, 2), cfg=CFG):
    return ExperimentSpec(world=cfg, policy=policy, seeds=list(seeds),
                          out_dir=str(tmp_path / "out"))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFmt:
    def test_six_significant_digits(self):
        assert fmt(3.14159265) == "3.14159"
        assert fmt(0.000123456789) == "0.000123457"
        assert fmt(15.0) == "15"

    def test_integers_stay_compact(self):
        assert fmt(100.0) == "100"


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert load_world_config(str(path)) == WorldConfig()

    def test_override_applies(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_sensors": 15}))
        cfg = load_world_config(str(path))
        assert cfg.n_sensors == 15
        assert cfg.n_steps == 30  # untouched default

    def test_misspelled_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_sensor": 15}))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_world_config(str(path))


class TestExperimentSpec:
    def test_unknown_policy(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown policy"):
            spec_for(tmp_path, policy="oracle")

    def test_duplicate_seeds(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            spec_for(tmp_path, seeds=(1, 1))


class TestRunExperiment:
    def test_row_counts_and_headers(self, tmp_path):
        spec = spec_for(tmp_path)
        run_experiment(spec)
        steps = read_csv(tmp_path / "out" / "steps.csv")
        sensors = read_csv(tmp_path / "out" / "sensors.csv")
        summary = read_csv(tmp_path / "out" / "summary.csv")
        assert steps[0] == "run_id,step,selected_sensor,velocity_mps,success,avg_aoi_s".split(",")
        assert sensors[0] == "run_id,sensor_id,x_m,y_m,mean_aoi_s,final_aoi_s".split(",")
        assert summary[0] == "run_id,policy,n_sensors,seed,time_avg_aoi_s,success_rate,wall_ms".split(",")
        assert len(steps) == 1 + 3 * 30
        assert len(sensors) == 1 + 3 * 10
        assert len(summary) == 1 + 3

    def test_run_ids_encode_policy_and_seed(self, tmp_path):
        run_experiment(spec_for(tmp_path, seeds=(4, 9)))
        summary = read_csv(tmp_path / "out" / "summary.csv")[1:]
        assert [row[0] for row in summary] == ["maxaoi-s4", "maxaoi-s9"]
        assert [row[3] for row in summary] == ["4", "9"]

    def test_reruns_byte_identical(self, tmp_path):
        run_experiment(spec_for(tmp_path / "a"))
        run_experiment(spec_for(tmp_path / "b"))
        for name in ("steps.csv", "sensors.csv"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b, name
        # summary rows match except the wall-clock column
        a = read_csv(tmp_path / "a" / "out" / "summary.csv")
        b = read_csv(tmp_path / "b" / "out" / "summary.csv")
        assert [row[:-1] for row in a] == [row[:-1] for row in b]

    def test_velocity_stays_in_bounds(self, tmp_path):
        run_experiment(spec_for(tmp_path, policy="nearest"))
        for row in read_csv(tmp_path / "out" / "steps.csv")[1:]:
            assert 0.0 <= float(row[3]) <= 15.0
            assert row[4] in ("0", "1")

    def test_icl_policy_writes_exchange_log(self, tmp_path):
        spec = ExperimentSpec(world=CFG, policy="icl", seeds=[0],
                              out_dir=str(tmp_path / "out"))
        run_experiment(spec)  # default IclConfig backend is an offline mock
        log = (tmp_path / "out" / "exchanges-icl-s0.log").read_text().splitlines()
        assert len(log) == 30
        json.loads(log[0])

    def test_empty_seed_list_header_only(self, tmp_path):
        spec = spec_for(tmp_path, seeds=())
        run_experiment(spec)
        assert read_csv(tmp_path / "out" / "steps.csv") == [
            "run_id,step,selected_sensor,velocity_mps,success,avg_aoi_s".split(",")]


class TestSweep:
    def test_cardinality_and_aggregates(self, tmp_path):
        spec = spec_for(tmp_path, policy="maxaoi", seeds=(0, 1, 2, 3, 4))
        rows = sweep_sensors(spec, ["maxaoi", "nearest"], counts=(5, 10, 15))
        assert len(rows) == 6
        table = read_csv(tmp_path / "out" / "sweep.csv")
        assert table[0] == "n_sensors,policy,mean_aoi_s,std_aoi_s,n_runs".split(",")
        assert len(table) == 7
        # aggregate equals the mean/std of the per-run summaries it covers
        for n, policy, mean, std, count in rows:
            sub = read_csv(tmp_path / "out" / f"n{n}-{policy}" / "summary.csv")[1:]
            values = np.array([float(r[4]) for r in sub])
            assert count == 5
            # summary.csv holds 6 significant digits, so compare to that
            assert mean == pytest.approx(values.mean(), rel=1e-5)
            assert std == pytest.approx(values.std(), abs=1e-4)


class TestReplay:
    def test_verifies_own_output(self, tmp_path):
        run_experiment(spec_for(tmp_path))
        assert replay_steps_csv(str(tmp_path / "out" / "steps.csv"), CFG) == 3

    def test_tampered_aoi_detected(self, tmp_path):
        run_experiment(spec_for(tmp_path, seeds=(0,)))
        path = tmp_path / "out" / "steps.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[-1] = fmt(float(cells[-1]) + 0.5)
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayDivergence, match="replay divergence at step"):
            replay_steps_csv(str(path), CFG)

    def test_wrong_header_detected(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("run_id,step\n")
        with pytest.raises(ReplayDivergence, match="header"):
            replay_steps_csv(str(path), CFG)

    def test_bad_run_id_detected(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text(
            "run_id,step,selected_sensor,velocity_mps,success,avg_aoi_s\n"
            "noseed,0,1,15,1,0.1\n")
        with pytest.raises(ReplayDivergence, match="encode a seed"):
            replay_steps_csv(str(path), CFG)


class TestReplayActionCheck:
    """A logged action the world cannot take is a divergence, not a wrap
    to another sensor or a traceback."""

    def replay_with(self, tmp_path, column, value):
        run_experiment(spec_for(tmp_path, seeds=(0,)))
        path = tmp_path / "out" / "steps.csv"
        rows = read_csv(path)
        rows[4][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path

    def test_sensor_zero_detected(self, tmp_path):
        path = self.replay_with(tmp_path, "selected_sensor", "0")
        with pytest.raises(ReplayDivergence, match="step 3 of maxaoi-s0: sensor"):
            replay_steps_csv(str(path), CFG)

    def test_sensor_past_n_detected(self, tmp_path):
        path = self.replay_with(tmp_path, "selected_sensor", "99")
        with pytest.raises(ReplayDivergence, match="step 3 of maxaoi-s0: sensor"):
            replay_steps_csv(str(path), CFG)

    def test_nan_velocity_detected(self, tmp_path, capsys):
        path = self.replay_with(tmp_path, "velocity_mps", "nan")
        with pytest.raises(ReplayDivergence, match="step 3 of maxaoi-s0: velocity"):
            replay_steps_csv(str(path), CFG)
        assert cli_main(["replay", "--steps-csv", str(path)]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err


# SHA-256 of steps.csv and sensors.csv before the world became arrays:
# N=100, T=300, 400 m field, seeds 0-2.
PINNED_DIGESTS = {
    "maxaoi": ("749145eee2f192aaea2c57b4430fbe1c11851766a3c8a317fb49398209424d5b",
               "9354ed6f7a42cffa5f33dfaa0084afda9bd28b324c38aff0c28bc027517ac481"),
    "nearest": ("e3f88fe0a7ff3be51cdcae451022f598c84ea0911edf1094b17779eb9543f150",
                "6cef3872af6fd1ce3cda185fb02cfc1d7eed7599b0ef91255ac247c6313d62d9"),
    "roundrobin": ("12affaeb1c8b911158c87df92d2f4d93a6558bd4284a47c054b1322a81e9ecc8",
                   "f636d0b1fbef2dd29edabffd526f814bcf840dfc9946bc8f3bfd64497d706881"),
}


@pytest.mark.parametrize("policy", sorted(PINNED_DIGESTS))
def test_n100_outputs_match_pinned_digests(tmp_path, policy):
    cfg = WorldConfig(area_size_m=400.0, n_sensors=100, n_steps=300)
    run_experiment(spec_for(tmp_path, policy=policy, cfg=cfg))
    digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("steps.csv", "sensors.csv"))
    assert digests == PINNED_DIGESTS[policy]


class TestCli:
    def test_run_maxaoi_ok(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run", "--policy", "maxaoi", "--seed", "0,1",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "steps.csv").exists()
        assert (out / "summary.csv").exists()
        printed = capsys.readouterr().out
        assert "maxaoi-s0" in printed and "maxaoi-s1" in printed

    def test_run_then_replay_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["run", "--policy", "roundrobin",
                         "--out-dir", str(out)]) == EXIT_OK
        assert cli_main(["replay", "--steps-csv",
                         str(out / "steps.csv")]) == EXIT_OK

    def test_replay_tampered_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli_main(["run", "--policy", "maxaoi", "--out-dir", str(out)])
        path = out / "steps.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "9" if cells[2] != "9" else "8"  # swap the polled sensor
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", "--steps-csv", str(path)]) == EXIT_VALIDATION
        assert "replay divergence" in capsys.readouterr().err

    def test_icl_without_backend_exits_1(self, tmp_path, capsys):
        code = cli_main(["run", "--policy", "icl",
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "--mock-llm" in capsys.readouterr().err

    def test_icl_with_mock_ok(self, tmp_path):
        out = tmp_path / "out"
        code = cli_main(["run", "--policy", "icl", "--mock-llm", "max-aoi",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "exchanges-icl-s0.log").exists()

    def test_train_then_eval_ppo(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_sensors": 3, "n_steps": 10}))
        assert cli_main(["train-ppo", "--config", str(cfg_path),
                         "--episodes", "2", "--out-dir", str(out)]) == EXIT_OK
        assert (out / "ppo_params.bin").exists()
        assert (out / "learning_curve.csv").exists()
        assert cli_main(["eval-ppo", "--config", str(cfg_path),
                         "--params", str(out / "ppo_params.bin")]) == EXIT_OK
        assert "time_avg_aoi_s" in capsys.readouterr().out

    def test_ppo_run_without_params_exits_1(self, tmp_path, capsys):
        code = cli_main(["run", "--policy", "ppo",
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "parameters file" in capsys.readouterr().err

    def test_empty_seed_list_exits_1(self, tmp_path, capsys):
        code = cli_main(["run", "--policy", "maxaoi", "--seed", ",,",
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "--seed expects" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_exits_1(self, capsys):
        assert cli_main(["run", "--policy", "maxaoi", "--frobnicate"]) == \
            EXIT_VALIDATION

    def test_unknown_policy_choice_exits_1(self, capsys):
        assert cli_main(["run", "--policy", "oracle"]) == EXIT_VALIDATION

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--policy", "maxaoi",
                         "--config", str(tmp_path / "absent.json"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_IO

    def test_sweep_output_replays_with_its_world_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["sweep", "--policies", "maxaoi", "--counts", "5",
                         "--out-dir", str(out)]) == EXIT_OK
        run_dir = out / "n5-maxaoi"
        assert load_world_config(str(run_dir / "world.json")) == \
            CFG.replace(n_sensors=5)
        capsys.readouterr()
        assert cli_main(["replay", "--steps-csv",
                         str(run_dir / "steps.csv")]) == EXIT_OK
        assert "world.json" in capsys.readouterr().out

    def test_replay_config_flag_overrides_world_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli_main(["sweep", "--policies", "maxaoi", "--counts", "5",
                  "--out-dir", str(out)])
        defaults = tmp_path / "defaults.json"
        defaults.write_text("{}")
        assert cli_main(["replay", "--steps-csv",
                         str(out / "n5-maxaoi" / "steps.csv"),
                         "--config", str(defaults)]) == EXIT_VALIDATION
        assert "replay divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,match", [
        (["--policies", ",", "--counts", "5"], "--policies expects"),
        (["--policies", "maxaoi", "--counts", ","], "--counts expects"),
        (["--policies", "maxaoi", "--counts", "5,x"], "--counts expects"),
        (["--policies", "maxaoi", "--counts", "5,5"], "counts must be non-empty and distinct"),
        (["--policies", "maxaoi,nearest,maxaoi", "--counts", "5"],
         "policies must be non-empty and distinct"),
        (["--policies", "maxaoi,oracle", "--counts", "5"], "unknown policy 'oracle'"),
        (["--policies", "maxaoi", "--counts", "5,0"], "n_sensors"),
    ], ids=["no-policy", "no-count", "bad-count", "repeated-count", "repeated-policy",
            "unknown-policy", "zero-count"])
    def test_bad_sweep_lists_run_nothing(self, tmp_path, capsys, flags, match):
        out = tmp_path / "out"
        assert cli_main(["sweep", *flags, "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("episodes", ["0", "-1"])
    def test_train_ppo_needs_an_episode(self, tmp_path, capsys, episodes):
        out = tmp_path / "out"
        assert cli_main(["train-ppo", "--episodes", episodes,
                         "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"episodes must be at least 1, got {episodes}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-2"])
    def test_llm_timeout_must_be_finite_and_positive(self, tmp_path, capsys, timeout):
        out = tmp_path / "out"
        assert cli_main(["run", "--policy", "icl", "--mock-llm", "max-aoi",
                         "--llm-timeout", timeout, "--out-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "timeout_s must be finite and positive" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_ok(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["sweep", "--policies", "maxaoi,nearest",
                         "--counts", "5,10", "--seed", "0,1",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        assert len(read_csv(out / "sweep.csv")) == 5


def _params_file(tmp_path, header, payload):
    path = tmp_path / "params.bin"
    path.write_bytes(b"FRSPPO1" + header + payload)
    return str(path)


def _saved_params(tmp_path, n_sensors, input_dim, bad=None):
    params = init_params(n_sensors, input_dim, (8, 8), np.random.default_rng(0))
    if bad is not None:
        params.flat[...] = bad
    path = str(tmp_path / "params.bin")
    save_params(params, path)
    return path


PARAMS_CASES = {
    "short-header": (lambda tmp: _params_file(tmp, b"\x01", b""),
                     "header has 1 of 16 bytes"),
    # a payload of the 152 parameters a zero-width first layer declares
    "zero-size": (lambda tmp: _params_file(tmp, struct.pack("<4I", 10, 24, 0, 8),
                                           b"\x00" * (8 * 152)), "zero size in header"),
    "huge-header": (lambda tmp: _params_file(
        tmp, struct.pack("<4I", 10, 24, 100000, 100000), b"\x00" * 64),
        "declares"),
    "all-nan": (lambda tmp: _saved_params(tmp, 10, 24, bad=np.nan),
                "non-finite parameter value"),
    "wrong-sensor-count": (lambda tmp: _saved_params(tmp, 12, 24),
                           "(12, 24) do not fit the world's (10, 24)"),
}


class TestPpoParamsFileCli:
    """A malformed or mismatched parameters file is a validation error
    (exit 1) with a message, for both commands that read one."""

    @pytest.mark.parametrize("case", list(PARAMS_CASES))
    @pytest.mark.parametrize("command", ["eval-ppo", "run"])
    def test_rejected_with_exit_1(self, tmp_path, capsys, case, command):
        make, match = PARAMS_CASES[case]
        path = make(tmp_path)
        if command == "eval-ppo":
            argv = ["eval-ppo", "--params", path]
        else:
            argv = ["run", "--policy", "ppo", "--ppo-params", path,
                    "--out-dir", str(tmp_path / "out")]
        assert cli_main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_ppo_sweep_over_a_misfit_count_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--policies", "ppo", "--counts", "10,5", "--ppo-params",
                _saved_params(tmp_path, 10, 24), "--out-dir", str(out)]
        assert cli_main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "do not fit sensor count(s) 5" in err and "Traceback" not in err
        assert not out.exists()
        argv[argv.index("10,5")] = "10"
        assert cli_main(argv) == EXIT_OK
        assert (out / "n10-ppo" / "steps.csv").exists()

    def test_ppo_sweep_without_params_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["sweep", "--policies", "maxaoi,ppo", "--counts", "5",
                         "--out-dir", str(out)]) == EXIT_VALIDATION
        assert "requires a trained parameters file" in capsys.readouterr().err
        assert not out.exists()
