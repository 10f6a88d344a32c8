import csv
import json

import numpy as np
import pytest

from frsicl.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, cli_main
from frsicl.config import ConfigError, WorldConfig, load_world_config
from frsicl.harness import (ExperimentSpec, ReplayDivergence, fmt,
                            replay_steps_csv, run_experiment, sweep_sensors)

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

    def test_sweep_ok(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["sweep", "--policies", "maxaoi,nearest",
                         "--counts", "5,10", "--seed", "0,1",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        assert len(read_csv(out / "sweep.csv")) == 5
