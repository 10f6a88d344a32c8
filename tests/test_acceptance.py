"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (visible with pytest -s) and enforcing its runtime budget."""

import copy
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from frsicl.channel import elevation_angle, los_probability, path_loss_db, slant_distance
from frsicl.config import WorldConfig
from frsicl.env import init_world, run_episode, step
from frsicl.icl import IclConfig, IclPolicy, ParseError, parse_action
from frsicl.policies import NearestNeighborPolicy, RoundRobinPolicy, max_aoi_decide
from frsicl.ppo import PpoConfig, Minibatch, forward, init_params, log_softmax, train
from frsicl.ppo.loss import ppo_loss, ppo_loss_and_grads
from frsicl.states import Action

from oracles import (central_difference_grad, enumerate_action_sequences,
                     oracle_episode_avg_aoi, oracle_path_loss_db)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f} s, budget {budget_s} s")
    print(f"\nACCEPTANCE {number} ({name}): PASS ({elapsed:.1f} s)")


def test_1_channel_exactness():
    with criterion(1, "channel exactness", 1.0):
        cfg = WorldConfig()
        uav = (0.0, 0.0, 10.0)
        ground = (30.0, 0.0)
        assert elevation_angle(uav, ground) == pytest.approx(18.4349, rel=1e-4)
        assert los_probability(elevation_angle(uav, ground), cfg.env_a,
                               cfg.env_b) == pytest.approx(0.29925, rel=1e-4)
        assert path_loss_db(uav, ground, cfg) == pytest.approx(84.37, rel=1e-4)
        # cross-check against the fully independent closed form
        assert path_loss_db(uav, ground, cfg) == pytest.approx(
            oracle_path_loss_db(30.0, 10.0, cfg.env_a, cfg.env_b,
                                cfg.eta_los_db, cfg.eta_nlos_db,
                                cfg.carrier_hz, cfg.light_speed_mps), rel=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            d = rng.uniform(0.01, 1000.0)
            h = rng.uniform(0.1, 100.0)
            slant = slant_distance((0.0, 0.0, h), (d, 0.0))
            phi = math.radians(elevation_angle((0.0, 0.0, h), (d, 0.0)))
            assert abs(math.sqrt(d * d + h * h) - d / math.cos(phi)) < 1e-9 * slant


def test_2_aoi_brute_force_equivalence():
    with criterion(2, "brute-force AoI equivalence", 30.0):
        for n_sensors, n_steps in ((2, 4), (3, 3)):
            cfg = WorldConfig(n_sensors=n_sensors, n_steps=n_steps)
            base = init_world(cfg, seed=0)
            positions = [s.pos for s in base.sensors]
            best_sim = best_oracle = math.inf
            for seq in enumerate_action_sequences(n_sensors, n_steps,
                                                  cfg.v_max_mps):
                world = copy.deepcopy(base)
                for sensor, velocity in seq:
                    step(world, Action(sensor=sensor, velocity_mps=velocity))
                sim = sum(r.avg_aoi_s for r in world.log) / n_steps
                oracle = oracle_episode_avg_aoi(cfg, positions, seq)
                assert sim == oracle, f"sequence {seq}"
                best_sim = min(best_sim, sim)
                best_oracle = min(best_oracle, oracle)
            assert best_sim == best_oracle


def test_3_determinism_and_replay(tmp_path):
    with criterion(3, "determinism and replay", 5.0):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "frsicl.cli", "run",
                 "--policy", "icl", "--mock-llm", "max-aoi",
                 "--seed", "0,1", "--out-dir", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "steps.csv").read_bytes())
        assert outputs[0] == outputs[1]
        proc = subprocess.run(
            [sys.executable, "-m", "frsicl.cli", "replay",
             "--steps-csv", str(tmp_path / "a" / "steps.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "replay ok" in proc.stdout


def test_4_ppo_gradient_check():
    with criterion(4, "PPO gradient check", 60.0):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            params = init_params(3, 8, (6, 5), rng)
            B = 4
            feats = rng.normal(size=(B, 8))
            a_s = rng.integers(0, 3, B)
            a_v = rng.integers(0, 5, B)
            ls, lv, _, _ = forward(params, feats)
            new_logp = (log_softmax(ls)[np.arange(B), a_s]
                        + log_softmax(lv)[np.arange(B), a_v])
            old = new_logp + rng.normal(0, 0.3, B)
            rho = np.exp(new_logp - old)
            # skip ratios near the clip kinks where the loss is not smooth
            if np.any(np.abs(rho - 0.8) < 1e-2) or np.any(np.abs(rho - 1.2) < 1e-2):
                continue
            batch = Minibatch(feats, a_s, a_v, old,
                              rng.normal(size=B), rng.normal(size=B))
            _, analytic = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
            numeric = central_difference_grad(
                lambda p: ppo_loss(p, batch, 0.2, 0.5, 0.01), params)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-10)
            assert rel < 1e-4, f"net {checked}: relative error {rel:.2e}"
            checked += 1


def test_5_ppo_desk_scale_learning():
    with criterion(5, "PPO desk-scale learning", 300.0):
        cfg = WorldConfig(n_sensors=5, snr_threshold_db=25.0, n_steps=60)
        ppo_cfg = PpoConfig(episodes=200, hidden=(32, 32),
                            steps_per_episode=60, gamma=0.1, gae_lambda=1.0,
                            epochs_per_update=20, learning_rate=3e-3,
                            entropy_coef=0.05)
        beats_rr = beats_start = 0
        for seed in range(10):
            result = train(cfg, ppo_cfg, seed=seed)
            aoi = [mean_aoi for _, _, mean_aoi in result.curve]
            final = float(np.mean(aoi[-20:]))
            first = float(np.mean(aoi[:20]))
            rr = run_episode(init_world(cfg, seed=seed),
                             RoundRobinPolicy(cfg)).time_avg_aoi_s
            beats_rr += final < rr
            beats_start += final < first
        assert beats_rr >= 8, f"beat round-robin on only {beats_rr}/10 seeds"
        assert beats_start >= 8, f"improved over start on only {beats_start}/10 seeds"


def test_6_icl_beats_nearest_neighbor():
    with criterion(6, "ICL beats nearest neighbor", 30.0):
        for n in (5, 10, 15):
            cfg = WorldConfig(n_sensors=n)
            icl_values, nn_values = [], []
            for seed in range(10):
                world = init_world(cfg, seed=seed)
                policy = IclPolicy(cfg, IclConfig(backend="mock:max-aoi"))
                icl_values.append(run_episode(world, policy).time_avg_aoi_s)
                world = init_world(cfg, seed=seed)
                nn_values.append(run_episode(
                    world, NearestNeighborPolicy(cfg)).time_avg_aoi_s)
            assert np.mean(icl_values) < np.mean(nn_values), (
                f"N={n}: ICL {np.mean(icl_values):.3f} "
                f">= nearest {np.mean(nn_values):.3f}")


def test_7_robustness_fuzz_and_fallback():
    with criterion(7, "parse fuzz and fallback", 10.0):
        cfg = WorldConfig()
        rng = np.random.default_rng(7)
        # Every fourth input is a well-formed action whose velocity may be
        # a literal Python's json reads as a non-finite float.
        velocities = ("NaN", "Infinity", "-Infinity", "1e999", "-1e400", "7.5", "1e308")
        for i in range(1000):
            raw = bytes(rng.integers(0, 256, rng.integers(0, 300))).decode(
                "utf-8", errors="replace")
            if i % 4 == 0:
                raw += '{"sensor": %d, "velocity": %s}' % (
                    rng.integers(1, cfg.n_sensors + 1), rng.choice(velocities))
            try:
                action = parse_action(raw, cfg)
            except ParseError:
                continue
            assert 1 <= action.sensor <= cfg.n_sensors
            assert math.isfinite(action.velocity_mps)
            assert 0.0 <= action.velocity_mps <= cfg.v_max_mps
        for seed in (0, 1):
            world = init_world(cfg, seed=seed)
            policy = IclPolicy(cfg, IclConfig(backend="mock:invalid"))
            run_episode(world, policy)
            # every step exhausted its attempts, then the fallback decided
            attempts = policy.icl_cfg.max_retries + 1
            assert len(policy.exchanges) == cfg.n_steps * attempts
            assert all(e.parse_result != "ok" for e in policy.exchanges)
            for rec in world.log:
                assert 0.0 <= rec.action.velocity_mps <= 15.0
                assert 1 <= rec.action.sensor <= cfg.n_sensors


def test_8_default_horizon_and_layout():
    with criterion(8, "default horizon and layout", 5.0):
        cfg = WorldConfig()
        world = init_world(cfg, seed=0)
        run_episode(world, RoundRobinPolicy(cfg))
        assert len(world.log) == 30
        assert len(world.sensors) == 10
        assert all(0.0 <= s.pos[0] <= 100.0 and 0.0 <= s.pos[1] <= 100.0
                   for s in world.sensors)
