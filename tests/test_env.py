import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.config import WorldConfig
from frsicl.env import (HorizonError, advance_uav, attempt_collection,
                        init_world, observe, run_episode, step, update_aoi)
from frsicl.policies import RoundRobinPolicy
from frsicl.states import Action

CFG = WorldConfig()


class FixedPolicy:
    """The same action every frame."""

    def __init__(self, action: Action):
        self.action = action

    def decide(self, obs, rng) -> Action:
        return self.action


def world_with_sensor_at(pos, cfg=CFG, seed=0):
    w = init_world(cfg, seed=seed)
    w.sensors[0].pos = pos
    return w


class TestInitWorld:
    def test_deterministic_layout(self):
        a = init_world(CFG, seed=5)
        b = init_world(CFG, seed=5)
        assert [s.pos for s in a.sensors] == [s.pos for s in b.sensors]

    def test_defaults_shape(self):
        w = init_world(CFG, seed=0)
        assert len(w.sensors) == 10
        for s in w.sensors:
            assert 0 <= s.pos[0] <= 100 and 0 <= s.pos[1] <= 100
            assert s.aoi_s == 0.0
            assert s.battery_j == CFG.battery_j

    def test_initial_avg_aoi_zero(self):
        w = init_world(CFG, seed=0)
        assert sum(s.aoi_s for s in w.sensors) == 0.0

    def test_uav_starts_at_angle_zero(self):
        w = init_world(CFG, seed=0)
        cx, cy = CFG.orbit_center
        assert w.uav.pos == pytest.approx((cx + CFG.orbit_radius_m, cy,
                                           CFG.altitude_m))


class TestAdvanceUav:
    def test_zero_velocity_stalls(self):
        w = init_world(CFG, seed=0)
        before = w.uav.pos
        advance_uav(w, 0.0)
        assert w.uav.pos == pytest.approx(before)

    def test_full_orbit_closure(self):
        w = init_world(CFG, seed=0)
        start = w.uav.pos
        v = 10.0
        n = 1000
        # pick dt so n steps make exactly one revolution
        w.cfg = CFG.replace(dt_s=2 * math.pi * CFG.orbit_radius_m / (v * n))
        for _ in range(n):
            advance_uav(w, v)
        assert w.uav.pos == pytest.approx(start, abs=1e-6)

    def test_max_velocity_advances_15m(self):
        w = init_world(CFG, seed=0)
        advance_uav(w, 15.0)
        assert w.uav.arc_s == pytest.approx(15.0)


class TestAttemptCollection:
    def test_depleted_battery_ineligible(self):
        w = world_with_sensor_at((85.0, 50.0))
        w.sensors[0].battery_j = 0.01
        assert attempt_collection(w, 1) is False
        assert w.sensors[0].battery_j == 0.01

    def test_overhead_succeeds_threshold(self):
        # UAV starts at (85, 50); sensor directly below is far above threshold
        w = world_with_sensor_at((85.0, 50.0))
        assert attempt_collection(w, 1) is True
        assert w.sensors[0].battery_j == CFG.battery_j - CFG.e_tx_j

    def test_logistic_draw_replays(self):
        cfg = CFG.replace(success_model="logistic")
        outcomes = []
        for _ in range(2):
            w = init_world(cfg, seed=3)
            outcomes.append([attempt_collection(w, 1 + (i % 10))
                             for i in range(10)])
        assert outcomes[0] == outcomes[1]


class TestUpdateAoi:
    def test_successful_collection(self):
        cfg = CFG.replace(n_sensors=2)
        w = init_world(cfg, seed=0)
        w.sensors[0].aoi_s, w.sensors[1].aoi_s = 3.0, 7.0
        w.t_s = 8.0
        update_aoi(w, selected=2, success=True)
        assert [s.aoi_s for s in w.sensors] == [4.0, 1.0]
        assert w.sensors[1].last_gen_s == 8.0

    def test_failure_ages_everyone(self):
        cfg = CFG.replace(n_sensors=2)
        w = init_world(cfg, seed=0)
        w.sensors[0].aoi_s, w.sensors[1].aoi_s = 3.0, 7.0
        update_aoi(w, selected=2, success=False)
        assert [s.aoi_s for s in w.sensors] == [4.0, 8.0]

    def test_cap_holds(self):
        w = init_world(CFG, seed=0)
        w.sensors[0].aoi_s = 40.0
        update_aoi(w, selected=2, success=False)
        assert w.sensors[0].aoi_s == 40.0


class TestStep:
    def test_velocity_clamped_in_log(self):
        w = init_world(CFG, seed=0)
        rec = step(w, Action(sensor=1, velocity_mps=99.0))
        assert rec.action.velocity_mps == 15.0

    def test_horizon_error(self):
        w = init_world(CFG, seed=0)
        for _ in range(30):
            step(w, Action(sensor=1, velocity_mps=5.0))
        with pytest.raises(HorizonError):
            step(w, Action(sensor=1, velocity_mps=5.0))

    def test_identical_states_give_identical_records(self):
        a = init_world(CFG, seed=4)
        b = copy.deepcopy(a)
        action = Action(sensor=3, velocity_mps=7.0)
        assert step(a, action) == step(b, action)

    def test_avg_is_mean_of_per_sensor(self):
        w = init_world(CFG, seed=1)
        rec = step(w, Action(sensor=2, velocity_mps=10.0))
        assert abs(rec.avg_aoi_s
                   - sum(rec.per_sensor_aoi) / len(rec.per_sensor_aoi)) < 1e-12


class TestObserve:
    def test_fresh_world_all_zero_aoi(self):
        obs = observe(init_world(CFG, seed=0))
        assert all(r.aoi_s == 0.0 for r in obs.rows)

    def test_overhead_sensor_has_max_snr(self):
        w = world_with_sensor_at((85.0, 50.0))  # directly under the UAV
        obs = observe(w)
        assert max(obs.rows, key=lambda r: r.snr_db).id == 1

    def test_row_count(self):
        assert len(observe(init_world(CFG, seed=0)).rows) == 10


class TestRunEpisode:
    def test_pinned_overhead_sensor(self):
        cfg = CFG.replace(n_sensors=3)
        w = init_world(cfg, seed=0)
        cx, cy = cfg.orbit_center
        w.sensors[0].pos = (cx + cfg.orbit_radius_m, cy)  # under the parked UAV
        run_episode(w, FixedPolicy(Action(sensor=1, velocity_mps=0.0)))
        final = w.log[-1].per_sensor_aoi
        assert final[0] == 1.0
        assert final[1] == 30.0 and final[2] == 30.0  # linear growth

    def test_summary_matches_log(self):
        w = init_world(CFG, seed=2)
        summary = run_episode(w, RoundRobinPolicy(CFG))
        recomputed = sum(r.avg_aoi_s for r in w.log) / len(w.log)
        assert abs(summary.time_avg_aoi_s - recomputed) < 1e-9

    def test_round_robin_always_success_bounds_aoi(self):
        # all 5 sensors under the orbit path stay within one cycle of age
        cfg = CFG.replace(n_sensors=5)
        w = init_world(cfg, seed=0)
        cx, cy = cfg.orbit_center
        for s in w.sensors:
            s.pos = (cx, cy)  # orbit center: always within range at defaults
        run_episode(w, RoundRobinPolicy(cfg))
        assert w.log[-1].success
        for rec in w.log[5:]:
            assert max(rec.per_sensor_aoi) <= 5.0


class TestInvariants:
    def test_aoi_identity(self):
        w = init_world(CFG, seed=9)
        policy = RoundRobinPolicy(CFG)
        for _ in range(30):
            obs = observe(w)
            step(w, policy.decide(obs, w.policy_rng))
            for s in w.sensors:
                expected = w.t_s - s.last_gen_s
                if CFG.aoi_cap_s is not None:
                    expected = min(expected, CFG.aoi_cap_s)
                assert s.aoi_s == expected

    def test_only_selected_sensor_can_improve(self):
        w = init_world(CFG, seed=11)
        policy = RoundRobinPolicy(CFG)
        for _ in range(30):
            before = [s.aoi_s for s in w.sensors]
            obs = observe(w)
            action = policy.decide(obs, w.policy_rng)
            step(w, action)
            improved = [j for j, s in enumerate(w.sensors)
                        if s.aoi_s < before[j] + CFG.dt_s]
            capped = [j for j, s in enumerate(w.sensors)
                      if s.aoi_s == CFG.aoi_cap_s]
            assert set(improved) - set(capped) <= {action.sensor - 1}

    def test_replay_equivalence(self):
        first = init_world(CFG, seed=21)
        run_episode(first, RoundRobinPolicy(CFG))
        replayed = init_world(CFG, seed=21)
        for rec in first.log:
            step(replayed, rec.action)
        assert replayed.log == first.log
