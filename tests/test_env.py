import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.config import WorldConfig
from frsicl.env import (ActionError, HorizonError, advance_uav,
                        attempt_collection, init_world, observe, run_episode,
                        step, update_aoi)
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
    w.pos[0] = pos
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
        assert w.aoi_s.tolist() == [0.0] * 10
        assert w.battery_j.tolist() == [CFG.battery_j] * 10

    def test_sensors_view_reads_the_layout(self):
        w = init_world(CFG, seed=3)
        assert [s.id for s in w.sensors] == list(range(1, 11))
        assert [s.pos for s in w.sensors] == [tuple(p) for p in w.pos.tolist()]

    def test_initial_avg_aoi_zero(self):
        w = init_world(CFG, seed=0)
        assert sum(w.aoi_s.tolist()) == 0.0

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
        w.battery_j[0] = 0.01
        assert attempt_collection(w, 1) is False
        assert w.battery_j[0] == 0.01

    def test_overhead_succeeds_threshold(self):
        # UAV starts at (85, 50); sensor directly below is far above threshold
        w = world_with_sensor_at((85.0, 50.0))
        assert attempt_collection(w, 1) is True
        assert w.battery_j[0] == CFG.battery_j - CFG.e_tx_j

    def test_logistic_draw_replays(self):
        cfg = CFG.replace(success_model="logistic")
        outcomes = []
        for _ in range(2):
            w = init_world(cfg, seed=3)
            outcomes.append([attempt_collection(w, 1 + (i % 10))
                             for i in range(10)])
        assert outcomes[0] == outcomes[1]
        assert all(type(o) is bool for o in outcomes[0])


class TestUpdateAoi:
    def test_successful_collection(self):
        cfg = CFG.replace(n_sensors=2)
        w = init_world(cfg, seed=0)
        w.aoi_s[:] = 3.0, 7.0
        w.t_s = 8.0
        update_aoi(w, selected=2, success=True)
        assert w.aoi_s.tolist() == [4.0, 1.0]
        # the sample was generated at frame start: t + dt - AoI
        assert w.t_s + cfg.dt_s - w.aoi_s[1] == 8.0

    def test_failure_ages_everyone(self):
        cfg = CFG.replace(n_sensors=2)
        w = init_world(cfg, seed=0)
        w.aoi_s[:] = 3.0, 7.0
        update_aoi(w, selected=2, success=False)
        assert w.aoi_s.tolist() == [4.0, 8.0]

    def test_cap_holds(self):
        w = init_world(CFG, seed=0)
        w.aoi_s[0] = 40.0
        update_aoi(w, selected=2, success=False)
        assert w.aoi_s[0] == 40.0


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


class TestActionCheck:
    def test_numpy_integer_sensor_accepted(self):
        w = init_world(CFG, seed=0)
        rec = step(w, Action(sensor=np.int64(3), velocity_mps=np.float64(7.0)))
        assert type(rec.action.sensor) is int and rec.action.sensor == 3
        assert type(rec.action.velocity_mps) is float

    @pytest.mark.parametrize("sensor", [0, -1, 11, 99, True, 2.0, "3", None])
    def test_bad_sensor_rejected_before_any_change(self, sensor):
        w = init_world(CFG, seed=0)
        before = (w.uav.pos, w.aoi_s.tolist(), w.battery_j.tolist())
        with pytest.raises(ActionError, match="sensor must be an integer in 1..10"):
            step(w, Action(sensor=sensor, velocity_mps=5.0))
        assert (w.uav.pos, w.aoi_s.tolist(), w.battery_j.tolist()) == before
        assert w.log == [] and w.t_s == 0.0

    @pytest.mark.parametrize("velocity", [math.nan, math.inf, -math.inf, 10**400, "5", None])
    def test_non_finite_velocity_rejected(self, velocity):
        w = init_world(CFG, seed=0)
        with pytest.raises(ActionError, match="velocity must be a finite number"):
            step(w, Action(sensor=1, velocity_mps=velocity))
        assert w.log == [] and w.uav.arc_s == 0.0


class TestObserve:
    def test_fresh_world_all_zero_aoi(self):
        obs = observe(init_world(CFG, seed=0))
        assert all(a == 0.0 for a in obs.aoi_s)

    def test_overhead_sensor_has_max_snr(self):
        w = world_with_sensor_at((85.0, 50.0))  # directly under the UAV
        obs = observe(w)
        assert int(np.argmax(obs.snr_db)) + 1 == 1

    def test_aoi_is_a_copy(self):
        w = init_world(CFG, seed=0)
        obs = observe(w)
        step(w, Action(sensor=1, velocity_mps=5.0))
        assert obs.aoi_s.tolist() == [0.0] * 10

    def test_row_count(self):
        obs = observe(init_world(CFG, seed=0))
        for values in (obs.aoi_s, obs.snr_db, obs.path_loss_db,
                       obs.distance_m, obs.eligible):
            assert values.shape == (10,)


class TestRunEpisode:
    def test_pinned_overhead_sensor(self):
        cfg = CFG.replace(n_sensors=3)
        w = init_world(cfg, seed=0)
        cx, cy = cfg.orbit_center
        w.pos[0] = (cx + cfg.orbit_radius_m, cy)  # under the parked UAV
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
        w.pos[:] = (cx, cy)  # orbit center: always within range at defaults
        run_episode(w, RoundRobinPolicy(cfg))
        assert w.log[-1].success
        for rec in w.log[5:]:
            assert max(rec.per_sensor_aoi) <= 5.0


class TestInvariants:
    def test_aoi_identity(self):
        w = init_world(CFG, seed=9)
        policy = RoundRobinPolicy(CFG)
        last_gen_s = [0.0] * CFG.n_sensors  # frame start of the last delivery
        for _ in range(30):
            frame_start = w.t_s
            obs = observe(w)
            rec = step(w, policy.decide(obs, w.policy_rng))
            if rec.success:
                last_gen_s[rec.action.sensor - 1] = frame_start
            for j, aoi in enumerate(rec.per_sensor_aoi):
                expected = w.t_s - last_gen_s[j]
                if CFG.aoi_cap_s is not None:
                    expected = min(expected, CFG.aoi_cap_s)
                assert aoi == expected
                assert w.aoi_s[j] == expected

    def test_only_selected_sensor_can_improve(self):
        w = init_world(CFG, seed=11)
        policy = RoundRobinPolicy(CFG)
        for _ in range(30):
            before = w.aoi_s.tolist()
            obs = observe(w)
            action = policy.decide(obs, w.policy_rng)
            step(w, action)
            improved = [j for j, aoi in enumerate(w.aoi_s)
                        if aoi < before[j] + CFG.dt_s]
            capped = [j for j, aoi in enumerate(w.aoi_s)
                      if aoi == CFG.aoi_cap_s]
            assert set(improved) - set(capped) <= {action.sensor - 1}

    def test_replay_equivalence(self):
        first = init_world(CFG, seed=21)
        run_episode(first, RoundRobinPolicy(CFG))
        replayed = init_world(CFG, seed=21)
        for rec in first.log:
            step(replayed, rec.action)
        assert replayed.log == first.log
