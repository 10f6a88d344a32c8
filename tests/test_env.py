import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frsicl import channel
from frsicl.config import WorldConfig
from frsicl.env import (MAX_BATCH_LINKS, ActionError, HorizonError, LinkMemo,
                        advance_uav, attempt_collection, init_world, observe,
                        run_episode, step, update_aoi)
from frsicl.policies import MaxAoiPolicy, RoundRobinPolicy
from frsicl.states import Action

CFG = WorldConfig()


class FixedPolicy:
    """The same action every frame."""

    def __init__(self, action: Action):
        self.action = action

    def decide(self, obs, rng) -> Action:
        return self.action


class FixedVelocities:
    """Sensor 1 at the k-th velocity in frame k."""

    def __init__(self, velocities):
        self.velocities = iter(velocities)

    def decide(self, obs, rng) -> Action:
        return Action(sensor=1, velocity_mps=next(self.velocities))


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


def spy_link_budget(monkeypatch):
    """The UAV positions of every channel.link_budget call, one list per call."""
    calls = []
    real = channel.link_budget

    def spy(uav_pos, sensor_pos, cfg):
        calls.append([tuple(p) for p in np.reshape(uav_pos, (-1, 3)).tolist()])
        return real(uav_pos, sensor_pos, cfg)

    monkeypatch.setattr(channel, "link_budget", spy)
    return calls


# velocity sequences: long constant runs, alternations and random values
RUNS = st.lists(st.tuples(st.sampled_from([0.0, 3.75, 7.5, 15.0]), st.integers(1, 40)),
                min_size=1, max_size=4).map(lambda runs: [v for v, n in runs for _ in range(n)])
ALTERNATIONS = st.tuples(st.sampled_from([3.75, 7.5, 15.0]), st.sampled_from([0.0, 7.5, 11.25]),
                         st.integers(1, 60)).map(lambda t: [t[i % 2] for i in range(t[2])])
VELOCITIES = st.one_of(RUNS, ALTERNATIONS,
                       st.lists(st.floats(-5.0, 20.0), min_size=1, max_size=60))


class TestOneLinkBudgetPerFrame:
    """observe and attempt_collection share one link budget per UAV position;
    a miss computes it with the positions the UAV's velocity reaches next."""

    def test_calls_per_episode(self, monkeypatch):
        # at constant speed, every position of the episode is computed once
        calls = spy_link_budget(monkeypatch)
        for policy in (RoundRobinPolicy(CFG), MaxAoiPolicy(CFG)):
            calls.clear()
            w = init_world(CFG, seed=4)
            run_episode(w, policy)
            assert sum(len(c) for c in calls) == CFG.n_steps + 1
            assert calls[-1][-1] == w.uav.pos

    @pytest.mark.parametrize("model", ["threshold", "logistic"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 10, 100, 300]),
           velocities=VELOCITIES)
    @settings(max_examples=60, deadline=None)
    def test_observe_equals_a_fresh_link_budget(self, model, seed, n, velocities):
        cfg = CFG.replace(success_model=model, n_sensors=n, n_steps=len(velocities))
        w = init_world(cfg, seed=seed)
        for k, v in enumerate(velocities):
            obs = observe(w)
            fresh = channel.link_budget(w.uav.pos, w.pos, cfg)
            for got, expected in zip((obs.distance_m, obs.path_loss_db, obs.snr_db), fresh):
                assert got.tobytes() == expected.tobytes()
            step(w, Action(1 + k % n, v))

    @given(n=st.sampled_from([1, 10, 100, 2049]), velocities=VELOCITIES)
    @settings(max_examples=60, deadline=None)
    def test_positions_computed_at_most_twice_the_frames(self, n, velocities):
        # each run at one velocity wastes at most as many positions as it flew
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_link_budget(patch)
            t = len(velocities)
            w = init_world(CFG.replace(n_sensors=n, n_steps=t), seed=1)
            run_episode(w, FixedVelocities(velocities))
        assert sum(len(c) for c in calls) <= 2 * (t + 1)

    @given(n=st.one_of(st.integers(1, 128), st.integers(129, 5000)),
           t=st.integers(1, 1500), v=st.sampled_from([0.0, 0.1, 3.75, 7.5, 15.0]))
    @example(n=129, t=1500, v=7.5).via("floor rule: 31 positions per call")
    @example(n=4097, t=60, v=3.75).via("no lookahead")
    @settings(max_examples=40, deadline=None)
    def test_calls_at_constant_velocity(self, n, t, v):
        # the lookahead doubles until a call holds MAX_BATCH_LINKS // n
        # positions; from 2 049 sensors on, every call holds one
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_link_budget(patch)
            w = init_world(CFG.replace(n_sensors=n, n_steps=t), seed=2)
            policy = FixedPolicy(Action(1, v))
            visited = []
            policy.feedback = lambda obs, record: visited.append(obs.uav_pos)
            run_episode(w, policy)
        per_call = max(1, MAX_BATCH_LINKS // n)
        assert len(calls) <= math.ceil(math.log2(t)) + 2 + math.ceil(t / per_call)
        assert all(len(c) * n <= max(n, MAX_BATCH_LINKS) for c in calls)
        # each position the UAV visits is computed once, and no other; the
        # last one only if a collection is attempted there
        positions = [p for c in calls for p in c]
        assert len(positions) == len(set(positions))
        assert set(visited) <= set(positions) <= set(visited) | {w.uav.pos}

    def test_velocity_zero_computes_one_position(self, monkeypatch):
        calls = spy_link_budget(monkeypatch)
        w = init_world(CFG, seed=0)
        for _ in range(5):
            step(w, Action(1, 0.0))
        w.link_memo.clear()
        observe(w)
        assert calls[-1] == [w.uav.pos]

    def test_memo_empties_before_passing_its_capacity(self):
        memo = LinkMemo(3)
        link = channel.link_budget(np.zeros((2, 3)), np.ones((2, 2)), CFG)
        # [3, 4] and [6] would each make four positions: the memo empties first
        batches = ([1.0, 2.0], [3.0, 4.0], [5.0], [6.0])
        held = ([1.0, 2.0], [3.0, 4.0], [3.0, 4.0, 5.0], [6.0])
        for batch, expected in zip(batches, held):
            memo.put([(0.0, 0.0, h) for h in batch], tuple(a[:len(batch)] for a in link))
            assert [p[2] for p in memo] == expected
        assert not memo[(0.0, 0.0, 6.0)][2].flags.writeable

    @pytest.mark.parametrize("model", ["threshold", "logistic"])
    @given(seed=st.integers(0, 2**32 - 1), capacity=st.sampled_from([0, 1, 3, 121]),
           episodes=st.lists(st.lists(
               st.tuples(st.integers(1, 10),
                         st.one_of(st.sampled_from([0.0, 3.75, 7.5, 11.25, 15.0]),
                                   st.floats(-5.0, 20.0))),
               min_size=1, max_size=30), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_shared_memo_logs_the_same_steps(self, model, seed, capacity, episodes):
        # a small battery also covers the ineligible path
        cfg = CFG.replace(success_model=model, battery_j=0.2)
        memo = LinkMemo(capacity)
        for actions in episodes:
            plain, shared = init_world(cfg, seed=seed), init_world(cfg, seed=seed)
            shared.link_memo = memo
            for sensor, v in actions:
                a, b = observe(plain), observe(shared)
                assert a.snr_db.tobytes() == b.snr_db.tobytes()
                assert a.eligible.tobytes() == b.eligible.tobytes()
                step(plain, Action(sensor, v))
                step(shared, Action(sensor, v))
            assert shared.log == plain.log
        # a batch that would pass the capacity empties the memo first
        assert len(memo) <= max(capacity, cfg.n_steps + 1)

    @pytest.mark.parametrize("model", ["threshold", "logistic"])
    @given(seed=st.integers(0, 2**32 - 1),
           actions=st.lists(st.tuples(st.integers(1, 10), st.floats(-5.0, 20.0)),
                            min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_success_equals_one_sensor_link_budget(self, model, seed, actions):
        # a small battery also covers the ineligible path, which draws nothing
        cfg = CFG.replace(success_model=model, battery_j=0.2)
        w = init_world(cfg, seed=seed)
        twin_rng = init_world(cfg, seed=seed).env_rng
        for sensor, v in actions:
            observe(w)
            eligible = w.battery_j[sensor - 1] >= cfg.e_tx_j
            rec = step(w, Action(sensor, v))
            _, _, snr = channel.link_budget(w.uav.pos, w.pos[sensor - 1], cfg)
            p = channel.success_probability(snr, cfg)
            if not eligible:
                expected = False
            elif model == "threshold":
                expected = bool(p >= 1.0)
            else:
                expected = bool(twin_rng.random() < p)
            assert rec.success is expected


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
