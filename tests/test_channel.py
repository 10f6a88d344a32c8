import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.channel import (elevation_angle, link_budget, los_probability,
                            path_loss_db, slant_distance, snr_db,
                            success_probability)
from frsicl.config import WorldConfig
from frsicl.env import init_world, observe

from oracles import oracle_path_loss_db

CFG = WorldConfig()

# High-precision reference values, evaluated independently term by term.
PHI_D30_H10 = 18.434948822922010
PLOS_D30_H10 = 0.299262463486333
PLOS_90 = 0.999975074537903
FSPL_D30_H10 = 70.052008056115494
GAMMA_D30_H10 = 84.366021249875174
SNR_D30_H10 = 25.633978750124826


def uav(x=0.0, y=0.0, h=10.0):
    return (x, y, h)


class TestElevationAngle:
    def test_45_degrees(self):
        assert elevation_angle(uav(h=10), (10.0, 0.0)) == pytest.approx(45.0)

    def test_overhead_is_90(self):
        assert elevation_angle(uav(h=10), (0.0, 0.0)) == 90.0

    def test_d30_h10(self):
        assert elevation_angle(uav(h=10), (30.0, 0.0)) == pytest.approx(
            PHI_D30_H10, rel=1e-12)


class TestLosProbability:
    def test_phi_equals_a(self):
        a = 9.61
        assert los_probability(a, a, 0.16) == pytest.approx(1 / (1 + a), rel=1e-12)

    def test_phi_90(self):
        assert los_probability(90.0, 9.61, 0.16) == pytest.approx(PLOS_90, rel=1e-9)

    def test_phi_d30_h10(self):
        assert los_probability(PHI_D30_H10, 9.61, 0.16) == pytest.approx(
            PLOS_D30_H10, rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=89.0),
           st.floats(min_value=0.01, max_value=0.99))
    def test_strictly_increasing(self, phi, delta):
        lo = los_probability(phi, 9.61, 0.16)
        hi = los_probability(phi + delta, 9.61, 0.16)
        assert hi > lo


class TestSlantDistance:
    def test_sqrt_1000(self):
        assert slant_distance(uav(h=10), (30.0, 0.0)) == pytest.approx(
            math.sqrt(1000.0), rel=1e-12)

    def test_overhead(self):
        assert slant_distance(uav(h=10), (0.0, 0.0)) == 10.0

    def test_3_4_5_scaled(self):
        assert slant_distance(uav(h=9), (40.0, 0.0)) == pytest.approx(41.0, rel=1e-12)

    # d/h bounded away from 0: sec(phi) is ill-conditioned straight overhead
    @given(st.floats(min_value=0.01, max_value=1000.0),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200)
    def test_sec_identity(self, d, h):
        slant = slant_distance(uav(h=h), (d, 0.0))
        phi = math.radians(elevation_angle(uav(h=h), (d, 0.0)))
        assert abs(slant - d / math.cos(phi)) < 1e-9 * slant


class TestPathLoss:
    def test_reference_geometry(self):
        assert path_loss_db(uav(h=10), (30.0, 0.0), CFG) == pytest.approx(
            GAMMA_D30_H10, rel=1e-9)

    def test_free_space_when_etas_zero(self):
        cfg = CFG.replace(eta_los_db=1e-300, eta_nlos_db=1e-300)
        assert path_loss_db(uav(h=10), (30.0, 0.0), cfg) == pytest.approx(
            FSPL_D30_H10, rel=1e-6)

    def test_monotone_in_distance(self):
        near = path_loss_db(uav(h=10), (30.0, 0.0), CFG)
        far = path_loss_db(uav(h=10), (60.0, 0.0), CFG)
        assert far > near

    @given(st.floats(min_value=0.1, max_value=500.0),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200)
    def test_increasing_in_d_at_fixed_h(self, d, h):
        a = path_loss_db(uav(h=h), (d, 0.0), CFG)
        b = path_loss_db(uav(h=h), (d * 1.1, 0.0), CFG)
        assert b > a

    def test_pure(self):
        args = (uav(h=10), (30.0, 0.0), CFG)
        assert path_loss_db(*args) == path_loss_db(*args)


class TestSnr:
    def test_reference(self):
        assert snr_db(GAMMA_D30_H10, CFG) == pytest.approx(SNR_D30_H10, rel=1e-9)

    def test_exact_cancellation(self):
        assert snr_db(110.0, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_minus_10(self):
        gamma = CFG.ptx_dbm - CFG.noise_dbm + 10.0
        assert snr_db(gamma, CFG) == pytest.approx(-10.0, abs=1e-12)


class TestSuccessProbability:
    def test_logistic_midpoint(self):
        cfg = CFG.replace(success_model="logistic")
        assert success_probability(cfg.snr_threshold_db, cfg) == pytest.approx(0.5)

    def test_threshold_strict(self):
        assert success_probability(CFG.snr_threshold_db - 0.001, CFG) == 0.0
        assert success_probability(CFG.snr_threshold_db, CFG) == 1.0

    def test_logistic_two_scales_above(self):
        cfg = CFG.replace(success_model="logistic")
        expected = 1.0 / (1.0 + math.exp(-2.0))
        got = success_probability(cfg.snr_threshold_db + 2 * cfg.logistic_scale_db, cfg)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=-80, max_value=80),
           st.floats(min_value=0, max_value=20))
    def test_monotone_both_modes(self, snr, delta):
        for model in ("threshold", "logistic"):
            cfg = CFG.replace(success_model=model)
            assert success_probability(snr + delta, cfg) >= success_probability(snr, cfg)


class TestLinkBudgetArrays:
    """The array path against the scalar oracle, one sensor at a time."""

    CFG = WorldConfig(area_size_m=400.0)
    coord = st.floats(min_value=0.0, max_value=400.0)

    @given(sensors=st.lists(st.tuples(coord, coord), min_size=1, max_size=120),
           uav_xy=st.tuples(coord, coord),
           h=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, sensors, uav_xy, h):
        cfg = self.CFG.replace(n_sensors=len(sensors), altitude_m=h)
        world = init_world(cfg, seed=0)
        world.pos[:] = sensors
        world.uav.pos = (*uav_xy, h)
        obs = observe(world)
        distance, path_loss, snr = link_budget(world.uav.pos, world.pos, cfg)
        assert distance.shape == path_loss.shape == snr.shape == (len(sensors),)
        assert np.array_equal(snr, obs.snr_db)
        for j, (x, y) in enumerate(sensors):
            d = math.hypot(uav_xy[0] - x, uav_xy[1] - y)
            expected = cfg.ptx_dbm - oracle_path_loss_db(
                d, h, cfg.env_a, cfg.env_b, cfg.eta_los_db, cfg.eta_nlos_db,
                cfg.carrier_hz, cfg.light_speed_mps) - cfg.noise_dbm
            assert abs(distance[j] - d) <= 1e-12 * max(d, 1.0)
            assert abs(snr[j] - expected) < 1e-12
            if abs(expected - cfg.snr_threshold_db) > 1e-9:
                assert obs.eligible[j] == (expected >= cfg.snr_threshold_db)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overhead_and_overflow_raise_no_warning(self):
        # h / 0 straight overhead; exp overflow in a steep LoS sigmoid and
        # in the logistic success model far below the threshold
        cfg = CFG.replace(env_b=1000.0, success_model="logistic")
        _, _, snr = link_budget(uav(h=10), [(0.0, 0.0), (500.0, 0.0)], cfg)
        assert elevation_angle(uav(h=10), [(0.0, 0.0)]).tolist() == [90.0]
        assert success_probability(snr - 2000.0, cfg).tolist() == [0.0, 0.0]

    @given(n=st.integers(1, 64), k=st.integers(1, 64), on_orbit=st.integers(0, 64),
           arc=st.floats(-1e4, 1e4), v=st.floats(-15.0, 15.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_rows_of_k_positions_equal_single_calls(self, n, k, on_orbit, arc, v, seed):
        cfg = self.CFG.replace(n_sensors=n)
        positions = []
        for _ in range(k):
            theta = arc / cfg.orbit_radius_m
            positions.append((50.0 + 35.0 * math.cos(theta), 50.0 + 35.0 * math.sin(theta),
                              cfg.altitude_m))
            arc += v
        sensors = np.random.default_rng(seed).uniform(0.0, 400.0, (n, 2))
        m = min(on_orbit, n, k)  # sensors straight under the UAV: d = 0
        sensors[:m] = np.array(positions)[:m, :2]
        batch = link_budget(np.array(positions), sensors, cfg)
        one_sensor = link_budget(np.array(positions), tuple(sensors[0]), cfg)
        assert all(a.shape == (k, n) for a in batch)
        assert all(a.shape == (k,) for a in one_sensor)
        for i, p in enumerate(positions):
            for rows, single in ((batch, link_budget(p, sensors, cfg)),
                                 (one_sensor, link_budget(p, tuple(sensors[0]), cfg))):
                for a, expected in zip(rows, single):
                    assert a[i].tobytes() == np.asarray(expected).tobytes()

    def test_one_pair_gives_scalars(self):
        distance, path_loss, snr = link_budget(uav(h=10), (30.0, 0.0), CFG)
        assert np.ndim(distance) == np.ndim(path_loss) == np.ndim(snr) == 0
        assert path_loss == pytest.approx(GAMMA_D30_H10, rel=1e-9)
        assert snr == pytest.approx(SNR_D30_H10, rel=1e-9)
