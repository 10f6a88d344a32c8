import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from frsicl.config import WorldConfig
from frsicl.policies import (MaxAoiPolicy, NearestNeighborPolicy,
                             RoundRobinPolicy, max_aoi_decide,
                             nearest_neighbor_decide)
from frsicl.states import Action, Observation
from oracles import eligible_or_all

CFG = WorldConfig()
# Scaling by a power of two is exact, so it keeps every order and every tie;
# an arbitrary factor can round two close values into a tie.
POWER_OF_TWO = st.integers(min_value=-4, max_value=4).map(lambda m: 2.0 ** m)


def make_obs(distances=None, aois=None, eligible=None):
    n = len(distances or aois)
    distances = distances or [10.0] * n
    aois = aois or [0.0] * n
    eligible = eligible if eligible is not None else [True] * n
    return Observation(t_s=0.0, uav_pos=(85.0, 50.0, 10.0),
                       aoi_s=np.array(aois, dtype=np.float64),
                       snr_db=np.full(n, 30.0), path_loss_db=np.full(n, 80.0),
                       distance_m=np.array(distances, dtype=np.float64),
                       eligible=np.array(eligible, dtype=bool))


class TestNearestNeighbor:
    def test_argmin(self):
        assert nearest_neighbor_decide(make_obs(distances=[5, 3, 9]), 15.0).sensor == 2

    def test_tie_lowest_id(self):
        assert nearest_neighbor_decide(make_obs(distances=[4, 4, 9]), 15.0).sensor == 1

    def test_eligibility_filter(self):
        obs = make_obs(distances=[1, 2, 9], eligible=[False, False, True])
        assert nearest_neighbor_decide(obs, 15.0).sensor == 3

    def test_velocity_is_v_max(self):
        assert nearest_neighbor_decide(make_obs(distances=[5]), 15.0).velocity_mps == 15.0

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=2, max_size=8),
           POWER_OF_TWO)
    def test_scale_invariance(self, distances, k):
        a = nearest_neighbor_decide(make_obs(distances=distances), 15.0)
        b = nearest_neighbor_decide(
            make_obs(distances=[d * k for d in distances]), 15.0)
        assert a.sensor == b.sensor


class TestRoundRobin:
    def test_modular_cycle(self):
        policy = RoundRobinPolicy(CFG.replace(n_sensors=3))
        obs = make_obs(distances=[1, 2, 3])
        assert [policy.decide(obs, None).sensor for _ in range(4)] == [1, 2, 3, 1]

    def test_velocity_half_max(self):
        policy = RoundRobinPolicy(CFG)
        assert policy.decide(make_obs(distances=[1] * 10), None).velocity_mps == 7.5

    def test_counter_resets_with_fresh_instance(self):
        obs = make_obs(distances=[1, 2, 3])
        a = RoundRobinPolicy(CFG.replace(n_sensors=3))
        a.decide(obs, None)
        a.decide(obs, None)
        b = RoundRobinPolicy(CFG.replace(n_sensors=3))
        assert b.decide(obs, None).sensor == 1


class TestMaxAoi:
    def test_argmax_tie_rule(self):
        assert max_aoi_decide(make_obs(aois=[3, 7, 7]), 15.0).sensor == 2

    def test_all_zero_first_sensor(self):
        assert max_aoi_decide(make_obs(aois=[0, 0, 0]), 15.0).sensor == 1

    def test_ineligible_filtered(self):
        obs = make_obs(aois=[40, 1], eligible=[False, True])
        assert max_aoi_decide(obs, 15.0).sensor == 2

    @given(st.lists(st.floats(min_value=0.1, max_value=40), min_size=2, max_size=8),
           POWER_OF_TWO)
    def test_scale_invariance(self, aois, k):
        a = max_aoi_decide(make_obs(aois=aois), 15.0)
        b = max_aoi_decide(make_obs(aois=[x * k for x in aois]), 15.0)
        assert a.sensor == b.sensor


def test_all_baselines_respect_bounds():
    obs = make_obs(distances=[5, 3, 9, 2, 7, 1, 8, 4, 6, 10])
    for policy in (NearestNeighborPolicy(CFG), RoundRobinPolicy(CFG),
                   MaxAoiPolicy(CFG)):
        action = policy.decide(obs, None)
        assert CFG.v_min_mps <= action.velocity_mps <= CFG.v_max_mps
        assert 1 <= action.sensor <= CFG.n_sensors


NAN, INF = float("nan"), float("inf")
# Ties, the two fills themselves, NaN, and any other float.
DECISION_VALUE = st.one_of(st.sampled_from([0.0, 1.0, INF, -INF, NAN]), st.floats())
DECISION_CASE = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(DECISION_VALUE, min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestMaskedDecisions:
    """Masking first, and asking whether any sensor is eligible only when
    the pick is not, picks what the eligible-or-all rule picks."""

    @given(DECISION_CASE)
    @example(([1.0, 2.0, 3.0], [False, False, False]))  # none eligible
    @example(([2.0, 1.0, 2.0], [True, True, True]))  # all eligible, ties
    @example(([INF, INF, 5.0], [True, False, False]))  # only an inf is eligible
    @example(([-INF, 3.0, -INF], [False, False, True]))
    @example(([NAN, 1.0, NAN], [False, True, True]))  # NaN eligible and not
    @example(([NAN, NAN], [False, False]))
    def test_equal_the_eligible_or_all_rule(self, case):
        values, eligible = case
        obs = make_obs(distances=values, aois=values, eligible=eligible)
        mask = obs.eligible
        assert nearest_neighbor_decide(obs, 15.0).sensor == \
            int(eligible_or_all(obs.distance_m, mask, INF).argmin()) + 1
        assert max_aoi_decide(obs, 15.0).sensor == \
            int(eligible_or_all(obs.aoi_s, mask, -INF).argmax()) + 1


@pytest.mark.parametrize("record, field", [
    (Action(1, 15.0), "sensor"),
    (Action(1, 15.0), "velocity_mps"),
    (make_obs(distances=[1.0, 2.0]), "aoi_s"),
    (make_obs(distances=[1.0, 2.0]), "t_s"),
])
def test_actions_and_observations_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
