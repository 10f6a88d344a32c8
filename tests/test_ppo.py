import math

import numpy as np
import pytest

from frsicl.config import WorldConfig
from frsicl.env import init_world
from frsicl.ppo import (AdamState, Minibatch, PpoConfig, adam_update,
                        evaluate, forward, gae_advantages, init_params,
                        load_params, log_softmax, normalize_advantages,
                        ppo_loss_and_grads, sample_action, save_params,
                        train, velocity_from_bin)
from frsicl.ppo.loss import ppo_loss

from oracles import central_difference_grad

RNG = np.random.default_rng(1234)


def zero_params(n_sensors=3, input_dim=4, hidden=(6, 5)):
    params = init_params(n_sensors, input_dim, hidden, np.random.default_rng(0))
    params.set_flat(np.zeros(params.n_params()))
    return params


def random_batch(params, B=6, rng=RNG, rho_margin=0.05):
    """Random minibatch whose ratios stay away from the clip boundaries so
    finite differences are well defined."""
    while True:
        feats = rng.normal(size=(B, params.input_dim))
        a_s = rng.integers(0, params.n_sensors, B)
        a_v = rng.integers(0, 5, B)
        ls, lv, _, _ = forward(params, feats)
        lp_s = log_softmax(ls)
        lp_v = log_softmax(lv)
        new_logp = lp_s[np.arange(B), a_s] + lp_v[np.arange(B), a_v]
        old = new_logp + rng.normal(0, 0.3, B)
        rho = np.exp(new_logp - old)
        if np.all(np.abs(rho - 0.8) > rho_margin) and np.all(np.abs(rho - 1.2) > rho_margin):
            break
    return Minibatch(feats, a_s, a_v, old, rng.normal(size=B), rng.normal(size=B))


class TestForward:
    def test_zero_params(self):
        ls, lv, value, _ = forward(zero_params(), np.zeros(4))
        assert not ls.any() and not lv.any() and value[0] == 0.0

    def test_uniform_softmax_of_zero_logits(self):
        ls, _, _, _ = forward(zero_params(n_sensors=4), np.ones(4))
        assert np.exp(log_softmax(ls)).ravel() == pytest.approx([0.25] * 4)

    def test_hand_computed_tiny_net(self):
        params = zero_params(n_sensors=2, input_dim=2, hidden=(2, 2))
        params.W1[...] = np.eye(2)
        params.W2[...] = np.eye(2)
        params.Ws[...] = np.eye(2)
        params.Wv[...] = [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0]]
        params.Wc[...] = [[1.0], [1.0]]
        x = np.array([0.5, -0.3])
        h = [math.tanh(math.tanh(0.5)), math.tanh(math.tanh(-0.3))]
        ls, lv, value, _ = forward(params, x)
        assert ls.ravel() == pytest.approx(h)
        assert lv.ravel() == pytest.approx([h[0]] * 5)
        assert value[0] == pytest.approx(h[0] + h[1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="feature dim"):
            forward(zero_params(input_dim=4), np.zeros(5))


class TestSampleAction:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        n = 100_000
        counts_s = np.zeros(3)
        counts_v = np.zeros(5)
        for _ in range(n):
            a_s, a_v, _ = sample_action(np.zeros(3), np.zeros(5), rng)
            counts_s[a_s] += 1
            counts_v[a_v] += 1
        for counts, k in ((counts_s, 3), (counts_v, 5)):
            p = 1.0 / k
            sigma = math.sqrt(p * (1 - p) / n)
            assert np.all(np.abs(counts / n - p) < 3 * sigma)

    def test_saturated_logit(self):
        rng = np.random.default_rng(0)
        logits = np.zeros(4)
        logits[2] = 30.0
        assert all(sample_action(logits, np.zeros(5), rng)[0] == 2
                   for _ in range(100))

    def test_logprob_identity(self):
        rng = np.random.default_rng(3)
        ls = rng.normal(size=4)
        lv = rng.normal(size=5)
        a_s, a_v, logp = sample_action(ls, lv, rng)
        expected = log_softmax(ls)[a_s] + log_softmax(lv)[a_v]
        assert abs(logp - expected) < 1e-9

    def test_velocity_bins_at_defaults(self):
        assert [velocity_from_bin(i, 15.0) for i in range(5)] == \
            [0.0, 3.75, 7.5, 11.25, 15.0]


class TestGae:
    def test_undiscounted_suffix_sums(self):
        r = np.array([1.0, 2.0, 3.0])
        dones = np.array([0.0, 0.0, 1.0])
        adv, _ = gae_advantages(r, np.zeros(3), dones, 1.0, 1.0)
        assert adv == pytest.approx([6.0, 5.0, 3.0])

    def test_single_terminal_step(self):
        adv, ret = gae_advantages([2.0], [0.5], [1.0], 0.9, 0.8)
        assert adv[0] == pytest.approx(1.5)
        assert ret[0] == pytest.approx(2.0)

    def test_hand_computed_three_steps(self):
        # independent evaluation of the recursion: r=[1,1,1], V=0.5,
        # gamma=0.9, lambda=0.8, terminal at the end
        adv, ret = gae_advantages([1.0, 1.0, 1.0], [0.5] * 3,
                                  [0.0, 0.0, 1.0], 0.9, 0.8)
        assert adv == pytest.approx([1.8932, 1.31, 0.5])
        assert ret == pytest.approx([2.3932, 1.81, 1.0])

    def test_normalization(self):
        adv = normalize_advantages(np.array([3.0, -1.0, 5.0, 0.5]))
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


class TestPpoLoss:
    def test_rho_one_policy_term(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(2))
        B = 5
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(B, 4))
        a_s = rng.integers(0, 3, B)
        a_v = rng.integers(0, 5, B)
        ls, lv, value, _ = forward(params, feats)
        old = (log_softmax(ls)[np.arange(B), a_s]
               + log_softmax(lv)[np.arange(B), a_v])
        adv = rng.normal(size=B)
        batch = Minibatch(feats, a_s, a_v, old, adv, value)  # V == returns
        loss, _ = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        assert loss == pytest.approx(-adv.mean(), rel=1e-9)

    def test_clip_active_uses_clipped_branch(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(2))
        B = 4
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(B, 4))
        a_s = rng.integers(0, 3, B)
        a_v = rng.integers(0, 5, B)
        ls, lv, value, _ = forward(params, feats)
        new = (log_softmax(ls)[np.arange(B), a_s]
               + log_softmax(lv)[np.arange(B), a_v])
        eps = 0.2
        old = new - math.log(1 + 2 * eps)  # rho = 1 + 2 eps
        adv = np.abs(rng.normal(size=B)) + 0.1
        batch = Minibatch(feats, a_s, a_v, old, adv, value)
        loss, _ = ppo_loss_and_grads(params, batch, eps, 0.5, 0.0)
        assert loss == pytest.approx(-np.mean((1 + eps) * adv), rel=1e-9)

    def test_entropy_of_uniform_heads(self):
        params = zero_params(n_sensors=4)
        batch = Minibatch(np.zeros((2, 4)), np.zeros(2, int), np.zeros(2, int),
                          np.log(np.full(2, 1 / 20)), np.zeros(2), np.zeros(2))
        c_e = 0.7
        loss, _ = ppo_loss_and_grads(params, batch, 0.2, 0.5, c_e)
        # policy term 0 (A=0), value term 0, entropy = ln4 + ln5
        assert loss == pytest.approx(-c_e * (math.log(4) + math.log(5)), rel=1e-9)


class TestBackward:
    def test_finite_difference_small_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            params = init_params(3, 5, (6, 4), rng)
            batch = random_batch(params, B=4, rng=rng)
            _, grads = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
            ga = np.concatenate([grads[n].ravel() for n in
                                 ("W1", "b1", "W2", "b2", "Ws", "bs",
                                  "Wv", "bv", "Wc", "bc")])
            gn = central_difference_grad(
                lambda p: ppo_loss(p, batch, 0.2, 0.5, 0.01), params)
            err = np.linalg.norm(ga - gn) / max(
                np.linalg.norm(ga) + np.linalg.norm(gn), 1e-8)
            assert err < 1e-4

    def test_flat_loss_zero_gradient(self):
        params = zero_params()
        batch = Minibatch(np.zeros((3, 4)), np.zeros(3, int), np.zeros(3, int),
                          np.log(np.full(3, 1 / 15)), np.zeros(3), np.zeros(3))
        _, grads = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        for g in grads.values():
            assert not g.any()

    def test_value_head_gradient_separated(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(5))
        batch = random_batch(params, B=4, rng=np.random.default_rng(6))
        # zero advantages and entropy: only the value loss is active
        batch = Minibatch(batch.features, batch.sensor_actions,
                          batch.velocity_actions, batch.old_log_probs,
                          np.zeros(4), batch.returns)
        _, grads = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        assert not grads["Ws"].any() and not grads["Wv"].any()
        assert grads["Wc"].any()


class TestAdam:
    def test_first_step_sign_scaled(self):
        params = zero_params()
        state = AdamState.for_params(params)
        g = 0.3
        adam_update(params, {"bc": np.array([g])}, state, lr=0.01)
        # bias-corrected first step: m_hat = g, sqrt(v_hat) = |g|
        assert params.bc[0] == pytest.approx(-0.01 * g / (abs(g) + 1e-8),
                                             rel=1e-9)

    def test_zero_grads_no_change(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(0))
        before = params.to_flat()
        state = AdamState.for_params(params)
        adam_update(params, {n: np.zeros_like(a) for n, a in params.arrays().items()},
                    state, lr=0.1)
        assert np.array_equal(params.to_flat(), before)

    def test_two_scripted_scalar_steps(self):
        params = zero_params()
        state = AdamState.for_params(params)
        lr = 0.05
        grads = [0.4, -0.2]
        # independent evaluation of the recurrences
        m = v = 0.0
        x = 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= lr * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        for g in grads:
            adam_update(params, {"bc": np.array([g])}, state, lr=lr)
        assert params.bc[0] == pytest.approx(x, rel=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        params = init_params(4, 10, (8, 6), np.random.default_rng(3))
        path = str(tmp_path / "params.bin")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.n_sensors == 4 and loaded.hidden == (8, 6)
        assert np.array_equal(loaded.to_flat(), params.to_flat())

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTPPO1" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_params(str(path))


def velocities(world):
    """The clamped velocity of every logged step."""
    return [rec.action.velocity_mps for rec in world.log]


class TestTrainEvaluate:
    CFG = WorldConfig(n_sensors=3, n_steps=10)
    PPO = PpoConfig(episodes=3, steps_per_episode=10, hidden=(8, 8))

    def test_seeded_training_reproducible(self):
        a = train(self.CFG, self.PPO, seed=5)
        b = train(self.CFG, self.PPO, seed=5)
        assert a.curve == b.curve
        assert np.array_equal(a.params.to_flat(), b.params.to_flat())

    def test_greedy_eval_deterministic(self):
        result = train(self.CFG, self.PPO, seed=5)
        w1, w2 = init_world(self.CFG, seed=9), init_world(self.CFG, seed=9)
        s1 = evaluate(result.params, w1)
        s2 = evaluate(result.params, w2)
        assert s1.time_avg_aoi_s == s2.time_avg_aoi_s
        assert velocities(w1) == velocities(w2)

    def test_greedy_invariant_to_logit_shift(self):
        result = train(self.CFG, self.PPO, seed=5)
        w_base, w_shifted = init_world(self.CFG, seed=9), init_world(self.CFG, seed=9)
        base = evaluate(result.params, w_base)
        result.params.bs[...] += 3.7
        result.params.bv[...] -= 1.2
        shifted = evaluate(result.params, w_shifted)
        assert velocities(w_base) == velocities(w_shifted)
        assert base.time_avg_aoi_s == shifted.time_avg_aoi_s

    def test_curve_csv_written(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        train(self.CFG, self.PPO, seed=1, curve_path=path)
        lines = open(path).read().splitlines()
        assert lines[0] == "episode,mean_reward,mean_aoi"
        assert len(lines) == 1 + self.PPO.episodes
