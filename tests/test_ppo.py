import contextlib
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.config import WorldConfig
from frsicl.env import init_world
from frsicl.ppo import (AdamState, Minibatch, PpoConfig, adam_update,
                        evaluate, forward, gae_advantages, init_params,
                        load_params, log_softmax, normalize_advantages,
                        ppo_loss_and_grads, sample_action, save_params,
                        train, velocity_from_bin)
from frsicl.ppo.io import MAGIC, ParamsFileError
from frsicl.ppo.loss import ppo_loss
from frsicl.ppo.net import N_VELOCITY_BINS, PARAM_ORDER
from frsicl.ppo.train import default_world_factory

from oracles import central_difference_grad, per_array_adam

RNG = np.random.default_rng(1234)


def zero_params(n_sensors=3, input_dim=4, hidden=(6, 5)):
    params = init_params(n_sensors, input_dim, hidden, np.random.default_rng(0))
    params.flat[...] = 0.0
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


class TestLayout:
    def test_named_arrays_are_views_of_flat(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(0))
        params.flat[0] = 7.5
        assert params.W1[0, 0] == 7.5
        params.W1[0, 1] = -2.25
        assert params.flat[1] == -2.25
        params.bc[0] = 4.0
        assert params.flat[-1] == 4.0
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64

    def test_arrays_tile_flat_in_param_order(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(0))
        params.flat[...] = np.arange(params.flat.size)
        shapes = {"W1": (4, 6), "b1": (6,), "W2": (6, 5), "b2": (5,),
                  "Ws": (5, 3), "bs": (3,), "Wv": (5, 5), "bv": (5,),
                  "Wc": (5, 1), "bc": (1,)}
        assert [getattr(params, n).shape for n in PARAM_ORDER] == \
            [shapes[n] for n in PARAM_ORDER]
        tiled = np.concatenate([getattr(params, n).ravel() for n in PARAM_ORDER])
        assert np.array_equal(tiled, np.arange(params.flat.size))

    def test_views_slice_the_same_ranges_as_the_parameters(self):
        params = init_params(4, 10, (8, 6), np.random.default_rng(0))
        params.flat[...] = np.arange(params.flat.size)
        grad = np.arange(params.flat.size, dtype=np.float64)
        named = params.views(grad)
        assert list(named) == list(PARAM_ORDER)
        for name, view in named.items():
            assert np.shares_memory(view, grad)
            assert np.array_equal(view, getattr(params, name)), name

    def test_init_draws_weights_in_layer_order(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for name, (n_in, n_out) in (("W1", (4, 6)), ("W2", (6, 5)),
                                    ("Ws", (5, 3)), ("Wv", (5, 5)),
                                    ("Wc", (5, 1))):
            expected = rng.normal(0.0, np.sqrt(2.0 / (n_in + n_out)),
                                  size=(n_in, n_out))
            assert getattr(params, name).tobytes() == expected.tobytes(), name
        for name in ("b1", "b2", "bs", "bv", "bc"):
            assert not getattr(params, name).any()


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
        assert logp == expected

    # plain logits up to 1e3 in magnitude, and near-ties a few ulps or 1e-9 apart
    LOGITS = st.one_of(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
        st.builds(lambda base, steps, unit: [base + k * unit for k in steps],
                  st.floats(-1e3, 1e3),
                  st.lists(st.integers(-3, 3), min_size=1, max_size=12),
                  st.sampled_from([0.0, 1e-9, 2.3e-13])))

    @given(ls=LOGITS, lv=st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_draw_equals_generator_choice(self, ls, lv, seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            a_s, a_v, _ = sample_action(np.array(ls), np.array(lv), rng)
            expected = [int(twin.choice(len(x), p=np.exp(log_softmax(np.array(x)))))
                        for x in (ls, lv)]
            assert [a_s, a_v] == expected
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise(self, bad):
        logits = np.zeros(4)
        logits[1] = bad
        if bad == -np.inf:
            logits[:] = bad
        # log_softmax subtracts inf from inf; nan passes through silently
        warns = (pytest.warns(RuntimeWarning, match="invalid value encountered in subtract")
                 if np.isinf(bad) else contextlib.nullcontext())
        with warns, pytest.raises(ValueError):
            sample_action(logits, np.zeros(5), np.random.default_rng(0))

    def test_velocity_bins_at_defaults(self):
        assert [velocity_from_bin(i, 15.0) for i in range(5)] == \
            [0.0, 3.75, 7.5, 11.25, 15.0]


class TestGae:
    def test_undiscounted_suffix_sums(self):
        r = np.array([1.0, 2.0, 3.0])
        adv, _ = gae_advantages(r, np.zeros(3), 1.0, 1.0)
        assert adv == pytest.approx([6.0, 5.0, 3.0])

    def test_single_terminal_step(self):
        adv, ret = gae_advantages([2.0], [0.5], 0.9, 0.8)
        assert adv[0] == pytest.approx(1.5)
        assert ret[0] == pytest.approx(2.0)

    def test_hand_computed_three_steps(self):
        # independent evaluation of the recursion: r=[1,1,1], V=0.5,
        # gamma=0.9, lambda=0.8, terminal at the end
        adv, ret = gae_advantages([1.0, 1.0, 1.0], [0.5] * 3, 0.9, 0.8)
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
            _, ga = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
            gn = central_difference_grad(
                lambda p: ppo_loss(p, batch, 0.2, 0.5, 0.01), params)
            err = np.linalg.norm(ga - gn) / max(
                np.linalg.norm(ga) + np.linalg.norm(gn), 1e-8)
            assert err < 1e-4

    def test_flat_loss_zero_gradient(self):
        params = zero_params()
        batch = Minibatch(np.zeros((3, 4)), np.zeros(3, int), np.zeros(3, int),
                          np.log(np.full(3, 1 / 15)), np.zeros(3), np.zeros(3))
        _, grad = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        assert grad.shape == params.flat.shape and not grad.any()

    def test_value_head_gradient_separated(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(5))
        batch = random_batch(params, B=4, rng=np.random.default_rng(6))
        # zero advantages and entropy: only the value loss is active
        batch = Minibatch(batch.features, batch.sensor_actions,
                          batch.velocity_actions, batch.old_log_probs,
                          np.zeros(4), batch.returns)
        _, grad = ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        g = params.views(grad)
        assert not g["Ws"].any() and not g["Wv"].any()
        assert g["Wc"].any()

    def test_non_finite_gradient_names_the_array(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(5))
        batch = random_batch(params, B=4, rng=np.random.default_rng(6))
        batch.features[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient in W1"):
            ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)


def bc_only_grad(params, g):
    """A flat gradient that is g on the value bias and zero elsewhere."""
    grad = np.zeros_like(params.flat)
    params.views(grad)["bc"][0] = g
    return grad


class TestAdam:
    def test_first_step_sign_scaled(self):
        params = zero_params()
        state = AdamState.for_params(params)
        g = 0.3
        adam_update(params, bc_only_grad(params, g), state, lr=0.01)
        # bias-corrected first step: m_hat = g, sqrt(v_hat) = |g|
        assert params.bc[0] == pytest.approx(-0.01 * g / (abs(g) + 1e-8),
                                             rel=1e-9)

    def test_zero_grads_no_change(self):
        params = init_params(3, 4, (6, 5), np.random.default_rng(0))
        before = params.flat.copy()
        state = AdamState.for_params(params)
        adam_update(params, np.zeros_like(params.flat), state, lr=0.1)
        assert np.array_equal(params.flat, before)

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
            adam_update(params, bc_only_grad(params, g), state, lr=lr)
        assert params.bc[0] == pytest.approx(x, rel=1e-12)
        assert not params.flat[:-1].any()

    def test_flat_update_matches_per_array_reference_bits(self):
        params = init_params(4, 6, (7, 5), np.random.default_rng(11))
        ref = {n: a.copy() for n, a in params.views(params.flat).items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        state = AdamState.for_params(params)
        rng = np.random.default_rng(12)
        for t in range(1, 6):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 2),
                              size=params.flat.shape)
            adam_update(params, grad, state, lr=3e-3)
            per_array_adam(ref, {n: g.copy() for n, g in params.views(grad).items()},
                           m, v, t, lr=3e-3)
        assert state.t == 5
        for name, arr in params.views(params.flat).items():
            assert arr.tobytes() == ref[name].tobytes(), name


class TestPersistence:
    def test_round_trip(self, tmp_path):
        params = init_params(4, 10, (8, 6), np.random.default_rng(3))
        path = str(tmp_path / "params.bin")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.n_sensors == 4 and loaded.hidden == (8, 6)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.flat.flags.writeable and loaded.flat.flags.c_contiguous

    def test_file_is_header_then_flat_little_endian(self, tmp_path):
        params = init_params(4, 10, (8, 6), np.random.default_rng(3))
        path = tmp_path / "params.bin"
        save_params(params, str(path))
        named = np.concatenate([getattr(params, n).ravel() for n in PARAM_ORDER])
        assert path.read_bytes() == (MAGIC + struct.pack("<4I", 4, 10, 8, 6)
                                     + named.astype("<f8").tobytes())

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTPPO1" + b"\x00" * 32)
        with pytest.raises(ParamsFileError, match="bad magic"):
            load_params(str(path))

    @pytest.mark.parametrize("header, payload, match", [
        (b"\x01", b"", "header has 1 of 16 bytes"),
        # payloads that match the declared counts (101 and 59 parameters)
        (struct.pack("<4I", 0, 4, 6, 5), b"\x00" * (8 * 101), "zero size in header"),
        (struct.pack("<4I", 3, 4, 0, 5), b"\x00" * (8 * 59), "zero size in header"),
        (struct.pack("<4I", 3, 4, 6, 5), b"\x00" * 8, "declares 119 parameters"),
        (struct.pack("<4I", 3, 4, 6, 5), b"\x00" * (8 * 120), "holds 960 bytes"),
    ], ids=["short-header", "zero-sensors", "zero-hidden", "truncated", "trailing"])
    def test_malformed_file_rejected(self, tmp_path, header, payload, match):
        path = tmp_path / "bad.bin"
        path.write_bytes(MAGIC + header + payload)
        with pytest.raises(ParamsFileError, match=match):
            load_params(str(path))

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        # 100000 x 100000 hidden units would need 74.5 GiB of parameters
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<4I", 10, 24, 100000, 100000)
                         + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(ParamsFileError, match="declares"):
                load_params(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        params = init_params(3, 4, (6, 5), np.random.default_rng(3))
        params.Wv[2, 1] = bad
        path = str(tmp_path / "params.bin")
        save_params(params, path)
        with pytest.raises(ParamsFileError, match="non-finite parameter value"):
            load_params(path)


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
        assert np.array_equal(a.params.flat, b.params.flat)

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


# SHA-256 of the artefacts of train(WorldConfig(), PpoConfig(episodes=100),
# seed=0), taken before link budgets were shared across episodes.
TRAIN_PARAMS_SHA256 = "3b90d56d24288d567287c567947d6da3c3f0493b2dd68b754e75b66aad8ed346"
TRAIN_CURVE_SHA256 = "0685b8b3f72e3d0f76b5c85acf4546c9399e705cb69dbf855428bebf7572dcae"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSharedLinkBudgets:
    def test_default_training_is_pinned(self, tmp_path):
        result = train(WorldConfig(), PpoConfig(episodes=100), seed=0,
                       curve_path=str(tmp_path / "learning_curve.csv"))
        save_params(result.params, str(tmp_path / "ppo_params.bin"))
        assert sha256(tmp_path / "ppo_params.bin") == TRAIN_PARAMS_SHA256
        assert sha256(tmp_path / "learning_curve.csv") == TRAIN_CURVE_SHA256

    def test_one_link_budget_per_position(self, monkeypatch):
        from frsicl import channel
        computed = []
        real = channel.link_budget

        def spy(uav_pos, sensor_pos, cfg):
            computed.append([tuple(p) for p in uav_pos.tolist()])
            return real(uav_pos, sensor_pos, cfg)

        monkeypatch.setattr(channel, "link_budget", spy)
        cfg = WorldConfig()
        make_world = default_world_factory(cfg, 3)
        worlds = []
        train(cfg, PpoConfig(episodes=30), seed=3,
              world_factory=lambda episode: worlds.append(make_world(episode)) or worlds[-1])
        memo = worlds[0].link_memo
        assert all(w.link_memo is memo for w in worlds)
        assert memo.capacity == (N_VELOCITY_BINS - 1) * cfg.n_steps + 1
        # each reachable position is computed once and kept
        positions = [p for call in computed for p in call]
        assert len(positions) == len(memo) <= memo.capacity
        assert set(positions) == set(memo)
        assert len({w.uav.pos for w in worlds}) > 1
        for link in memo.values():
            for a in link:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_worlds_of_one_factory_share_the_layout(self):
        make_world = default_world_factory(WorldConfig(), 8)
        first, second = make_world(0), make_world(1)
        assert first.pos.tobytes() == second.pos.tobytes()
        assert first.cfg == second.cfg
        assert first.link_memo is second.link_memo

    @pytest.mark.parametrize("seed", [0, 8, 2**32 - 1])
    def test_factory_worlds_draw_what_init_world_draws(self, seed):
        make_world = default_world_factory(WorldConfig(), seed)
        for episode in range(3):
            world, fresh = make_world(episode), init_world(WorldConfig(), seed=seed)
            assert world.pos.tobytes() == fresh.pos.tobytes()
            assert world.uav == fresh.uav and world.log == []
            assert world.aoi_s.tolist() == fresh.aoi_s.tolist()
            assert world.battery_j.tolist() == fresh.battery_j.tolist()
            for rng, expected in ((world.env_rng, fresh.env_rng),
                                  (world.policy_rng, fresh.policy_rng)):
                assert (rng.seed, rng.label) == (expected.seed, expected.label)
                assert rng.gen.bit_generator is not expected.gen.bit_generator
                assert [rng.random() for _ in range(5)] == [expected.random() for _ in range(5)]
                assert rng.gen.integers(0, 10**9, 7).tolist() == \
                    expected.gen.integers(0, 10**9, 7).tolist()
                assert rng.gen.bit_generator.state == expected.gen.bit_generator.state
