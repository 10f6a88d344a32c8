import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsicl.config import WorldConfig
from frsicl.env import init_world, observe, run_episode
from frsicl.features import feature_vector
from frsicl.icl import (MAX_RETRIES, TOP_K_EXAMPLES, BackendError,
                        ExperiencePool, ExperienceRecord, HttpBackend,
                        IclConfig, IclPolicy, MockBackend, ParseError,
                        build_step_prompt, build_system_prompt, icl_decide,
                        make_backend, parse_action)
from frsicl.icl import parsing
from frsicl.icl.backends import _parse_step_prompt
from frsicl.icl.parsing import (MISSING_FIELD, NO_OBJECT, NON_FINITE,
                                NON_NUMERIC, SENSOR_OUT_OF_RANGE)
from frsicl.policies import max_aoi_decide, nearest_neighbor_decide
from frsicl.states import Action, Observation

from oracles import brute_force_top_k, scanned_first_object

CFG = WorldConfig()


def make_obs(aois, path_losses=None, eligible=None, t_s=0.0):
    n = len(aois)
    path_losses = np.array(path_losses or [80.0 + i for i in range(n)],
                           dtype=np.float64)
    eligible = eligible if eligible is not None else [True] * n
    return Observation(t_s=t_s, uav_pos=(85.0, 50.0, 10.0),
                       aoi_s=np.array(aois, dtype=np.float64),
                       snr_db=20.0 - path_losses - (-90.0),
                       path_loss_db=path_losses, distance_m=path_losses.copy(),
                       eligible=np.array(eligible, dtype=bool))


def make_record(features, sensor=1, velocity=7.5, outcome=3.0, step=0,
                before=2.0):
    return ExperienceRecord(features=np.asarray(features, dtype=np.float64),
                            action=Action(sensor=sensor, velocity_mps=velocity),
                            outcome_avg_aoi=outcome, step=step,
                            avg_aoi_before_s=before)


class TestPrompts:
    def test_system_prompt_states_bounds(self):
        text = build_system_prompt(CFG)
        assert "1..10" in text
        assert "0..15" in text

    def test_system_prompt_five_sections_once(self):
        text = build_system_prompt(CFG)
        for title in ("Objective:", "Input Schema:", "Operational Constraints:",
                      "Output Requirements:", "Feedback Mechanism:"):
            assert text.count(title) == 1

    def test_system_prompt_byte_stable(self):
        assert build_system_prompt(CFG) == build_system_prompt(CFG)

    def test_step_prompt_has_one_row_per_sensor(self):
        obs = make_obs([1, 2, 3, 4, 5])
        text = build_step_prompt(obs, [], CFG.replace(n_sensors=5))
        rows, _ = _parse_step_prompt(text)
        assert [r["id"] for r in rows] == [1, 2, 3, 4, 5]

    def test_step_prompt_round_trips_through_mock_parser(self):
        obs = make_obs([3.0, 7.0], path_losses=[82.4, 91.1],
                       eligible=[True, False])
        rows, v_max = _parse_step_prompt(
            build_step_prompt(obs, [], CFG.replace(n_sensors=2)))
        assert rows == [
            {"id": 1, "aoi_s": 3.0, "path_loss_db": 82.4, "eligible": True},
            {"id": 2, "aoi_s": 7.0, "path_loss_db": 91.1, "eligible": False},
        ]
        assert v_max == 15.0

    def test_step_prompt_shows_remaining_time(self):
        obs = make_obs([0.0] * 10, t_s=12.0)
        assert "remaining=18.0 s" in build_step_prompt(obs, [], CFG)

    def test_step_prompt_pure(self):
        obs = make_obs([1, 2, 3])
        cfg = CFG.replace(n_sensors=3)
        examples = [make_record(np.zeros(10), step=4)]
        assert build_step_prompt(obs, examples, cfg) == \
            build_step_prompt(obs, examples, cfg)


class TestSimilarity:
    """Retrieval ranks records by Euclidean distance to the query."""

    def test_three_four_five(self):
        pool = ExperiencePool(8)
        pool.add(make_record([3.0, 4.0], sensor=1))  # L2 5, L1 7
        pool.add(make_record([0.0, 5.5], sensor=2))  # L2 5.5, L1 5.5
        pool.add(make_record([5.0, 0.0], sensor=3))  # L2 5, exactly as [3, 4]
        assert [r.action.sensor for r in pool.retrieve(np.zeros(2), 1)] == [3]
        assert [r.action.sensor for r in pool.retrieve(np.zeros(2), 2)] == [1, 3]

    def test_length_mismatch_raises(self):
        pool = ExperiencePool(4)
        pool.add(make_record([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="mismatch"):
            pool.retrieve(np.zeros(4), 1)
        with pytest.raises(ValueError, match="mismatch"):
            pool.add(make_record([0.0, 0.0]))


class TestExperiencePool:
    def test_empty_retrieve(self):
        assert ExperiencePool(8).retrieve(np.zeros(2), 4) == []

    def test_k_larger_than_size_returns_all(self):
        pool = ExperiencePool(8)
        for i in range(3):
            pool.add(make_record([float(i), 0.0], step=i))
        assert len(pool.retrieve(np.zeros(2), 10)) == 3

    def test_exact_match_retrieved(self):
        pool = ExperiencePool(8)
        for i in range(5):
            pool.add(make_record([float(i + 1), 0.0], sensor=i + 1, step=i))
        got = pool.retrieve(np.array([3.0, 0.0]), 1)
        assert got[0].action.sensor == 3

    def test_tie_goes_to_newer_result_chronological(self):
        pool = ExperiencePool(8)
        pool.add(make_record([1.0, 0.0], sensor=1, step=0))
        pool.add(make_record([-1.0, 0.0], sensor=2, step=1))  # same distance
        pool.add(make_record([5.0, 0.0], sensor=3, step=2))
        got = pool.retrieve(np.zeros(2), 1)
        assert got[0].action.sensor == 2
        two = pool.retrieve(np.zeros(2), 2)
        assert [r.action.sensor for r in two] == [1, 2]  # chronological

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        pool = ExperiencePool(64)
        feats = rng.normal(size=(40, 6))
        for i, f in enumerate(feats):
            pool.add(make_record(f, sensor=(i % 10) + 1, step=i))
        query = rng.normal(size=6)
        got = pool.retrieve(query, 5)
        expected = brute_force_top_k(list(pool.records), query, 5)
        assert [tuple(r.features) for r in got] == \
            [tuple(r.features) for r in expected]

    def test_ring_evicts_oldest(self):
        pool = ExperiencePool(4)
        for i in range(5):
            pool.add(make_record([float(i)], sensor=(i % 10) + 1, step=i))
        assert len(pool) == 4
        assert [r.step for r in pool.records] == [1, 2, 3, 4]

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 12), dim=st.integers(1, 24),
           data=st.data())
    def test_matches_sort_oracle(self, capacity, dim, data):
        # Few distinct coordinates, so exact duplicates and equal distances
        # are common; up to three times capacity adds, so the ring wraps.
        coords = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, -1.0])
        vectors = st.lists(coords, min_size=dim, max_size=dim)
        pool = ExperiencePool(capacity)
        added = []
        for i, features in enumerate(data.draw(
                st.lists(vectors, max_size=3 * capacity), label="adds")):
            added.append(make_record(features, step=i))
            pool.add(added[-1])
        kept = added[-capacity:]
        assert [id(r) for r in pool.records] == [id(r) for r in kept]
        query = np.array(data.draw(vectors, label="query"))
        k = data.draw(st.integers(0, capacity + 2), label="k")
        assert [id(r) for r in pool.retrieve(query, k)] == \
            [id(r) for r in brute_force_top_k(kept, query, k)]

    def test_near_tie_ranked_like_one_norm_per_record(self):
        # Both squared distances are 20.64 in exact arithmetic; one norm per
        # record rounds them one ulp apart, norm(axis=1) rounds them equal.
        a = [-1, 0, 0, .1, -1, .5, .3, 0, .1, .3, .1, -1,
             .1, 1, -1, -1, 0, .3, 1, 1, -1, 1, 1, -1]
        b = [.3, .1, 0, 1, .3, -1, -1, -1, .5, -1, 1, -1,
             .1, 1, -1, 0, 0, 1, .1, .1, .3, 0, -1, 1]
        query = np.array([-1, .5, .3, .3, .5, .5, .3, 0, 1, 1, 1, .5,
                          .5, .3, 0, 1, -1, .3, .1, .5, -1, .5, -1, .3])
        pool = ExperiencePool(4)
        pool.add(make_record(b, step=0))
        pool.add(make_record(a, step=1))
        assert [id(r) for r in pool.retrieve(query, 1)] == \
            [id(r) for r in brute_force_top_k(list(pool.records), query, 1)]

    def test_rejects_negative_outcome(self):
        with pytest.raises(ValueError):
            ExperiencePool(4).add(make_record([0.0], outcome=-1.0))


class TestParseAction:
    def test_plain_object(self):
        action = parse_action('{"sensor": 3, "velocity": 10.5}', CFG)
        assert action == Action(sensor=3, velocity_mps=10.5)

    def test_object_embedded_in_prose(self):
        raw = 'Sure! Here is my choice:\n{"sensor": 7, "velocity": 15}\nDone.'
        assert parse_action(raw, CFG).sensor == 7

    def test_skips_unparseable_braces(self):
        raw = '{oops} then {"sensor": 2, "velocity": 0}'
        assert parse_action(raw, CFG).sensor == 2

    def test_braces_inside_strings_ignored(self):
        raw = '{"note": "unbalanced { inside", "sensor": 4, "velocity": 5}'
        assert parse_action(raw, CFG).sensor == 4

    def test_velocity_clamped(self):
        assert parse_action('{"sensor": 1, "velocity": 99}', CFG).velocity_mps == 15.0
        assert parse_action('{"sensor": 1, "velocity": -3}', CFG).velocity_mps == 0.0

    @pytest.mark.parametrize("raw,tag", [
        ("no json here at all", NO_OBJECT),
        ('{"sensor": 1}', MISSING_FIELD),
        ('{"velocity": 5}', MISSING_FIELD),
        ('{"sensor": 0, "velocity": 5}', SENSOR_OUT_OF_RANGE),
        ('{"sensor": 11, "velocity": 5}', SENSOR_OUT_OF_RANGE),
        ('{"sensor": 2.5, "velocity": 5}', NON_NUMERIC),
        ('{"sensor": true, "velocity": 5}', NON_NUMERIC),
        ('{"sensor": 2, "velocity": "fast"}', NON_NUMERIC),
        ('{"sensor": 1, "velocity": NaN}', NON_FINITE),
        ('{"sensor": 1, "velocity": Infinity}', NON_FINITE),
        ('{"sensor": 1, "velocity": -Infinity}', NON_FINITE),
        ('{"sensor": 1, "velocity": 1e999}', NON_FINITE),
        pytest.param('{"sensor": 1, "velocity": 1%s}' % ("0" * 400), NON_FINITE,
                     id="velocity-int-too-large-for-float"),
        pytest.param('{"sensor": 1, "velocity": 1%s}' % ("0" * 5000), NO_OBJECT,
                     id="int-over-digit-limit"),
        pytest.param('{"sensor": 1, "x": %s}' % ("[" * 100000 + "]" * 100000),
                     NO_OBJECT, id="nested-too-deep"),
    ])
    def test_error_tags(self, raw, tag):
        with pytest.raises(ParseError) as err:
            parse_action(raw, CFG)
        assert err.value.tag == tag

    def test_fuzz_only_parse_errors(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            raw = bytes(rng.integers(0, 256, rng.integers(0, 200))).decode(
                "utf-8", errors="replace")
            try:
                action = parse_action(raw, CFG)
            except ParseError:
                continue
            assert 1 <= action.sensor <= CFG.n_sensors
            assert 0.0 <= action.velocity_mps <= CFG.v_max_mps


def parse_outcome(parse):
    """The action parse() returns, or the tag of the ParseError it raises."""
    try:
        return parse()
    except ParseError as exc:
        return exc.tag


# fragments of replies: braces, quotes, escapes, separators, numbers, NaN
# and a whole action, so that objects open, close and break in many ways
REPLY_TOKENS = st.sampled_from([
    "{", "}", '"', "\\", ":", ",", " ", "[", "]", "1", "NaN", '"sensor"',
    '"velocity"', '{"sensor": 2, "velocity": 7.5}', "x" * 20])


class TestLinearParse:
    # small windows put the decoder's cut everywhere
    @pytest.mark.parametrize("window", [1, 17, 20, 64])
    @given(tokens=st.lists(REPLY_TOKENS, max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_same_outcome_as_the_balanced_brace_scan(self, window, tokens):
        raw = "".join(tokens)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parsing, "_FIRST_WINDOW", window)
            assert parse_outcome(lambda: parse_action(raw, CFG)) == parse_outcome(
                lambda: parsing._read_action(scanned_first_object(raw), CFG))

    @pytest.mark.parametrize("window", [17, 64])
    def test_a_cut_anywhere_in_the_object_decodes_on(self, monkeypatch, window):
        # the first window ends inside a long string, a literal, a number
        # or an escape, depending on the padding
        monkeypatch.setattr(parsing, "_FIRST_WINDOW", window)
        tail = ('", "t": true, "n": -Infinity, "e": -1.5e-3, "u": "\\u00e9\\ud83d\\ude00", '
                '"sensor": 2, "velocity": 5}')
        for pad in range(3 * window):
            raw = 'ok {"note": "' + "x" * pad + tail
            assert parse_action(raw, CFG) == Action(sensor=2, velocity_mps=5.0), pad

    @pytest.mark.parametrize("raw", [
        "{" * 100_000 + '{"sensor": 3, "velocity": 5}',
        '{"' * 100_000,
        '{"a": "' + "x{" * 100_000,
        ('{"a": ' + "1" * 100 + " ") * 1000,
    ], ids=["braces", "keys", "unterminated-string", "numbers"])
    def test_work_is_linear_in_the_reply(self, monkeypatch, raw):
        # at most one decode attempt per "{", and the windows an attempt
        # decodes at most double the characters the decoder reads
        attempts, windows = [], []
        decoder, object_at = parsing._DECODER, parsing._object_at

        class Counting:
            def raw_decode(self, window):
                windows.append(len(window))
                return decoder.raw_decode(window)

        monkeypatch.setattr(parsing, "_DECODER", Counting())
        monkeypatch.setattr(parsing, "_object_at",
                            lambda raw, i, budget: attempts.append(i) or object_at(raw, i, budget))
        parse_outcome(lambda: parse_action(raw, CFG))
        assert len(attempts) <= raw.count("{")
        assert sum(windows) <= 4 * len(raw) + 2 * parsing._FIRST_WINDOW * len(attempts)

    @pytest.mark.parametrize("raw", [
        '{"a":' * 8000,
        '{"a":' * 8000 + '{"sensor": 3, "velocity": 5}',
        '{"a": [' * 20_000,
    ], ids=["keys", "keys-then-action", "lists"])
    def test_nested_reply_stops_at_the_budget(self, monkeypatch, raw):
        # every "{" of a nested reply decodes up to the recursion limit, so
        # a budget of decoded characters, linear in the reply, ends the search
        windows = []
        decoder = parsing._DECODER

        class Counting:
            def raw_decode(self, window):
                windows.append(len(window))
                return decoder.raw_decode(window)

        monkeypatch.setattr(parsing, "_DECODER", Counting())
        assert parse_outcome(lambda: parse_action(raw, CFG)) == NO_OBJECT
        assert sum(windows) <= parsing._BUDGET_PER_CHAR * len(raw) + parsing._BUDGET_BASE


class TestMockBackends:
    @staticmethod
    def complete(backend, obs, cfg):
        return backend.complete("s", build_step_prompt(obs, [], cfg))

    def test_max_aoi_mock_matches_greedy_baseline(self):
        cfg = CFG.replace(n_sensors=6)
        backend = MockBackend("max-aoi")
        rng = np.random.default_rng(4)
        for _ in range(20):
            obs = make_obs(list(rng.integers(0, 40, 6).astype(float)),
                           eligible=list(rng.random(6) > 0.3))
            action = parse_action(self.complete(backend, obs, cfg), cfg)
            assert action.sensor == max_aoi_decide(obs, cfg.v_max_mps).sensor

    def test_nearest_mock_matches_nearest_baseline(self):
        cfg = CFG.replace(n_sensors=5)
        backend = MockBackend("nearest")
        rng = np.random.default_rng(5)
        for _ in range(20):
            # path loss strictly increasing in distance: same argmin
            losses = [round(x, 1) for x in rng.uniform(70, 110, 5)]
            obs = make_obs([1.0] * 5, path_losses=losses)
            action = parse_action(self.complete(backend, obs, cfg), cfg)
            assert action.sensor == nearest_neighbor_decide(obs, cfg.v_max_mps).sensor

    def test_invalid_mock_never_parses(self):
        backend = MockBackend("invalid")
        raw = self.complete(backend, make_obs([1.0] * 10), CFG)
        with pytest.raises(ParseError):
            parse_action(raw, CFG)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown mock strategy"):
            MockBackend("wizard")

    def test_make_backend_specs(self):
        assert isinstance(make_backend("mock:nearest", None, "m", 1.0), MockBackend)
        http = make_backend("http", "http://x", "m", 1.0)
        assert isinstance(http, HttpBackend) and http.model == "m"
        with pytest.raises(ValueError):
            make_backend("http", None, "m", 1.0)
        with pytest.raises(ValueError):
            make_backend("carrier-pigeon", None, "m", 1.0)


def decide(obs, backend, cfg, log, step_index=0):
    """icl_decide on an empty pool with cfg's own features and system prompt."""
    return icl_decide(obs, feature_vector(obs, cfg), ExperiencePool(8), backend,
                      cfg, build_system_prompt(cfg), log, step_index)


class TestIclDecide:
    def test_happy_path_single_exchange(self):
        cfg = CFG.replace(n_sensors=4)
        log = []
        obs = make_obs([5, 9, 2, 9])
        action = decide(obs, MockBackend("max-aoi"), cfg, log)
        assert action.sensor == 2  # highest AoI, lowest id on the tie
        assert len(log) == 1 and log[0].parse_result == "ok"

    def test_invalid_backend_falls_back_after_retries(self):
        cfg = CFG.replace(n_sensors=4)
        log = []
        obs = make_obs([5, 9, 2, 3])
        action = decide(obs, MockBackend("invalid"), cfg, log, step_index=3)
        assert action == max_aoi_decide(obs, cfg.v_max_mps)
        assert len(log) == MAX_RETRIES + 1
        assert all(e.parse_result == NO_OBJECT for e in log)
        assert all(e.step == 3 for e in log)

    def test_deterministic_at_zero_temperature(self):
        cfg = CFG.replace(n_sensors=4)
        obs = make_obs([5, 9, 2, 3])
        a = decide(obs, MockBackend("max-aoi"), cfg, [])
        b = decide(obs, MockBackend("max-aoi"), cfg, [])
        assert a == b

    def test_every_attempt_logged_once(self):
        # a backend error, then a parse failure, then an action
        cfg = CFG.replace(n_sensors=4)
        replies = iter([None, "no json here", '{"sensor": 3, "velocity": 7.5}'])

        class Scripted:
            def complete(self, system, user):
                reply = next(replies)
                if reply is None:
                    raise BackendError("refused")
                return reply

        log = []
        action = decide(make_obs([5, 9, 2, 3]), Scripted(), cfg, log, step_index=7)
        assert action == Action(sensor=3, velocity_mps=7.5)
        assert [(e.attempt, e.parse_result) for e in log] == \
            [(0, "backend-error"), (1, NO_OBJECT), (2, "ok")]
        assert log[0].raw_response == "<backend error: refused>"
        assert all(e.step == 7 for e in log)
        assert log[0].request_chars < log[1].request_chars < log[2].request_chars

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout_s"):
            IclConfig(timeout_s=timeout)


class TestIclPolicyEpisode:
    def test_full_episode_with_feedback(self, tmp_path):
        world = init_world(CFG, seed=1)
        policy = IclPolicy(CFG, IclConfig(backend="mock:max-aoi"))
        summary = run_episode(world, policy)
        assert summary.n_steps == 30
        assert len(policy.pool) == 30
        assert len(policy.exchanges) == 30
        path = tmp_path / "exchanges.log"
        policy.write_exchange_log(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 30
        for line in lines:
            entry = json.loads(line)
            assert entry["parse_result"] == "ok"

    def test_invalid_strategy_episode_never_crashes(self):
        world = init_world(CFG, seed=2)
        policy = IclPolicy(CFG, IclConfig(backend="mock:invalid"))
        run_episode(world, policy)
        # every step fell back: 3 failed attempts logged per step
        assert len(policy.exchanges) == 30 * 3
        assert all(e.parse_result == NO_OBJECT for e in policy.exchanges)
        for rec in world.log:
            assert 0.0 <= rec.action.velocity_mps <= CFG.v_max_mps

    @staticmethod
    def step_prompts(seed):
        """The user prompt of every backend call in one mock:max-aoi episode."""
        policy = IclPolicy(CFG, IclConfig(backend="mock:max-aoi"))
        captured = []
        inner = policy.backend

        class Spy:
            def complete(self, system, user):
                captured.append(user)
                return inner.complete(system, user)

        policy.backend = Spy()
        run_episode(init_world(CFG, seed=seed), policy)
        return captured

    def test_examples_appear_in_later_prompts(self):
        captured = self.step_prompts(seed=3)
        assert "example 1:" not in captured[0]
        assert "example 1:" in captured[-1]
        assert captured[-1].count("example ") == TOP_K_EXAMPLES

    def test_example_line_shows_mean_aoi_in_seconds(self):
        # avg_aoi_before is the mean AoI the observation showed, in the
        # same seconds as resulting_avg_aoi: 1.9 s at step 2, 2.7 s after it.
        assert ('example 3: avg_aoi_before=1.90 -> action '
                '{"sensor": 2, "velocity": 15.00} -> resulting_avg_aoi=2.700'
                in self.step_prompts(seed=0)[3].splitlines())


class _StubHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append({"path": self.path, "body": body,
                                "auth": self.headers.get("Authorization")})
        if self.behavior == "slow":
            time.sleep(1.0)
        if self.behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        if self.behavior == "malformed":
            payload = b'{"unexpected": true}'
        else:
            payload = json.dumps({"choices": [{"message": {
                "content": '{"sensor": 4, "velocity": 11.25}'}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # the timeout test disconnects mid-response on purpose


@pytest.fixture
def stub_server():
    _StubHandler.seen = []
    server = _QuietServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=5)


def http_backend(endpoint, timeout_s=10.0, session=None):
    return HttpBackend(endpoint, "test-model", timeout_s, session=session)


class TestHttpBackend:
    def test_success_extracts_content(self, stub_server):
        _StubHandler.behavior = "ok"
        raw = http_backend(stub_server).complete("sys", "usr")
        assert raw == '{"sensor": 4, "velocity": 11.25}'
        sent = _StubHandler.seen[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["messages"][0]["role"] == "system"
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["max_tokens"] == 64

    def test_bearer_header_from_env(self, stub_server, monkeypatch):
        _StubHandler.behavior = "ok"
        monkeypatch.setenv("FRSICL_API_KEY", "sk-test-123")
        http_backend(stub_server).complete("sys", "usr")
        assert _StubHandler.seen[0]["auth"] == "Bearer sk-test-123"

    def test_non_2xx_raises(self, stub_server):
        _StubHandler.behavior = "error"
        with pytest.raises(BackendError, match="status 500"):
            http_backend(stub_server).complete("sys", "usr")

    def test_malformed_body_raises(self, stub_server):
        _StubHandler.behavior = "malformed"
        with pytest.raises(BackendError, match="malformed"):
            http_backend(stub_server).complete("sys", "usr")

    def test_timeout_enforced(self, stub_server):
        _StubHandler.behavior = "slow"
        backend = http_backend(stub_server, timeout_s=0.2)
        started = time.perf_counter()
        with pytest.raises(BackendError, match="timeout|transport"):
            backend.complete("sys", "usr")
        assert time.perf_counter() - started < 0.8

    def test_unreachable_endpoint_raises(self):
        backend = http_backend("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(BackendError):
            backend.complete("sys", "usr")


class _FixedBodySession:
    """Stands in for requests.Session: every POST answers 200 with `body`."""

    def __init__(self, body):
        self.body = body

    def post(self, url, json, headers, timeout):
        body = self.body

        class Response:
            status_code = 200

            def json(self):
                return body

        return Response()


NON_STRING_CONTENT = {"null": None, "number": 7, "object": {"sensor": 1},
                      "list": [{"type": "text", "text": '{"sensor": 1, "velocity": 0}'}]}


class TestNonStringContent:
    """A completion whose message content is not a string is a backend
    error: retried, then the max-AoI fallback decides."""

    @pytest.mark.parametrize("kind", list(NON_STRING_CONTENT))
    def test_backend_error_then_fallback(self, kind):
        body = {"choices": [{"message": {"content": NON_STRING_CONTENT[kind]}}]}
        backend = http_backend("http://unused", session=_FixedBodySession(body))
        with pytest.raises(BackendError, match="malformed completion body"):
            backend.complete("sys", "usr")
        cfg = CFG.replace(n_steps=4)
        policy = IclPolicy(cfg, IclConfig(backend="http", endpoint="http://unused"),
                           backend=backend)
        world = init_world(cfg, seed=1)
        summary = run_episode(world, policy)
        assert summary.n_steps == 4
        assert len(policy.exchanges) == 4 * 3
        assert all(e.parse_result == "backend-error" for e in policy.exchanges)
