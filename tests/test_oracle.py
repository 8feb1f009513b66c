import json
import string
from pathlib import Path

import numpy as np
import pytest

from helpers import StubChatServer
from prefrl.data import SyntheticGroundTruth, generate_synthetic
from prefrl.oracle import (LLMOracle, OracleError, OracleHTTPError, OracleNetworkError,
                           OracleTimeoutError, PromptSpec, RemoteEndpoint, append_record,
                           build_prompt, distill, llm_choice, llm_choices, load_replay,
                           parse_response, synthetic_choice, SyntheticOracle)

CORPUS = json.loads((Path(__file__).parent / "fixtures" / "response_corpus.json").read_text())


@pytest.fixture
def world():
    return generate_synthetic(6, 20, 4, 3, seed=5)


def spec(k=10):
    return PromptSpec("music streaming", "track", "listening", ("title", "style"), k=k)


class TestBuildPrompt:
    def test_contains_template_preamble(self, world):
        catalog, _, _ = world
        prompt = build_prompt([catalog[0]], [catalog[i] for i in range(10)], spec())
        assert "Below is an instruction that describes a task" in prompt

    def test_candidate_labels_small_k(self, world):
        catalog, _, _ = world
        prompt = build_prompt([catalog[3]], [catalog[0], catalog[1]], spec(k=2))
        assert "\na. " in prompt and "\nb. " in prompt
        assert "\nc. None" in prompt

    def test_ten_candidates_labelled_a_to_j(self, world):
        catalog, _, _ = world
        prompt = build_prompt([catalog[0]], [catalog[i] for i in range(10)], spec(k=10))
        for letter in string.ascii_lowercase[:10]:
            assert f"\n{letter}. " in prompt
        assert "\nk. None" in prompt
        assert "\nl. " not in prompt

    def test_items_rendered_as_joined_attributes(self, world):
        catalog, _, _ = world
        prompt = build_prompt([catalog[0]], [catalog[i] for i in range(2)], spec(k=2))
        title = catalog[0].attribute("title")
        style = catalog[0].attribute("style")
        assert f"{title}; {style}" in prompt

    def test_candidate_count_checked(self, world):
        catalog, _, _ = world
        with pytest.raises(ValueError, match="candidates"):
            build_prompt([catalog[0]], [catalog[0]], spec(k=2))
        with pytest.raises(ValueError, match="history"):
            build_prompt([], [catalog[0], catalog[1]], spec(k=2))

    def test_prompt_spec_validation(self):
        with pytest.raises(ValueError):
            spec(k=1)
        with pytest.raises(ValueError):
            spec(k=26)


class TestParseResponse:
    def test_corpus(self):
        failures = []
        for case in CORPUS:
            got = parse_response(case["text"], case["k"]).label_index
            if got != case["expect"]:
                failures.append((case["text"], case["expect"], got))
        assert not failures, failures

    def test_corpus_has_fifty_cases(self):
        assert len(CORPUS) == 50

    @pytest.mark.parametrize("k", [2, 5, 10, 25])
    def test_roundtrip_every_label(self, k):
        for idx, letter in enumerate(string.ascii_lowercase[:k]):
            choice = parse_response(f"the user will select {letter}", k)
            assert choice.label_index == idx
        none_letter = string.ascii_lowercase[k]
        assert parse_response(f"the user will select {none_letter}", k).label_index is None

    def test_keeps_raw_response(self):
        assert parse_response("b", 10).raw_response == "b"


class TestSyntheticChoice:
    def test_single_candidate_above_threshold(self, world):
        _, _, truth = world
        choice = synthetic_choice([0], [0], truth, threshold=-1e9)
        assert choice.label_index == 0

    def test_infinite_threshold_always_none(self, world):
        _, _, truth = world
        for cands in ([1, 2, 3], [5], [7, 9]):
            assert synthetic_choice([0], cands, truth, float("inf")).label_index is None

    def test_matches_bruteforce_argmax(self, world):
        _, _, truth = world
        rng = np.random.default_rng(8)
        for _ in range(1000):
            history = list(rng.integers(0, 20, size=rng.integers(1, 5)))
            cands = list(rng.choice(20, size=10, replace=False))
            choice = synthetic_choice(history, cands, truth, threshold=-1e9)
            profile = truth.item_latents[history].mean(axis=0)
            scores = [profile @ truth.item_latents[c] for c in cands]
            assert choice.label_index == int(np.argmax(scores))

    def test_tie_breaks_to_first_candidate(self):
        truth = SyntheticGroundTruth(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]))
        choice = synthetic_choice([2], [0, 1], truth, threshold=-10)
        assert choice.label_index == 0


class TestDistill:
    def test_label_selects_candidate(self):
        class Fixed:
            def choose(self, history, candidates):
                from prefrl.oracle import OracleChoice
                return OracleChoice(1, "b")
        outcome = distill([0], [5, 9, 3], Fixed(), np.random.default_rng(0))
        assert outcome.action == 9
        assert outcome.reward == 1.0
        assert outcome.was_none is False

    def test_none_branch_seeded_and_uniform(self):
        class AlwaysNone:
            def choose(self, history, candidates):
                from prefrl.oracle import OracleChoice
                return OracleChoice(None, "None")
        cands = list(range(10, 20))
        a = [distill([0], cands, AlwaysNone(), np.random.default_rng(4)).action for _ in range(5)]
        b = [distill([0], cands, AlwaysNone(), np.random.default_rng(4)).action for _ in range(5)]
        assert a == b  # fresh seed each call: deterministic
        rng = np.random.default_rng(9)
        counts = np.zeros(10)
        for _ in range(2000):
            out = distill([0], cands, AlwaysNone(), rng)
            assert out.reward == 0.0 and out.was_none
            counts[out.action - 10] += 1
        assert counts.min() > 140 and counts.max() < 260

    def test_reward_always_binary(self, world):
        _, _, truth = world
        oracle = SyntheticOracle(truth, threshold=0.2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            cands = list(rng.choice(20, size=5, replace=False))
            out = distill([int(rng.integers(20))], cands, oracle, rng)
            assert out.reward in (0.0, 1.0)
            assert out.action in cands
            assert (out.reward == 1.0) == (not out.was_none)


def endpoint(url, **kw):
    kw.setdefault("timeout", 5.0)
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff", 0.01)
    return RemoteEndpoint(url, "judge-1", **kw)


class TestLLMClient:
    def test_echo(self):
        with StubChatServer(lambda prompt, n: (200, "the user will select a")) as stub:
            text = llm_choice("hello", endpoint(stub.base_url))
        assert text == "the user will select a"
        assert stub.requests[0]["body"]["model"] == "judge-1"
        assert stub.requests[0]["body"]["temperature"] == 0.0

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("ORACLE_API_KEY", "sekrit")
        with StubChatServer(lambda prompt, n: (200, "ok")) as stub:
            llm_choice("x", endpoint(stub.base_url))
        assert stub.requests[0]["auth"] == "Bearer sekrit"

    def test_retries_then_exhausts_on_500(self):
        with StubChatServer(lambda prompt, n: (500, "boom")) as stub:
            with pytest.raises(OracleHTTPError, match="500"):
                llm_choice("x", endpoint(stub.base_url, max_retries=2))
            assert len(stub.requests) == 3  # initial try + 2 retries

    def test_recovers_after_transient_500(self):
        behavior = lambda prompt, n: (500, "boom") if n == 1 else (200, "fine")
        with StubChatServer(behavior) as stub:
            assert llm_choice("x", endpoint(stub.base_url)) == "fine"

    def test_client_error_is_not_retried(self):
        with StubChatServer(lambda prompt, n: (404, "missing")) as stub:
            with pytest.raises(OracleHTTPError, match="404"):
                llm_choice("x", endpoint(stub.base_url))
            assert len(stub.requests) == 1

    @pytest.mark.parametrize("body, what", [(b"<html>busy</html>", "not JSON"),
                                            (b'{"error": "quota"}', "choices")])
    def test_malformed_reply_is_a_named_oracle_error(self, body, what):
        with StubChatServer(lambda prompt, n: (200, body)) as stub:
            with pytest.raises(OracleError, match=what) as info:
                llm_choice("x", endpoint(stub.base_url))
        assert stub.base_url in str(info.value)

    def test_connection_failure(self):
        with pytest.raises(OracleNetworkError):
            llm_choice("x", endpoint("http://127.0.0.1:9", max_retries=1))

    def test_timeout(self):
        import time

        def slow(prompt, n):
            time.sleep(0.5)
            return 200, "late"
        with StubChatServer(slow) as stub:
            with pytest.raises(OracleTimeoutError):
                llm_choice("x", endpoint(stub.base_url, timeout=0.05, max_retries=1))

    def test_concurrent_choices_preserve_order(self):
        with StubChatServer(lambda prompt, n: (200, f"echo:{prompt}")) as stub:
            prompts = [f"p{i}" for i in range(12)]
            out = llm_choices(prompts, endpoint(stub.base_url), max_in_flight=4)
        assert out == [f"echo:{p}" for p in prompts]


class TestRecordReplay:
    def test_session_replays_byte_identically(self, tmp_path, world):
        catalog, _, truth = world
        pspec = spec(k=3)
        fixture = tmp_path / "session.jsonl"
        answers = {}

        def behavior(prompt, n):
            letter = string.ascii_lowercase[n % 3]
            return 200, f"the user will select {letter}"

        rng = np.random.default_rng(0)
        histories = [[int(rng.integers(20))] for _ in range(20)]
        cands = [list(rng.choice(20, size=3, replace=False)) for _ in range(20)]
        with StubChatServer(behavior) as stub:
            live = LLMOracle(endpoint(stub.base_url), catalog, pspec,
                             record_path=fixture)
            live_choices = [live.choose(h, c) for h, c in zip(histories, cands)]

        replay = LLMOracle(endpoint("http://unreachable.invalid"), catalog, pspec,
                           replay=load_replay(fixture))
        replay_choices = [replay.choose(h, c) for h, c in zip(histories, cands)]
        assert [c.raw_response for c in replay_choices] == \
               [c.raw_response for c in live_choices]
        assert [c.label_index for c in replay_choices] == \
               [c.label_index for c in live_choices]

    def test_replay_miss_is_an_error(self, tmp_path, world):
        catalog, _, _ = world
        oracle = LLMOracle(endpoint("http://unreachable.invalid"), catalog, spec(k=2),
                           replay={})
        from prefrl.oracle import OracleError
        with pytest.raises(OracleError, match="replay"):
            oracle.choose([0], [1, 2])

    def test_append_and_load(self, tmp_path):
        p = tmp_path / "rec.jsonl"
        append_record(p, "prompt one", "resp one")
        append_record(p, "prompt two", "resp two")
        cache = load_replay(p)
        assert len(cache) == 2
