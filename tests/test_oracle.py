import base64
import json
import math
import random
import re
import ssl
import string
from contextlib import closing
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

from helpers import StubChatServer, reference_parse
from prefrl.data import SyntheticGroundTruth, generate_synthetic
from prefrl.oracle import (JudgeConnection, LLMOracle, OracleError, OracleHTTPError,
                           OracleNetworkError, OracleTimeoutError, PromptSpec, RemoteEndpoint,
                           append_record, build_prompt, distill, llm_choice, load_replay,
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

    def test_fuzz_never_raises_and_stays_in_range(self):
        pieces = (list(string.ascii_letters + string.punctuation + " \n")
                  + ["None", "the user will select"])
        rng = np.random.default_rng(0)
        for _ in range(3000):
            k = int(rng.integers(2, 26))
            text = "".join(pieces[i] for i in rng.integers(len(pieces), size=rng.integers(0, 30)))
            label = parse_response(text, k).label_index
            assert label is None or 0 <= label < k, (text, k, label)

    def test_matches_the_reference_scanner(self):
        pieces = (list(string.ascii_letters + string.digits + string.punctuation + "_'\"")
                  + [" "] * 24 + ["\n"] * 4 + ["\u0130", "\u0131", "\u017f", "\u212a"]
                  + ["none", "None", "NONE", "the user will select", "The user will select",
                     "I'd", "user's", "'b'"])
        rng = random.Random(0)
        replies = ["".join(rng.choices(pieces, k=rng.randrange(0, 24))) for _ in range(20_000)]
        for k in range(2, 26):
            misses = [(text, reference_parse(text, k), parse_response(text, k).label_index)
                      for text in replies
                      if parse_response(text, k).label_index != reference_parse(text, k)]
            assert not misses, (k, misses[:5])


class TestSyntheticChoice:
    def test_single_candidate_above_threshold(self, world):
        _, _, truth = world
        choice = synthetic_choice([0], [0], truth, threshold=-1e9)
        assert choice.label_index == 0

    def test_infinite_threshold_always_none(self, world):
        _, _, truth = world
        for cands in ([1, 2, 3], [5], [7, 9]):
            assert synthetic_choice([0], cands, truth, float("inf")).label_index is None

    def test_a_nan_threshold_is_refused_by_the_judge(self, world):
        # no score clears nan, so the judge would abstain from every call
        _, _, truth = world
        with pytest.raises(ValueError, match=r"^\[oracle\] threshold must be a number, got nan$"):
            SyntheticOracle(truth, float("nan"))
        assert SyntheticOracle(truth, float("inf")).threshold == float("inf")

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
        assert distill([0], [5, 9, 3], Fixed(), np.random.default_rng(0)) == (9, 1.0)

    def test_none_branch_seeded_and_uniform(self):
        class AlwaysNone:
            def choose(self, history, candidates):
                from prefrl.oracle import OracleChoice
                return OracleChoice(None, "None")
        cands = list(range(10, 20))
        a = [distill([0], cands, AlwaysNone(), np.random.default_rng(4))[0] for _ in range(5)]
        b = [distill([0], cands, AlwaysNone(), np.random.default_rng(4))[0] for _ in range(5)]
        assert a == b  # fresh seed each call: deterministic
        rng = np.random.default_rng(9)
        counts = np.zeros(10)
        for _ in range(2000):
            action, reward = distill([0], cands, AlwaysNone(), rng)
            assert reward == 0.0
            counts[action - 10] += 1
        assert counts.min() > 140 and counts.max() < 260

    def test_reward_always_binary(self, world):
        _, _, truth = world
        oracle = SyntheticOracle(truth, threshold=0.2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            cands = list(rng.choice(20, size=5, replace=False))
            history = [int(rng.integers(20))]
            action, reward = distill(history, cands, oracle, rng)
            label = oracle.choose(history, cands).label_index
            assert reward == (0.0 if label is None else 1.0)
            assert action in cands if label is None else action == cands[label]


@pytest.fixture
def connection():
    with closing(JudgeConnection()) as conn:
        yield conn


def endpoint(url, **kw):
    kw.setdefault("timeout", 5.0)
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff", 0.01)
    return RemoteEndpoint(url, "judge-1", **kw)


# Each check below runs under one name in TestLLMClient (a fresh connection per
# request) and one in TestKeepAlive (one connection kept alive).

def check_exhausts_retries_on_500(keep_alive):
    with StubChatServer(lambda prompt, n: (500, "boom"), keep_alive=keep_alive) as stub, \
            closing(JudgeConnection()) as connection:
        with pytest.raises(OracleHTTPError, match="500"):
            llm_choice("x", endpoint(stub.base_url, max_retries=2), connection)
        assert len(stub.requests) == 3  # initial try + 2 retries


def check_timeout(keep_alive):
    import time

    def slow(prompt, n):
        time.sleep(0.5)
        return 200, "late"
    with StubChatServer(slow, keep_alive=keep_alive) as stub, \
            closing(JudgeConnection()) as connection:
        with pytest.raises(OracleTimeoutError):
            llm_choice("x", endpoint(stub.base_url, timeout=0.05, max_retries=1), connection)


def check_connection_failure():
    # no server answers, so there is no connection to keep alive
    with closing(JudgeConnection()) as connection, pytest.raises(OracleNetworkError):
        llm_choice("x", endpoint("http://127.0.0.1:9", max_retries=1), connection)


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, -0.5])
def test_a_temperature_that_is_not_finite_or_is_negative_is_refused(temperature):
    with pytest.raises(ValueError, match=r"^\[oracle\] temperature must be finite and >= 0, "
                                         rf"got {temperature!r}$"):
        endpoint("http://127.0.0.1:9", temperature=temperature)


class TestLLMClient:
    def test_echo(self, connection):
        with StubChatServer(lambda prompt, n: (200, "the user will select a")) as stub:
            text = llm_choice("hello", endpoint(stub.base_url), connection)
        assert text == "the user will select a"
        assert stub.requests[0]["body"]["model"] == "judge-1"
        assert stub.requests[0]["body"]["temperature"] == 0.0

    def test_api_key_header(self, monkeypatch, connection):
        monkeypatch.setenv("ORACLE_API_KEY", "sekrit")
        with StubChatServer(lambda prompt, n: (200, "ok")) as stub:
            llm_choice("x", endpoint(stub.base_url), connection)
        assert stub.requests[0]["auth"] == "Bearer sekrit"

    def test_the_request_on_the_wire(self, monkeypatch, connection):
        # one POST per call to {base_url}/chat/completions, the body the bytes
        # of json.dumps(..., allow_nan=False), the key read at each call
        prompt = 'caf\u00e9 "quoted"\nline \u2713'
        body = json.dumps({"model": "judge-1",
                           "messages": [{"role": "user", "content": prompt}],
                           "temperature": 0.7}, allow_nan=False).encode()
        with StubChatServer(lambda prompt, n: (200, "ok")) as stub:
            ep = endpoint(stub.base_url + "/v1/", temperature=0.7)
            monkeypatch.setenv("ORACLE_API_KEY", "sekrit")
            llm_choice(prompt, ep, connection)
            monkeypatch.delenv("ORACLE_API_KEY")
            llm_choice(prompt, ep, connection)
        for sent, auth in zip(stub.requests, ("Bearer sekrit", None)):
            assert sent["line"] == "POST /v1/chat/completions HTTP/1.1"
            assert sent["content_type"] == "application/json"
            assert sent["content_length"] == str(len(body))
            assert sent["auth"] == auth
            assert sent["raw"] == body
        assert len(stub.requests) == 2

    def test_retries_then_exhausts_on_500(self):
        check_exhausts_retries_on_500(keep_alive=False)

    def test_recovers_after_transient_500(self, connection):
        behavior = lambda prompt, n: (500, "boom") if n == 1 else (200, "fine")
        with StubChatServer(behavior) as stub:
            assert llm_choice("x", endpoint(stub.base_url), connection) == "fine"

    def test_client_error_is_not_retried(self, connection):
        with StubChatServer(lambda prompt, n: (404, "missing")) as stub:
            with pytest.raises(OracleHTTPError, match="404"):
                llm_choice("x", endpoint(stub.base_url), connection)
            assert len(stub.requests) == 1

    @pytest.mark.parametrize("body, what", [(b"<html>busy</html>", "not JSON"),
                                            (b'{"error": "quota"}', "choices")])
    def test_malformed_reply_is_a_named_oracle_error(self, body, what, connection):
        with StubChatServer(lambda prompt, n: (200, body)) as stub:
            with pytest.raises(OracleError, match=what) as info:
                llm_choice("x", endpoint(stub.base_url), connection)
        assert stub.base_url in str(info.value)

    def test_connection_failure(self):
        check_connection_failure()

    def test_timeout(self):
        check_timeout(keep_alive=False)


class TestKeepAlive:
    """Calls over one JudgeConnection, as LLMOracle makes them, reuse one
    connection and keep every retry path of a fresh connection."""

    def test_oracle_calls_share_one_connection(self, world):
        catalog, _, _ = world
        with StubChatServer(lambda prompt, n: (200, "the user will select a"),
                            keep_alive=True) as stub:
            oracle = LLMOracle(endpoint(stub.base_url), catalog, spec(k=2))
            labels = [oracle.choose([h], [1, 2]).label_index for h in range(8)]
            oracle.close()
            labels.append(oracle.choose([0], [1, 2]).label_index)
            oracle.close()
        assert labels == [0] * 9
        assert len(stub.requests) == 9
        peers = [r["peer"] for r in stub.requests]
        assert len(set(peers[:8])) == 1 and peers[8] != peers[0]

    def test_retries_a_503_on_the_same_connection(self):
        behavior = lambda prompt, n: (503, "busy") if n == 2 else (200, f"ok{n}")
        with StubChatServer(behavior, keep_alive=True) as stub, \
                closing(JudgeConnection()) as connection:
            out = [llm_choice("x", endpoint(stub.base_url), connection) for _ in range(3)]
        assert out == ["ok1", "ok3", "ok4"]
        assert len({r["peer"] for r in stub.requests}) == 1

    def test_exhausts_retries_on_500(self):
        check_exhausts_retries_on_500(keep_alive=True)

    def test_recovers_after_a_timeout(self):
        import time

        def first_slow(prompt, n):
            if n == 1:
                time.sleep(0.5)
            return 200, f"reply{n}"
        with StubChatServer(first_slow, keep_alive=True) as stub, \
                closing(JudgeConnection()) as connection:
            ep = endpoint(stub.base_url, timeout=0.2, max_retries=1)
            assert llm_choice("x", ep, connection) == "reply2"
            assert llm_choice("x", ep, connection) == "reply3"

    def test_timeout(self):
        check_timeout(keep_alive=True)

    def test_reconnects_after_the_server_drops_the_connection(self):
        # the drop is seen before the next request, so reopening the
        # connection spends no retry: it works at max_retries=0 too
        for retries in (2, 0):
            with StubChatServer(lambda prompt, n: (200, f"reply{n}"), keep_alive=True,
                                drop_after=(1,)) as stub, \
                    closing(JudgeConnection()) as connection:
                ep = endpoint(stub.base_url, max_retries=retries)
                out = [llm_choice("x", ep, connection)]
                assert stub.dropped.wait(5)
                out += [llm_choice("x", ep, connection) for _ in range(2)]
            assert out == ["reply1", "reply2", "reply3"]
            assert len(stub.requests) == 3
            assert len({r["peer"] for r in stub.requests}) == 2

    def test_connection_failure(self):
        check_connection_failure()


PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def proxy_env(monkeypatch):
    """Clear every proxy variable, in both cases; returns a setter."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return lambda **values: [monkeypatch.setenv(k, v) for k, v in values.items()]


class TestProxyAndTLS:
    """The proxy variables are honoured and https is verified, all without
    leaving the loopback interface."""

    def test_an_http_endpoint_goes_through_the_proxy_with_an_absolute_url(
            self, proxy_env, connection):
        with StubChatServer(lambda prompt, n: (200, f"the user will select a{n}"),
                            keep_alive=True) as proxy:
            proxy_env(http_proxy=proxy.base_url.replace("http://", "http://ann:p%40ss@"))
            ep = endpoint("http://judge.invalid/v1")
            out = [llm_choice("x", ep, connection) for _ in range(2)]
        assert out == ["the user will select a1", "the user will select a2"]
        creds = "Basic " + base64.b64encode(b"ann:p@ss").decode()
        for sent in proxy.requests:
            assert sent["line"] == "POST http://judge.invalid/v1/chat/completions HTTP/1.1"
            assert sent["proxy_auth"] == creds
        assert len({sent["peer"] for sent in proxy.requests}) == 1

    def test_no_proxy_sends_loopback_calls_direct(self, proxy_env, connection):
        # perfbench's own setting: a proxy that does not answer, bypassed
        proxy_env(http_proxy="http://127.0.0.1:9", no_proxy="127.0.0.1,localhost")
        with StubChatServer(lambda prompt, n: (200, "ok")) as stub:
            assert llm_choice("x", endpoint(stub.base_url, max_retries=0), connection) == "ok"
        assert stub.requests[0]["line"] == "POST /chat/completions HTTP/1.1"
        assert stub.requests[0]["proxy_auth"] is None

    def test_an_https_endpoint_goes_through_a_connect_tunnel(self, proxy_env, connection):
        with StubChatServer(lambda prompt, n: (200, "unused")) as proxy:
            proxy_env(https_proxy=proxy.base_url.replace("http://", "http://ann:pw@"))
            with pytest.raises(OracleNetworkError, match="Tunnel connection failed: 502"):
                llm_choice("x", endpoint("https://judge.invalid/v1", max_retries=0), connection)
        [sent] = proxy.requests
        assert re.fullmatch(r"CONNECT judge\.invalid:443 HTTP/1\.[01]", sent["line"])
        assert sent["proxy_auth"] == "Basic " + base64.b64encode(b"ann:pw").decode()

    def test_https_verifies_against_the_default_ca_store(self, proxy_env):
        conn = JudgeConnection()._open(urlsplit("https://judge.invalid/v1/chat/completions"), 5.0)
        context = conn._context
        assert conn.sock is None  # built, not connected
        assert (conn.host, conn.port, conn.timeout) == ("judge.invalid", 443, 5.0)
        assert context.check_hostname and context.verify_mode == ssl.CERT_REQUIRED

    def test_an_endpoint_that_is_not_http_is_named(self, connection):
        with pytest.raises(OracleError, match="http:// or https://: ftp://judge/v1"):
            llm_choice("x", endpoint("ftp://judge/v1"), connection)


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

    def test_bad_replay_line_is_named(self, tmp_path):
        p = tmp_path / "rec.jsonl"
        append_record(p, "prompt one", "resp one")
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(OracleError, match=re.escape(f"{p}:2: replay line is not JSON")):
            load_replay(p)

    def test_replay_line_without_response_text_is_named(self, tmp_path):
        p = tmp_path / "rec.jsonl"
        p.write_text(json.dumps({"prompt_hash": "abc"}) + "\n", encoding="utf-8")
        with pytest.raises(OracleError, match=re.escape(f"{p}:1: ") + ".*response_text"):
            load_replay(p)
