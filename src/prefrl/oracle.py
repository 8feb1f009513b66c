"""Preference judge: prompt construction, answer parsing, a remote
chat-completion client with retry and record/replay, and a deterministic
synthetic judge backed by ground-truth latents.

A judge call takes the user's interacted-item history and k labelled
candidates and returns either one candidate (reward 1.0) or "None"
(reward 0.0, with the acted item drawn uniformly from the candidates).

A reply is read with one pattern per k (:func:`parse_response`): the first
standalone "none" (any case) or standalone label letter ``a`` to
``LABELS[k]``, the None label, that is not a contraction tail ("I'd",
"user's"; a quoted 'b' counts), searched after "the user will select" and
then in the whole reply.

The remote client (:func:`llm_choice`) posts over the
:class:`JudgeConnection` it is handed, one kept-alive ``http.client``
connection; :class:`LLMOracle` keeps one per oracle.  A server that closed
the idle connection is seen before the next request (a zero-timeout poll)
and the connection reopens without spending a retry; after a timeout or a
connection error it is discarded, so a late reply is never read as the next
answer.  The ``*_proxy`` and ``no_proxy`` environment variables are read
through :func:`urllib.request.getproxies` and
:func:`urllib.request.proxy_bypass` when a connection opens: an ``http://``
endpoint is reached through an HTTP proxy with absolute-URL request targets,
an ``https://`` one through a CONNECT tunnel, and credentials in the proxy
URL are sent as ``Proxy-Authorization``.  ``https://`` endpoints are
verified against the system CA store (``ssl.create_default_context``, which
honours ``SSL_CERT_FILE`` and ``SSL_CERT_DIR``).
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import re
import select
import string
import time
from dataclasses import dataclass
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

import numpy as np

from .data import ItemCatalog, ItemRecord, SyntheticGroundTruth

__all__ = [
    "PromptSpec",
    "OracleChoice",
    "RemoteEndpoint",
    "JudgeConnection",
    "OracleError",
    "OracleNetworkError",
    "OracleTimeoutError",
    "OracleHTTPError",
    "build_prompt",
    "parse_response",
    "llm_choice",
    "synthetic_choice",
    "distill",
    "SyntheticOracle",
    "LLMOracle",
]

log = logging.getLogger(__name__)

API_KEY_ENV = "ORACLE_API_KEY"
LABELS = string.ascii_lowercase

_PREAMBLE = ("Below is an instruction that describes a task, paired with an input "
             "that provides further context. Write a response that appropriately "
             "completes the request.")
_RESPONSE_STEM = "By analysing the user's preference, the user will select"
_SELECT_PHRASE = re.compile(r"the user will select", re.IGNORECASE)
# Per k, the earlier of a standalone "none" in any case and a standalone
# label letter up to the None label, not a contraction tail ("I'd", "user's";
# a quoted 'b' still matches).  The case flag also covers the "none" token's
# lookarounds, where [A-Za-z] then matches four non-ASCII letters too.
_ANSWERS = {k: re.compile(r"(?i:(?<![A-Za-z])none(?![A-Za-z]))"
                          rf"|(?<![A-Za-z])(?<![A-Za-z]')([a-{LABELS[k]}])(?![A-Za-z])")
            for k in range(2, 26)}


@dataclass(frozen=True)
class PromptSpec:
    """Template knobs: scenario wording, item noun, behavior verb, the
    attribute schema, and the candidate count k."""
    scenario: str
    item_noun: str
    behavior: str
    attribute_names: tuple[str, ...]
    k: int = 10

    def __post_init__(self):
        if not 2 <= self.k <= 25:
            raise ValueError("k must lie in [2, 25] (labels a-y, one letter reserved for None)")
        if not self.attribute_names:
            raise ValueError("at least one attribute name is required")


@dataclass(frozen=True)
class OracleChoice:
    """Parsed judge answer: a candidate index, or None for the 'None' branch."""
    label_index: int | None
    raw_response: str


def _render_item(item: ItemRecord, attribute_names) -> str:
    return "; ".join(item.attribute(name) for name in attribute_names)


def build_prompt(history: list[ItemRecord], candidates: list[ItemRecord],
                 spec: PromptSpec) -> str:
    """Render the three-section judge prompt (instruction, input, response stem).

    Candidates are labelled ``a.``, ``b.``, ... with the letter after the
    last candidate assigned to "None".
    """
    if not history:
        raise ValueError("history must be nonempty")
    if len(candidates) != spec.k:
        raise ValueError(f"expected {spec.k} candidates, got {len(candidates)}")
    attr_fmt = "; ".join(spec.attribute_names)
    lines = [
        _PREAMBLE,
        "",
        "Instruction:",
        (f"You are a user in a {spec.scenario} platform now. "
         f"The {spec.item_noun} is in the form of {attr_fmt}. "
         f"Given a user's {spec.behavior} history of {spec.item_noun}, "
         f"and candidate {spec.item_noun} labelled by lowercase letter to be decided "
         f"to recommend to the user, identify which {spec.item_noun} the user will "
         f"mostly prefer to at next timestamp. "
         f"Please judge by the user's preference on {attr_fmt}; "
         f'if you think that none of the candidates will be selected by the user, '
         f'please answer "None"'),
        "",
        "Input:",
        "History: " + " | ".join(_render_item(it, spec.attribute_names) for it in history) + ".",
        "Which one the user will mostly like at next timestamp in the following candidates?",
    ]
    for i, item in enumerate(candidates):
        lines.append(f"{LABELS[i]}. {_render_item(item, spec.attribute_names)}")
    lines.append(f"{LABELS[spec.k]}. None")
    lines += ["", "Response:", _RESPONSE_STEM]
    return "\n".join(lines)


def parse_response(text: str, k: int) -> OracleChoice:
    """Extract the judge's answer from free text.

    Searches for the first standalone lowercase label letter (candidate
    letters plus the None letter) or the token "None", in the region after
    "the user will select" when that phrase is present and then in the
    whole text.  Unparseable text maps to the None branch.
    """
    m = _SELECT_PHRASE.search(text)
    for region in ([text[m.end():], text] if m else [text]):
        answer = _ANSWERS[k].search(region)
        if answer:
            letter = answer.group(1)
            index = k if letter is None else LABELS.index(letter)
            return OracleChoice(index if index < k else None, text)
    log.debug("unparseable judge response: %r", text)
    return OracleChoice(None, text)


class OracleError(Exception):
    """Base class for remote-judge failures."""


class OracleNetworkError(OracleError):
    """Connection-level failure that survived all retries."""


class OracleTimeoutError(OracleError):
    """Request exceeded the configured timeout after all retries."""


class OracleHTTPError(OracleError):
    """Non-success HTTP status (retried only for 429/5xx)."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status


@dataclass(frozen=True)
class RemoteEndpoint:
    """Chat-completion endpoint settings; auth token read from the
    ORACLE_API_KEY environment variable at call time."""
    base_url: str
    model: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5

    def __post_init__(self):
        for key, valid, needs in (("temperature", math.isfinite(self.temperature)
                                   and self.temperature >= 0, "finite and >= 0"),
                                  ("max_retries", self.max_retries >= 0, ">= 0"),
                                  ("timeout", math.isfinite(self.timeout)
                                   and self.timeout > 0, "finite and > 0"),
                                  ("backoff", math.isfinite(self.backoff)
                                   and self.backoff >= 0, "finite and >= 0")):
            if not valid:
                raise ValueError(f"[oracle] {key} must be {needs}, "
                                 f"got {getattr(self, key)!r}")


def _idle_socket_closed(sock) -> bool:
    """True when an idle kept-alive socket reads as ready in a zero-timeout
    poll: between replies that is the server's close (or stray bytes), and
    either way the socket cannot carry the next request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class JudgeConnection:
    """One kept-alive HTTP connection to a judge endpoint (see the module
    docstring for the proxy and TLS rules), opened on the first request and
    reopened when the endpoint's origin changes or the server closed it."""

    def __init__(self):
        self._conn: http.client.HTTPConnection | None = None
        self._origin: tuple[str, str] | None = None
        self._absolute = False      # through a plain-HTTP proxy: absolute-URL targets
        self._proxy_headers: dict[str, str] = {}

    def _open(self, url: SplitResult, timeout: float) -> http.client.HTTPConnection:
        """Build the connection for ``url``'s origin, with its proxy resolved
        now; nothing is sent until the first request."""
        if url.scheme not in ("http", "https") or not url.hostname:
            raise OracleError(f"judge URL must be http:// or https://: {url.geturl()}")
        https = url.scheme == "https"
        proxies = getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and not proxy_bypass(url.netloc):
            proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy.scheme != "http" or not proxy.hostname:
                raise OracleError(f"judge proxy must be an http:// URL: {proxy.geturl()}")
            host, port = proxy.hostname, proxy.port or 80
        else:
            proxy = None
            host, port = url.hostname, url.port or (443 if https else 80)
        headers = {}
        if proxy and proxy.username is not None:
            creds = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
            headers["Proxy-Authorization"] = \
                "Basic " + base64.b64encode(creds.encode("latin-1")).decode("ascii")
        if https:
            import ssl
            conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                               context=ssl.create_default_context())
            if proxy:
                conn.set_tunnel(url.hostname, url.port or 443, headers)
                headers = {}
        else:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._origin = url[:2]
        self._absolute = bool(proxy) and not https
        self._proxy_headers = headers
        return conn

    def post(self, url: str, body: bytes, headers: dict[str, str],
             timeout: float) -> tuple[int, bytes]:
        """POST ``body`` to ``url`` and return the reply's status and body.
        Socket timeouts and connection errors propagate (``TimeoutError``,
        other ``OSError`` and ``http.client.HTTPException``), and the
        connection is closed first."""
        parts = urlsplit(url)
        conn = self._conn
        if conn is not None and (self._origin != parts[:2]
                                 or conn.sock is not None and _idle_socket_closed(conn.sock)):
            self.close()
            conn = None
        if conn is None:
            conn = self._conn = self._open(parts, timeout)
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        target = url if self._absolute else \
            (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        try:
            conn.request("POST", target, body, {**headers, **self._proxy_headers})
            reply = conn.getresponse()
            return reply.status, reply.read()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def llm_choice(prompt: str, endpoint: RemoteEndpoint, connection: JudgeConnection) -> str:
    """POST one chat-completion request and return the first choice's text.

    The request goes over ``connection`` (opened on first use, reopened
    after a drop).  Transient failures (connection errors, timeouts, HTTP
    429/5xx) are retried with exponential backoff up to
    ``endpoint.max_retries`` times; the three failure modes surface as
    distinct exceptions.  A 200 reply that is not JSON or lacks
    ``choices[0].message.content`` raises OracleError naming the URL.
    """
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = json.dumps({
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": endpoint.temperature,
    }, allow_nan=False).encode()
    last_error: OracleError | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff * 2 ** (attempt - 1))
        try:
            status, payload = connection.post(url, body, headers, endpoint.timeout)
        except TimeoutError:
            last_error = OracleTimeoutError(f"timed out after {endpoint.timeout}s: {url}")
            continue
        except (OSError, http.client.HTTPException) as exc:
            last_error = OracleNetworkError(f"connection failed: {exc}")
            continue
        text = payload.decode("utf-8", "replace")
        if status == 429 or status >= 500:
            last_error = OracleHTTPError(status, text)
            continue
        if status != 200:
            raise OracleHTTPError(status, text)
        try:
            data = json.loads(payload)
        except ValueError:
            raise OracleError(f"judge reply from {url} is not JSON: {text[:200]!r}") from None
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise OracleError(f"judge reply from {url} lacks choices[0].message.content")
        return content
    assert last_error is not None
    raise last_error


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def load_replay(path) -> dict[str, str]:
    """Load a record/replay fixture: JSON-lines of {prompt_hash, response_text}."""
    cache: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise OracleError(f"{path}:{lineno}: replay line is not JSON ({exc})") from None
            if not (isinstance(entry, dict) and isinstance(entry.get("prompt_hash"), str)
                    and isinstance(entry.get("response_text"), str)):
                raise OracleError(f"{path}:{lineno}: replay line needs string "
                                  "prompt_hash and response_text")
            cache[entry["prompt_hash"]] = entry["response_text"]
    return cache


def append_record(path, prompt: str, response_text: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"prompt_hash": prompt_hash(prompt),
                             "response_text": response_text}) + "\n")


def synthetic_choice(history: list[int], candidates: list[int],
                     truth: SyntheticGroundTruth, threshold: float) -> OracleChoice:
    """Deterministic judge: score each candidate by the dot product between
    the mean history latent and the candidate latent; answer the argmax when
    it clears ``threshold``, else None.  Ties go to the earliest candidate."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    profile = truth.item_latents[np.asarray(history, dtype=np.int64)].mean(axis=0)
    scores = truth.item_latents[np.asarray(candidates, dtype=np.int64)] @ profile
    best = int(np.argmax(scores))
    if scores[best] >= threshold:
        return OracleChoice(best, f"synthetic: score={scores[best]:.4f}")
    return OracleChoice(None, f"synthetic: best score {scores[best]:.4f} below threshold")


class SyntheticOracle:
    """Judge over ground-truth latents; pure and freely concurrent."""

    def __init__(self, truth: SyntheticGroundTruth, threshold: float = 0.5):
        if math.isnan(threshold):  # no score would clear it, so every call would abstain
            raise ValueError(f"[oracle] threshold must be a number, got {threshold!r}")
        self.truth = truth
        self.threshold = threshold

    def choose(self, history: list[int], candidates: list[int]) -> OracleChoice:
        return synthetic_choice(history, candidates, self.truth, self.threshold)

    def close(self) -> None:
        """Nothing to release: the synthetic judge holds no connection."""


class LLMOracle:
    """Judge backed by a remote endpoint (or a replay fixture for offline runs).

    Builds the prompt from catalog records, queries the endpoint, parses the
    label.  With ``replay`` set, responses come from the fixture and the
    network is never touched; with ``record_path`` set, live responses are
    appended to the fixture.  Live calls share one :class:`JudgeConnection`,
    so consecutive calls reuse one connection.
    """

    def __init__(self, endpoint: RemoteEndpoint, catalog: ItemCatalog,
                 prompt_spec: PromptSpec, replay: dict[str, str] | None = None,
                 record_path=None):
        self.endpoint = endpoint
        self.catalog = catalog
        self.prompt_spec = prompt_spec
        self.replay = replay
        self.record_path = record_path
        self.connection = JudgeConnection() if replay is None else None

    def choose(self, history: list[int], candidates: list[int]) -> OracleChoice:
        prompt = build_prompt(
            [self.catalog[i] for i in history],
            [self.catalog[i] for i in candidates],
            self.prompt_spec,
        )
        if self.replay is not None:
            key = prompt_hash(prompt)
            if key not in self.replay:
                raise OracleError(f"prompt hash {key[:12]}... missing from replay fixture")
            text = self.replay[key]
        else:
            text = llm_choice(prompt, self.endpoint, self.connection)
            if self.record_path is not None:
                append_record(self.record_path, prompt, text)
        return parse_response(text, self.prompt_spec.k)

    def close(self) -> None:
        """Close the kept-alive connection (a later live call opens a new one)."""
        if self.connection is not None:
            self.connection.close()


def distill(history: list[int], candidate_ids: list[int], oracle,
            rng: np.random.Generator) -> tuple[int, float]:
    """Run one judge call and convert it to ``(action, reward)``.

    A labelled answer selects that candidate with reward 1.0; a None answer
    yields reward 0.0 with the action drawn uniformly (seeded) from the
    candidates.
    """
    choice = oracle.choose(list(history), list(candidate_ids))
    if choice.label_index is not None:
        if not 0 <= choice.label_index < len(candidate_ids):
            raise ValueError(f"label index {choice.label_index} out of range for k={len(candidate_ids)}")
        return int(candidate_ids[choice.label_index]), 1.0
    return int(candidate_ids[rng.integers(len(candidate_ids))]), 0.0
