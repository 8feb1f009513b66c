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
then in the whole reply.  The remote client (:func:`llm_choice`) posts over
the ``requests.Session`` it is handed; :class:`LLMOracle` keeps one alive.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import string
import time
from dataclasses import dataclass

import numpy as np
import requests

from .data import ItemCatalog, ItemRecord, SyntheticGroundTruth

__all__ = [
    "PromptSpec",
    "OracleChoice",
    "RemoteEndpoint",
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
        for key, valid, needs in (("max_retries", self.max_retries >= 0, ">= 0"),
                                  ("timeout", self.timeout > 0, "> 0"),
                                  ("backoff", self.backoff >= 0, ">= 0")):
            if not valid:
                raise ValueError(f"[oracle] {key} must be {needs}, "
                                 f"got {getattr(self, key)!r}")


def llm_choice(prompt: str, endpoint: RemoteEndpoint, session: requests.Session) -> str:
    """POST one chat-completion request and return the first choice's text.

    The request goes over the ``session``'s kept-alive connection (opened
    on first use, reopened after a drop).  Transient failures (connection
    errors, timeouts, HTTP 429/5xx) are retried with exponential backoff up
    to ``endpoint.max_retries`` times; the three failure modes surface as
    distinct exceptions.  A 200 reply that is not JSON or lacks
    ``choices[0].message.content`` raises OracleError naming the URL.
    """
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": endpoint.temperature,
    }
    last_error: OracleError | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff * 2 ** (attempt - 1))
        try:
            resp = session.post(url, json=body, headers=headers, timeout=endpoint.timeout)
        except requests.Timeout:
            last_error = OracleTimeoutError(f"timed out after {endpoint.timeout}s: {url}")
            continue
        except requests.ConnectionError as exc:
            last_error = OracleNetworkError(f"connection failed: {exc}")
            continue
        if resp.status_code == 429 or resp.status_code >= 500:
            last_error = OracleHTTPError(resp.status_code, resp.text)
            continue
        if resp.status_code != 200:
            raise OracleHTTPError(resp.status_code, resp.text)
        try:
            data = resp.json()
        except ValueError:
            raise OracleError(f"judge reply from {url} is not JSON: {resp.text[:200]!r}") from None
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
        self.truth = truth
        self.threshold = threshold

    def choose(self, history: list[int], candidates: list[int]) -> OracleChoice:
        return synthetic_choice(history, candidates, self.truth, self.threshold)


class LLMOracle:
    """Judge backed by a remote endpoint (or a replay fixture for offline runs).

    Builds the prompt from catalog records, queries the endpoint, parses the
    label.  With ``replay`` set, responses come from the fixture and the
    network is never touched; with ``record_path`` set, live responses are
    appended to the fixture.  Live calls share one ``requests.Session``, so
    consecutive calls reuse one connection.
    """

    def __init__(self, endpoint: RemoteEndpoint, catalog: ItemCatalog,
                 prompt_spec: PromptSpec, replay: dict[str, str] | None = None,
                 record_path=None):
        self.endpoint = endpoint
        self.catalog = catalog
        self.prompt_spec = prompt_spec
        self.replay = replay
        self.record_path = record_path
        self.session = requests.Session() if replay is None else None

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
            text = llm_choice(prompt, self.endpoint, self.session)
            if self.record_path is not None:
                append_record(self.record_path, prompt, text)
        return parse_response(text, self.prompt_spec.k)

    def close(self) -> None:
        """Close the kept-alive connection (a later live call opens a new one)."""
        if self.session is not None:
            self.session.close()


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
