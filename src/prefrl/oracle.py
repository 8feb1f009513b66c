"""Preference judge: prompt construction, answer parsing, a remote
chat-completion client with retry and record/replay, and a deterministic
synthetic judge backed by ground-truth latents.

A judge call takes the user's interacted-item history and k labelled
candidates and returns either one candidate (reward 1.0) or "None"
(reward 0.0, with the acted item drawn uniformly from the candidates).
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import string
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import requests

from .data import ItemCatalog, ItemRecord, SyntheticGroundTruth

__all__ = [
    "PromptSpec",
    "OracleChoice",
    "OracleOutcome",
    "RemoteEndpoint",
    "OracleError",
    "OracleNetworkError",
    "OracleTimeoutError",
    "OracleHTTPError",
    "build_prompt",
    "parse_response",
    "llm_choice",
    "llm_choices",
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
# A standalone lowercase letter: not part of a word and not a contraction
# tail ("I'd", "user's"); a quoted label like 'b' still matches.
_LABEL_TOKEN = re.compile(r"(?<![A-Za-z])(?<![A-Za-z]')([a-z])(?![A-Za-z])")
_NONE_TOKEN = re.compile(r"(?<![A-Za-z])none(?![A-Za-z])", re.IGNORECASE)


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


@dataclass(frozen=True)
class OracleOutcome:
    action: int
    reward: float
    was_none: bool


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


def _scan(text: str, k: int) -> int | None | str:
    """First label letter in range or None-token in ``text``; 'miss' if neither."""
    pos = len(text) + 1
    found: int | None | str = "miss"
    m = _NONE_TOKEN.search(text)
    if m:
        pos, found = m.start(), None
    for m in _LABEL_TOKEN.finditer(text):
        idx = ord(m.group(1)) - ord("a")
        if idx > k:
            continue
        if m.start() < pos:
            pos = m.start()
            found = None if idx == k else idx
        break
    return found


def parse_response(text: str, k: int) -> OracleChoice:
    """Extract the judge's answer from free text.

    Scans for the first standalone lowercase label letter (candidate letters
    plus the None letter) or the token "None", preferring the region after
    "the user will select" when that phrase is present.  Unparseable text
    maps to the None branch.
    """
    m = _SELECT_PHRASE.search(text)
    regions = [text[m.end():], text] if m else [text]
    for region in regions:
        found = _scan(region, k)
        if found != "miss":
            return OracleChoice(found, text)
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


def llm_choice(prompt: str, endpoint: RemoteEndpoint) -> str:
    """POST one chat-completion request and return the first choice's text.

    Transient failures (connection errors, timeouts, HTTP 429/5xx) are
    retried with exponential backoff up to ``endpoint.max_retries`` times;
    the three failure modes surface as distinct exceptions.  A 200 reply
    that is not JSON or lacks ``choices[0].message.content`` raises
    OracleError naming the URL.
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
            resp = requests.post(url, json=body, headers=headers, timeout=endpoint.timeout)
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


def llm_choices(prompts: list[str], endpoint: RemoteEndpoint,
                max_in_flight: int = 4) -> list[str]:
    """Issue up to ``max_in_flight`` concurrent requests; results come back
    in prompt order regardless of completion order."""
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(lambda p: llm_choice(p, endpoint), prompts))


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def load_replay(path) -> dict[str, str]:
    """Load a record/replay fixture: JSON-lines of {prompt_hash, response_text}."""
    cache: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
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
    appended to the fixture.
    """

    def __init__(self, endpoint: RemoteEndpoint, catalog: ItemCatalog,
                 prompt_spec: PromptSpec, replay: dict[str, str] | None = None,
                 record_path=None):
        self.endpoint = endpoint
        self.catalog = catalog
        self.prompt_spec = prompt_spec
        self.replay = replay
        self.record_path = record_path

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
            text = llm_choice(prompt, self.endpoint)
            if self.record_path is not None:
                append_record(self.record_path, prompt, text)
        return parse_response(text, self.prompt_spec.k)


def distill(history: list[int], candidate_ids: list[int], oracle,
            rng: np.random.Generator) -> OracleOutcome:
    """Run one judge call and convert it to (action, reward).

    A labelled answer selects that candidate with reward 1.0; a None answer
    yields reward 0.0 with the action drawn uniformly (seeded) from the
    candidates.
    """
    choice = oracle.choose(list(history), list(candidate_ids))
    if choice.label_index is not None:
        if not 0 <= choice.label_index < len(candidate_ids):
            raise ValueError(f"label index {choice.label_index} out of range for k={len(candidate_ids)}")
        return OracleOutcome(int(candidate_ids[choice.label_index]), 1.0, False)
    action = int(candidate_ids[rng.integers(len(candidate_ids))])
    return OracleOutcome(action, 0.0, True)
