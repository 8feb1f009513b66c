"""Sequence state encoder: item + position embeddings through one block of
single-head self-attention with a residual connection, read at the last slot.

The encoder maps an interacted-item sequence to a fixed-size state vector.
Sequences longer than ``max_seq_len`` keep only their most recent items;
shorter ones are left-padded with a reserved padding id (``num_items``), so
the most recent item always occupies the last of the ``max_seq_len`` position
slots.  The padding id is masked out of attention as a key (the SASRec scheme,
Kang & McAuley 2018, arXiv:1808.09781).  The state is the block output at the
last slot, and since that slot's query may see every key, only that one query
row is computed: there is no causal mask and no output for the other slots.

Every entry point runs the same batched forward over a ``(B, max_seq_len, d)``
tensor.  Its input is the ``(B, max_seq_len)`` id array of the sequences'
windows, :func:`window_ids`; :func:`encode_windows` encodes such an array
directly, so a caller that keeps its windows (the replay buffer pads each
transition once, when it is stored) never pads again.  :func:`encode_batch`
is ``encode_windows(window_ids(...))`` and :func:`encode` its B=1 case.  Each
batch row is computed by its own small matrix products, so a state has the
same bits whatever batch the sequence is encoded in.

Projection matrices are initialized to identity plus small noise so that
tiny instances can be checked by hand; gradients are derived analytically
in :func:`encode_backward` and verified against finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .nn import ParamSet

__all__ = [
    "EncoderConfig",
    "init_encoder_params",
    "encode",
    "encode_with_cache",
    "encode_backward",
    "encode_batch",
    "window_ids",
    "encode_windows",
    "encode_windows_with_cache",
]

@dataclass(frozen=True)
class EncoderConfig:
    num_items: int
    embed_dim: int = 64
    max_seq_len: int = 10

    def __post_init__(self):
        if self.num_items < 2:
            raise ValueError("num_items must be >= 2")
        if self.embed_dim < 2:
            raise ValueError("embed_dim must be >= 2")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be >= 1")

    @property
    def padding_id(self) -> int:
        return self.num_items


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator,
                        proj_noise: float = 0.01) -> dict[str, np.ndarray]:
    """Seeded initial tensors: uniform(-0.1, 0.1) embeddings (one extra row
    for the padding id) and identity-plus-noise projections."""
    d = config.embed_dim
    eye = np.eye(d)
    return {
        "item_emb": rng.uniform(-0.1, 0.1, size=(config.num_items + 1, d)),
        "pos_emb": rng.uniform(-0.1, 0.1, size=(config.max_seq_len, d)),
        "w_q": eye + proj_noise * rng.standard_normal((d, d)),
        "w_k": eye + proj_noise * rng.standard_normal((d, d)),
        "w_v": eye + proj_noise * rng.standard_normal((d, d)),
    }


def window_ids(sequences, config: EncoderConfig) -> np.ndarray:
    """The ``(B, max_seq_len)`` id array of a batch of sequences: each row the
    sequence's last ``max_seq_len`` items, left-padded with the padding id.
    Every id of the batch, inside the window or not, is validated at once."""
    n, pad = config.max_seq_len, config.padding_id
    lengths = list(map(len, sequences))
    if not lengths:
        raise ValueError("cannot encode an empty batch")
    if min(lengths) == 0:
        raise ValueError("cannot encode an empty sequence")
    if len(lengths) == 1 and 0 <= min(sequences[0]) and max(sequences[0]) < config.num_items:
        # one valid history (an act, a reward score, a buffer push): Python's
        # min and max over its ids cost less than the numpy calls below
        return np.fromiter(chain((pad,) * (n - lengths[0]), sequences[0][-n:]), np.int64,
                           n).reshape(1, n)
    flat = np.fromiter(chain.from_iterable(sequences), np.int64, sum(lengths))
    if flat.min() < 0 or flat.max() >= config.num_items:
        bad = flat[(flat < 0) | (flat >= config.num_items)][0]
        raise ValueError(f"item id {int(bad)} out of range [0, {config.num_items})")
    pieces = []
    for seq, length in zip(sequences, lengths):
        pieces.append((pad,) * (n - length))
        pieces.append(seq[-n:])
    return np.fromiter(chain.from_iterable(pieces), np.int64, n * len(lengths)).reshape(-1, n)


def _forward(ids: np.ndarray, params: ParamSet, config: EncoderConfig):
    """States (B, d) and backward cache for a padded (B, n) id array.

    With the one query row q of the last slot, the keys and values enter only
    as ``q @ w_k.T @ x_j`` and ``(attn @ x) @ w_v``, so neither K nor V is
    formed.  Every product is a stacked (B, 1, .) one, one small product per
    row, so no row's bits depend on B (a (B, d) @ (d, d) GEMM rounds
    differently at B = 1).
    """
    x = params["item_emb"][ids]
    x += params["pos_emb"]                                   # (B, n, d)
    x_last = x[:, -1:]
    q = x_last @ params["w_q"]                               # (B, 1, d)
    qk = q @ params["w_k"].T
    scores = (qk @ x.transpose(0, 2, 1)) * (1.0 / math.sqrt(config.embed_dim))
    scores[(ids == config.padding_id)[:, None, :]] = -np.inf
    scores -= scores.max(axis=2, keepdims=True)              # the last slot is never padding
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)                  # (B, 1, n)
    ctx = attn @ x
    h = x_last + ctx @ params["w_v"]
    return h[:, 0], {"ids": ids, "x": x, "q": q, "qk": qk, "attn": attn, "ctx": ctx}


def encode(sequence, params: ParamSet, config: EncoderConfig) -> np.ndarray:
    """State vector for one item-id sequence (most recent item last)."""
    return _forward(window_ids([sequence], config), params, config)[0][0]


def encode_with_cache(sequence, params: ParamSet, config: EncoderConfig):
    """Like :func:`encode` but also returns the forward cache needed by
    :func:`encode_backward`."""
    states, cache = _forward(window_ids([sequence], config), params, config)
    return states[0], cache


def encode_windows(ids: np.ndarray, params: ParamSet, config: EncoderConfig) -> np.ndarray:
    """States (B, d) of a (B, max_seq_len) id array from :func:`window_ids`
    (or rows of one), in one forward."""
    return _forward(ids, params, config)[0]


def encode_windows_with_cache(ids: np.ndarray, params: ParamSet, config: EncoderConfig):
    """Like :func:`encode_windows` but also returns the forward cache needed
    by :func:`encode_backward`."""
    return _forward(ids, params, config)


def encode_batch(sequences, params: ParamSet, config: EncoderConfig) -> np.ndarray:
    """States (B, d) of a nonempty batch of sequences in one forward; row b
    is bitwise equal to ``encode(sequences[b], ...)``."""
    return encode_windows(window_ids(sequences, config), params, config)


def encode_backward(cache: dict, d_state: np.ndarray, params: ParamSet) -> None:
    """Accumulate gradients of ``sum_b dot(d_state[b], state[b])`` into
    ``params.grads``; ``d_state`` is (B, d), or (d,) for a cache of one."""
    x, q, qk, attn, ctx = (cache[name] for name in ("x", "q", "qk", "attn", "ctx"))
    B, n, d = x.shape
    g = d_state.reshape(B, 1, d)
    # h = x_last + ctx @ w_v, ctx = attn @ x, attn = softmax(scale * qk @ x^T)
    d_ctx = g @ params["w_v"].T
    d_attn = d_ctx @ x.transpose(0, 2, 1)                        # (B, 1, n)
    # masked keys have attn == 0, so their score gradient vanishes
    scale = 1.0 / math.sqrt(d)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True)) * scale
    d_qk = d_scores @ x
    d_q = d_qk @ params["w_k"]
    # each weight gradient is one (d, B) @ (B, d) product, one rank-one term
    # per row (np.dot: matmul takes a slow path at B = 1)
    grads = params.grads
    grads["w_q"] += np.dot(x[:, -1].T, d_q[:, 0])
    grads["w_k"] += np.dot(d_qk[:, 0].T, q[:, 0])
    grads["w_v"] += np.dot(ctx[:, 0].T, g[:, 0])
    # x's gradient is d_scores[b, j] qk[b] + attn[b, j] d_ctx[b], plus d_last[b]
    # at the last slot: three (B, n) slot weights times a (B, d) row each.  Per
    # position slot, and per item id with each row's slot weights summed per
    # id, every term's batch sum is one (., B) @ (B, d) product, and no
    # (B, n, d) gradient is formed; the per-id weights are (B, num_items + 1),
    # the size of the heads' logit gradients.  Padding slots have zero weight.
    num_ids = params["item_emb"].shape[0]
    cells = (cache["ids"] + num_ids * np.arange(B)[:, None]).reshape(-1)
    last = np.zeros((B, n))
    last[:, -1] = 1.0
    for weight, row in ((d_scores[:, 0], qk[:, 0]), (attn[:, 0], d_ctx[:, 0]),
                        (last, (d_q @ params["w_q"].T + g)[:, 0])):
        per_item = np.bincount(cells, weight.reshape(-1), B * num_ids).reshape(B, num_ids)
        grads["pos_emb"] += np.dot(weight.T, row)
        grads["item_emb"] += np.dot(per_item.T, row)
