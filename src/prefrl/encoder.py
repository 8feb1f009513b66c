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

Every entry point runs one forward over the ``(B, max_seq_len)`` id array of
the sequences' windows, :func:`window_ids`; :func:`encode_windows` encodes
such an array directly, so a caller that keeps its windows (the rollout
loop and evaluation pad each episode's start once) never pads again.
:func:`encode_batch` is ``encode_windows(window_ids(...))`` and
:func:`encode` its B=1 case.  A batch runs over a ``(B, max_seq_len, d)``
tensor, each row computed by its own small matrix products, so a state has
the same bits whatever batch the sequence is encoded in.  That forward is
spelled against trailing axes, so the same one also runs S parameter sets at
once from an :class:`nn.ParamStack` (states ``(S, B, d)``), and each set's
rows keep the bits of that set's own forward.  One row on one parameter set
(acting, scoring one history, every step of the sequential reward model's
fit) runs on vectors: the same products in the same order, each one
``ndarray.dot`` call on the batched product's operands (``w_k.dot(q)`` for
``q @ w_k.T``), the same BLAS routine, so a row has the bits of its row of
any batch; the call dispatches in about 0.4 µs, the ``matmul`` gufunc in 0.8.
Its kernels read the set's tensors as one tuple (:func:`row_tensors`), which
a loop that steps one set in place binds once.

Projection matrices are initialized to identity plus small noise so that
tiny instances can be checked by hand; gradients are derived analytically
in :func:`encode_backward` and verified against finite differences.  Its
batch sums are small matrix products, and one row's cache is read on
vectors, with the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .nn import ParamSet

# the one tensor _forward reads by row gather: a ParamStack keeps it (S, V, d)
GATHERED = ("item_emb",)

__all__ = [
    "EncoderConfig",
    "init_encoder_params",
    "encode",
    "encode_with_cache",
    "encode_backward",
    "encode_batch",
    "window_ids",
    "shift_windows",
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
    An empty batch or sequence is refused first; then every id of the batch,
    inside the window or not, is validated, the first bad one in batch order
    named."""
    n, pad, num_items = config.max_seq_len, config.padding_id, config.num_items
    if not len(sequences):
        raise ValueError("cannot encode an empty batch")
    if 0 in map(len, sequences):
        raise ValueError("cannot encode an empty sequence")
    pieces = []
    for seq in sequences:
        if min(seq) < 0 or max(seq) >= num_items:
            bad = next(i for i in seq if not 0 <= i < num_items)
            raise ValueError(f"item id {int(bad)} out of range [0, {num_items})")
        pieces.append((pad,) * (n - len(seq)))
        pieces.append(seq[-n:])
    return np.fromiter(chain.from_iterable(pieces), np.int64, n * len(sequences)).reshape(-1, n)


def shift_windows(windows: np.ndarray, actions) -> np.ndarray:
    """Each window (the last axis) shifted left one place with its action
    appended: the next state's window, as :func:`window_ids` would pad it."""
    return np.concatenate((windows[..., 1:], actions[..., None]), axis=-1)


# The encoder's tensors of one parameter set's ``params`` or ``grads`` dict,
# as the tuple :func:`_forward_row` and :func:`_backward_row` read.  They are
# views into the set's flat arrays, which a step updates in place, so a loop
# that steps one set binds them once.
row_tensors = itemgetter("item_emb", "pos_emb", "w_q", "w_k", "w_v")


def _forward_row(row: np.ndarray, padding: np.ndarray, tensors):
    """:func:`_forward` of one padded id row, ``padding`` its mask of padding
    slots, on one parameter set's :func:`row_tensors`, spelled on vectors:
    ``x`` is (n, d) and every product one ``ndarray.dot`` (``x_last.dot(w_q)``,
    ``w_k.dot(q)``, ``x.dot(qk)``, ``attn.dot(x)``, ``ctx.dot(w_v)``), the same
    BLAS matrix-vector product as the batched forward's stacked (1, 1, d) one,
    so the state (d,) has the bits of its row of a batch.  The cache is
    the tuple ``(row, x, q, qk, attn, ctx)``, the batched cache's arrays
    without the batch axes."""
    item_emb, pos_emb, w_q, w_k, w_v = tensors
    x = item_emb.take(row, axis=0)
    x += pos_emb                                             # (n, d)
    x_last = x[-1]
    q = x_last.dot(w_q)                                      # (d,)
    qk = w_k.dot(q)
    scores = x.dot(qk) * (1.0 / math.sqrt(len(q)))
    scores[padding] = -np.inf
    scores -= np.maximum.reduce(scores)                      # the last slot is never padding
    attn = np.exp(scores)
    attn /= np.add.reduce(attn)                              # (n,)
    ctx = attn.dot(x)
    h = x_last + ctx.dot(w_v)
    return h, (row, x, q, qk, attn, ctx)


def _forward(ids: np.ndarray, params, config: EncoderConfig):
    """States (B, d) and backward cache for a padded (B, n) id array; one row
    on one parameter set is :func:`_forward_row`.

    ``params`` is one :class:`nn.ParamSet`, or a :class:`nn.ParamStack` of S
    sets, whose ``(S, 1, ...)`` tensors (``item_emb`` gathered by rows, so
    ``(S, V, d)``) make every array below carry a leading S axis: states (S,
    B, d), the same forward over the same ids.  Every operation is spelled
    against trailing axes.

    With the one query row q of the last slot, the keys and values enter only
    as ``q @ w_k.T @ x_j`` and ``(attn @ x) @ w_v``, so neither K nor V is
    formed.  Every product is a stacked (B, 1, .) one, one small product per
    row (and per set), so no row's bits depend on B or S (a (B, d) @ (d, d)
    GEMM rounds differently at B = 1).
    """
    if len(ids) == 1 and params["w_q"].ndim == 2:
        row = ids[0]
        h, cache = _forward_row(row, row == config.padding_id, row_tensors(params.params))
        return h[None], cache
    x = np.take(params["item_emb"], ids, axis=-2)
    x += params["pos_emb"]                                   # (B, n, d)
    x_last = x[..., -1:, :]
    q = x_last @ params["w_q"]                               # (B, 1, d)
    qk = q @ params["w_k"].mT
    scores = (qk @ x.mT) * (1.0 / math.sqrt(config.embed_dim))
    np.copyto(scores, -np.inf, where=(ids == config.padding_id)[:, None, :])
    scores -= scores.max(axis=-1, keepdims=True)             # the last slot is never padding
    attn = np.exp(scores)
    attn /= attn.sum(axis=-1, keepdims=True)                 # (B, 1, n)
    ctx = attn @ x
    h = x_last + ctx @ params["w_v"]
    return h[..., 0, :], {"ids": ids, "x": x, "q": q, "qk": qk, "attn": attn, "ctx": ctx}


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
    (or rows of one), in one forward; (S, B, d) for a :class:`nn.ParamStack`
    of S sets."""
    return _forward(ids, params, config)[0]


def encode_windows_with_cache(ids: np.ndarray, params: ParamSet, config: EncoderConfig):
    """Like :func:`encode_windows` but also returns the forward cache needed
    by :func:`encode_backward`."""
    return _forward(ids, params, config)


def encode_batch(sequences, params: ParamSet, config: EncoderConfig) -> np.ndarray:
    """States (B, d) of a nonempty batch of sequences in one forward; row b
    is bitwise equal to ``encode(sequences[b], ...)``."""
    return encode_windows(window_ids(sequences, config), params, config)


def _backward_row(cache: tuple, g: np.ndarray, tensors, grads) -> None:
    """:func:`encode_backward` of :func:`_forward_row`'s cache and one state
    gradient ``g`` (d,), with the parameters' and the gradient's
    :func:`row_tensors`: the batched formulas on vectors, each product one
    ``ndarray.dot`` (``w_v.dot(g)``, ``x.dot(d_ctx)``, ``d_scores.dot(x)``,
    ``d_qk.dot(w_k)``, ``w_q.dot(d_q)``), each batch sum a single outer
    product, and the last slot's term one row added to its position and its
    item."""
    ids, x, q, qk, attn, ctx = cache
    item_emb, _, w_q, w_k, w_v = tensors
    item_grad, pos_grad, w_q_grad, w_k_grad, w_v_grad = grads
    d_ctx = w_v.dot(g)
    d_attn = x.dot(d_ctx)                                        # (n,)
    d_scores = attn * (d_attn - np.add.reduce(d_attn * attn)) * (1.0 / math.sqrt(len(g)))
    d_qk = d_scores.dot(x)
    d_q = d_qk.dot(w_k)
    w_q_grad += x[-1, :, None] * d_q
    w_k_grad += d_qk[:, None] * q
    w_v_grad += ctx[:, None] * g
    num_ids = len(item_emb)
    for weight, row in ((d_scores, qk), (attn, d_ctx)):
        pos_grad += weight[:, None] * row
        item_grad += np.bincount(ids, weight, num_ids)[:, None] * row
    d_last = w_q.dot(d_q) + g
    pos_grad[-1] += d_last
    item_grad[ids[-1]] += d_last


def encode_backward(cache, d_state: np.ndarray, params: ParamSet) -> None:
    """Accumulate gradients of ``sum_b dot(d_state[b], state[b])`` into
    ``params.grads``; ``d_state`` is (B, d), or (d,) for a cache of one.

    The cache of one row on one parameter set, :func:`_forward_row`'s tuple,
    is read on vectors by :func:`_backward_row`, without the batch axes: the
    same values added in the same order as the batched formulas below, so
    the same bits."""
    if isinstance(cache, tuple):
        return _backward_row(cache, d_state.reshape(-1), row_tensors(params.params),
                             row_tensors(params.grads))
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
    # per row
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
    d_last = (d_q @ params["w_q"].T + g)[:, 0]
    pos_grad, item_grad = grads["pos_emb"], grads["item_emb"]
    for weight, row in ((d_scores[:, 0], qk[:, 0]), (attn[:, 0], d_ctx[:, 0]), (last, d_last)):
        per_item = np.bincount(cells, weight.reshape(-1), B * num_ids).reshape(B, num_ids)
        pos_grad += np.dot(weight.T, row)
        item_grad += np.dot(per_item.T, row)
