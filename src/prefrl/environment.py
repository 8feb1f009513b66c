"""Simulated user environments.

Three reward models are available:

* ``matrix_factorization``: biased MF fitted on a train log; the sampled
  user is the episode context and scores depend only on (user, action).
* ``sequential``: a next-item-trained copy of the sequence encoder, frozen;
  scores are dot(encoded history, item embedding).
* ``latent``: ground-truth latents from the synthetic generator; scores are
  dot(mean history latent, action latent).  This is the oracle-aligned
  environment used for directional experiments and tests.

Each model scores a batch, ``score_batch(contexts, actions) -> (B,)``, with
one gather and stacked row-wise products (one ``encode_batch`` for the
sequential kind); ``score`` is its one-row case, and a row's bits do not
depend on the batch it is scored in.

Episodes start from a logged user (MF) or a logged initial item (the other
kinds), append the agent's action to the history each step, and end when the
reward falls below the quit threshold (the user abandons the session) or the
step horizon is reached.  Rewards are clipped to [0, r_max].
:meth:`UserEnvironment.step_batch` steps a batch of episodes with one
``score_batch`` call (lockstep evaluation uses it); ``step`` is its one-row
case.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import InteractionLog
from .encoder import (EncoderConfig, _backward_row, _forward_row, encode_batch,
                      init_encoder_params, row_tensors, window_ids)
from .nn import ParamSet, optimizer_step, softmax

__all__ = [
    "EnvConfig",
    "EnvState",
    "MatrixFactorizationModel",
    "SequentialModel",
    "LatentPreferenceModel",
    "fit_reward_model",
    "UserEnvironment",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnvConfig:
    max_steps: int = 30
    quit_threshold: float = 0.75
    seed: int | None = 0  # None: no reset stream, so every reset takes a seed

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (math.isfinite(self.quit_threshold) and self.quit_threshold >= 0.0):
            raise ValueError("[environment] quit_threshold must be finite and >= 0, "
                             f"got {self.quit_threshold!r}")


@dataclass(frozen=True)
class EnvState:
    """Immutable per-episode state; step() returns a new one.  A start holds
    one item and each step appends one, so ``len(history) - 1`` steps have
    been taken."""
    history: tuple[int, ...]
    user_id: str | None
    done: bool


class _RewardModel:
    """A reward for each (context, action) pair.  A model defines only the
    batched ``score_batch(contexts, actions) -> (B,)``; ``score`` is its
    one-row case."""

    def score(self, context, action: int) -> float:
        return float(self.score_batch([context], [action])[0])


def _row_dots(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dot(rows[b], cols[b]) for each b, as stacked (1, d) @ (d, 1) products:
    each row is its own dot, so its bits do not depend on the batch."""
    return (rows[:, None, :] @ cols[:, :, None])[:, 0, 0]


def _reward_bound(r_max: float) -> float:
    """``r_max`` as a float, refused unless finite and positive: rewards are
    clipped to it, and the quit threshold lies below it."""
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"[environment] r_max must be finite and > 0, got {r_max!r}")
    return float(r_max)


def _check_fit_settings(kind: str, d_rm: int, epochs: int, lr: float, neg_per_pos: int,
                        rank_decay: float) -> None:
    """Refuse, by its ``[environment]`` key, a fit setting that would fail
    inside the fit or leave a model that is NaN or never fitted."""
    min_d_rm = 2 if kind == "sequential" else 1    # the encoder's embed_dim is >= 2
    for key, value, ok, needs in (
            ("d_rm", d_rm, d_rm >= min_d_rm,
             ">= 2 for a sequential model" if min_d_rm == 2 else ">= 1"),
            ("fit_epochs", epochs, epochs >= 1, ">= 1"),
            ("fit_lr", lr, math.isfinite(lr) and lr > 0.0, "finite and > 0"),
            ("neg_per_pos", neg_per_pos, neg_per_pos >= 0, ">= 0"),
            ("rank_decay", rank_decay, 0.0 < rank_decay <= 1.0, "in (0, 1]")):
        if not ok:
            raise ValueError(f"[environment] {key} must be {needs}, got {value!r}")


class MatrixFactorizationModel(_RewardModel):
    """Biased MF over (user, item): dot(U_u, V_i) + b_u + b_i + b0, clipped."""

    kind = "matrix_factorization"

    def __init__(self, user_ids: list[str], user_factors, item_factors,
                 user_bias, item_bias, global_bias: float, r_max: float,
                 loss_history: list[float] | None = None):
        self.user_index = {u: i for i, u in enumerate(user_ids)}
        self.user_factors = np.asarray(user_factors, dtype=np.float64)
        self.item_factors = np.asarray(item_factors, dtype=np.float64)
        self.user_bias = np.asarray(user_bias, dtype=np.float64)
        self.item_bias = np.asarray(item_bias, dtype=np.float64)
        self.global_bias = float(global_bias)
        self.r_max = float(r_max)
        self.loss_history = loss_history or []

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]

    def score_batch(self, user_ids, actions) -> np.ndarray:
        """One row gather of the users' and the actions' factors and biases."""
        try:
            u = np.array([self.user_index[user_id] for user_id in user_ids], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown user {exc.args[0]!r}") from None
        a = np.asarray(actions, dtype=np.int64)
        raw = (_row_dots(self.user_factors[u], self.item_factors[a])
               + self.user_bias[u] + self.item_bias[a] + self.global_bias)
        return raw.clip(0.0, self.r_max)


class SequentialModel(_RewardModel):
    """Frozen next-item encoder; scores dot(encode(history), item embedding)."""

    kind = "sequential"

    def __init__(self, params: ParamSet, encoder_config: EncoderConfig,
                 r_max: float, loss_history: list[float] | None = None):
        self.params = params
        self.encoder_config = encoder_config
        self.r_max = float(r_max)
        self.loss_history = loss_history or []

    @property
    def num_items(self) -> int:
        return self.encoder_config.num_items

    def score_batch(self, histories, actions) -> np.ndarray:
        """One ``encode_batch`` of the histories."""
        states = encode_batch(histories, self.params, self.encoder_config)
        raw = _row_dots(states, self.params["item_emb"][np.asarray(actions, dtype=np.int64)])
        return raw.clip(0.0, self.r_max)


class LatentPreferenceModel(_RewardModel):
    """Ground-truth scorer: dot(mean history latent, action latent), clipped.

    Aligned by construction with the synthetic judge, which ranks candidates
    with the same dot product.
    """

    kind = "latent"

    def __init__(self, item_latents, r_max: float, scale: float = 1.0):
        if not math.isfinite(scale):
            raise ValueError(f"[environment] latent_scale must be finite, got {scale!r}")
        self.item_latents = np.asarray(item_latents, dtype=np.float64)
        self.r_max = _reward_bound(r_max)
        self.scale = float(scale)

    @property
    def num_items(self) -> int:
        return self.item_latents.shape[0]

    def score_batch(self, histories, actions) -> np.ndarray:
        """One gather and mean of the history latents when the histories have
        equal lengths, as in lockstep evaluation, and one per history
        otherwise.  Each mean is summed in history order and divided by the
        length, as ``mean`` does."""
        latents = self.item_latents
        lengths = {len(history) for history in histories}
        if len(lengths) == 1:
            ids = np.array(histories, dtype=np.int64)
            profiles = np.add.reduce(latents[ids], axis=1) / lengths.pop()
        else:
            profiles = np.array([np.add.reduce(latents[np.asarray(h, dtype=np.int64)], axis=0)
                                 / len(h) for h in histories])
        raw = self.scale * _row_dots(profiles, latents[np.asarray(actions, dtype=np.int64)])
        return raw.clip(0.0, self.r_max)


def _fit_matrix_factorization(log_: InteractionLog, num_items: int, d_rm: int,
                              epochs: int, lr: float, neg_per_pos: int,
                              r_max: float, rank_decay: float,
                              rng: np.random.Generator) -> MatrixFactorizationModel:
    """Seeded SGD on squared error over a fixed sample set.

    Positives are graded by their position in the user's sequence
    (``r_max * rank_decay**position``, sequences being preference-ordered;
    rank_decay=1 gives plain binary targets).  Negatives target 0 and are
    drawn once, from the user's unseen items, so the epoch loss descends a
    stationary objective.
    """
    user_ids = [seq.user_id for seq in log_.sequences]
    num_users = len(user_ids)
    u_f = 0.1 * rng.standard_normal((num_users, d_rm))
    i_f = 0.1 * rng.standard_normal((num_items, d_rm))
    u_b = np.zeros(num_users)
    i_b = np.zeros(num_items)
    b0 = 0.0

    samples: list[tuple[int, int, float]] = []
    all_items = np.arange(num_items)
    for u, seq in enumerate(log_.sequences):
        unseen = np.setdiff1d(all_items, np.asarray(seq.items, dtype=np.int64))
        for position, item in enumerate(seq.items):
            samples.append((u, item, r_max * rank_decay ** position))
            if unseen.size:
                for neg in rng.choice(unseen, size=neg_per_pos):
                    samples.append((u, int(neg), 0.0))
    loss_history = []
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for idx in order:
            u, item, target = samples[idx]
            pred = u_f[u] @ i_f[item] + u_b[u] + i_b[item] + b0
            err = pred - target
            total += err * err
            g = 2.0 * err
            u_row = u_f[u].copy()
            u_f[u] -= lr * g * i_f[item]
            i_f[item] -= lr * g * u_row
            u_b[u] -= lr * g
            i_b[item] -= lr * g
            b0 -= lr * g
        loss_history.append(total / len(samples))
    return MatrixFactorizationModel(user_ids, u_f, i_f, u_b, i_b, b0, r_max, loss_history)


def _fit_sequential(log_: InteractionLog, num_items: int, d_rm: int,
                    max_seq_len: int, epochs: int, lr: float, r_max: float,
                    rng: np.random.Generator) -> SequentialModel:
    """Train the encoder next-item style (cross-entropy over all items, output
    embeddings tied to the input item embeddings), one (prefix, next item)
    pair per SGD step on the encoder's row kernels, then freeze it, its
    gradient buffer released."""
    config = EncoderConfig(num_items=num_items, embed_dim=d_rm, max_seq_len=max_seq_len)
    params = ParamSet(init_encoder_params(config, rng))
    pairs = [(seq.items[:t], seq.items[t]) for seq in log_.sequences
             for t in range(1, len(seq.items))]
    if not pairs:
        raise ValueError("a sequential reward model needs a sequence of two or more items")
    # the prefixes are fixed, so each is padded once, with its padding mask,
    # as the row that encode_with_cache(prefix) runs on
    rows = window_ids([prefix for prefix, _ in pairs], config)
    padding = rows == config.padding_id
    targets = np.array([target for _, target in pairs], dtype=np.int64)
    # the step updates both in place, so these views hold for the whole fit
    tensors, grads = row_tensors(params.params), row_tensors(params.grads)
    item_emb, item_grad = tensors[0][:num_items], grads[0][:num_items]
    loss_history = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        total = 0.0
        for row, pad, target in zip(rows[order], padding[order], targets[order].tolist()):
            state, cache = _forward_row(row, pad, tensors)
            probs = softmax(item_emb.dot(state))
            total += -float(np.log(max(probs[target], 1e-12)))
            d_logits = probs
            d_logits[target] -= 1.0
            item_grad += d_logits[:, None] * state
            _backward_row(cache, d_logits.dot(item_emb), tensors, grads)
            optimizer_step(params, lr)
        loss_history.append(total / len(pairs))
    params.zero_grads()
    return SequentialModel(params, config, r_max, loss_history)


def fit_reward_model(log_: InteractionLog, kind: str, num_items: int, *,
                     d_rm: int = 8, epochs: int = 40, lr: float = 0.01,
                     neg_per_pos: int = 2, rank_decay: float = 0.7,
                     max_seq_len: int = 10, r_max: float = 5.0, seed: int = 0):
    """Fit a reward model of the requested kind on a train-split log.  A bad
    ``r_max`` or fit setting is refused before the fit starts."""
    r_max = _reward_bound(r_max)
    _check_fit_settings(kind, d_rm, epochs, lr, neg_per_pos, rank_decay)
    if log_.num_sequences == 0:
        raise ValueError("cannot fit a reward model on an empty log")
    rng = np.random.default_rng(seed)
    if kind == "matrix_factorization":
        return _fit_matrix_factorization(log_, num_items, d_rm, epochs, lr,
                                         neg_per_pos, r_max, rank_decay, rng)
    if kind == "sequential":
        return _fit_sequential(log_, num_items, d_rm, max_seq_len, epochs, lr, r_max, rng)
    raise ValueError(f"unknown reward model kind {kind!r}")


class UserEnvironment:
    """Episode lifecycle over a frozen reward model and a log split.

    The environment object is immutable apart from its reset rng; states are
    value objects, so parallel rollouts can share one environment as long as
    each worker owns its own states (or passes explicit reset seeds).  The
    quit threshold must lie below the reward model's ``r_max``, the bound its
    rewards are clipped to; at or above it every step would quit.
    """

    def __init__(self, reward_model, log_: InteractionLog, config: EnvConfig):
        if log_.num_sequences == 0:
            raise ValueError("environment needs a nonempty log for initial states")
        if config.quit_threshold >= reward_model.r_max:
            raise ValueError(f"quit_threshold {config.quit_threshold} must lie below the "
                             f"reward model's r_max {reward_model.r_max}: rewards are "
                             "clipped to r_max, so every step would quit")
        self.reward_model = reward_model
        self.log = log_
        self.config = config
        self._rng = None if config.seed is None else np.random.default_rng(config.seed)

    @property
    def num_items(self) -> int:
        return self.reward_model.num_items

    def reset(self, seed: int | None = None) -> EnvState:
        """Sample an initial state: a logged user's first item (MF keeps the
        user as context; the other kinds keep only the item).  Without
        ``seed`` it draws from the environment's reset stream."""
        if seed is None and self._rng is None:
            raise ValueError("this environment has no reset stream: reset it with a seed")
        rng = self._rng if seed is None else np.random.default_rng(seed)
        seq = self.log.sequences[int(rng.integers(self.log.num_sequences))]
        user_id = seq.user_id if self.reward_model.kind == "matrix_factorization" else None
        return EnvState(history=(seq.items[0],), user_id=user_id, done=False)

    def step_batch(self, states, actions) -> tuple[list[float], list[EnvState], list[bool]]:
        """Step a batch of episodes: score every (state, action) pair with one
        ``score_batch`` call, append each action to its history, and apply the
        quit rule.  Returns the rewards, next states and done flags in batch
        order; row b equals ``step(states[b], actions[b])``."""
        if len(states) != len(actions):
            raise ValueError(f"{len(states)} states but {len(actions)} actions")
        for state, action in zip(states, actions):
            if state.done:
                raise RuntimeError("cannot step a finished episode")
            if not 0 <= action < self.num_items:
                raise ValueError(f"action {action} out of range [0, {self.num_items})")
        by_user = self.reward_model.kind == "matrix_factorization"
        contexts = [state.user_id if by_user else state.history for state in states]
        rewards = self.reward_model.score_batch(contexts, actions).tolist()
        quit_threshold, max_steps = self.config.quit_threshold, self.config.max_steps
        next_states, dones = [], []
        for state, action, reward in zip(states, actions, rewards):
            done = reward < quit_threshold or len(state.history) >= max_steps
            next_states.append(EnvState(history=state.history + (action,),
                                        user_id=state.user_id, done=done))
            dones.append(done)
        return rewards, next_states, dones

    def step(self, state: EnvState, action: int) -> tuple[float, EnvState, bool]:
        """Score the action, append it to the history, and apply the quit rule."""
        rewards, next_states, dones = self.step_batch([state], [action])
        return rewards[0], next_states[0], dones[0]
