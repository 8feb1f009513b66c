"""Actor-critic recommendation agent.

One bundle holds the sequence encoder plus two affine heads over the state:
the actor (softmax over all items) and the critic (one Q estimate per item,
indexed by the taken action).  Losses follow the usual one-step temporal
difference scheme: the TD error doubles as the advantage that scales the
actor's log-probability loss, and is treated as a constant in actor
gradients.  The bootstrap target is likewise held constant in critic
gradients (semi-gradient TD); terminal transitions drop the bootstrap term.

:func:`update` is the one learner.  Besides that actor-critic step it takes
the critic's TD term alone (dqn), the actor term of a frozen/learnable
mixture with gradients into the learnable side only (ap), and REINFORCE on
given returns with no critic term (pg).  The mixture reads the frozen
policy's probability of each action from its transition
(``Transition.frozen_prob``, stored when the action was taken), so the
frozen policy takes no part in the update.

:func:`update` reads a minibatch as columns (:class:`TransitionBatch`): the
encoder windows of the states, already padded, and one array per field; a
next state is its state plus its action, so its window is the state's
shifted in by the action, and the learner knows a state by its window
alone.  ``TransitionBatch`` is the one place that lays those columns out
and writes and gathers their rows; a replay buffer is one of them, holding
no transition objects, and a plain list of transitions is turned into one
at the top of the step.

A bundle is weights plus shape: the discount belongs to the phase being run,
so :func:`update` takes it as ``gamma``, next to ``lr`` and ``momentum``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .encoder import (EncoderConfig, encode, encode_backward, encode_windows,
                      encode_windows_with_cache, init_encoder_params, shift_windows,
                      window_ids)
from .nn import ParamSet, optimizer_step, softmax

__all__ = [
    "AgentBundle",
    "Transition",
    "TransitionBatch",
    "check_successor",
    "init_agent",
    "action_distribution",
    "q_values",
    "update",
]

LOG_PROB_FLOOR = -30.0


@dataclass(frozen=True)
class Transition:
    """One step of experience.  ``frozen_prob`` is the frozen policy's
    probability of ``action`` in the state, computed when the action was
    taken; only the mixture setting of :func:`update` reads it."""
    state_items: tuple[int, ...]
    action: int
    reward: float
    next_state_items: tuple[int, ...]
    done: bool
    frozen_prob: float | None = None


def check_successor(transition: Transition, num_items: int) -> None:
    """Refuse a transition whose action lies outside ``[0, num_items)`` or
    whose next state is not its state plus its action, the only shape a
    rollout makes and the one :attr:`TransitionBatch.next_windows` assumes."""
    t = transition
    if not 0 <= t.action < num_items:
        raise ValueError(f"action {t.action} out of range [0, {num_items})")
    if t.next_state_items[:-1] != t.state_items or t.next_state_items[-1:] != (t.action,):
        raise ValueError("a transition's next state must be its state plus its action")


@dataclass(frozen=True, eq=False)
class TransitionBatch:
    """Transitions as the columns :func:`update` reads, one row each, and the
    one place that lays them out: the state's encoder window (``windows``,
    from :func:`encoder.window_ids`), ``actions``, ``rewards``, ``done`` and
    ``frozen_probs`` (NaN where a transition has none), every column numeric.
    The windows are for ``encoder_config``'s item space and window length.
    Every row was written by :meth:`put`, after :func:`check_successor`, so a
    next state's window is its state's shifted in by the action
    (:attr:`next_windows`); the learner knows a state only by its window.
    The transitions themselves are not kept."""
    windows: np.ndarray         # (B, max_seq_len) int64
    actions: np.ndarray         # (B,) int64
    rewards: np.ndarray         # (B,) float64
    done: np.ndarray            # (B,) bool
    frozen_probs: np.ndarray    # (B,) float64
    encoder_config: EncoderConfig

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def next_windows(self) -> np.ndarray:
        """The next states' windows, each state's shifted in by its action."""
        return shift_windows(self.windows, self.actions)

    @classmethod
    def empty(cls, rows: int, config: EncoderConfig) -> "TransitionBatch":
        """``rows`` rows, allocated and not yet written (:meth:`put`)."""
        return cls(np.empty((rows, config.max_seq_len), np.int64), np.empty(rows, np.int64),
                   np.empty(rows, np.float64), np.empty(rows, bool), np.empty(rows, np.float64),
                   config)

    @classmethod
    def of(cls, transitions, config: EncoderConfig) -> "TransitionBatch":
        """The rows of a nonempty sequence of transitions, the states padded
        by one :func:`encoder.window_ids` call (which validates their ids)."""
        windows = window_ids([t.state_items for t in transitions], config)
        batch = cls.empty(len(windows), config)
        for row, (t, window) in enumerate(zip(transitions, windows)):
            batch.put(row, t, window)
        return batch

    def put(self, row: int, transition: Transition, window: np.ndarray) -> None:
        """Write ``transition``, whose state pads to ``window``, to row
        ``row``; a transition that fails :func:`check_successor` raises
        ValueError and writes nothing."""
        t = transition
        check_successor(t, self.encoder_config.num_items)
        self.windows[row] = window
        self.actions[row] = t.action
        self.rewards[row] = t.reward
        self.done[row] = t.done
        self.frozen_probs[row] = np.nan if t.frozen_prob is None else t.frozen_prob

    def take(self, rows: np.ndarray) -> "TransitionBatch":
        """A new batch of the given rows, in order."""
        return TransitionBatch(self.windows[rows], self.actions[rows], self.rewards[rows],
                               self.done[rows], self.frozen_probs[rows], self.encoder_config)


@dataclass
class AgentBundle:
    """Encoder + actor head + critic head."""

    params: ParamSet
    encoder_config: EncoderConfig

    @property
    def num_items(self) -> int:
        return self.encoder_config.num_items

    def clone(self) -> "AgentBundle":
        return AgentBundle(self.params.copy(), self.encoder_config)


def init_agent(num_items: int, embed_dim: int = 64, max_seq_len: int = 10,
               seed: int = 0) -> AgentBundle:
    """Seeded agent: encoder init per the encoder module, heads uniform(-0.1, 0.1)
    with zero biases."""
    rng = np.random.default_rng(seed)
    config = EncoderConfig(num_items=num_items, embed_dim=embed_dim, max_seq_len=max_seq_len)
    tensors = init_encoder_params(config, rng)
    tensors["actor_w"] = rng.uniform(-0.1, 0.1, size=(embed_dim, num_items))
    tensors["actor_b"] = np.zeros(num_items)
    tensors["critic_w"] = rng.uniform(-0.1, 0.1, size=(embed_dim, num_items))
    tensors["critic_b"] = np.zeros(num_items)
    return AgentBundle(ParamSet(tensors), config)


def _head(state: np.ndarray, bundle: AgentBundle, head: str) -> np.ndarray:
    """Affine head outputs for one (d,) state or a (B, d) batch, or (S, B, d)
    states of a bundle over an :class:`nn.ParamStack` of S sets.  Each row is its own
    stacked one-row product, so its bits do not depend on B or S."""
    params = bundle.params
    return (state[..., None, :] @ params[f"{head}_w"])[..., 0, :] + params[f"{head}_b"]


def action_distribution(state: np.ndarray, bundle: AgentBundle) -> np.ndarray:
    """Softmax of the actor logits for one state vector, or a (B, d) batch
    (or (S, B, d), see :func:`_head`)."""
    return softmax(_head(state, bundle, "actor"))


def q_values(state: np.ndarray, bundle: AgentBundle) -> np.ndarray:
    """Raw per-item critic outputs for one state vector, or a (B, d) batch
    (no squashing)."""
    q = _head(state, bundle, "critic")
    if not np.isfinite(q).all():
        raise ValueError("critic produced non-finite values")
    return q


def policy_for(bundle: AgentBundle, items) -> np.ndarray:
    """Action distribution for an item-id history."""
    return action_distribution(encode(items, bundle.params, bundle.encoder_config), bundle)


def backprop_heads(bundle: AgentBundle, state: np.ndarray, cache: dict,
                   d_actor_logits: np.ndarray | None = None,
                   d_q: np.ndarray | None = None) -> None:
    """Accumulate head gradients and push the combined state gradient
    through the encoder.  ``state`` and the logit gradients are one row each
    or a (B, .) batch of rows matching ``cache``."""
    params = bundle.params
    grads = params.grads
    states = np.atleast_2d(state)
    d_state = np.zeros_like(states)
    for head, d_out in (("actor", d_actor_logits), ("critic", d_q)):
        if d_out is None:
            continue
        d_out = np.atleast_2d(d_out)
        grads[f"{head}_w"] += np.dot(states.T, d_out)
        grads[f"{head}_b"] += np.add.reduce(d_out, axis=0)
        d_state += (d_out[:, None] @ params[f"{head}_w"].T)[:, 0]
    encode_backward(cache, d_state, params)


def _td_targets(batch: TransitionBatch, bundle: AgentBundle, target: AgentBundle | None,
                memo: dict | None, gamma: float) -> np.ndarray:
    """r + gamma * max_a' Q(s', a') of every transition, with a zero bootstrap
    on terminal ones, evaluated by ``target`` when given.  One batched encode
    covers the distinct non-terminal next windows, less those ``memo`` (the
    bytes of a next window -> max_a' Q) already holds, whose values are added
    to it; with every next window in it nothing is encoded."""
    y = batch.rewards.copy()
    live = np.flatnonzero(~batch.done)
    if live.size:
        critic = target if target is not None else bundle
        memo = {} if memo is None else memo
        windows = batch.next_windows
        keys = windows.view(f"V{windows.itemsize * windows.shape[1]}").ravel()[live].tolist()
        # memo values are finite (q_values refuses others), so NaN marks a miss
        boot = np.fromiter(map(memo.get, keys, repeat(np.nan)), np.float64, live.size)
        cold = np.flatnonzero(np.isnan(boot)).tolist()
        if cold:
            fresh = {keys[i]: live[i] for i in cold}   # distinct next window -> a row of it
            next_states = encode_windows(windows[list(fresh.values())],
                                         critic.params, critic.encoder_config)
            memo |= zip(fresh, q_values(next_states, critic).max(axis=1).tolist())
            boot[cold] = [memo[keys[i]] for i in cold]
        y[live] += gamma * boot
    return y


def update(batch, bundle: AgentBundle, lr: float,
           momentum: float = 0.0, target_bundle: AgentBundle | None = None, *,
           actor: bool = True, alpha: float | None = None,
           returns=None, target_memo: dict | None = None,
           gamma: float = 0.9) -> tuple[float, float]:
    """One optimizer step on a minibatch, the learner of every training loop.

    ``batch`` is a :class:`TransitionBatch` (a replay buffer's sample, whose
    windows were padded when the transitions were stored) or a sequence of
    :class:`Transition`, turned into one here.  Averages the losses over the
    batch, accumulates the analytic gradients, applies a single optimizer
    step, and returns (mean actor loss, mean critic loss); a term that is off
    reports 0.0.  ``gamma`` discounts the TD target's bootstrap.  By default
    an actor-critic step; ``actor=False`` keeps the critic's TD term alone;
    ``alpha`` makes the actor term read the mixture ``p_mix(a) = (1 - alpha) *
    t.frozen_prob + alpha * pi(a)`` with gradients into ``bundle`` only;
    ``returns`` gives REINFORCE, one return per transition and no critic
    term.  Per transition the logit gradient is ``c * (pi - one_hot) / B``
    with c the TD error, the return, or for the mixture the TD error times
    ``alpha * pi(a) / p_mix(a)`` (0 where p_mix(a) underflows).
    ``target_bundle`` optionally supplies the frozen bootstrap critic, and
    ``target_memo`` a dict of its bootstrap ``max_a' Q(s', a')`` per next
    encoder window (keyed by the window's bytes) that the step reads and
    extends: the caller keeps one per snapshot and starts a new one when the
    snapshot changes.  A memo without a ``target_bundle`` (a live critic,
    which every step moves) raises ValueError.

    The whole batch goes through one forward and one backward: one batched
    encode each of the state windows and of the distinct non-terminal next
    windows (none when the memo holds them all); nothing is padded.  Each
    row's forward products are its own and read only its window, so a
    memoised bootstrap has the bits a fresh encode would give, next states
    with equal windows share one encode, and each transition adds one
    rank-one term to each weight gradient, so a batch of two equal
    transitions takes exactly the step of one.  A mixture batch with a
    transition that lacks ``frozen_prob``, a batch padded for another item
    space or window length, or a listed transition that fails
    :func:`check_successor`, raises ValueError.
    """
    if not len(batch):
        raise ValueError("update requires a nonempty batch")
    if target_memo is not None and target_bundle is None:
        raise ValueError("a target_memo needs the target_bundle its values come from")
    if returns is not None and len(returns) != len(batch):
        raise ValueError("returns must give one value per transition")
    config = bundle.encoder_config
    if not isinstance(batch, TransitionBatch):
        batch = TransitionBatch.of(batch, config)
    elif ((batch.encoder_config.num_items, batch.encoder_config.max_seq_len)
          != (config.num_items, config.max_seq_len)):
        raise ValueError("the batch was padded for another item space or window length")
    mixture = alpha is not None and actor
    if mixture and np.isnan(batch.frozen_probs).any():
        raise ValueError("a mixture update needs frozen_prob on every transition")
    inv_b = 1.0 / len(batch)
    rows = np.arange(len(batch))
    actions = batch.actions
    one_hot = np.zeros((len(batch), bundle.num_items))
    one_hot[rows, actions] = 1.0
    states, cache = encode_windows_with_cache(batch.windows, bundle.params, config)
    actor_mean = critic_mean = 0.0
    d_logits = d_q = None
    if returns is None:
        c = (_td_targets(batch, bundle, target_bundle, target_memo, gamma)
             - q_values(states, bundle)[rows, actions])
        critic_mean = float(np.sum(c * c)) * inv_b
        d_q = one_hot * (-2.0 * c * inv_b)[:, None]
    else:
        c = np.asarray(returns, dtype=np.float64)
    if actor:
        pi = action_distribution(states, bundle)
        p_a = pi[rows, actions]
        if mixture:
            p_a = (1.0 - alpha) * batch.frozen_probs + alpha * p_a
        # clamped at LOG_PROB_FLOOR, so p == 0 gives the floor rather than -inf
        log_p = np.maximum(np.log(np.maximum(p_a, np.finfo(np.float64).tiny)), LOG_PROB_FLOOR)
        actor_mean = float(np.sum(-log_p * c)) * inv_b
        if mixture:
            live = p_a > 1e-300
            c = np.where(live, c * alpha * pi[rows, actions] / np.where(live, p_a, 1.0), 0.0)
        d_logits = c[:, None] * (pi - one_hot) * inv_b
    if not (np.isfinite(actor_mean) and np.isfinite(critic_mean)):
        raise ValueError("non-finite loss in update")
    backprop_heads(bundle, states, cache, d_logits, d_q)
    optimizer_step(bundle.params, lr, momentum)
    return actor_mean, critic_mean
