"""Training phases and baselines.

Phase one pre-trains the actor-critic agent purely against a preference
judge: each step the actor proposes k candidate items, the judge picks one
(or answers None), and the resulting binary reward fills the replay buffer
the agent learns from.

Phase two adapts a pre-trained agent online against a simulated user
environment, either by direct fine-tuning ("ft") or by mixing a frozen copy
with a learnable policy under a weight that anneals to 1 ("ap").  Scratch
baselines (dqn, pg, a2c) and the judge-in-the-loop baseline (llm_online)
run against the same environments for comparison.

Pre-training, both schemes and all four baselines run one loop,
:func:`_rollout` (reset, act, step, learn, track), which only steps and
returns the curve; they differ only in the environment, in how an action is
picked (``act(history)``) and in the learner object a transition is handed
to: ``_ReplayTD`` (a replay-buffer TD step) or ``_Reinforce`` (an episodic
REINFORCE step).  Its hook ``on_episode`` gets each finished episode's record
and losses (pre-training's per-epoch record is built there); ``on_step``
runs before each step acts and after the last (the online snapshots and ap's
mixing weight).  The loop has two callers: :func:`pretrain`, and
:func:`online_phase`, which builds the act, the learner and the hook of any
online method; :func:`run_baseline` is ``online_phase`` started from
:func:`scratch_agent`.  Pre-training's environment is the judge
(``_JudgeEnv``): its act proposes k candidates and its step appends the
judge's pick, so each transition carries the item the step appended.  Both learners call
:func:`agent.update`, in one of its four settings: actor-critic
(pre-training, ft, a2c, llm_online), critic only (dqn), mixture actor term
(ap) or REINFORCE (pg).  The ap act computes the frozen policy's
distribution anyway, so it stores the acted item's frozen probability in the
transition (``Transition.frozen_prob``) and the mixture learner reads it
from there.

The loop runs with numpy's overflow and invalid-value errors raised, so the
first value of a run that overflows or turns NaN, in acting, stepping,
learning or a hook (a snapshot), stops it with one :class:`DivergenceError`;
the loop is handed the run's method and names it, the step, ``lr`` and
``target_update`` in the message.

``_ReplayTD``'s :class:`ReplayBuffer` holds columns only: one
:class:`agent.TransitionBatch` of ``buffer_capacity`` rows, allocated up
front, to which each push writes a transition's row, its state padded to an
encoder window (its next state's window is that window shifted in by the
action).  A sample hands ``update`` its rows, so a transition is padded once
however often it is sampled, and the transition object is not kept.

With ``target_update = N > 0`` the TD bootstrap ``max_a' Q(s', a')`` comes
from a critic snapshot frozen for N learner steps, so within a period it is
a fixed function of the next state's window.  ``_ReplayTD`` keeps the
snapshot (``target``) and a memo of that value per next window (``memo``),
both replaced at each refresh; a learner step encodes only the windows the
memo lacks.  Memoised values keep every bit, because a row's encoding reads
its window alone.  With ``target_update = 0`` the live critic bootstraps
and there is no memo.

Test-environment snapshots and every harness evaluation play greedy
episodes the way :func:`evaluate` does.  A greedy episode is a deterministic
function of its start state, so each distinct start of the reset stream is
played once, and the episodes that share a start share its return and
length.  The distinct starts run in lockstep: each time step makes one
batched policy forward over the windows of those still running (one for
the ap mixture too, whose frozen and learnable sets are the two rows of one
:class:`nn.ParamStack`), and steps all of them with one ``env.step_batch``
call, so one reward-model ``score_batch``.  The evaluation views
(``ActorPolicy``, ``QGreedyPolicy``, ``MixPolicy``) define that forward as
``probs_windows``, of which ``probs_batch`` is the padded case.  A reset
with a seed is a function of that seed, so :func:`online_phase` draws its
evaluation starts once per run and every snapshot plays them.

Every phase owns a single rng derived from the config seed, so runs are
bitwise reproducible at the metrics level.  Each purpose draws from its own
stream, spawned from the seed under one key (``derive_rng``/``derive_seed``):

    ===  ===========================================================
    key  stream
    ===  ===========================================================
    1    agent initialisation (pre-training and scratch baselines)
    2    pre-training: episode starts, candidates, judge None draws,
         minibatches
    3    online acting and minibatches
    4    evaluation resets (snapshots and every harness evaluation):
         :func:`evaluate` draws from key 4 of the seed it is handed, and
         the snapshots and the harness hand it ``derive_seed(seed, 4)``,
         so key 4 is applied twice; changing that moves every snapshot
    10   training-environment resets
    ===  ===========================================================
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .agent import (AgentBundle, Transition, TransitionBatch, action_distribution,
                    init_agent, q_values, update)
from .encoder import GATHERED, EncoderConfig, encode_windows, shift_windows, window_ids
from .environment import EnvState
from .metrics import EpisodeRecord, MetricMeans, compute_metrics
from .nn import ParamStack, _check_probs, sample_categorical, softmax
from .oracle import distill

__all__ = [
    "ReplayBuffer",
    "ExplorationStrategy",
    "TrainConfig",
    "MixPolicy",
    "choose_action",
    "alpha_at",
    "sample_candidates",
    "pretrain",
    "DivergenceError",
    "online_phase",
    "run_baseline",
    "evaluate",
    "scratch_agent",
    "ActorPolicy",
    "QGreedyPolicy",
    "EvalResult",
    "RunResult",
]

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("greedy", "categorical", "epsilon_greedy")
SCHEMES = ("ft", "ap")
BASELINE_KINDS = ("dqn", "pg", "a2c", "llm_online")
ONLINE_METHODS = SCHEMES + BASELINE_KINDS

# spawn keys of the per-purpose rng streams (the module docstring's table)
KEY_AGENT_INIT = 1
KEY_PRETRAIN = 2
KEY_ONLINE = 3
KEY_EVAL = 4
KEY_TRAIN_ENV = 10


def derive_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def derive_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(1)[0])


class ReplayBuffer:
    """Bounded FIFO of transitions with seeded uniform minibatch sampling,
    held as columns only: one :class:`TransitionBatch` of ``capacity`` rows,
    allocated up front, and a count of pushes.

    :meth:`push` pads the transition's state to its encoder window once
    (:func:`encoder.window_ids`, for ``encoder_config``) and writes its row
    (:meth:`TransitionBatch.put`, which validates it); once full, a push
    overwrites the oldest row.  Within an episode a state is the previous
    transition's next state (``state_items is`` the last push's
    ``next_state_items``), whose window is the last row's shifted in by its
    action, so that push pads nothing.  :meth:`sample` draws
    ``rng.choice(len(self), batch_size, replace=False)``, indices counted from
    the oldest row, and returns those rows."""

    def __init__(self, capacity: int, encoder_config: EncoderConfig):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = TransitionBatch.empty(capacity, encoder_config)
        self._pushes = 0
        self._last_next = None   # the last stored transition's next_state_items

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, transition: Transition) -> None:
        rows = self._rows
        if transition.state_items is self._last_next:
            last = (self._pushes - 1) % self.capacity
            window = shift_windows(rows.windows[last], rows.actions[last])
        else:
            window = window_ids([transition.state_items], rows.encoder_config)[0]
        rows.put(self._pushes % self.capacity, transition, window)
        self._pushes += 1
        self._last_next = transition.next_state_items

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        if batch_size > len(self):
            raise ValueError("not enough transitions buffered to sample a batch")
        idx = rng.choice(len(self), size=batch_size, replace=False)
        # pushes - len(self) rows were overwritten, so that count (mod capacity) is the oldest
        return self._rows.take((idx + self._pushes - len(self)) % self.capacity)


@dataclass(frozen=True)
class ExplorationStrategy:
    kind: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "epsilon_greedy":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError("epsilon_greedy requires epsilon in [0, 1]")
        elif self.epsilon is not None:
            raise ValueError(f"strategy {self.kind!r} takes no epsilon")


GREEDY = ExplorationStrategy("greedy")
CATEGORICAL = ExplorationStrategy("categorical")


@dataclass(frozen=True)
class TrainConfig:
    pretrain_epochs: int = 100
    pretrain_horizon: int = 20
    online_steps: int = 50_000
    batch_size: int = 64
    buffer_capacity: int = 10_000
    gamma: float = 0.9
    lr: float = 1e-3
    momentum: float = 0.0
    k: int = 10
    candidate_sampling: str = "topk"
    alpha_init: float = 0.2
    alpha_anneal_steps: int = 20_000
    target_update: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.pretrain_horizon, self.online_steps, self.batch_size,
               self.buffer_capacity, self.k, self.alpha_anneal_steps) < 1:
            raise ValueError("all counts in TrainConfig must be positive")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size ({self.batch_size}) exceeds buffer_capacity "
                             f"({self.buffer_capacity}): the replay buffer could never "
                             "hold a minibatch")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.alpha_init <= 1.0:
            raise ValueError("alpha_init must lie in [0, 1]")
        if self.candidate_sampling not in ("topk", "categorical"):
            raise ValueError(f"unknown candidate_sampling {self.candidate_sampling!r}")
        for key in ("lr", "momentum"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"[training] {key} must be finite and >= 0, got {value!r}")
        if self.target_update < 0:
            raise ValueError("target_update must be >= 0 (0 = live critic)")


def choose_action(dist, strategy: ExplorationStrategy, rng: np.random.Generator) -> int:
    """Pick an item id from an action distribution under a strategy.

    greedy takes the argmax (ties to the lowest id); categorical samples the
    distribution; epsilon_greedy takes a uniform random item with probability
    epsilon and the argmax otherwise.
    """
    if strategy.kind == "categorical":
        return sample_categorical(dist, rng)  # which validates dist
    p = _check_probs(dist)
    if strategy.kind == "greedy":
        return int(np.argmax(p))
    if rng.random() < strategy.epsilon:
        return int(rng.integers(p.size))
    return int(np.argmax(p))


class _ReplayTD:
    """Learner that pushes each transition into ``buffer`` and, once a
    minibatch is buffered, takes one :func:`update` step on a fresh sample of
    it (on ``mix`` at its current alpha, if given); ``learn`` returns the
    losses, or None.  ``updates`` counts the steps taken.

    With ``target_update = N > 0`` the TD bootstrap reads ``target``, a
    critic snapshot taken every N updates, and ``memo``: a next window's
    bytes -> the snapshot's ``max_a' Q(s', a')``, filled by :func:`update`
    as it scores next states, so each distinct next window is encoded once
    per snapshot.  Each snapshot starts an empty memo.  A memo value is the
    row a fresh encode would give, bit for bit, since a row's encoder and
    head outputs read its window alone, not the batch it is computed in.
    With N = 0 both are None: the live critic bootstraps every step."""

    def __init__(self, agent: AgentBundle, config: TrainConfig, rng: np.random.Generator,
                 actor: bool = True, mix: MixPolicy | None = None):
        self.agent, self.config, self.rng, self.actor, self.mix = agent, config, rng, actor, mix
        self.buffer = ReplayBuffer(config.buffer_capacity, agent.encoder_config)
        self.updates = 0
        self.target, self.memo = (agent.clone(), {}) if config.target_update > 0 else (None, None)

    def learn(self, transition: Transition):
        config = self.config
        self.buffer.push(transition)
        if len(self.buffer) < config.batch_size:
            return None
        mixture = {} if self.mix is None else {"alpha": self.mix.alpha}
        losses = update(self.buffer.sample(config.batch_size, self.rng), self.agent, config.lr,
                        config.momentum, self.target, actor=self.actor,
                        target_memo=self.memo, gamma=config.gamma, **mixture)
        self.updates += 1
        if self.target is not None and self.updates % config.target_update == 0:
            self.target, self.memo = self.agent.clone(), {}
        return losses


def alpha_at(step: int, config: TrainConfig) -> float:
    """Linear ramp from alpha_init to 1 over alpha_anneal_steps, then clamped."""
    if step < 0:
        raise ValueError("step must be >= 0")
    frac = min(step / config.alpha_anneal_steps, 1.0)
    return config.alpha_init + (1.0 - config.alpha_init) * frac


def _actor_probs(bundle: AgentBundle, ids: np.ndarray) -> np.ndarray:
    """(B, n) actor distributions of a batch of history windows
    (:func:`encoder.window_ids`), one batched encode; (S, B, n) for a bundle
    over an :class:`nn.ParamStack`."""
    return action_distribution(encode_windows(ids, bundle.params, bundle.encoder_config),
                               bundle)


class _PolicyView:
    """An action distribution per history.  A view defines only the batched
    ``probs_windows(ids) -> (B, n)`` over :func:`encoder.window_ids` rows;
    ``probs_batch`` is its padded case and ``probs`` its one-row case, and a
    row's bits do not depend on the batch it is computed in."""

    def probs_batch(self, histories) -> np.ndarray:
        return self.probs_windows(window_ids(histories, self.encoder_config))

    def probs(self, items) -> np.ndarray:
        return self.probs_batch([items])[0]


@dataclass
class MixPolicy(_PolicyView):
    """Frozen pre-trained policy plus a learnable one, blended by alpha.

    Both sides are the rows of one :class:`nn.ParamStack`, so a batch of
    histories takes one forward, one actor head and one softmax for both.
    Row 0 is a copy of the frozen set, taken here and taken again before a
    forward once the frozen set's ``flat`` has moved (a new vector, say by
    :meth:`ParamSet.move_to`); in-place writes to the frozen set after that
    copy are not seen.  Row 1 holds the learnable bundle's :class:`ParamSet`
    itself (:meth:`ParamSet.move_to`), which the learner steps in place; a
    learnable set that has moved out of it since (:func:`online_phase` hands
    its caller an agent that owns its parameters) is copied back into row 1
    before a forward."""
    frozen: AgentBundle
    learnable: AgentBundle
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if ((self.frozen.num_items, self.frozen.encoder_config.max_seq_len)
                != (self.learnable.num_items, self.learnable.encoder_config.max_seq_len)):
            raise ValueError("mixed policies must share the item space and window length")
        stack = ParamStack([self.frozen.params, self.learnable.params], GATHERED)
        self._frozen_row, self._row = stack.flat
        self._frozen_copied = self.frozen.params.flat
        self.learnable.params.move_to(self._row)
        self.encoder_config = self.learnable.encoder_config
        self._both = AgentBundle(stack, self.encoder_config)

    def probs_windows(self, ids) -> np.ndarray:
        """(1 - alpha) * frozen + alpha * learnable per window, both sides in
        one forward over the stack."""
        return self._sides(ids)[0]

    def _sides(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The mixture and its frozen side, (B, n) each, of one batch of
        windows encoded once for both sides."""
        frozen = self.frozen.params.flat
        if frozen is not self._frozen_copied:
            self._frozen_row[...] = frozen
            self._frozen_copied = frozen
        flat = self.learnable.params.flat
        if flat is not self._row:
            self._row[...] = flat
        frozen, learnable = _actor_probs(self._both, ids)
        return (1.0 - self.alpha) * frozen + self.alpha * learnable, frozen


def sample_candidates(dist, k: int, mode: str, rng: np.random.Generator) -> list[int]:
    """k distinct candidate items from an action distribution.

    topk takes the k most probable items (ties to lower ids); categorical
    samples k items without replacement via the Gumbel trick.
    """
    p = np.asarray(dist, dtype=np.float64)
    if k > p.size:
        raise ValueError(f"cannot draw {k} candidates from {p.size} items")
    if mode == "topk":
        idx = np.argsort(-p, kind="stable")[:k]
    elif mode == "categorical":
        keys = np.log(np.maximum(p, 1e-300)) + rng.gumbel(size=p.size)
        idx = np.argsort(-keys, kind="stable")[:k]
    else:
        raise ValueError(f"unknown candidate_sampling {mode!r}")
    return [int(i) for i in idx]


class _JudgeEnv:
    """Pre-training's environment: the judge stands in for the user.

    A reset draws a logged sequence's first item; a step hands the acted
    candidates to the judge (:func:`distill`) and appends its pick, with
    reward 1, or 0 on a None answer.  Episodes end after ``horizon`` steps.
    Every draw comes from ``rng``, the one pre-training stream."""

    def __init__(self, oracle, log_, horizon: int, rng: np.random.Generator):
        if log_.num_sequences == 0:
            raise ValueError("environment needs a nonempty log for initial states")
        self.oracle = oracle
        self.log = log_
        self.horizon = horizon
        self.rng = rng

    def reset(self) -> EnvState:
        seq = self.log.sequences[int(self.rng.integers(self.log.num_sequences))]
        return EnvState(history=(seq.items[0],), user_id=None, done=False)

    def step(self, state: EnvState, candidates: list[int]) -> tuple[float, EnvState, bool]:
        action, reward = distill(state.history, candidates, self.oracle, self.rng)
        done = len(state.history) >= self.horizon
        return reward, EnvState(history=state.history + (action,), user_id=None, done=done), done


def pretrain(agent: AgentBundle, oracle, config: TrainConfig, log_,
             epoch_callback=None, start_epoch: int = 0,
             rng: np.random.Generator | None = None):
    """Pre-train an agent against a preference judge.

    Each epoch is one episode of ``pretrain_horizon`` steps of the rollout
    loop on the judge's environment, starting from a sequence head of
    ``log_``: the actor proposes k candidates, the judge answers, its pick
    extends the sequence, the transition lands in the replay buffer, and one
    minibatch update runs once the buffer is warm.

    Returns the (mutated) agent, its gradient buffer released, and a list of
    per-epoch records with mean losses and mean judge reward.
    ``epoch_callback(epoch, agent, record, rng_state)`` supports
    checkpoint-and-resume: it runs from the loop's episode hook, after the
    epoch's last transition is learned and before the next epoch's start is
    drawn, so ``rng_state`` is the state a resumed run starts from.
    """
    if rng is None:
        rng = derive_rng(config.seed, KEY_PRETRAIN)
    env = _JudgeEnv(oracle, log_, config.pretrain_horizon, rng)
    policy = ActorPolicy(agent)

    def act(history):
        return sample_candidates(policy.probs(history), config.k,
                                 config.candidate_sampling, rng), None

    records = []

    def on_episode(episode: EpisodeRecord, losses):
        # judge rewards are 0 or 1, so the episode's average is their exact mean
        record = {
            "epoch": start_epoch + episode.episode_index,
            "mean_reward": episode.avg_reward,
            "mean_actor_loss": float(np.mean([a for a, _ in losses])) if losses else None,
            "mean_critic_loss": float(np.mean([c for _, c in losses])) if losses else None,
        }
        records.append(record)
        if epoch_callback is not None:
            epoch_callback(record["epoch"], agent, record, rng.bit_generator.state)

    steps = (config.pretrain_epochs - start_epoch) * config.pretrain_horizon
    _rollout("pretrain", env, config, steps, act, _ReplayTD(agent, config, rng),
             on_episode=on_episode)
    agent.params.zero_grads()
    return agent, records


class ActorPolicy(_PolicyView):
    """Evaluation-time view of an actor-critic agent: actor distribution."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle
        self.encoder_config = bundle.encoder_config

    def probs_windows(self, ids) -> np.ndarray:
        return _actor_probs(self.bundle, ids)


class QGreedyPolicy(_PolicyView):
    """Evaluation-time view of a critic-only agent: softmax over Q-values
    (argmax matches the greedy Q action; categorical gives Boltzmann draws)."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle
        self.encoder_config = bundle.encoder_config

    def probs_windows(self, ids) -> np.ndarray:
        b = self.bundle
        return softmax(q_values(encode_windows(ids, b.params, b.encoder_config), b))


@dataclass
class EvalResult:
    episodes: list[EpisodeRecord]
    means: MetricMeans


def evaluate(policy, env, num_episodes: int, seed: int) -> EvalResult:
    """Greedy rollouts of a frozen policy, deterministic given the seed.

    An AgentBundle acts by its actor; anything else (a MixPolicy, an
    ActorPolicy, a QGreedyPolicy) by its ``probs_windows``.  Every reset seed
    is drawn up front, in episode order (:func:`_eval_starts`), and the
    episodes are played by :func:`_play`.
    """
    if num_episodes <= 0:
        raise ValueError("num_episodes must be positive")
    pol = ActorPolicy(policy) if isinstance(policy, AgentBundle) else policy
    return _play(pol, env, _eval_starts(env, num_episodes, seed))


def _eval_starts(env, num_episodes: int, seed: int) -> list[EnvState]:
    """The start states of :func:`evaluate`'s episodes, in episode order: one
    ``env.reset`` each, its seed drawn from key 4 of ``seed``.  A reset with a
    seed is a function of that seed, so a run that evaluates often draws them
    once."""
    rng = derive_rng(seed, KEY_EVAL)
    return [env.reset(seed=int(rng.integers(2 ** 31))) for _ in range(num_episodes)]


def _play(policy: _PolicyView, env, starts: list[EnvState]) -> EvalResult:
    """One greedy episode of ``policy`` from each start, as records in start
    order.

    Episodes that start from equal states are played once: a greedy action
    is the argmax of a row that does not depend on its batch, and
    ``env.step_batch`` is a deterministic function of (state, action), so an
    episode's trajectory is a function of its start.  The distinct starts
    run in lockstep: each time step makes one batched policy forward over
    the windows of those still running, each padded once at its start and
    shifted in by each action, then steps all of them with one
    ``env.step_batch`` call and drops those that finish.  Each episode takes
    the return and length of its start's, so the records equal those of
    playing every episode one after another: in episode order, with
    ``global_step`` the running sum of the lengths.
    """
    played = {start: i for i, start in enumerate(dict.fromkeys(starts))}
    states = list(played)
    returns = [0.0] * len(states)
    lengths = [0] * len(states)
    live = list(range(len(states)))
    ids = window_ids([state.history for state in states], policy.encoder_config)
    while live:
        actions = np.argmax(policy.probs_windows(ids), axis=1)
        rewards, next_states, dones = env.step_batch([states[i] for i in live],
                                                     actions.tolist())
        running = []
        for i, reward, next_state, done in zip(live, rewards, next_states, dones):
            states[i] = next_state
            returns[i] += reward
            lengths[i] += 1
            if not done:
                running.append(i)
        keep = np.logical_not(dones)
        ids = shift_windows(ids[keep], actions[keep])
        live = running
    slots = [played[start] for start in starts]
    global_steps = itertools.accumulate(lengths[j] for j in slots)
    episodes = [EpisodeRecord(i, step, returns[j], lengths[j])
                for i, (step, j) in enumerate(zip(global_steps, slots))]
    return EvalResult(episodes, compute_metrics(episodes))


@dataclass
class RunResult:
    """Outcome of one online run: the adapted agent, the raw episode curve,
    and test-environment snapshots keyed by epoch index plus 'final'."""
    agent: AgentBundle
    episodes: list[EpisodeRecord]
    snapshots: dict[str, MetricMeans] = field(default_factory=dict)
    mix: MixPolicy | None = None


class _Reinforce:
    """Learner that collects ``episode`` and, when it ends, takes one
    REINFORCE :func:`update` step on the per-step discounted return-to-go;
    ``learn`` returns that step's losses, or None mid-episode."""

    def __init__(self, agent: AgentBundle, config: TrainConfig):
        self.agent, self.config = agent, config
        self.episode: list[Transition] = []

    def learn(self, transition: Transition):
        episode, config = self.episode, self.config
        episode.append(transition)
        if not transition.done:
            return None
        returns = np.zeros(len(episode))
        g = 0.0
        for i in range(len(episode) - 1, -1, -1):
            g = episode[i].reward + config.gamma * g
            returns[i] = g
        losses = update(episode, self.agent, config.lr, config.momentum, returns=returns)
        episode.clear()
        return losses


class DivergenceError(ValueError):
    """A training run's values overflowed or turned NaN.  The message, which
    :func:`_rollout` writes, starts with the run's method as the command line
    names it (``pretrain`` for pre-training)."""


def _rollout(method: str, env, config: TrainConfig, steps: int, act, learner, on_step=None,
             on_episode=None):
    """The loop of pre-training and of every online scheme and baseline.

    For ``steps`` steps it acts with ``act(history) -> (action,
    frozen_prob)``, steps the environment with ``env.step(state, action)``,
    hands the transition (carrying the item the step appended and
    ``frozen_prob``) to ``learner.learn`` and closes the episode on done.
    An episode's start is drawn (``env.reset()``) by its first step, so
    there is one reset per episode played and none after the last.  An
    action is whatever the environment steps on: an item for a user
    environment, the candidates for the judge's.  ``on_step(step)`` runs
    after the step's start is drawn and before it acts, and once more with
    ``steps`` after the last step.  ``on_episode(record, losses)`` gets each
    finished episode's :class:`EpisodeRecord` and the losses ``learn``
    returned during it (the Nones left out), after its last transition is
    learned and before the next start is drawn.  Returns the episode curve;
    a value that overflows or turns NaN, in a hook too, raises
    DivergenceError naming ``method`` and the step."""
    episodes: list[EpisodeRecord] = []
    ret, length, losses = 0.0, 0, []
    state = None  # the next episode's start is drawn when a step needs it
    with np.errstate(over="raise", invalid="raise"):
        try:
            for step in range(steps):
                if state is None:
                    state = env.reset()
                if on_step is not None:
                    on_step(step)
                action, frozen_prob = act(state.history)
                reward, next_state, done = env.step(state, action)
                step_losses = learner.learn(Transition(state.history, next_state.history[-1],
                                                       reward, next_state.history, done,
                                                       frozen_prob))
                if step_losses is not None:
                    losses.append(step_losses)
                ret += reward
                length += 1
                if done:
                    episodes.append(EpisodeRecord(len(episodes), step + 1, ret, length))
                    if on_episode is not None:
                        on_episode(episodes[-1], losses)
                    ret, length, losses = 0.0, 0, []
                    state = None
                else:
                    state = next_state
            if on_step is not None:
                on_step(steps)
        except FloatingPointError as exc:
            raise DivergenceError(f"{method} diverged in step {step + 1} of {steps} ({exc}) "
                                  f"at lr {config.lr}, target_update "
                                  f"{config.target_update}") from None
    return episodes


def online_phase(method: str, pretrained: AgentBundle, env, config: TrainConfig,
                 strategy: ExplorationStrategy | None = None, eval_env=None,
                 episodes_per_epoch: int = 50, eval_episodes: int = 20,
                 eval_epochs=(0, 1, 2), *, oracle=None) -> RunResult:
    """Run any of ``ONLINE_METHODS`` online for ``config.online_steps``
    steps, starting from a copy of ``pretrained``.

    ft fine-tunes the copy directly on environment reward; a2c is ft under
    its baseline name.  ap freezes the given agent, trains the copy as the
    learnable policy, and acts from the alpha-weighted mixture; alpha ramps
    linearly to 1.  Each ap transition carries the frozen policy's
    probability of its action, which the learner's mixture term reads
    instead of re-encoding the state under the frozen policy.  dqn trains
    the critic alone and acts on softmax(Q); pg is episodic REINFORCE;
    llm_online trains actor-critic on environment reward while ``oracle``
    picks each action from k actor-proposed candidates.  Every other method
    explores by ``strategy``, by default epsilon-greedy 0.1 for dqn (the
    harness passes ``[training] epsilon``) and categorical for the rest.
    The caller's bundle is never mutated.

    With an ``eval_env`` the loop's step hook snapshots the run
    (:func:`evaluate` of ``eval_episodes`` episodes, whose starts are drawn
    once per run) at the first step of each epoch in ``eval_epochs``
    (``episodes_per_epoch`` episodes of ``max_steps``) and after the last
    ('final'); for ap it then sets alpha from the step, so a snapshot sees
    the previous step's mixture.  The returned agent owns its parameters
    (for ap, moved out of the mixture's stack with their velocity) and holds
    no gradient buffer.  An ``episodes_per_epoch`` below 1 or, with an
    ``eval_env``, an ``eval_episodes`` below 1 raises ValueError before the
    first step.
    """
    if method not in ONLINE_METHODS:
        raise ValueError(f"unknown online method {method!r} ({'|'.join(ONLINE_METHODS)})")
    if method == "llm_online" and oracle is None:
        raise ValueError("llm_online requires an oracle")
    if episodes_per_epoch < 1:
        raise ValueError(f"episodes_per_epoch must be >= 1, got {episodes_per_epoch}")
    if eval_env is not None and eval_episodes < 1:
        raise ValueError(f"eval_episodes must be >= 1, got {eval_episodes}")
    if strategy is None:
        strategy = ExplorationStrategy("epsilon_greedy", 0.1) if method == "dqn" else CATEGORICAL
    rng = derive_rng(config.seed, KEY_ONLINE)
    work = pretrained.clone()
    # the returned agent's own vector: allocated here, before the run's
    # temporaries, since one allocated at the end held more of the heap
    own = work.params.flat
    mix = None
    if method == "ap":
        mix = policy = MixPolicy(pretrained, work, config.alpha_init)

        def act(history):
            probs, frozen = mix._sides(window_ids([history], mix.encoder_config))
            action = choose_action(probs[0], strategy, rng)
            return action, float(frozen[0, action])
    elif method == "llm_online":
        policy = ActorPolicy(work)

        def act(history):
            candidates = sample_candidates(policy.probs(history), config.k,
                                           config.candidate_sampling, rng)
            action, _ = distill(history, candidates, oracle, rng)
            return action, None
    else:
        policy = QGreedyPolicy(work) if method == "dqn" else ActorPolicy(work)

        def act(history):
            return choose_action(policy.probs(history), strategy, rng), None
    learner = (_Reinforce(work, config) if method == "pg"
               else _ReplayTD(work, config, rng, actor=method != "dqn", mix=mix))
    points, starts = {}, None
    if eval_env is not None:
        points = ({e * env.config.max_steps * episodes_per_epoch: str(e) for e in eval_epochs}
                  | {config.online_steps: "final"})
        starts = _eval_starts(eval_env, eval_episodes, derive_seed(config.seed, KEY_EVAL))
    snapshots: dict[str, MetricMeans] = {}

    def on_step(step):
        if step in points:
            snapshots[points[step]] = _play(policy, eval_env, starts).means
        if mix is not None:
            mix.alpha = alpha_at(step, config)

    episodes = _rollout(method, env, config, config.online_steps, act, learner, on_step)
    if mix is not None:
        # out of the stack, so a kept agent does not keep the frozen row alive
        work.params.move_to(own)
    work.params.zero_grads()
    return RunResult(work, episodes, snapshots, mix)


def scratch_agent(config: TrainConfig, encoder_config: EncoderConfig) -> AgentBundle:
    """The randomly initialised agent every scratch baseline starts from."""
    return init_agent(encoder_config.num_items, encoder_config.embed_dim,
                      encoder_config.max_seq_len, derive_seed(config.seed, KEY_AGENT_INIT))


def run_baseline(kind: str, env, config: TrainConfig, encoder_config: EncoderConfig,
                 strategy: ExplorationStrategy | None = None, oracle=None,
                 eval_env=None, episodes_per_epoch: int = 50,
                 eval_episodes: int = 20, eval_epochs=(0, 1, 2)) -> RunResult:
    """Run one of ``BASELINE_KINDS`` with :func:`online_phase`, started from
    :func:`scratch_agent`."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r} ({'|'.join(BASELINE_KINDS)})")
    return online_phase(kind, scratch_agent(config, encoder_config), env, config, strategy,
                        eval_env, episodes_per_epoch, eval_episodes, eval_epochs,
                        oracle=oracle)
