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

Both schemes and all four baselines run one online loop (reset, act, step,
learn, track, snapshot); they differ only in how an action is picked
(``act(history)``) and how a transition is learned from: a replay-buffer TD
step or an episodic REINFORCE step.  Both learners call :func:`agent.update`,
in one of its four settings: actor-critic (pre-training, ft, a2c,
llm_online), critic only (dqn), mixture actor term (ap) or REINFORCE (pg).

Test-environment snapshots and every harness evaluation go through
:func:`evaluate`, which plays its greedy episodes in lockstep: each time step
makes one batched policy forward (one per bundle; two for the ap mixture)
over the histories of the episodes still running, and steps each episode
with ``env.step``.  The evaluation views (``ActorPolicy``, ``QGreedyPolicy``,
``MixPolicy``) define that forward as ``probs_batch``; their single-history
``probs`` is its one-row case.

Every phase owns a single rng derived from the config seed, so runs are
bitwise reproducible at the metrics level.  Each purpose draws from its own
stream, spawned from the seed under one key (``derive_rng``/``derive_seed``):

    ===  ===========================================================
    key  stream
    ===  ===========================================================
    1    agent initialisation (pre-training and scratch baselines)
    2    pre-training: candidates, judge None draws, minibatches
    3    online acting and minibatches
    4    evaluation resets (snapshots and every harness evaluation)
    10   training-environment resets
    11   test-environment resets
    ===  ===========================================================
"""
from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .agent import (AgentBundle, Transition, action_distribution, init_agent, policy_for,
                    q_values, update)
from .encoder import EncoderConfig, encode_batch
from .metrics import EpisodeRecord, MetricMeans, compute_metrics
from .nn import _check_probs, sample_categorical, softmax
from .oracle import distill

__all__ = [
    "ReplayBuffer",
    "ExplorationStrategy",
    "TrainConfig",
    "MixPolicy",
    "choose_action",
    "alpha_at",
    "mix_action_distribution",
    "sample_candidates",
    "pretrain",
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
BASELINE_KINDS = ("dqn", "pg", "a2c", "llm_online")

# spawn keys of the per-purpose rng streams (the module docstring's table)
KEY_AGENT_INIT = 1
KEY_PRETRAIN = 2
KEY_ONLINE = 3
KEY_EVAL = 4
KEY_TRAIN_ENV = 10
KEY_TEST_ENV = 11


def derive_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def derive_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(1)[0])


class ReplayBuffer:
    """Bounded FIFO of transitions with seeded uniform minibatch sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        self._items.append(transition)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if batch_size > len(self._items):
            raise ValueError("not enough transitions buffered to sample a batch")
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[int(i)] for i in idx]


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
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.alpha_init <= 1.0:
            raise ValueError("alpha_init must lie in [0, 1]")
        if self.candidate_sampling not in ("topk", "categorical"):
            raise ValueError(f"unknown candidate_sampling {self.candidate_sampling!r}")
        if self.lr < 0 or self.momentum < 0:
            raise ValueError("lr and momentum must be nonnegative")
        if self.target_update < 0:
            raise ValueError("target_update must be >= 0 (0 = live critic)")


def choose_action(dist, strategy: ExplorationStrategy, rng: np.random.Generator) -> int:
    """Pick an item id from an action distribution under a strategy.

    greedy takes the argmax (ties to the lowest id); categorical samples the
    distribution; epsilon_greedy takes a uniform random item with probability
    epsilon and the argmax otherwise.
    """
    p = _check_probs(dist)
    if strategy.kind == "greedy":
        return int(np.argmax(p))
    if strategy.kind == "categorical":
        return sample_categorical(p, rng)
    if rng.random() < strategy.epsilon:
        return int(rng.integers(p.size))
    return int(np.argmax(p))


class _BootstrapTarget:
    """Frozen critic snapshot for TD bootstraps, refreshed every ``period``
    optimizer steps; period 0 means the live critic is used (no snapshot)."""

    def __init__(self, bundle: AgentBundle, period: int):
        self.period = period
        self.count = 0
        self.snapshot = bundle.clone() if period > 0 else None

    def tick(self, bundle: AgentBundle) -> None:
        self.count += 1
        if self.period > 0 and self.count % self.period == 0:
            self.snapshot = bundle.clone()


def _replay_td(agent: AgentBundle, config: TrainConfig, rng: np.random.Generator,
               actor: bool = True, mix: MixPolicy | None = None):
    """Learner that buffers each transition and, once a minibatch is
    buffered, takes one :func:`update` step on a fresh sample of it (on
    ``mix`` at its current alpha, if given); ``learn`` returns the losses, or
    None."""
    buffer = ReplayBuffer(config.buffer_capacity)
    boot = _BootstrapTarget(agent, config.target_update)

    def learn(transition: Transition):
        buffer.push(transition)
        if len(buffer) < config.batch_size:
            return None
        mixture = {} if mix is None else {"frozen": mix.frozen, "alpha": mix.alpha}
        losses = update(buffer.sample(config.batch_size, rng), agent, config.lr,
                        config.momentum, boot.snapshot, actor=actor, **mixture)
        boot.tick(agent)
        return losses

    return learn


def alpha_at(step: int, config: TrainConfig) -> float:
    """Linear ramp from alpha_init to 1 over alpha_anneal_steps, then clamped."""
    if step < 0:
        raise ValueError("step must be >= 0")
    frac = min(step / config.alpha_anneal_steps, 1.0)
    return config.alpha_init + (1.0 - config.alpha_init) * frac


def _actor_probs(bundle: AgentBundle, histories) -> np.ndarray:
    """(B, n) actor distributions of a batch of histories, one batched encode."""
    return action_distribution(encode_batch(histories, bundle.params, bundle.encoder_config),
                               bundle)


class _PolicyView:
    """An action distribution per history.  A view defines only the batched
    ``probs_batch(histories) -> (B, n)``; ``probs`` is its one-row case, and
    a row's bits do not depend on the batch it is computed in."""

    def probs(self, items) -> np.ndarray:
        return self.probs_batch([items])[0]


@dataclass
class MixPolicy(_PolicyView):
    """Frozen pre-trained policy plus a learnable one, blended by alpha."""
    frozen: AgentBundle
    learnable: AgentBundle
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.frozen.num_items != self.learnable.num_items:
            raise ValueError("mixed policies must share the item space")

    def probs_batch(self, histories) -> np.ndarray:
        """(1 - alpha) * frozen + alpha * learnable per history, each side
        encoding the batch with its own parameters (one forward per side)."""
        p = _actor_probs(self.frozen, histories)
        q = _actor_probs(self.learnable, histories)
        return (1.0 - self.alpha) * p + self.alpha * q


def mix_action_distribution(mix: MixPolicy, items) -> np.ndarray:
    """(1 - alpha) * frozen + alpha * learnable, each encoding the history
    with its own parameters."""
    return mix.probs(items)


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


def pretrain(agent: AgentBundle, oracle, config: TrainConfig,
             log_=None, epoch_callback=None, start_epoch: int = 0,
             rng: np.random.Generator | None = None):
    """Pre-train an agent against a preference judge.

    Per epoch one episode of ``pretrain_horizon`` steps is rolled out: the
    actor proposes k candidates, the judge answers, the chosen action extends
    the sequence, the transition lands in the replay buffer, and one
    minibatch update runs once the buffer is warm.  Initial items come from
    the given log's sequence heads, or uniformly when no log is given.

    Returns the (mutated) agent and a list of per-epoch records with mean
    losses and mean judge reward.  ``epoch_callback(epoch, agent, record,
    rng_state)`` supports checkpoint-and-resume.
    """
    if rng is None:
        rng = derive_rng(config.seed, KEY_PRETRAIN)
    agent.gamma = config.gamma  # the phase's discount is authoritative
    learn = _replay_td(agent, config, rng)
    records = []
    for epoch in range(start_epoch, config.pretrain_epochs):
        if log_ is not None and log_.num_sequences > 0:
            seq = log_.sequences[int(rng.integers(log_.num_sequences))]
            history = (seq.items[0],)
        else:
            history = (int(rng.integers(agent.num_items)),)
        rewards, actor_losses, critic_losses = [], [], []
        for t in range(1, config.pretrain_horizon + 1):
            dist = policy_for(agent, history)
            candidates = sample_candidates(dist, config.k, config.candidate_sampling, rng)
            outcome = distill(history, candidates, oracle, rng)
            next_history = history + (outcome.action,)
            losses = learn(Transition(history, outcome.action, outcome.reward,
                                      next_history, t == config.pretrain_horizon))
            rewards.append(outcome.reward)
            if losses is not None:
                actor_losses.append(losses[0])
                critic_losses.append(losses[1])
            history = next_history
        record = {
            "epoch": epoch,
            "mean_reward": float(np.mean(rewards)),
            "mean_actor_loss": float(np.mean(actor_losses)) if actor_losses else None,
            "mean_critic_loss": float(np.mean(critic_losses)) if critic_losses else None,
        }
        records.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, agent, record, rng.bit_generator.state)
    return agent, records


class ActorPolicy(_PolicyView):
    """Evaluation-time view of an actor-critic agent: actor distribution."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle

    def probs_batch(self, histories) -> np.ndarray:
        return _actor_probs(self.bundle, histories)


class QGreedyPolicy(_PolicyView):
    """Evaluation-time view of a critic-only agent: softmax over Q-values
    (argmax matches the greedy Q action; categorical gives Boltzmann draws)."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle

    def probs_batch(self, histories) -> np.ndarray:
        b = self.bundle
        return softmax(q_values(encode_batch(histories, b.params, b.encoder_config), b))


@dataclass
class EvalResult:
    episodes: list[EpisodeRecord]
    means: MetricMeans


def evaluate(policy, env, num_episodes: int, seed: int) -> EvalResult:
    """Greedy rollouts of a frozen policy, deterministic given the seed.

    An AgentBundle acts by its actor; anything else (a MixPolicy, an
    ActorPolicy, a QGreedyPolicy) by its ``probs_batch``.  The episodes run
    in lockstep: every reset seed is drawn up front, in episode order, and
    each time step makes one batched policy forward (one per bundle) over
    the histories of the episodes still running, then steps each of them
    with ``env.step`` and drops those that finish.  Since a row's
    distribution does not depend on its batch, the records equal those of
    playing the episodes one after another: in episode order, with
    ``global_step`` the running sum of the lengths.
    """
    if num_episodes <= 0:
        raise ValueError("num_episodes must be positive")
    pol = ActorPolicy(policy) if isinstance(policy, AgentBundle) else policy
    rng = derive_rng(seed, KEY_EVAL)
    states = [env.reset(seed=int(rng.integers(2 ** 31))) for _ in range(num_episodes)]
    returns = [0.0] * num_episodes
    lengths = [0] * num_episodes
    live = list(range(num_episodes))
    while live:
        actions = np.argmax(pol.probs_batch([states[i].history for i in live]), axis=1)
        running = []
        for i, action in zip(live, actions.tolist()):
            reward, states[i], done = env.step(states[i], action)
            returns[i] += reward
            lengths[i] += 1
            if not done:
                running.append(i)
        live = running
    global_steps = itertools.accumulate(lengths)
    episodes = [EpisodeRecord.create(i, step, ret, length) for i, (step, ret, length)
                in enumerate(zip(global_steps, returns, lengths))]
    return EvalResult(episodes, compute_metrics(episodes))


@dataclass
class RunResult:
    """Outcome of one online run: the adapted agent, the raw episode curve,
    and test-environment snapshots keyed by epoch index plus 'final'."""
    agent: AgentBundle
    episodes: list[EpisodeRecord]
    snapshots: dict[str, MetricMeans] = field(default_factory=dict)
    mix: MixPolicy | None = None


def _reinforce(agent: AgentBundle, config: TrainConfig):
    """Learner that collects an episode and, when it ends, takes one
    REINFORCE :func:`update` step on the per-step discounted return-to-go;
    ``learn`` returns that step's losses, or None mid-episode."""
    episode: list[Transition] = []

    def learn(transition: Transition):
        episode.append(transition)
        if not transition.done:
            return None
        returns = np.zeros(len(episode))
        g = 0.0
        for i in range(len(episode) - 1, -1, -1):
            g = episode[i].reward + config.gamma * g
            returns[i] = g
        losses = update(episode, agent, config.lr, config.momentum, returns=returns)
        episode.clear()
        return losses

    return learn


def _explore(policy, strategy: ExplorationStrategy, rng: np.random.Generator):
    """act(history): an item drawn from ``policy.probs`` under the strategy."""
    return lambda history: choose_action(policy.probs(history), strategy, rng)


def _rollout(env, config: TrainConfig, act, learn, policy, eval_env,
             episodes_per_epoch: int, eval_episodes: int, eval_epochs):
    """The online loop of every scheme and baseline.

    Each step snapshots ``policy`` on ``eval_env`` at the requested epoch
    boundaries, acts with ``act(history)``, steps the environment, hands the
    transition to ``learn`` and closes the episode on done.  Returns the
    episode curve and the snapshots (epoch index plus 'final'; none without
    an ``eval_env``).  An ``episodes_per_epoch`` below 1 (which would put
    every epoch at step 0 or before it) or, with an ``eval_env``, an
    ``eval_episodes`` below 1 raises ValueError before the first step.
    """
    if episodes_per_epoch < 1:
        raise ValueError(f"episodes_per_epoch must be >= 1, got {episodes_per_epoch}")
    if eval_env is not None and eval_episodes < 1:
        raise ValueError(f"eval_episodes must be >= 1, got {eval_episodes}")
    points: dict[int, str] = {}
    if eval_env is not None:
        epoch_steps = env.config.max_steps * episodes_per_epoch
        points = {e * epoch_steps: str(e) for e in eval_epochs}
    eval_seed = derive_seed(config.seed, KEY_EVAL)
    snapshots: dict[str, MetricMeans] = {}
    episodes: list[EpisodeRecord] = []
    ret, length = 0.0, 0
    state = env.reset()
    for step in range(config.online_steps):
        if step in points:
            snapshots[points[step]] = evaluate(policy, eval_env, eval_episodes, eval_seed).means
        action = act(state.history)
        reward, next_state, done = env.step(state, action)
        learn(Transition(state.history, action, reward, next_state.history, done))
        ret += reward
        length += 1
        if done:
            episodes.append(EpisodeRecord.create(len(episodes), step + 1, ret, length))
            ret, length = 0.0, 0
            state = env.reset()
        else:
            state = next_state
    if eval_env is not None:
        snapshots["final"] = evaluate(policy, eval_env, eval_episodes, eval_seed).means
    return episodes, snapshots


def online_phase(scheme: str, pretrained: AgentBundle, env, config: TrainConfig,
                 strategy: ExplorationStrategy | None = None, eval_env=None,
                 episodes_per_epoch: int = 50, eval_episodes: int = 20,
                 eval_epochs=(0, 1, 2)) -> RunResult:
    """Adapt a pre-trained agent online for ``config.online_steps`` steps.

    scheme "ft" fine-tunes a copy of the pre-trained agent directly on
    environment reward.  scheme "ap" freezes the given agent, clones it into
    a learnable policy, and acts from the alpha-weighted mixture while only
    the learnable side trains; alpha ramps linearly to 1.  The caller's
    bundle is never mutated by either scheme.
    """
    if scheme not in ("ft", "ap"):
        raise ValueError(f"unknown scheme {scheme!r}")
    strategy = strategy or CATEGORICAL
    rng = derive_rng(config.seed, KEY_ONLINE)
    work = pretrained.clone()
    work.gamma = config.gamma  # the phase's discount is authoritative
    if scheme == "ft":
        mix, policy = None, ActorPolicy(work)
        act = _explore(policy, strategy, rng)
        learn = _replay_td(work, config, rng)
    else:
        mix = policy = MixPolicy(pretrained, work, config.alpha_init)
        steps = itertools.count()

        def act(history):
            # alpha moves only here, so the step's snapshot (taken before
            # acting) still sees the previous step's mixture
            mix.alpha = alpha_at(next(steps), config)
            return choose_action(mix.probs(history), strategy, rng)

        learn = _replay_td(work, config, rng, mix=mix)
    episodes, snapshots = _rollout(env, config, act, learn, policy, eval_env,
                                   episodes_per_epoch, eval_episodes, eval_epochs)
    return RunResult(work, episodes, snapshots, mix)


def scratch_agent(config: TrainConfig, encoder_config: EncoderConfig) -> AgentBundle:
    """The randomly initialised agent every scratch baseline starts from."""
    return init_agent(encoder_config.num_items, encoder_config.embed_dim,
                      encoder_config.max_seq_len, config.gamma,
                      derive_seed(config.seed, KEY_AGENT_INIT))


def run_baseline(kind: str, env, config: TrainConfig, encoder_config: EncoderConfig,
                 strategy: ExplorationStrategy | None = None, oracle=None,
                 eval_env=None, episodes_per_epoch: int = 50,
                 eval_episodes: int = 20, eval_epochs=(0, 1, 2)) -> RunResult:
    """Run one baseline from :func:`scratch_agent`.

    a2c is by construction the ft scheme started from that agent.  dqn
    trains the critic alone and acts on softmax(Q) (epsilon-greedy 0.1 by
    default); pg is episodic REINFORCE; llm_online trains actor-critic on
    environment reward while the judge picks each action from k
    actor-proposed candidates.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    if kind == "llm_online" and oracle is None:
        raise ValueError("llm_online requires an oracle")
    agent = scratch_agent(config, encoder_config)
    if kind == "a2c":
        return online_phase("ft", agent, env, config, strategy, eval_env,
                            episodes_per_epoch, eval_episodes, eval_epochs)
    rng = derive_rng(config.seed, KEY_ONLINE)
    policy = QGreedyPolicy(agent) if kind == "dqn" else ActorPolicy(agent)
    if kind == "dqn":
        act = _explore(policy, strategy or ExplorationStrategy("epsilon_greedy", 0.1), rng)
        learn = _replay_td(agent, config, rng, actor=False)
    elif kind == "pg":
        act = _explore(policy, strategy or CATEGORICAL, rng)
        learn = _reinforce(agent, config)
    else:
        def act(history):
            candidates = sample_candidates(policy.probs(history), config.k,
                                           config.candidate_sampling, rng)
            return distill(history, candidates, oracle, rng).action

        learn = _replay_td(agent, config, rng)
    episodes, snapshots = _rollout(env, config, act, learn, policy, eval_env,
                                   episodes_per_epoch, eval_episodes, eval_epochs)
    return RunResult(agent, episodes, snapshots)
