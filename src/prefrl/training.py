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
(``act(history)``) and how a transition is learned from (a replay-buffer TD
step, or an episodic REINFORCE step).

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

from .agent import (AgentBundle, Transition, action_distribution, backprop_heads,
                    init_agent, log_prob, policy_for, q_for, td_target, update)
from .encoder import EncoderConfig, encode_with_cache
from .metrics import EpisodeRecord, MetricMeans, compute_metrics
from .nn import _check_probs, optimizer_step, sample_categorical, softmax
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


def _replay_td(step, model, agent: AgentBundle, config: TrainConfig,
               rng: np.random.Generator):
    """Learner that buffers each transition and, once a minibatch is
    buffered, takes one TD step ``step(batch, model, lr, momentum, target)``
    on a fresh sample of it; ``learn`` returns that step's losses, or None."""
    buffer = ReplayBuffer(config.buffer_capacity)
    boot = _BootstrapTarget(agent, config.target_update)

    def learn(transition: Transition):
        buffer.push(transition)
        if len(buffer) < config.batch_size:
            return None
        losses = step(buffer.sample(config.batch_size, rng), model, config.lr,
                      config.momentum, boot.snapshot)
        boot.tick(agent)
        return losses

    return learn


def alpha_at(step: int, config: TrainConfig) -> float:
    """Linear ramp from alpha_init to 1 over alpha_anneal_steps, then clamped."""
    if step < 0:
        raise ValueError("step must be >= 0")
    frac = min(step / config.alpha_anneal_steps, 1.0)
    return config.alpha_init + (1.0 - config.alpha_init) * frac


@dataclass
class MixPolicy:
    """Frozen pre-trained policy plus a learnable one, blended by alpha."""
    frozen: AgentBundle
    learnable: AgentBundle
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.frozen.num_items != self.learnable.num_items:
            raise ValueError("mixed policies must share the item space")

    def probs(self, items) -> np.ndarray:
        return mix_action_distribution(self, items)


def mix_action_distribution(mix: MixPolicy, items) -> np.ndarray:
    """(1 - alpha) * frozen + alpha * learnable, each encoding the history
    with its own parameters."""
    p = policy_for(mix.frozen, items)
    q = policy_for(mix.learnable, items)
    return (1.0 - mix.alpha) * p + mix.alpha * q


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
    learn = _replay_td(update, agent, agent, config, rng)
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


class ActorPolicy:
    """Evaluation-time view of an actor-critic agent: actor distribution."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle

    def probs(self, items) -> np.ndarray:
        return policy_for(self.bundle, items)


class QGreedyPolicy:
    """Evaluation-time view of a critic-only agent: softmax over Q-values
    (argmax matches the greedy Q action; categorical gives Boltzmann draws)."""

    def __init__(self, bundle: AgentBundle):
        self.bundle = bundle

    def probs(self, items) -> np.ndarray:
        return softmax(q_for(self.bundle, items))


@dataclass
class EvalResult:
    episodes: list[EpisodeRecord]
    means: MetricMeans


def evaluate(policy, env, num_episodes: int, seed: int) -> EvalResult:
    """Greedy rollouts of a frozen policy, deterministic given the seed.

    An AgentBundle acts by its actor; anything else (a MixPolicy, an
    ActorPolicy, a QGreedyPolicy) by its ``probs``.
    """
    if num_episodes <= 0:
        raise ValueError("num_episodes must be positive")
    pol = ActorPolicy(policy) if isinstance(policy, AgentBundle) else policy
    rng = derive_rng(seed, KEY_EVAL)
    episodes = []
    global_step = 0
    for i in range(num_episodes):
        state = env.reset(seed=int(rng.integers(2 ** 31)))
        ret, length = 0.0, 0
        while True:
            action = int(np.argmax(pol.probs(state.history)))
            reward, state, done = env.step(state, action)
            ret += reward
            length += 1
            global_step += 1
            if done:
                break
        episodes.append(EpisodeRecord.create(i, global_step, ret, length))
    return EvalResult(episodes, compute_metrics(episodes))


@dataclass
class RunResult:
    """Outcome of one online run: the adapted agent, the raw episode curve,
    and test-environment snapshots keyed by epoch index plus 'final'."""
    agent: AgentBundle
    episodes: list[EpisodeRecord]
    snapshots: dict[str, MetricMeans] = field(default_factory=dict)
    mix: MixPolicy | None = None


def _mixture_update(batch: list[Transition], mix: MixPolicy, lr: float,
                    momentum: float, target: AgentBundle | None = None
                    ) -> tuple[float, float]:
    """One step on the learnable policy of a mixture.

    The actor term uses the mixed probability of the taken action but
    gradients flow only through the learnable side; the critic and encoder
    update exactly as in plain fine-tuning.  The frozen bundle is never
    touched.
    """
    beta = mix.learnable
    inv_b = 1.0 / len(batch)
    actor_total, critic_total = 0.0, 0.0
    for t in batch:
        state, cache = encode_with_cache(t.state_items, beta.params, beta.encoder_config)
        q_dist = action_distribution(state, beta)
        q_vals = state @ beta.params["critic_w"] + beta.params["critic_b"]
        delta = td_target(t, beta, target) - float(q_vals[t.action])
        mixed = (1.0 - mix.alpha) * policy_for(mix.frozen, t.state_items) + mix.alpha * q_dist

        actor_total += -log_prob(mixed, t.action) * delta
        critic_total += delta * delta

        one_hot = np.zeros(beta.num_items)
        one_hot[t.action] = 1.0
        mixed_a = float(mixed[t.action])
        coeff = 0.0 if mixed_a <= 1e-300 else -delta * mix.alpha * float(q_dist[t.action]) / mixed_a
        d_logits = coeff * (one_hot - q_dist) * inv_b
        d_q = np.zeros(beta.num_items)
        d_q[t.action] = -2.0 * delta * inv_b
        backprop_heads(beta, state, cache, d_logits, d_q)
    actor_mean, critic_mean = actor_total * inv_b, critic_total * inv_b
    if not (np.isfinite(actor_mean) and np.isfinite(critic_mean)):
        raise ValueError("non-finite loss in mixture update")
    optimizer_step(beta.params, lr, momentum)
    return actor_mean, critic_mean


def _critic_update(batch: list[Transition], bundle: AgentBundle, lr: float,
                   momentum: float, target: AgentBundle | None = None) -> float:
    """TD-only step (the dqn baseline): no actor gradient."""
    inv_b = 1.0 / len(batch)
    total = 0.0
    for t in batch:
        state, cache = encode_with_cache(t.state_items, bundle.params, bundle.encoder_config)
        q_vals = state @ bundle.params["critic_w"] + bundle.params["critic_b"]
        delta = td_target(t, bundle, target) - float(q_vals[t.action])
        total += delta * delta
        d_q = np.zeros(bundle.num_items)
        d_q[t.action] = -2.0 * delta * inv_b
        backprop_heads(bundle, state, cache, None, d_q)
    if not np.isfinite(total):
        raise ValueError("non-finite loss in critic update")
    optimizer_step(bundle.params, lr, momentum)
    return total * inv_b




def _reinforce(agent: AgentBundle, config: TrainConfig):
    """Learner that collects an episode and, when it ends, takes one
    actor-only step on the per-step discounted return-to-go (REINFORCE)."""
    episode: list[Transition] = []

    def learn(transition: Transition) -> None:
        episode.append(transition)
        if not transition.done:
            return
        returns = np.zeros(len(episode))
        g = 0.0
        for i in range(len(episode) - 1, -1, -1):
            g = episode[i].reward + config.gamma * g
            returns[i] = g
        inv_t = 1.0 / len(episode)
        for t, g_t in zip(episode, returns):
            s, cache = encode_with_cache(t.state_items, agent.params, agent.encoder_config)
            pi = action_distribution(s, agent)
            one_hot = np.zeros(agent.num_items)
            one_hot[t.action] = 1.0
            backprop_heads(agent, s, cache, g_t * (pi - one_hot) * inv_t, None)
        optimizer_step(agent.params, config.lr, config.momentum)
        episode.clear()

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
    an ``eval_env``).
    """
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
        learn = _replay_td(update, work, work, config, rng)
    else:
        mix = policy = MixPolicy(pretrained, work, config.alpha_init)
        steps = itertools.count()

        def act(history):
            # alpha moves only here, so the step's snapshot (taken before
            # acting) still sees the previous step's mixture
            mix.alpha = alpha_at(next(steps), config)
            return choose_action(mix.probs(history), strategy, rng)

        learn = _replay_td(_mixture_update, mix, work, config, rng)
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
        learn = _replay_td(_critic_update, agent, agent, config, rng)
    elif kind == "pg":
        act = _explore(policy, strategy or CATEGORICAL, rng)
        learn = _reinforce(agent, config)
    else:
        def act(history):
            candidates = sample_candidates(policy.probs(history), config.k,
                                           config.candidate_sampling, rng)
            return distill(history, candidates, oracle, rng).action

        learn = _replay_td(update, agent, agent, config, rng)
    episodes, snapshots = _rollout(env, config, act, learn, policy, eval_env,
                                   episodes_per_epoch, eval_episodes, eval_epochs)
    return RunResult(agent, episodes, snapshots)
