"""Acceptance suite: one test per criterion, each at its stated tolerance.

The directional criteria run on seeded synthetic worlds whose reward models
are built from the same latent ground truth the synthetic judge scores with
(exactly aligned for the initial-performance comparison; a perturbed copy
for the adaptation comparison, where online feedback must genuinely add
information beyond the judge)."""
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from helpers import actor_loss_check, critic_loss_check, max_rel_err
from prefrl.agent import Transition, init_agent, policy_for
from prefrl.checkpoint import load_checkpoint, save_checkpoint
from prefrl.data import generate_synthetic, split_log
from prefrl.encoder import EncoderConfig, encode, encode_backward, encode_with_cache
from prefrl.environment import (EnvConfig, LatentPreferenceModel, MatrixFactorizationModel,
                                UserEnvironment)
from prefrl.harness import write_curve
from prefrl.metrics import EpisodeRecord, compute_metrics, smooth_curve
from prefrl.nn import finite_diff_grad, sample_categorical
from prefrl.oracle import SyntheticOracle, distill, parse_response
from prefrl.training import (ActorPolicy, ExplorationStrategy, MixPolicy, QGreedyPolicy,
                             TrainConfig, choose_action, derive_seed, evaluate,
                             online_phase, pretrain, run_baseline)
from prefrl.data import InteractionLog, UserSequence

CORPUS = json.loads((Path(__file__).parent / "fixtures" / "response_corpus.json").read_text())

EGREEDY = ExplorationStrategy("epsilon_greedy", 0.1)


def pretrain_agent(truth, train_log, num_items, seed, *, epochs, threshold,
                   embed_dim=8, max_seq_len=6, k=5, horizon=20):
    oracle = SyntheticOracle(truth, threshold=threshold)
    agent = init_agent(num_items, embed_dim, max_seq_len, derive_seed(seed, 1))
    cfg = TrainConfig(pretrain_epochs=epochs, pretrain_horizon=horizon, batch_size=16,
                      lr=0.02, gamma=0.0, k=k, candidate_sampling="categorical",
                      seed=seed, buffer_capacity=2000)
    agent, _ = pretrain(agent, oracle, cfg, train_log)
    return agent


@pytest.fixture(scope="module")
def aligned_world():
    """24-item world whose environment scores with the judge's own latents."""
    catalog, log, truth = generate_synthetic(24, 24, 6, 4, seed=3, noise_scale=0.05)
    train_log, test_log = split_log(log, 0.8, seed=3)
    model = LatentPreferenceModel(truth.item_latents, r_max=1.0, scale=0.25)
    return {"catalog": catalog, "truth": truth, "train": train_log,
            "test": test_log, "model": model}


@pytest.fixture(scope="module")
def shifted_world():
    """36-item world whose environment scores with a perturbed copy of the
    judge's latents, so online feedback carries information the judge lacks."""
    catalog, log, truth = generate_synthetic(50, 36, 6, 4, seed=3, noise_scale=0.05)
    train_log, test_log = split_log(log, 0.8, seed=3)
    perturbed = truth.item_latents + 0.7 * np.random.default_rng(99).standard_normal(
        truth.item_latents.shape)
    model = LatentPreferenceModel(perturbed, r_max=1.0, scale=0.25)
    return {"catalog": catalog, "truth": truth, "train": train_log,
            "test": test_log, "model": model}


def world_envs(world, seed, *, max_steps=12, quit_threshold=0.2):
    def mk(log_, key):
        return UserEnvironment(world["model"], log_,
                               EnvConfig(max_steps=max_steps, quit_threshold=quit_threshold,
                                         seed=derive_seed(seed, key)))
    return mk(world["train"], 10), mk(world["test"], 11)


def test_criterion_01_gradients_match_finite_differences():
    """Actor loss, critic loss, and encoder gradients agree with central
    differences at relative error <= 1e-4 on >= 20 seeded toy instances."""
    started = time.perf_counter()
    checked = 0
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        agent = init_agent(5, embed_dim=3, max_seq_len=4, seed=seed)
        for _ in range(3):
            items = tuple(int(i) for i in rng.integers(0, 5, size=rng.integers(1, 4)))
            action = int(rng.integers(5))
            t = Transition(items, action, float(rng.normal()), items + (action,),
                           bool(rng.integers(2)))

            loss_fn, analytic = actor_loss_check(t, agent)
            assert max_rel_err(analytic, finite_diff_grad(loss_fn, agent.params)) <= 1e-4

            loss_fn, analytic = critic_loss_check(t, agent)
            assert max_rel_err(analytic, finite_diff_grad(loss_fn, agent.params)) <= 1e-4

            w = rng.normal(size=3)
            _, cache = encode_with_cache(items, agent.params, agent.encoder_config)
            agent.params.zero_grads()
            encode_backward(cache, w, agent.params)
            analytic = {k: v.copy() for k, v in agent.params.grads.items()
                        if k in ("item_emb", "pos_emb", "w_q", "w_k", "w_v")}
            agent.params.zero_grads()
            numeric = finite_diff_grad(
                lambda p: float(w @ encode(items, p, agent.encoder_config)), agent.params)
            assert max_rel_err(analytic, numeric) <= 1e-4
            checked += 1
    assert checked >= 20
    assert time.perf_counter() - started < 10.0


def test_criterion_02_metric_identity():
    """avg reward is return/length per episode, and the constructed episode
    matching the published ratio (return 5.11, length 6.21, 0.82) holds
    within 0.01."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        length = int(rng.integers(1, 30))
        ret = float(rng.normal() * 10)
        rec = EpisodeRecord(0, length, ret, length)
        assert abs(rec.avg_reward * rec.length - rec.episode_return) <= 1e-9

    single = compute_metrics([EpisodeRecord(0, 6, 4.92, 6)])
    assert abs(single.avg_reward - 0.82) < 0.01
    assert abs(5.11 / 6.21 - 0.82) < 0.01


def test_criterion_03_mixture_limits():
    """alpha=0 rollouts are distribution-identical to the frozen policy and
    alpha=1 to the learnable one (10k-action frequency comparison, max
    per-item deviation < 0.01 on a <= 20-item catalog)."""
    frozen = init_agent(18, 8, 6, seed=100)
    learnable = init_agent(18, 8, 6, seed=200)
    history = [2, 7, 11]

    for alpha, reference in ((0.0, frozen), (1.0, learnable)):
        mix = MixPolicy(frozen, learnable, alpha)
        mix_dist = mix.probs(history)
        ref_dist = policy_for(reference, history)
        assert np.abs(mix_dist - ref_dist).max() < 1e-12

        n = 10_000
        counts_mix, counts_ref = np.zeros(18), np.zeros(18)
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(n):
            counts_mix[sample_categorical(mix_dist, rng_a)] += 1
            counts_ref[sample_categorical(ref_dist, rng_b)] += 1
        assert np.abs(counts_mix - counts_ref).max() / n < 0.01


def test_criterion_04_frozen_policy_survives_full_run():
    """After a full 50k-step adaptive-policy run, the pre-trained bundle's
    parameters are bitwise unchanged."""
    catalog, log, truth = generate_synthetic(16, 16, 5, 3, seed=2, noise_scale=0.05)
    train_log, _ = split_log(log, 0.8, seed=2)
    model = LatentPreferenceModel(truth.item_latents, r_max=1.0, scale=0.25)
    env = UserEnvironment(model, train_log,
                          EnvConfig(max_steps=8, quit_threshold=0.15, seed=derive_seed(0, 10)))
    agent = pretrain_agent(truth, train_log, 16, 0, epochs=5, threshold=2.0,
                           max_seq_len=4, k=4, horizon=10)
    before = agent.params.copy()
    cfg = TrainConfig(online_steps=50_000, batch_size=4, buffer_capacity=2000,
                      lr=1e-3, gamma=0.9, alpha_init=0.2, alpha_anneal_steps=20_000,
                      target_update=200, seed=0, k=4)
    result = online_phase("ap", agent, env, cfg, strategy=EGREEDY)
    assert before.allclose(agent.params)
    assert before.allclose(result.mix.frozen.params)
    assert not before.allclose(result.mix.learnable.params)


def test_criterion_05_pretrained_beats_scratch_at_epoch_zero(aligned_world):
    """On the judge-aligned environment, the pre-trained agent's epoch-0 test
    return exceeds every scratch baseline's in >= 4 of 5 seeds."""
    started = time.perf_counter()
    world = aligned_world
    wins = 0
    for seed in range(5):
        _, test_env = world_envs(world, seed, quit_threshold=0.15)
        agent = pretrain_agent(world["truth"], world["train"], 24, seed,
                               epochs=30, threshold=2.5)
        r_pretrained = evaluate(agent, test_env, 20, seed).means.episode_return
        scratch_returns = []
        for key, kind in ((21, "dqn"), (22, "pg"), (23, "a2c")):
            bundle = init_agent(24, 8, 6, derive_seed(seed, key))
            policy = QGreedyPolicy(bundle) if kind == "dqn" else ActorPolicy(bundle)
            scratch_returns.append(evaluate(policy, test_env, 20, seed).means.episode_return)
        wins += all(r_pretrained > r for r in scratch_returns)
    assert wins >= 4
    assert time.perf_counter() - started < 600.0


def _steps_to_reach(episodes, threshold):
    for ep, sm in zip(episodes, smooth_curve(episodes)):
        if sm.episode_return >= threshold:
            return ep.global_step
    return float("inf")


def test_criterion_06_online_adaptation_beats_frozen_and_scratch(shifted_world):
    """Both adaptation schemes end above the frozen pre-trained agent on the
    test environment, and the adaptive scheme's smoothed curve reaches 90% of
    its final return in fewer environment steps than scratch actor-critic,
    each in >= 4 of 5 seeds."""
    world = shifted_world
    enc = EncoderConfig(num_items=36, embed_dim=8, max_seq_len=6)
    ft_wins = ap_wins = cross_wins = 0
    for seed in range(5):
        agent = pretrain_agent(world["truth"], world["train"], 36, seed,
                               epochs=20, threshold=2.2)
        _, test_env = world_envs(world, seed)
        r_frozen = evaluate(agent, test_env, 20, seed).means.episode_return

        cfg = TrainConfig(online_steps=4000, batch_size=8, buffer_capacity=2000,
                          lr=2e-3, gamma=0.9, alpha_init=0.2, alpha_anneal_steps=2000,
                          target_update=100, seed=seed, k=5)
        train_env, test_env = world_envs(world, seed)
        ft = online_phase("ft", agent, train_env, cfg, strategy=EGREEDY,
                          eval_env=test_env, eval_episodes=20)
        train_env, test_env = world_envs(world, seed)
        ap = online_phase("ap", agent, train_env, cfg, strategy=EGREEDY,
                          eval_env=test_env, eval_episodes=20)
        train_env, test_env = world_envs(world, seed)
        a2c = run_baseline("a2c", train_env, cfg, enc, strategy=EGREEDY,
                           eval_env=test_env, eval_episodes=20)

        ft_wins += ft.snapshots["final"].episode_return > r_frozen
        ap_wins += ap.snapshots["final"].episode_return > r_frozen
        quality = 0.9 * smooth_curve(ap.episodes)[-1].episode_return
        cross_wins += _steps_to_reach(ap.episodes, quality) < _steps_to_reach(a2c.episodes, quality)
    assert ft_wins >= 4
    assert ap_wins >= 4
    assert cross_wins >= 4


def test_criterion_07_exploration_frequencies():
    """The epsilon-greedy random branch fires at rate epsilon +- 1% over 100k
    decisions; categorical sampling passes a chi-square goodness-of-fit test
    (p > 0.01) against the policy distribution on a 10-item toy, 10 seeds."""
    epsilon = 0.3
    strategy = ExplorationStrategy("epsilon_greedy", epsilon)
    dist = np.full(10, 0.1)
    dist[4] = 0.1  # uniform; argmax ties to item 0
    rng = np.random.default_rng(11)
    n = 100_000
    non_greedy = sum(choose_action(dist, strategy, rng) != 0 for _ in range(n))
    # the random branch lands on the greedy item 1/10 of the time
    estimated = non_greedy / n * 10 / 9
    assert abs(estimated - epsilon) < 0.01

    probs = np.random.default_rng(5).dirichlet(np.ones(10))
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        counts = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            counts[choose_action(probs, ExplorationStrategy("categorical"), rng)] += 1
        _, p_value = stats.chisquare(counts, probs * draws)
        assert p_value > 0.01


def test_criterion_08_oracle_protocol():
    """100% on the 50-case response corpus; rewards are binary; the None
    branch selects uniformly (1000 +- 100 per candidate over 10k events,
    k=10)."""
    assert len(CORPUS) >= 50
    failures = [(c["text"], c["expect"], parse_response(c["text"], c["k"]).label_index)
                for c in CORPUS
                if parse_response(c["text"], c["k"]).label_index != c["expect"]]
    assert not failures, failures

    class AlwaysNone:
        def choose(self, history, candidates):
            from prefrl.oracle import OracleChoice
            return OracleChoice(None, "None")

    candidates = list(range(10))
    rng = np.random.default_rng(21)
    counts = np.zeros(10)
    for _ in range(10_000):
        action, reward = distill([0], candidates, AlwaysNone(), rng)
        assert reward == 0.0
        counts[action] += 1
    assert counts.min() >= 900 and counts.max() <= 1100

    truth = generate_synthetic(6, 20, 4, 3, seed=5)[2]
    judge = SyntheticOracle(truth, threshold=0.5)
    for _ in range(500):
        cands = list(rng.choice(20, size=10, replace=False))
        history = [int(rng.integers(20))]
        action, reward = distill(history, cands, judge, rng)
        assert reward == (0.0 if judge.choose(history, cands).label_index is None else 1.0)
        assert action in cands


def test_criterion_09_policy_gradient_bandit():
    """The policy-gradient baseline reaches pi(best arm) > 0.95 within 2000
    steps on a two-item environment paying 1 for one arm and 0 for the
    other."""
    model = MatrixFactorizationModel(["u0"], np.array([[1.0]]), np.array([[1.0], [0.0]]),
                                     np.zeros(1), np.zeros(2), 0.0, r_max=1.0)
    log = InteractionLog((UserSequence("u0", (0, 0), (0, 1)),))
    env = UserEnvironment(model, log, EnvConfig(max_steps=10, quit_threshold=0.15, seed=0))
    cfg = TrainConfig(online_steps=2000, batch_size=8, buffer_capacity=500,
                      lr=0.05, gamma=0.9, seed=0)
    result = run_baseline("pg", env, cfg, EncoderConfig(num_items=2, embed_dim=4,
                                                        max_seq_len=4))
    assert policy_for(result.agent, [0])[0] > 0.95


def test_criterion_10_determinism_and_persistence(aligned_world, tmp_path):
    """Identical seeds reproduce byte-identical learning-curve files, and a
    checkpoint roundtrip preserves greedy actions on 1000 probe states."""
    world = aligned_world

    def one_run(out_path):
        agent = pretrain_agent(world["truth"], world["train"], 24, 0,
                               epochs=4, threshold=2.5)
        train_env, _ = world_envs(world, 0, quit_threshold=0.15)
        cfg = TrainConfig(online_steps=600, batch_size=8, buffer_capacity=500,
                          lr=2e-3, gamma=0.9, alpha_init=0.2, alpha_anneal_steps=300,
                          target_update=100, seed=0, k=5)
        result = online_phase("ap", agent, train_env, cfg, strategy=EGREEDY)
        write_curve(out_path, result.episodes)
        return result.agent

    agent = one_run(tmp_path / "curve_a.jsonl")
    one_run(tmp_path / "curve_b.jsonl")
    assert (tmp_path / "curve_a.jsonl").read_bytes() == (tmp_path / "curve_b.jsonl").read_bytes()

    ckpt = tmp_path / "agent.ckpt"
    save_checkpoint(agent, ckpt)
    loaded = load_checkpoint(ckpt)
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(1000):
        probe = list(rng.integers(0, 24, size=rng.integers(1, 7)))
        agree += int(np.argmax(policy_for(agent, probe))) == \
                 int(np.argmax(policy_for(loaded, probe)))
    assert agree == 1000
