import numpy as np
import pytest

from helpers import reference_fit_sequential, reference_score
from prefrl.data import InteractionLog, UserSequence, generate_synthetic
from prefrl.encoder import encode
from prefrl.environment import (EnvConfig, LatentPreferenceModel,
                                MatrixFactorizationModel, UserEnvironment,
                                fit_reward_model)


def tiny_log(*seqs):
    return InteractionLog(tuple(
        UserSequence(f"u{i}", tuple(items), tuple(range(len(items))))
        for i, items in enumerate(seqs)))


def handmade_mf(user_rows, item_rows, r_max=5.0, user_bias=None, item_bias=None, b0=0.0):
    u = np.asarray(user_rows, dtype=float)
    v = np.asarray(item_rows, dtype=float)
    return MatrixFactorizationModel(
        [f"u{i}" for i in range(len(u))], u, v,
        np.zeros(len(u)) if user_bias is None else np.asarray(user_bias, float),
        np.zeros(len(v)) if item_bias is None else np.asarray(item_bias, float),
        b0, r_max)


class ScriptedModel:
    """Reward keyed to the step index (history length), for rollout tests."""

    kind = "latent"

    def __init__(self, rewards, num_items=4, r_max=5.0):
        self.rewards = rewards
        self.num_items = num_items
        self.r_max = r_max

    def score_batch(self, histories, actions):
        return np.array([self.rewards[len(history) - 1] for history in histories])


class TestEnvConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(max_steps=0)
        with pytest.raises(ValueError):
            EnvConfig(quit_threshold=-0.1)


class TestScore:
    def test_zero_factors_score_zero(self):
        m = handmade_mf(np.zeros((2, 3)), np.zeros((4, 3)))
        assert m.score("u0", 2) == 0.0

    def test_orthogonal_factors_score_zero_before_bias(self):
        m = handmade_mf([[1.0, 0.0]], [[0.0, 1.0]], item_bias=[0.25])
        assert m.score("u0", 0) == pytest.approx(0.25)

    def test_mf_matches_explicit_dot(self):
        rng = np.random.default_rng(0)
        m = handmade_mf(rng.normal(size=(3, 4)), rng.normal(size=(6, 4)),
                        user_bias=rng.normal(size=3), item_bias=rng.normal(size=6),
                        b0=0.3, r_max=100.0)
        for u in range(3):
            for i in range(6):
                raw = m.user_factors[u] @ m.item_factors[i] + m.user_bias[u] + m.item_bias[i] + 0.3
                assert m.score(f"u{u}", i) == pytest.approx(np.clip(raw, 0, 100))

    def test_mf_unknown_user(self):
        m = handmade_mf([[1.0]], [[1.0]])
        with pytest.raises(KeyError, match="stranger"):
            m.score("stranger", 0)

    def test_clipping_to_reward_range(self):
        m = handmade_mf([[10.0]], [[10.0], [-10.0]], r_max=5.0)
        assert m.score("u0", 0) == 5.0
        assert m.score("u0", 1) == 0.0

    def test_latent_model_scores_mean_history_dot(self):
        rng = np.random.default_rng(1)
        latents = rng.normal(size=(8, 3))
        m = LatentPreferenceModel(latents, r_max=50.0)
        history = [1, 4, 6]
        for a in range(8):
            raw = latents[history].mean(axis=0) @ latents[a]
            assert m.score(history, a) == pytest.approx(np.clip(raw, 0, 50.0))


def reward_models():
    """One model of each kind, over 12 items."""
    _, log, truth = generate_synthetic(6, 12, 5, 3, seed=2, noise_scale=0.05)
    return {
        "latent": LatentPreferenceModel(truth.item_latents, r_max=5.0, scale=1.7),
        "matrix_factorization": fit_reward_model(log, "matrix_factorization", 12, d_rm=3,
                                                 epochs=3, seed=0),
        "sequential": fit_reward_model(log, "sequential", 12, d_rm=4, epochs=2,
                                       max_seq_len=4, seed=0),
    }


class TestScoreBatch:
    @pytest.mark.parametrize("lengths", [(1, 3, 3, 4, 5, 7, 1, 9, 5), (6,) * 9],
                             ids=["mixed", "equal"])
    @pytest.mark.parametrize("kind", ["latent", "matrix_factorization", "sequential"])
    def test_rows_equal_the_per_row_formula_bitwise(self, kind, lengths):
        # histories of mixed or equal lengths, past the sequential model's
        # window of 4
        model = reward_models()[kind]
        rng = np.random.default_rng(3)
        if kind == "matrix_factorization":
            contexts = [f"u{int(u)}" for u in rng.integers(0, 6, size=9)]
        else:
            contexts = [tuple(int(i) for i in rng.integers(0, 12, size=n)) for n in lengths]
        actions = [int(a) for a in rng.integers(0, 12, size=9)]
        got = model.score_batch(contexts, actions)
        assert got.shape == (9,)
        for b, (context, action) in enumerate(zip(contexts, actions)):
            want = reference_score(model, context, action)
            assert got[b] == want
            assert model.score(context, action) == want

    def test_unknown_user_raises_key_error(self):
        model = reward_models()["matrix_factorization"]
        with pytest.raises(KeyError, match="stranger"):
            model.score_batch(["u0", "stranger"], [1, 2])


class TestFitMatrixFactorization:
    def test_lone_positive_beats_unseen_items(self):
        log = tiny_log([3, 3], [0, 1], [1, 2])
        m = fit_reward_model(log, "matrix_factorization", 6, d_rm=3, seed=1)
        liked = m.score("u0", 3)
        for other in (2, 4, 5):  # items user 0 never touched
            assert liked > m.score("u0", other)

    def test_degenerate_single_interaction_log(self):
        log = InteractionLog((UserSequence("u0", (1,), (0,)),))
        m = fit_reward_model(log, "matrix_factorization", 4, d_rm=2, seed=0)
        for i in range(4):
            assert np.isfinite(m.score("u0", i))

    def test_recovers_ground_truth_top_items(self):
        _, log, truth = generate_synthetic(30, 30, 6, 4, seed=3, noise_scale=0.05)
        m = fit_reward_model(log, "matrix_factorization", 30, d_rm=4, seed=0)
        hits = 0
        for u in range(30):
            preds = (m.user_factors[u] @ m.item_factors.T
                     + m.user_bias[u] + m.item_bias + m.global_bias)
            truth_scores = truth.item_latents @ truth.user_latents[u]
            hits += int(np.argmax(preds)) == int(np.argmax(truth_scores))
        assert hits / 30 >= 0.6

    def test_loss_descends_within_tolerance(self):
        _, log, _ = generate_synthetic(20, 20, 5, 3, seed=9, noise_scale=0.05)
        m = fit_reward_model(log, "matrix_factorization", 20, d_rm=3, seed=2)
        losses = m.loss_history
        assert len(losses) == 40
        assert all(losses[i + 1] <= losses[i] * 1.05 for i in range(len(losses) - 1))
        assert losses[-1] < losses[0]

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            fit_reward_model(InteractionLog(()), "matrix_factorization", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            fit_reward_model(tiny_log([0, 1]), "deep", 4)


class TestFitSequential:
    def test_loss_descends_and_scores_match_dot(self):
        _, log, _ = generate_synthetic(15, 20, 5, 3, seed=4, noise_scale=0.05)
        m = fit_reward_model(log, "sequential", 20, d_rm=6, epochs=6, lr=0.05,
                             max_seq_len=6, seed=1)
        losses = m.loss_history
        assert all(losses[i + 1] <= losses[i] * 1.05 for i in range(len(losses) - 1))
        history = [3, 7, 1]
        state = encode(history, m.params, m.encoder_config)
        for a in (0, 5, 19):
            raw = state @ m.params["item_emb"][a]
            assert m.score(history, a) == pytest.approx(np.clip(raw, 0, m.r_max))

    def test_next_item_gradient_matches_finite_differences(self):
        # the tied-embedding cross-entropy backward used during fitting
        from helpers import max_rel_err
        from prefrl.encoder import EncoderConfig, encode_backward, encode_with_cache, init_encoder_params
        from prefrl.nn import ParamSet, finite_diff_grad, softmax

        config = EncoderConfig(num_items=6, embed_dim=3, max_seq_len=4)
        params = ParamSet(init_encoder_params(config, np.random.default_rng(3)))
        prefix, target = (2, 5, 1), 4

        state, cache = encode_with_cache(prefix, params, config)
        item_emb = params["item_emb"][:6]
        probs = softmax(item_emb @ state)
        d_logits = probs.copy()
        d_logits[target] -= 1.0
        params.zero_grads()
        params.grads["item_emb"][:6] += np.outer(d_logits, state)
        encode_backward(cache, item_emb.T @ d_logits, params)
        analytic = {k: v.copy() for k, v in params.grads.items()}
        params.zero_grads()

        def loss_fn(p):
            s = encode(prefix, p, config)
            pr = softmax(p["item_emb"][:6] @ s)
            return -float(np.log(pr[target]))

        numeric = finite_diff_grad(loss_fn, params)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_fit_is_bitwise_the_loop_that_pads_every_step(self):
        # the fit pads each fixed prefix once and steps one flat array; a
        # plain loop over frozen copies of the single-row forward, backward
        # and SGD step, padding the prefix at every step, gives every bit
        _, log, _ = generate_synthetic(12, 15, 6, 3, seed=6, noise_scale=0.05)
        num_items, d_rm, max_seq_len, epochs, lr, seed = 15, 4, 3, 3, 0.05, 2
        params, losses = reference_fit_sequential(log, num_items, d_rm, max_seq_len, epochs,
                                                  lr, seed)
        m = fit_reward_model(log, "sequential", num_items, d_rm=d_rm, epochs=epochs, lr=lr,
                             max_seq_len=max_seq_len, seed=seed)
        assert m.loss_history == losses
        assert m.params.names() == list(params)
        for name in params:
            assert np.array_equal(m.params[name], params[name]), name

    def test_learns_next_item_structure(self):
        _, log, _ = generate_synthetic(20, 25, 6, 4, seed=3, noise_scale=0.05)
        m = fit_reward_model(log, "sequential", 25, d_rm=8, epochs=8, lr=0.05,
                             max_seq_len=8, seed=0)
        hits = total = 0
        for seq in log.sequences:
            for t in range(1, len(seq.items)):
                s_true = m.score(seq.items[:t], seq.items[t])
                s_other = m.score(seq.items[:t], (seq.items[t] + 7) % 25)
                hits += s_true > s_other
                total += 1
        assert hits / total > 0.7


class TestEpisodeLifecycle:
    def make_env(self, model=None, seqs=((0, 1, 2), (2, 3, 1)), **cfg):
        cfg.setdefault("max_steps", 5)
        cfg.setdefault("quit_threshold", 0.2)
        cfg.setdefault("seed", 0)
        model = model or ScriptedModel([1.0] * 10, r_max=1.0)
        return UserEnvironment(model, tiny_log(*seqs), EnvConfig(**cfg))

    def test_quit_threshold_must_lie_below_the_models_r_max(self):
        # rewards are clipped to the model's r_max, so a threshold at or above
        # it would end every episode on its first step
        with pytest.raises(ValueError, match=r"quit_threshold 2\.0 .* r_max 1\.0"):
            UserEnvironment(LatentPreferenceModel(np.eye(4), r_max=1.0), tiny_log((0, 1, 2)),
                            EnvConfig(quit_threshold=2.0))
        with pytest.raises(ValueError, match=r"quit_threshold 1\.0 .* r_max 1\.0"):
            self.make_env(quit_threshold=1.0)
        assert self.make_env(quit_threshold=0.99).config.quit_threshold == 0.99

    def test_reset_is_seeded(self):
        env = self.make_env()
        assert env.reset(seed=5) == env.reset(seed=5)

    def test_an_environment_without_a_reset_stream_refuses_an_unseeded_reset(self):
        env = self.make_env(seed=None)
        with pytest.raises(ValueError, match="no reset stream"):
            env.reset()
        assert env.reset(seed=5) == self.make_env().reset(seed=5)

    def test_reset_history_is_one_logged_item(self):
        env = self.make_env()
        state = env.reset(seed=1)
        assert len(state.history) == 1
        assert state.user_id is None  # non-MF kinds keep only the item
        assert not state.done

    def test_mf_reset_keeps_user(self):
        model = handmade_mf(np.ones((2, 2)), np.ones((4, 2)), r_max=5.0)
        env = UserEnvironment(model, tiny_log([0, 1], [2, 3]),
                              EnvConfig(max_steps=3, quit_threshold=0.1, seed=0))
        state = env.reset(seed=2)
        assert state.user_id in ("u0", "u1")
        assert len(state.history) == 1

    def test_quit_rule_fires_immediately(self):
        env = self.make_env(model=ScriptedModel([0.05] * 10, r_max=1.0))
        state = env.reset(seed=0)
        reward, state, done = env.step(state, 1)
        assert done and state.done
        assert reward == pytest.approx(0.05)

    def test_horizon_of_one(self):
        env = self.make_env(max_steps=1)
        for s in range(4):
            state = env.reset(seed=s)
            _, state, done = env.step(state, 0)
            assert done and len(state.history) == 2

    def test_hand_simulated_rollout(self):
        # rewards 1, 1, 1, 0.1 with threshold 0.2: quits at step 4
        env = self.make_env(model=ScriptedModel([1.0, 1.0, 1.0, 0.1, 1.0], r_max=1.0))
        state = env.reset(seed=0)
        total, length = 0.0, 0
        done = False
        while not done:
            reward, state, done = env.step(state, 1)
            total += reward
            length += 1
        assert total == pytest.approx(3.1)
        assert length == 4

    def test_step_appends_action_to_history(self):
        env = self.make_env()
        state = env.reset(seed=0)
        _, nxt, _ = env.step(state, 3)
        assert nxt.history == state.history + (3,)

    def test_stepping_done_episode_raises(self):
        env = self.make_env(max_steps=1)
        state = env.reset(seed=0)
        _, state, _ = env.step(state, 0)
        with pytest.raises(RuntimeError):
            env.step(state, 0)

    def test_action_range_checked(self):
        env = self.make_env()
        state = env.reset(seed=0)
        with pytest.raises(ValueError):
            env.step(state, 99)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            UserEnvironment(ScriptedModel([1.0]), InteractionLog(()), EnvConfig(seed=0))


class TestStepBatch:
    @pytest.mark.parametrize("kind", ["latent", "matrix_factorization", "sequential"])
    def test_rows_equal_single_steps(self, kind):
        _, log, _ = generate_synthetic(6, 12, 5, 3, seed=2, noise_scale=0.05)
        env = UserEnvironment(reward_models()[kind], log,
                              EnvConfig(max_steps=2, quit_threshold=0.0))
        rng = np.random.default_rng(4)
        states = [env.reset(seed=s) for s in range(5)]
        for _ in range(2):  # a second step from histories of length 2, which ends
            actions = [int(a) for a in rng.integers(0, 12, size=len(states))]
            rewards, next_states, dones = env.step_batch(states, actions)
            singles = [env.step(s, a) for s, a in zip(states, actions)]
            assert list(zip(rewards, next_states, dones)) == singles
            assert all(type(r) is float for r in rewards)
            states = next_states
        assert all(s.done for s in states)

    def test_finished_state_is_refused(self):
        env = TestEpisodeLifecycle().make_env(max_steps=1)
        live = env.reset(seed=0)
        _, finished, _ = env.step(live, 0)
        with pytest.raises(RuntimeError, match="cannot step a finished episode"):
            env.step_batch([live, finished], [0, 0])

    def test_action_out_of_range_is_refused(self):
        env = TestEpisodeLifecycle().make_env()
        state = env.reset(seed=0)
        with pytest.raises(ValueError, match=r"action 99 out of range \[0, 4\)"):
            env.step_batch([state, state], [1, 99])
        with pytest.raises(ValueError, match=r"action -1 out of range"):
            env.step_batch([state], [-1])


class TestEpisodeProperties:
    def rollout(self, env, actions, seed):
        state = env.reset(seed=seed)
        rewards = []
        for a in actions:
            r, state, done = env.step(state, a)
            rewards.append(r)
            if done:
                break
        return rewards, state

    def test_identical_seeds_and_actions_give_identical_episodes(self):
        _, log, truth = generate_synthetic(6, 12, 4, 3, seed=0)
        cfg = EnvConfig(max_steps=8, quit_threshold=0.3, seed=4)
        rng = np.random.default_rng(2)
        actions = list(rng.integers(0, 12, size=8))
        a = self.rollout(UserEnvironment(LatentPreferenceModel(truth.item_latents, 5.0), log, cfg), actions, 3)
        b = self.rollout(UserEnvironment(LatentPreferenceModel(truth.item_latents, 5.0), log, cfg), actions, 3)
        assert a == b

    def test_rewards_bounded_and_termination_consistent(self):
        _, log, truth = generate_synthetic(6, 12, 4, 3, seed=1)
        model = LatentPreferenceModel(truth.item_latents, r_max=5.0)
        cfg = EnvConfig(max_steps=6, quit_threshold=0.5, seed=9)
        env = UserEnvironment(model, log, cfg)
        rng = np.random.default_rng(5)
        for ep in range(30):
            state = env.reset()
            rewards = []
            done = False
            while not done:
                r, state, done = env.step(state, int(rng.integers(12)))
                rewards.append(r)
                assert 0.0 <= r <= 5.0
            assert len(rewards) <= cfg.max_steps
            if len(rewards) < cfg.max_steps:
                assert rewards[-1] < cfg.quit_threshold
