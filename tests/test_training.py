import itertools
import re
import weakref

import numpy as np
import pytest

from helpers import q_for, reference_online, reference_pretrain, state_window
from prefrl.agent import AgentBundle, Transition, init_agent, policy_for, update
from prefrl.checkpoint import save_checkpoint
from prefrl.data import InteractionLog, UserSequence, generate_synthetic, split_log
from prefrl.encoder import EncoderConfig, window_ids
from prefrl import encoder
from prefrl import training
from prefrl.environment import (EnvConfig, LatentPreferenceModel, MatrixFactorizationModel,
                                UserEnvironment, fit_reward_model)
from prefrl.harness import write_curve
from prefrl.metrics import EpisodeRecord
from prefrl.oracle import SyntheticOracle
from prefrl.training import (CATEGORICAL, GREEDY, DivergenceError, ExplorationStrategy,
                             MixPolicy, ReplayBuffer, TrainConfig, alpha_at, choose_action,
                             derive_rng, derive_seed, evaluate,
                             online_phase, pretrain, run_baseline,
                             sample_candidates, ActorPolicy, QGreedyPolicy)
from prefrl.nn import sample_categorical, softmax


@pytest.fixture(scope="module")
def world():
    catalog, log, truth = generate_synthetic(24, 24, 6, 4, seed=3, noise_scale=0.05)
    train_log, test_log = split_log(log, 0.8, seed=3)
    model = LatentPreferenceModel(truth.item_latents, r_max=5.0)
    return {"catalog": catalog, "truth": truth, "train": train_log,
            "test": test_log, "model": model}


def make_env(world, which="train", seed=0, max_steps=12):
    return UserEnvironment(world["model"], world[which],
                           EnvConfig(max_steps=max_steps, quit_threshold=0.75, seed=seed))


WINDOW = EncoderConfig(num_items=5, embed_dim=2, max_seq_len=3)


def agent_for(world, seed=0):
    return init_agent(world["catalog"].num_items, embed_dim=8, max_seq_len=6, seed=seed)


class TestTrainConfig:
    def test_batch_larger_than_the_buffer_is_refused(self):
        with pytest.raises(ValueError, match=r"batch_size \(8\).*buffer_capacity \(4\)"):
            TrainConfig(batch_size=8, buffer_capacity=4)
        assert TrainConfig(batch_size=4, buffer_capacity=4).batch_size == 4

    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_gamma_outside_the_unit_interval_is_refused(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
            TrainConfig(gamma=gamma)
        assert [TrainConfig(gamma=g).gamma for g in (0.0, 1.0)] == [0.0, 1.0]

    @pytest.mark.parametrize("key", ["lr", "momentum"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_a_step_setting_that_is_not_finite_or_is_negative_is_refused(self, key, value):
        with pytest.raises(ValueError, match=rf"^\[training\] {key} must be finite and >= 0, "
                                             rf"got {value!r}$"):
            TrainConfig(**{key: value})
        assert getattr(TrainConfig(**{key: 0.0}), key) == 0.0


class TestReplayBuffer:
    # the buffer pads each state to the encoder window when it is stored
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, encoder_config=WINDOW)
        for i in range(5):
            t = Transition((i,), 0, 0.0, (i, 0), False)
            buf.push(t, state_window(t, WINDOW))
        assert len(buf) == 3
        assert sorted(buf.sample(3, np.random.default_rng(0)).windows[:, -1]) == [2, 3, 4]

    def test_sampling_needs_enough_items(self):
        buf = ReplayBuffer(capacity=10, encoder_config=WINDOW)
        t = Transition((0,), 0, 0.0, (0, 0), False)
        buf.push(t, state_window(t, WINDOW))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, WINDOW)

    @pytest.mark.parametrize("capacity", [1, 5, 8])
    def test_columns_match_a_deque_reference_across_wraparound(self, capacity):
        # after every push, a full-size sample's rows are the rows of the
        # same draw from a deque of the transitions, padded afresh; the
        # histories run past the window (3) and the pushes past the capacity
        from collections import deque

        from prefrl.agent import TransitionBatch

        rng = np.random.default_rng(50)
        buf, reference = ReplayBuffer(capacity, WINDOW), deque(maxlen=capacity)
        history = (0,)
        for step in range(3 * capacity + 7):
            action = int(rng.integers(5))
            done = bool(rng.random() < 0.2) or len(history) > 5
            frozen_prob = None if step % 3 else float(rng.random())
            t = Transition(history, action, float(rng.normal()), history + (action,), done,
                           frozen_prob)
            buf.push(t, state_window(t, WINDOW))
            reference.append(t)
            history = (int(rng.integers(5)),) if done else t.next_state_items
            size = len(reference)
            assert len(buf) == size
            sample = buf.sample(size, np.random.default_rng(step))
            idx = np.random.default_rng(step).choice(size, size=size, replace=False)
            drawn = [reference[int(i)] for i in idx]
            expected = TransitionBatch.of(drawn, WINDOW)
            for name in ("windows", "next_windows", "actions", "rewards", "done"):
                assert np.array_equal(getattr(sample, name), getattr(expected, name)), name
            for name, items in (("windows", "state_items"), ("next_windows", "next_state_items")):
                padded = window_ids([getattr(t, items) for t in drawn], WINDOW)
                assert np.array_equal(getattr(sample, name), padded), name
            assert np.array_equal(sample.frozen_probs, expected.frozen_probs, equal_nan=True)

    def test_a_pushed_transition_is_not_kept(self):
        # the buffer stores a transition's columns, not the object as well
        buf = ReplayBuffer(4, WINDOW)
        t = Transition((0,), 1, 0.0, (0, 1), False)
        kept = weakref.ref(t)
        buf.push(t, state_window(t, WINDOW))
        del t
        assert kept() is None
        assert len(buf) == 1

    @pytest.mark.parametrize("capacity", [1, 4, 9])
    def test_every_stored_window_is_its_states_padding(self, capacity, monkeypatch):
        # episodes of 1 to 6 steps from starts of 1 to 4 items, against a
        # window of 3, through a buffer that wraps: each start is padded
        # once and each step's window shifted in by its action, as the
        # rollout loop keeps it; a push pads nothing, and every stored
        # window equals window_ids of its state
        pads = []
        pad = training.window_ids

        def counted(sequences, config):
            pads.append(len(sequences))
            return pad(sequences, config)

        monkeypatch.setattr(training, "window_ids", counted)
        oldest_first = type("OldestFirst", (), {"choice": lambda self, n, size, replace:
                                               np.arange(n)})()
        rng = np.random.default_rng(capacity)
        buf, stored = ReplayBuffer(capacity, WINDOW), []
        for episode in range(12):
            history = tuple(int(i) for i in rng.integers(5, size=1 + episode % 4))
            window = pad([history], WINDOW)[0]
            for step in range(1 + episode % 6):
                action = int(rng.integers(5))
                t = Transition(history, action, 0.0, history + (action,), step == episode % 6)
                buf.push(t, window)
                stored.append(t.state_items)
                history = t.next_state_items
                window = training.shift_windows(window, np.array(action))
                rows = buf.sample(len(buf), oldest_first)
                assert np.array_equal(rows.windows, pad(stored[-len(buf):], WINDOW))
        assert pads == []

    def test_a_push_validates_the_transition(self):
        buf = ReplayBuffer(4, WINDOW)
        for bad, match in ((Transition((0,), 5, 0.0, (0, 5), False), "action 5"),
                           (Transition((0,), 1, 0.0, (0, 2), False), "state plus its action"),
                           (Transition((0,), 1, 0.0, (1,), True), "state plus its action")):
            with pytest.raises(ValueError, match=match):
                buf.push(bad, state_window(bad, WINDOW))
        assert len(buf) == 0

    def test_a_push_refuses_a_window_of_another_shape_by_name(self):
        buf = ReplayBuffer(4, WINDOW)
        t = Transition((0,), 1, 0.0, (0, 1), False)
        for window in (np.zeros(WINDOW.max_seq_len + 1, np.int64), window_ids([(0,)], WINDOW)):
            with pytest.raises(ValueError, match=rf"^push needs a window of shape "
                                                 rf"\({WINDOW.max_seq_len},\), got "
                                                 rf"{re.escape(str(window.shape))}$"):
                buf.push(t, window)
        assert len(buf) == 0


class TestExplorationStrategy:
    def test_epsilon_required_only_for_egreedy(self):
        with pytest.raises(ValueError):
            ExplorationStrategy("epsilon_greedy")
        with pytest.raises(ValueError):
            ExplorationStrategy("greedy", epsilon=0.1)
        with pytest.raises(ValueError):
            ExplorationStrategy("softmax")
        ExplorationStrategy("epsilon_greedy", 0.2)


class TestChooseAction:
    def test_greedy_argmax(self):
        rng = np.random.default_rng(0)
        assert choose_action([0.1, 0.7, 0.2], GREEDY, rng) == 1

    def test_greedy_ties_to_lowest_id(self):
        rng = np.random.default_rng(0)
        assert choose_action([0.4, 0.4, 0.2], GREEDY, rng) == 0

    def test_zero_epsilon_equals_greedy(self):
        strat = ExplorationStrategy("epsilon_greedy", 0.0)
        rng = np.random.default_rng(1)
        dist = np.array([0.2, 0.5, 0.3])
        assert all(choose_action(dist, strat, rng) == 1 for _ in range(1000))

    def test_epsilon_branch_frequency(self):
        strat = ExplorationStrategy("epsilon_greedy", 0.3)
        rng = np.random.default_rng(7)
        dist = np.array([0.05, 0.8, 0.05, 0.05, 0.05])
        n = 20_000
        non_greedy = sum(choose_action(dist, strat, rng) != 1 for _ in range(n))
        # random branch picks non-argmax with prob (n_items-1)/n_items
        est = non_greedy / n * 5 / 4
        assert abs(est - 0.3) < 0.015

    def test_categorical_matches_sampler(self):
        dist = np.array([0.2, 0.3, 0.5])
        a = [choose_action(dist, CATEGORICAL, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_categorical(dist, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_invalid_distribution_rejected(self):
        for strategy in (GREEDY, CATEGORICAL, ExplorationStrategy("epsilon_greedy", 0.5)):
            for dist in ([0.5, 0.6], [1.5, -0.5], [0.5, np.nan], [], [[0.5, 0.5]]):
                with pytest.raises(ValueError):
                    choose_action(dist, strategy, np.random.default_rng(0))


class TestAlphaSchedule:
    def cfg(self, init=0.2, anneal=1000):
        return TrainConfig(alpha_init=init, alpha_anneal_steps=anneal)

    def test_boundaries(self):
        cfg = self.cfg()
        assert alpha_at(0, cfg) == 0.2
        assert alpha_at(1000, cfg) == 1.0
        assert alpha_at(5000, cfg) == 1.0

    def test_linear_midpoint(self):
        assert alpha_at(500, self.cfg()) == pytest.approx(0.6)

    def test_monotone_and_reaches_one(self):
        cfg = self.cfg(init=0.05, anneal=333)
        values = [alpha_at(s, cfg) for s in range(0, 700, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            alpha_at(-1, self.cfg())


class TestMixture:
    def two_fixed_bundles(self):
        # zero actor weights + bias = log target distribution, so the policy
        # is state-independent and exactly controllable
        a = init_agent(2, embed_dim=4, max_seq_len=3, seed=0)
        b = init_agent(2, embed_dim=4, max_seq_len=3, seed=1)
        for bundle, probs in ((a, [0.8, 0.2]), (b, [0.2, 0.8])):
            bundle.params["actor_w"][...] = 0.0
            bundle.params["actor_b"][...] = np.log(probs)
        return a, b

    def test_alpha_limits_are_exact(self):
        a, b = self.two_fixed_bundles()
        assert np.allclose(MixPolicy(a, b, 0.0).probs([0]),
                           [0.8, 0.2], atol=1e-12)
        assert np.allclose(MixPolicy(a, b, 1.0).probs([0]),
                           [0.2, 0.8], atol=1e-12)

    def test_even_blend(self):
        a, b = self.two_fixed_bundles()
        assert np.allclose(MixPolicy(a, b, 0.5).probs([0]),
                           [0.5, 0.5], atol=1e-12)

    def test_blend_matches_formula_on_real_policies(self, world):
        a, b = agent_for(world, seed=5), agent_for(world, seed=6)
        mix = MixPolicy(a, b, 0.3)
        items = [1, 4]
        expected = 0.7 * policy_for(a, items) + 0.3 * policy_for(b, items)
        got = mix.probs(items)
        assert np.allclose(got, expected, atol=1e-15)
        assert got.min() >= 0 and abs(got.sum() - 1.0) < 1e-9

    def test_alpha_validation(self):
        a, b = self.two_fixed_bundles()
        with pytest.raises(ValueError):
            MixPolicy(a, b, 1.5)


class TestMixtureGradient:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_learnable_side_gradient_matches_finite_differences(self, world, alpha):
        from helpers import log_prob, max_rel_err, selected_q, td_target
        from prefrl.nn import finite_diff_grad

        frozen = agent_for(world, seed=30)
        learnable = agent_for(world, seed=31)
        mix = MixPolicy(frozen, learnable, alpha)
        t = Transition((1, 4), 2, 0.8, (1, 4, 2), False)

        # freeze the TD pieces the update treats as constants
        target0 = td_target(t, learnable)
        delta0 = target0 - selected_q(t, learnable)

        def loss_fn(_params):
            mixed = mix.probs(t.state_items)
            q_sel = selected_q(t, learnable)
            return -log_prob(mixed, t.action) * delta0 + (target0 - q_sel) ** 2

        from prefrl.agent import action_distribution, backprop_heads
        from prefrl.encoder import encode_with_cache
        state, cache = encode_with_cache(t.state_items, learnable.params,
                                         learnable.encoder_config)
        q_dist = action_distribution(state, learnable)
        mixed = mix.probs(t.state_items)
        one_hot = np.zeros(24)
        one_hot[t.action] = 1.0
        coeff = -delta0 * alpha * float(q_dist[t.action]) / float(mixed[t.action])
        d_logits = coeff * (one_hot - q_dist)
        d_q = np.zeros(24)
        d_q[t.action] = -2.0 * delta0
        learnable.params.zero_grads()
        backprop_heads(learnable, state, cache, d_logits, d_q)
        analytic = {k: v.copy() for k, v in learnable.params.grads.items()}
        learnable.params.zero_grads()

        numeric = finite_diff_grad(loss_fn, learnable.params)
        assert max_rel_err(analytic, numeric) < 1e-4


class TestSampleCandidates:
    def test_topk_by_probability(self):
        rng = np.random.default_rng(0)
        dist = np.array([0.1, 0.4, 0.05, 0.25, 0.2])
        assert sample_candidates(dist, 3, "topk", rng) == [1, 3, 4]

    def test_categorical_draws_distinct(self):
        rng = np.random.default_rng(1)
        dist = np.full(10, 0.1)
        for _ in range(50):
            cands = sample_candidates(dist, 4, "categorical", rng)
            assert len(set(cands)) == 4

    def test_too_many_candidates(self):
        with pytest.raises(ValueError):
            sample_candidates(np.array([0.5, 0.5]), 3, "topk", np.random.default_rng(0))


class TestPretrain:
    def cfg(self, **kw):
        kw.setdefault("pretrain_epochs", 8)
        kw.setdefault("pretrain_horizon", 10)
        kw.setdefault("batch_size", 8)
        kw.setdefault("buffer_capacity", 50)
        kw.setdefault("lr", 0.02)
        kw.setdefault("gamma", 0.0)
        kw.setdefault("k", 5)
        kw.setdefault("candidate_sampling", "categorical")
        kw.setdefault("seed", 0)
        return TrainConfig(**kw)

    def test_the_pre_trained_agent_holds_no_gradient(self, world):
        # the run releases its gradient buffer when it hands the agent back,
        # so a finished run keeps no gradient memory
        agent, records = pretrain(agent_for(world, seed=1), SyntheticOracle(world["truth"], 3.0),
                                  self.cfg(pretrain_epochs=3, momentum=0.5), world["train"])
        assert len(records) == 3
        assert agent.params.grad is None and agent.params.velocity is not None

    def test_zero_epochs_returns_agent_unchanged(self, world):
        agent = agent_for(world, seed=1)
        before = agent.params.copy()
        oracle = SyntheticOracle(world["truth"], 3.0)
        _, records = pretrain(agent, oracle, self.cfg(pretrain_epochs=0), world["train"])
        assert records == []
        assert before.allclose(agent.params)

    def test_buffer_holds_every_transition_up_to_capacity(self, world):
        # visible via a caller-held reference to the replay rng path: rerun
        # with a capacity larger and smaller than epochs * horizon
        oracle = SyntheticOracle(world["truth"], 3.0)
        from prefrl import training as tr

        class SpyBuffer(ReplayBuffer):
            pushes = 0

            def push(self, transition, window):
                SpyBuffer.pushes += 1
                assert transition.next_state_items == transition.state_items + (transition.action,)
                super().push(transition, window)

        orig = tr.ReplayBuffer
        tr.ReplayBuffer = SpyBuffer
        try:
            agent = agent_for(world, seed=2)
            pretrain(agent, oracle, self.cfg(pretrain_epochs=4, buffer_capacity=25),
                          world["train"])
        finally:
            tr.ReplayBuffer = orig
        assert SpyBuffer.pushes == 4 * 10

    def test_records_and_determinism(self, world):
        oracle = SyntheticOracle(world["truth"], 3.0)
        a1 = agent_for(world, seed=3)
        a2 = agent_for(world, seed=3)
        _, r1 = pretrain(a1, oracle, self.cfg(seed=5), world["train"])
        _, r2 = pretrain(a2, oracle, self.cfg(seed=5), world["train"])
        assert r1 == r2
        assert a1.params.allclose(a2.params)
        assert len(r1) == 8
        assert all(set(r) == {"epoch", "mean_reward", "mean_actor_loss", "mean_critic_loss"}
                   for r in r1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_judge_reward_improves_on_aligned_world(self, world, seed):
        oracle = SyntheticOracle(world["truth"], 2.5)
        agent = init_agent(24, embed_dim=8, max_seq_len=6, seed=derive_seed(seed, 1))
        cfg = self.cfg(pretrain_epochs=60, pretrain_horizon=20, batch_size=16,
                       buffer_capacity=2000, seed=seed)
        _, records = pretrain(agent, oracle, cfg, world["train"])
        first = np.mean([r["mean_reward"] for r in records[:10]])
        last = np.mean([r["mean_reward"] for r in records[-10:]])
        assert last > first

    def test_epoch_callback_sees_every_epoch(self, world):
        oracle = SyntheticOracle(world["truth"], 3.0)
        seen = []
        pretrain(agent_for(world, seed=4), oracle, self.cfg(pretrain_epochs=3),
                      world["train"],
                      epoch_callback=lambda e, a, rec, state: seen.append((e, rec["epoch"])))
        assert seen == [(0, 0), (1, 1), (2, 2)]

    def test_one_start_drawn_per_epoch(self, world, monkeypatch):
        # the loop draws an epoch's start when its first step comes: none
        # after the last epoch, so the last callback's rng state is the
        # stream's final state, and none for a resume with no epoch left
        resets = []
        reset = training._JudgeEnv.reset

        def counted(env):
            resets.append(env)
            return reset(env)

        monkeypatch.setattr(training._JudgeEnv, "reset", counted)
        oracle = SyntheticOracle(world["truth"], 3.0)
        cfg = self.cfg(pretrain_epochs=3)
        rng = derive_rng(cfg.seed, training.KEY_PRETRAIN)
        states = []
        pretrain(agent_for(world, seed=4), oracle, cfg, world["train"], rng=rng,
                 epoch_callback=lambda e, a, rec, state: states.append(state))
        assert len(resets) == 3
        assert states[-1] == rng.bit_generator.state
        resets.clear()
        _, records = pretrain(agent_for(world, seed=4), oracle, cfg, world["train"],
                              start_epoch=3)
        assert records == []
        assert resets == []

    def test_empty_log_is_refused(self, world):
        with pytest.raises(ValueError, match="nonempty log"):
            pretrain(agent_for(world), SyntheticOracle(world["truth"], 3.0), self.cfg(),
                     InteractionLog(()))

    @pytest.mark.parametrize("sampling,target_update,capacity", [
        *(pytest.param(s, u, 50, id=f"{s}-{u}") for s in ("topk", "categorical") for u in (0, 5)),
        pytest.param("categorical", 5, 12, id="categorical-5-capacity-12")])
    def test_matches_the_reference_loop_bit_for_bit(self, world, sampling, target_update,
                                                     capacity):
        # the rollout loop keeps the reference loop's draw order: the same
        # records, epoch-end rng states and parameters, bit for bit.  The
        # buffer wraps around: 80 pushes at capacity 50, and every 12 pushes
        # at capacity 12
        oracle = SyntheticOracle(world["truth"], 3.0)
        cfg = self.cfg(candidate_sampling=sampling, target_update=target_update, gamma=0.9,
                       buffer_capacity=capacity)
        assert cfg.buffer_capacity < cfg.pretrain_epochs * cfg.pretrain_horizon
        ours, ref = agent_for(world, seed=6), agent_for(world, seed=6)
        states, ref_states = [], []
        _, records = pretrain(ours, oracle, cfg, world["train"],
                              epoch_callback=lambda e, a, rec, state: states.append(state))
        expected = reference_pretrain(ref, oracle, cfg, world["train"],
                                      epoch_callback=lambda e, a, rec, s: ref_states.append(s))
        assert 0.0 < np.mean([r["mean_reward"] for r in records]) < 1.0  # both judge branches
        assert records == expected
        assert states == ref_states
        assert ours.params.allclose(ref.params)

    @pytest.mark.parametrize("sampling", ["topk", "categorical"])
    def test_resume_from_a_recorded_rng_state_matches_the_reference_loop(self, world,
                                                                          sampling):
        oracle = SyntheticOracle(world["truth"], 3.0)
        cfg = self.cfg(candidate_sampling=sampling, target_update=5, gamma=0.9)
        saved = {}

        def keep(epoch, agent, record, state):
            if epoch == 3:
                saved["params"], saved["state"] = agent.params.copy(), state

        pretrain(agent_for(world, seed=7), oracle, cfg, world["train"], epoch_callback=keep)

        def resumed():
            rng = np.random.default_rng()
            rng.bit_generator.state = saved["state"]
            return AgentBundle(saved["params"].copy(), agent_for(world).encoder_config), rng

        agent, rng = resumed()
        _, records = pretrain(agent, oracle, cfg, world["train"], start_epoch=4, rng=rng)
        ref, rng = resumed()
        expected = reference_pretrain(ref, oracle, cfg, world["train"], start_epoch=4, rng=rng)
        assert [r["epoch"] for r in records] == [4, 5, 6, 7]
        assert records == expected
        assert agent.params.allclose(ref.params)

    def test_divergence_is_one_error_naming_the_run(self, world):
        cfg = self.cfg(lr=3.0, gamma=0.9, pretrain_epochs=20)
        with pytest.raises(DivergenceError) as caught:
            pretrain(agent_for(world), SyntheticOracle(world["truth"], 2.5), cfg,
                     world["train"])
        assert re.fullmatch(r"pretrain diverged in step \d+ of 200 \(overflow encountered "
                            r"in \w+\) at lr 3\.0, target_update 0", str(caught.value))


class TestOnlinePhase:
    def cfg(self, **kw):
        kw.setdefault("online_steps", 30)
        kw.setdefault("batch_size", 8)
        kw.setdefault("buffer_capacity", 200)
        kw.setdefault("lr", 0.01)
        kw.setdefault("gamma", 0.9)
        kw.setdefault("alpha_init", 0.2)
        kw.setdefault("alpha_anneal_steps", 20)
        kw.setdefault("seed", 0)
        return TrainConfig(**kw)

    def test_unknown_scheme(self, world):
        with pytest.raises(ValueError):
            online_phase("warmup", agent_for(world), make_env(world), self.cfg())

    def test_caller_bundle_never_mutated(self, world):
        agent = agent_for(world, seed=7)
        before = agent.params.copy()
        online_phase("ft", agent, make_env(world, seed=1), self.cfg(online_steps=60))
        assert before.allclose(agent.params)

    def test_frozen_policy_bitwise_unchanged_in_ap(self, world):
        agent = agent_for(world, seed=8)
        before = agent.params.copy()
        result = online_phase("ap", agent, make_env(world, seed=2),
                              self.cfg(online_steps=120, alpha_anneal_steps=60))
        assert before.allclose(agent.params)
        assert result.mix is not None
        assert before.allclose(result.mix.frozen.params)
        assert not before.allclose(result.mix.learnable.params)

    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_only_the_learnable_side_keeps_optimizer_state(self, world, momentum):
        # the frozen side never takes a gradient, the run releases the
        # learnable side's when it ends, and only that side keeps a velocity,
        # and only with momentum
        result = online_phase("ap", agent_for(world, seed=8), make_env(world, seed=2),
                              self.cfg(online_steps=60, target_update=5, momentum=momentum))
        frozen, learnable = result.mix.frozen.params, result.mix.learnable.params
        assert result.agent.params is learnable
        assert frozen.grad is None and learnable.grad is None
        assert frozen.velocity is None
        assert (learnable.velocity is None) == (momentum == 0.0)

    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_the_returned_ap_agent_owns_its_parameters(self, world, momentum):
        # the learner steps the learnable set inside the mixture's (2, P)
        # stack; the run hands back an agent whose set has its own P floats
        # and its velocity, and the mixture still reads it
        result = online_phase("ap", agent_for(world, seed=8), make_env(world, seed=2),
                              self.cfg(online_steps=60, momentum=momentum))
        params = result.agent.params
        assert params is result.mix.learnable.params
        assert params.flat.base is None and params.flat.size == params.num_scalars()
        assert (params.velocity is None) == (momentum == 0.0)
        items = [2, 5, 1]
        expected = ((1.0 - result.mix.alpha) * policy_for(result.mix.frozen, items)
                    + result.mix.alpha * policy_for(result.agent, items))
        assert np.array_equal(result.mix.probs(items), expected)
        update([Transition((2, 5), 1, 1.0, (2, 5, 1), False)], result.agent, lr=0.1)
        expected = ((1.0 - result.mix.alpha) * policy_for(result.mix.frozen, items)
                    + result.mix.alpha * policy_for(result.agent, items))
        assert np.array_equal(result.mix.probs(items), expected)

    @pytest.mark.parametrize("method", ["ap", "dqn"])
    def test_evaluation_starts_are_drawn_once_per_run(self, world, method, monkeypatch):
        # four snapshots (epochs 0, 1, 2 and the final one) of 6 episodes
        # each reset the evaluation environment 6 times in all
        eval_env = make_env(world, "test", seed=7, max_steps=5)
        resets = []
        reset = eval_env.reset

        def spy(seed=None):
            resets.append(seed)
            return reset(seed=seed)

        monkeypatch.setattr(eval_env, "reset", spy)
        result = online_phase(method, agent_for(world, seed=14), make_env(world, seed=6,
                                                                          max_steps=5),
                              self.cfg(online_steps=40), eval_env=eval_env,
                              episodes_per_epoch=2, eval_episodes=6)
        assert list(result.snapshots) == ["0", "1", "2", "final"]
        rng = derive_rng(derive_seed(0, 4), 4)       # evaluate's seeds, in episode order
        assert resets == [int(rng.integers(2 ** 31)) for _ in range(6)]

    @pytest.mark.parametrize("scheme", ["ap", "ft"])
    def test_transitions_carry_the_frozen_probability(self, world, scheme, monkeypatch):
        # the ap act stores pi_frozen(a|s) in each transition; ft stores none
        pushed = []
        push = ReplayBuffer.push

        def spy(buffer, transition, window):
            pushed.append(transition)
            push(buffer, transition, window)

        monkeypatch.setattr(ReplayBuffer, "push", spy)
        agent = agent_for(world, seed=12)
        online_phase(scheme, agent, make_env(world, seed=5),
                     self.cfg(online_steps=60, alpha_anneal_steps=40))
        assert len(pushed) == 60
        for t in pushed:
            if scheme == "ft":
                assert t.frozen_prob is None
            else:
                assert t.frozen_prob == float(policy_for(agent, t.state_items)[t.action])

    def test_ap_mixture_equals_learnable_after_anneal(self, world):
        agent = agent_for(world, seed=9)
        result = online_phase("ap", agent, make_env(world, seed=3),
                              self.cfg(online_steps=100, alpha_anneal_steps=40))
        assert result.mix.alpha == 1.0
        items = [2, 5, 1]
        assert np.allclose(result.mix.probs(items),
                           policy_for(result.mix.learnable, items), atol=1e-15)

    def test_zero_lr_is_pure_rollout_of_the_frozen_policy(self, world):
        agent = agent_for(world, seed=10)
        cfg = self.cfg(online_steps=25, batch_size=64, lr=0.0)  # never enough to sample
        result = online_phase("ft", agent, make_env(world, seed=4), cfg)
        assert agent.params.allclose(result.agent.params)

        # manual replication with the same derived streams
        rng = derive_rng(cfg.seed, 3)  # online stream key
        env = make_env(world, seed=4)
        state = env.reset()
        episodes = []
        ret = length = 0
        for step in range(cfg.online_steps):
            dist = policy_for(agent, state.history)
            action = choose_action(dist, CATEGORICAL, rng)
            reward, state, done = env.step(state, action)
            ret += reward
            length += 1
            if done:
                episodes.append((round(ret, 12), length, step + 1))
                ret, length = 0.0, 0
                state = env.reset()
        got = [(round(e.episode_return, 12), e.length, e.global_step)
               for e in result.episodes]
        assert got == episodes

    @pytest.mark.parametrize("steps, resets", [(30, 6), (32, 7)])
    def test_one_train_env_reset_per_episode_played(self, world, steps, resets,
                                                    monkeypatch):
        # fixed 5-step episodes: 30 steps play 6 whole episodes, 32 start a 7th
        env = UserEnvironment(world["model"], world["train"], EnvConfig(
            max_steps=5, quit_threshold=0.0, seed=6))
        drawn = []
        reset = env.reset

        def counted():
            drawn.append(None)
            return reset()

        monkeypatch.setattr(env, "reset", counted)
        result = online_phase("ft", agent_for(world, seed=12), env,
                              self.cfg(online_steps=steps),
                              eval_env=make_env(world, "test", seed=7, max_steps=5),
                              episodes_per_epoch=2, eval_episodes=4)
        assert len(result.episodes) == 6
        assert len(drawn) == resets

    def test_identical_seeds_reproduce_runs(self, world):
        r1 = online_phase("ap", agent_for(world, seed=11), make_env(world, seed=5),
                          self.cfg(online_steps=80))
        r2 = online_phase("ap", agent_for(world, seed=11), make_env(world, seed=5),
                          self.cfg(online_steps=80))
        assert r1.episodes == r2.episodes
        assert r1.agent.params.allclose(r2.agent.params)

    def test_eval_snapshots_at_epoch_boundaries(self, world):
        env = make_env(world, seed=6, max_steps=5)
        test_env = make_env(world, "test", seed=7, max_steps=5)
        result = online_phase("ft", agent_for(world, seed=12), env,
                              self.cfg(online_steps=25), eval_env=test_env,
                              episodes_per_epoch=2, eval_episodes=4)
        # epoch size is max_steps * episodes_per_epoch = 10 steps
        assert set(result.snapshots) == {"0", "1", "2", "final"}

    def test_epoch_zero_snapshot_is_evaluation_of_the_input_agent(self, world):
        # measured before any online step, so it must equal a direct greedy
        # evaluation of the agent as handed in
        agent = agent_for(world, seed=15)
        cfg = self.cfg(online_steps=12, seed=3)
        env = make_env(world, seed=6, max_steps=5)
        test_env = make_env(world, "test", seed=7, max_steps=5)
        result = online_phase("ft", agent, env, cfg, eval_env=test_env,
                              episodes_per_epoch=2, eval_episodes=4)
        direct = evaluate(agent, make_env(world, "test", seed=7, max_steps=5), 4,
                          derive_seed(cfg.seed, 4))
        assert result.snapshots["0"] == direct.means

    @pytest.mark.parametrize("snapshot, step", [(1, 11), (3, 30)])
    def test_a_snapshot_that_overflows_is_named_at_its_step(self, world, snapshot, step,
                                                            monkeypatch):
        # 30 steps of 10-step epochs: snapshots at steps 0, 10 and 20 and a
        # final one; the epoch-1 snapshot (call 1) is taken before step 11
        # acts, the final one (call 3) after step 30.  The evaluation
        # overflows under the loop's errstate, as a diverged policy would.
        # A snapshot plays the run's evaluation starts with training._play
        calls = []
        play = training._play

        def overflowing(policy, env, starts):
            calls.append(len(starts))
            if len(calls) == snapshot + 1:
                np.multiply(np.float64(1e308), 10.0)
            return play(policy, env, starts)

        monkeypatch.setattr(training, "_play", overflowing)
        with pytest.raises(DivergenceError) as caught:
            online_phase("ft", agent_for(world, seed=12), make_env(world, seed=6, max_steps=5),
                         self.cfg(), eval_env=make_env(world, "test", seed=7, max_steps=5),
                         episodes_per_epoch=2, eval_episodes=4)
        assert len(calls) == snapshot + 1
        assert str(caught.value) == (f"ft diverged in step {step} of 30 (overflow encountered "
                                     "in multiply) at lr 0.01, target_update 0")


class TestBaselines:
    def cfg(self, **kw):
        kw.setdefault("online_steps", 60)
        kw.setdefault("batch_size", 8)
        kw.setdefault("buffer_capacity", 200)
        kw.setdefault("lr", 0.01)
        kw.setdefault("seed", 0)
        return TrainConfig(**kw)

    def enc(self, world):
        return EncoderConfig(num_items=world["catalog"].num_items, embed_dim=8,
                             max_seq_len=6)

    def test_unknown_baseline(self, world):
        with pytest.raises(ValueError):
            run_baseline("sarsa", make_env(world), self.cfg(), self.enc(world))

    def test_a2c_is_ft_from_scratch(self, world):
        cfg = self.cfg(online_steps=80)
        baseline = run_baseline("a2c", make_env(world, seed=8), cfg, self.enc(world))
        scratch = init_agent(24, embed_dim=8, max_seq_len=6, seed=derive_seed(cfg.seed, 1))
        direct = online_phase("ft", scratch, make_env(world, seed=8), cfg)
        assert baseline.episodes == direct.episodes
        assert baseline.agent.params.allclose(direct.agent.params)

    @pytest.mark.parametrize("kind", training.BASELINE_KINDS)
    def test_baseline_is_online_phase_from_the_scratch_agent(self, world, kind):
        # lr 0.002: at this class's lr 0.01 the llm_online run overflows
        # within 80 steps on this world (the live-critic instability)
        cfg = self.cfg(online_steps=80, k=5, lr=0.002)
        oracle = SyntheticOracle(world["truth"], 3.0) if kind == "llm_online" else None

        def envs():
            return dict(env=make_env(world, seed=8, max_steps=8),
                        eval_env=make_env(world, "test", seed=7, max_steps=8),
                        episodes_per_epoch=2, eval_episodes=3)

        baseline = run_baseline(kind, config=cfg, encoder_config=self.enc(world), oracle=oracle,
                                **envs())
        direct = online_phase(kind, training.scratch_agent(cfg, self.enc(world)), config=cfg,
                              oracle=oracle, **envs())
        assert baseline.episodes and baseline.episodes == direct.episodes
        assert set(baseline.snapshots) == {"0", "1", "2", "final"}
        assert baseline.snapshots == direct.snapshots
        assert baseline.agent.params.allclose(direct.agent.params)

    def test_llm_online_needs_oracle_in_online_phase(self, world):
        with pytest.raises(ValueError, match="llm_online requires an oracle"):
            online_phase("llm_online", agent_for(world), make_env(world), self.cfg())

    def test_unknown_online_method_is_named(self, world):
        with pytest.raises(ValueError, match="'sarsa'"):
            online_phase("sarsa", agent_for(world), make_env(world), self.cfg())

    def test_dqn_with_full_epsilon_is_uniform(self, world):
        class RecordingEnv(UserEnvironment):
            actions = []

            def step(self, state, action):
                RecordingEnv.actions.append(action)
                return super().step(state, action)

        env = RecordingEnv(world["model"], world["train"],
                           EnvConfig(max_steps=30, quit_threshold=0.75, seed=9))
        cfg = self.cfg(online_steps=6000, lr=0.0, batch_size=8)
        run_baseline("dqn", env, cfg, self.enc(world),
                     strategy=ExplorationStrategy("epsilon_greedy", 1.0))
        counts = np.bincount(RecordingEnv.actions, minlength=24)
        freqs = counts / counts.sum()
        assert np.abs(freqs - 1 / 24).max() < 0.015

    def test_pg_learns_two_armed_bandit(self):
        model = MatrixFactorizationModel(
            ["u0"], np.array([[1.0]]), np.array([[1.0], [0.0]]),
            np.zeros(1), np.zeros(2), 0.0, r_max=1.0)
        log = InteractionLog((UserSequence("u0", (0, 0), (0, 1)),))
        env = UserEnvironment(model, log, EnvConfig(max_steps=10, quit_threshold=0.15, seed=0))
        cfg = TrainConfig(online_steps=2000, batch_size=8, lr=0.05, gamma=0.9,
                          seed=0, buffer_capacity=500)
        result = run_baseline("pg", env, cfg, EncoderConfig(num_items=2, embed_dim=4,
                                                            max_seq_len=4))
        assert policy_for(result.agent, [0])[0] > 0.95

    def test_llm_online_needs_oracle(self, world):
        with pytest.raises(ValueError, match="oracle"):
            run_baseline("llm_online", make_env(world), self.cfg(), self.enc(world))

    def test_llm_online_runs_with_synthetic_judge(self, world):
        oracle = SyntheticOracle(world["truth"], 3.0)
        cfg = self.cfg(online_steps=50, k=5)
        result = run_baseline("llm_online", make_env(world, seed=10), cfg,
                              self.enc(world), oracle=oracle)
        assert result.episodes  # at least one finished episode
        assert all(e.avg_reward * e.length == pytest.approx(e.episode_return)
                   for e in result.episodes)

    @pytest.mark.parametrize("method", ["a2c", "dqn", "ft"])
    def test_divergence_is_one_error_naming_the_run(self, world, method):
        # without the check this a2c run fails in acting with "softmax
        # requires finite logits", naming neither the run nor its settings
        cfg = TrainConfig(online_steps=400, batch_size=16, buffer_capacity=200, lr=0.3,
                          target_update=0)
        env = make_env(world, seed=9, max_steps=8)
        with pytest.raises(DivergenceError) as caught:
            if method == "ft":
                online_phase("ft", agent_for(world, seed=13), env, cfg)
            else:
                run_baseline(method, env, cfg, self.enc(world))
        assert re.fullmatch(rf"{method} diverged in step \d+ of 400 \(overflow encountered "
                            r"in \w+\) at lr 0\.3, target_update 0", str(caught.value))


class TestBootstrapMemo:
    """With target_update > 0 the learner memoises the frozen critic's
    bootstrap per next state for the snapshot's period."""

    def cfg(self, target_update=10):
        return TrainConfig(online_steps=240, batch_size=16, buffer_capacity=200, lr=0.002,
                           alpha_anneal_steps=100, target_update=target_update, seed=0)

    def run(self, world, method, cfg):
        env = make_env(world, seed=9, max_steps=8)
        if method == "ap":
            return online_phase("ap", agent_for(world, seed=13), env, cfg)
        return run_baseline(method, env, cfg, EncoderConfig(24, embed_dim=8, max_seq_len=6))

    @pytest.mark.parametrize("method", ["ap", "dqn"])
    def test_runs_are_byte_identical_without_the_memo(self, world, method, tmp_path,
                                                      monkeypatch):
        rows = []
        forward = encoder._forward

        def counted(ids, *args):
            rows.append(len(ids))
            return forward(ids, *args)

        def without_memo(*args, target_memo=None, **kwargs):
            return update(*args, **kwargs)

        monkeypatch.setattr(encoder, "_forward", counted)
        outputs = {}
        for side in ("memo", "plain"):
            if side == "plain":
                monkeypatch.setattr(training, "update", without_memo)
            rows.clear()
            result = self.run(world, method, self.cfg())
            write_curve(tmp_path / f"curve_{side}.jsonl", result.episodes)
            save_checkpoint(result.agent, tmp_path / f"agent_{side}.ckpt")
            outputs[side] = (sum(rows), (tmp_path / f"curve_{side}.jsonl").read_bytes(),
                             (tmp_path / f"agent_{side}.ckpt").read_bytes())
        assert outputs["memo"][1:] == outputs["plain"][1:]
        assert outputs["memo"][0] < outputs["plain"][0]  # the memo was read

    @pytest.mark.parametrize("target_update", [0, 10])
    def test_one_memo_per_snapshot_and_none_without_one(self, world, target_update,
                                                        monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append((args[4], kwargs["target_memo"]))
            return update(*args, **kwargs)

        monkeypatch.setattr(training, "update", spy)
        self.run(world, "a2c", self.cfg(target_update))
        updates = 240 - 16 + 1
        assert len(seen) == updates
        if target_update == 0:
            assert all(target is None and memo is None for target, memo in seen)
            return
        periods = -(-updates // target_update)
        assert len({id(target) for target, _ in seen}) == periods
        assert len({id(memo) for _, memo in seen}) == periods
        for step, (target, memo) in enumerate(seen):
            first_target, first_memo = seen[step - step % target_update]
            assert target is first_target and memo is first_memo  # refreshed together


@pytest.fixture(scope="module")
def reward_models(world):
    """The three reward models (the MF model keys episodes by user id, the
    others by item history), fitted so rewards straddle the quit threshold."""
    full = InteractionLog(world["train"].sequences + world["test"].sequences)
    return {"latent": world["model"],
            "matrix_factorization": fit_reward_model(full, "matrix_factorization", 24,
                                                     d_rm=4, epochs=5, seed=0),
            "sequential": fit_reward_model(world["train"], "sequential", 24, d_rm=8,
                                           epochs=40, lr=0.1, max_seq_len=5, seed=0)}


def evaluation_env(world, model, quit_threshold=0.75, max_steps=12):
    return UserEnvironment(model, world["test"], EnvConfig(
        max_steps=max_steps, quit_threshold=quit_threshold, seed=11))


def policy_view(world, view):
    """The policy evaluated as ``view``: a bare bundle or one of the three
    evaluation views."""
    a = agent_for(world, seed=42)
    return {"bundle": a, "actor": ActorPolicy(a), "q_greedy": QGreedyPolicy(a),
            "mix": MixPolicy(a, agent_for(world, seed=43), 0.3)}[view]


def eval_starts(env, num_episodes, seed):
    """The start states of evaluate's reset stream, in episode order."""
    rng = derive_rng(seed, 4)  # evaluate's reset stream key
    return [env.reset(seed=int(rng.integers(2 ** 31))) for _ in range(num_episodes)]


def episode_by_episode(policy, env, num_episodes, seed):
    """The evaluation loop before lockstep: one greedy episode after
    another, one single-history forward per step."""
    pol = ActorPolicy(policy) if isinstance(policy, AgentBundle) else policy
    rng = derive_rng(seed, 4)
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
        episodes.append(EpisodeRecord(i, global_step, ret, length))
    return episodes


VIEWS = ("bundle", "actor", "q_greedy", "mix")


class TestEvaluate:
    def test_deterministic(self, world):
        agent = agent_for(world, seed=13)
        env = make_env(world, "test", seed=11)
        a = evaluate(agent, env, 6, seed=2)
        b = evaluate(agent, make_env(world, "test", seed=11), 6, seed=2)
        assert a.episodes == b.episodes

    def test_needs_positive_episodes(self, world):
        with pytest.raises(ValueError):
            evaluate(agent_for(world), make_env(world), 0, seed=0)

    def test_random_agent_below_exhaustive_greedy_bound(self, world):
        agent = agent_for(world, seed=14)
        n_eval, seed = 8, 5
        random_return = evaluate(agent, make_env(world, "test", seed=12),
                                 n_eval, seed).means.episode_return

        # exhaustive one-step lookahead on the same reset stream
        env = make_env(world, "test", seed=12)
        rng = derive_rng(seed, 4)  # evaluate's reset stream key
        totals = []
        for _ in range(n_eval):
            state = env.reset(seed=int(rng.integers(2 ** 31)))
            total, done = 0.0, False
            while not done:
                scores = [world["model"].score(state.history, a) for a in range(24)]
                reward, state, done = env.step(state, int(np.argmax(scores)))
                total += reward
            totals.append(total)
        assert random_return < np.mean(totals)

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("kind", ["latent", "matrix_factorization", "sequential"])
    def test_equals_the_episode_by_episode_loop(self, world, reward_models, view, kind):
        env = evaluation_env(world, reward_models[kind])
        policy = policy_view(world, view)
        for num_episodes in (1, 9, 40):
            got = evaluate(policy, env, num_episodes, seed=6).episodes
            assert got == episode_by_episode(policy, env, num_episodes, seed=6)
        # the test split has 5 sequences, so 40 episodes repeat starts and
        # most records are copies of a played episode's
        assert len(set(eval_starts(env, 40, seed=6))) < 40
        # the quit rule ends episodes at different steps, so the live batch shrinks
        assert len({e.length for e in got}) > 1

    @pytest.mark.parametrize("kind", ["latent", "matrix_factorization", "sequential"])
    def test_distinct_starts_are_all_played_in_one_batch(self, world, reward_models, kind,
                                                         monkeypatch):
        model = reward_models[kind]
        env = UserEnvironment(model, world["train"], EnvConfig(
            max_steps=12, quit_threshold=0.75, seed=11))
        num_episodes, seed = 6, 6
        assert len(set(eval_starts(env, num_episodes, seed))) == num_episodes
        policy = policy_view(world, "actor")
        calls = []
        score_batch = model.score_batch

        def counted(contexts, actions):
            calls.append(len(contexts))
            return score_batch(contexts, actions)

        monkeypatch.setattr(model, "score_batch", counted)
        got = evaluate(policy, env, num_episodes, seed).episodes
        assert calls[0] == num_episodes
        monkeypatch.undo()
        assert got == episode_by_episode(policy, env, num_episodes, seed)

    @pytest.mark.parametrize("kind", ["latent", "matrix_factorization", "sequential"])
    def test_one_score_batch_per_time_step(self, world, reward_models, kind, monkeypatch):
        # every time step scores the live episodes of the distinct starts in
        # one call
        model = reward_models[kind]
        calls = []
        score_batch = model.score_batch

        def counted(contexts, actions):
            calls.append(len(contexts))
            return score_batch(contexts, actions)

        monkeypatch.setattr(model, "score_batch", counted)
        env = evaluation_env(world, model)
        episodes = evaluate(policy_view(world, "mix"), env, 9, seed=6).episodes
        # each distinct start's length (equal starts play equal episodes)
        starts = eval_starts(env, 9, seed=6)
        lengths = list(dict(zip(starts, (e.length for e in episodes))).values())
        assert len(set(lengths)) > 1
        assert len(lengths) < 9
        assert calls == [sum(n > t for n in lengths) for t in range(max(lengths))]

    @pytest.mark.parametrize("view", ["actor", "q_greedy", "mix"])
    def test_probs_is_its_row_of_probs_batch(self, world, view):
        policy = policy_view(world, view)
        rng = np.random.default_rng(17)
        # lengths 1 up to past max_seq_len (6)
        histories = [tuple(int(i) for i in rng.integers(24, size=1 + b % 9)) for b in range(20)]
        for size in (1, 2, 3, 20):
            batch = policy.probs_batch(histories[:size])
            assert batch.shape == (size, 24)
            for row, history in zip(batch, histories):
                assert np.array_equal(policy.probs(history), row)

    def test_views_match_their_single_history_definitions(self, world):
        a = agent_for(world, seed=40)
        b = agent_for(world, seed=41)
        history = (3, 1, 4, 1, 5, 9, 2, 6)
        assert np.array_equal(ActorPolicy(a).probs(history), policy_for(a, history))
        assert np.array_equal(QGreedyPolicy(a).probs(history), softmax(q_for(a, history)))
        assert np.array_equal(MixPolicy(a, b, 0.3).probs(history),
                              0.7 * policy_for(a, history) + 0.3 * policy_for(b, history))

    @pytest.mark.parametrize("view, per_step", [("bundle", 1), ("actor", 1), ("q_greedy", 1),
                                                ("mix", 1)])
    def test_one_encoder_forward_per_bundle_per_time_step(self, world, view, per_step,
                                                          monkeypatch):
        calls = []
        forward = encoder._forward

        def counted(ids, *args):
            calls.append(len(ids))
            return forward(ids, *args)

        monkeypatch.setattr(encoder, "_forward", counted)
        horizon = 7
        env = evaluation_env(world, world["model"], quit_threshold=0.0, max_steps=horizon)
        policy = policy_view(world, view)
        for num_episodes in (1, 5, 20):
            calls.clear()
            evaluate(policy, env, num_episodes, seed=3)
            distinct = len(set(eval_starts(env, num_episodes, seed=3)))
            assert calls == [distinct] * (per_step * horizon)
        assert distinct < 20

    def test_the_mixture_pads_once_for_both_sides(self, world, monkeypatch):
        calls = []
        pad = encoder.window_ids

        def counted(sequences, config):
            calls.append(len(sequences))
            return pad(sequences, config)

        monkeypatch.setattr(training, "window_ids", counted)
        mix = policy_view(world, "mix")
        histories = [(1,), (2, 3), tuple(range(9))]
        expected = [mix.probs(h) for h in histories]
        calls.clear()
        assert np.array_equal(mix.probs_batch(histories), expected)
        assert calls == [3]

    def test_a_frozen_set_that_moved_is_copied_again(self, world):
        a, b = agent_for(world, seed=40), agent_for(world, seed=41)
        history = (3, 1, 4)
        mix = MixPolicy(a, b, 0.3)
        before = mix.probs(history)
        a.params.flat[...] *= 1.5  # in place: not seen
        assert np.array_equal(mix.probs(history), before)
        a.params.move_to(np.empty_like(a.params.flat))
        assert np.array_equal(mix.probs(history),
                              0.7 * policy_for(a, history) + 0.3 * policy_for(b, history))
        assert not np.array_equal(mix.probs(history), before)

    def test_mixed_policies_must_share_the_window_length(self, world):
        other = init_agent(world["catalog"].num_items, embed_dim=8, max_seq_len=5, seed=0)
        with pytest.raises(ValueError, match="window length"):
            MixPolicy(agent_for(world), other, 0.3)


class CountingEnv(UserEnvironment):
    def __init__(self, *args):
        super().__init__(*args)
        self.steps = 0

    def step(self, state, action):
        self.steps += 1
        return super().step(state, action)


class TestEpochArguments:
    def run(self, world, method, env, **kw):
        cfg = TrainConfig(online_steps=40, seed=0)
        if method in ("ft", "ap"):
            return online_phase(method, agent_for(world), env, cfg, **kw)
        return run_baseline(method, env, cfg,
                            EncoderConfig(num_items=24, embed_dim=8, max_seq_len=6), **kw)

    @pytest.mark.parametrize("method", ["pg", "ap"])
    @pytest.mark.parametrize("episodes_per_epoch", [0, -1])
    def test_episodes_per_epoch_below_one_is_refused_before_any_step(self, world, method,
                                                                     episodes_per_epoch):
        # every eval epoch would map to step 0 (0) or before it (-1), so the
        # snapshots would be mislabelled or silently dropped
        env = CountingEnv(world["model"], world["train"], EnvConfig(max_steps=5))
        with pytest.raises(ValueError, match="episodes_per_epoch"):
            self.run(world, method, env, eval_env=make_env(world, "test"),
                     episodes_per_epoch=episodes_per_epoch)
        assert env.steps == 0

    @pytest.mark.parametrize("method", ["pg", "ft"])
    @pytest.mark.parametrize("eval_episodes", [0, -2])
    def test_eval_episodes_below_one_is_refused_before_any_step(self, world, method,
                                                                eval_episodes):
        env = CountingEnv(world["model"], world["train"], EnvConfig(max_steps=5))
        with pytest.raises(ValueError, match="eval_episodes"):
            self.run(world, method, env, eval_env=make_env(world, "test"),
                     eval_episodes=eval_episodes)
        assert env.steps == 0
        # without an evaluation environment the count is never used
        result = self.run(world, method, make_env(world), eval_episodes=eval_episodes)
        assert result.snapshots == {}


def _reference_cells(count=24, seed=2):
    """``count`` cells of the grid of methods x strategies x target_update x
    momentum x environment kinds, drawn without replacement under ``seed``."""
    strategies = (GREEDY, CATEGORICAL, ExplorationStrategy("epsilon_greedy", 0.3))
    grid = list(itertools.product(training.ONLINE_METHODS, strategies, (0, 3), (0.0, 0.5),
                                  ("latent", "matrix_factorization", "sequential")))
    return [grid[i] for i in np.random.default_rng(seed).choice(len(grid), count, replace=False)]


REFERENCE_CELLS = _reference_cells()


class TestReferenceOnline:
    """Every online method against ``helpers.reference_online``, the run as
    one plain loop: the same curve, snapshots, parameters and velocity, bit
    for bit."""

    def test_the_cells_cover_every_method_and_kind(self):
        assert {cell[0] for cell in REFERENCE_CELLS} == set(training.ONLINE_METHODS)
        assert {cell[4] for cell in REFERENCE_CELLS} == {"latent", "matrix_factorization",
                                                         "sequential"}

    @pytest.mark.parametrize(
        "method, strategy, target_update, momentum, kind",
        [pytest.param(*cell, id=f"{cell[0]}-{cell[1].kind}-{cell[2]}-{cell[3]}-{cell[4]}")
         for cell in REFERENCE_CELLS])
    def test_a_run_equals_the_reference_loop(self, world, reward_models, method, strategy,
                                             target_update, momentum, kind):
        # 120 steps through a 30-row buffer, so it wraps; a snapshot every
        # 8 steps, of 6 episodes from 5 test starts, so starts repeat; alpha
        # anneals over 100 steps
        cfg = TrainConfig(online_steps=120, batch_size=8, buffer_capacity=30, lr=0.01,
                          momentum=momentum, gamma=0.9, k=5, candidate_sampling="categorical",
                          alpha_init=0.2, alpha_anneal_steps=100, target_update=target_update,
                          seed=REFERENCE_CELLS.index((method, strategy, target_update,
                                                      momentum, kind)))
        model = reward_models[kind]
        oracle = SyntheticOracle(world["truth"], 3.0) if method == "llm_online" else None

        def envs():
            return dict(env=UserEnvironment(model, world["train"], EnvConfig(
                            max_steps=4, quit_threshold=0.75, seed=cfg.seed)),
                        eval_env=UserEnvironment(model, world["test"], EnvConfig(
                            max_steps=4, quit_threshold=0.75, seed=None)),
                        episodes_per_epoch=2, eval_episodes=6, eval_epochs=range(15))

        pretrained = agent_for(world, seed=cfg.seed)
        result = online_phase(method, pretrained, config=cfg, strategy=strategy,
                              oracle=oracle, **envs())
        agent, episodes, snapshots = reference_online(method, pretrained, config=cfg,
                                                      strategy=strategy, oracle=oracle,
                                                      **envs())
        assert len(world["test"].sequences) < 6
        assert len(episodes) > 1 and cfg.buffer_capacity < cfg.online_steps
        assert result.episodes == episodes
        assert set(snapshots) == {*map(str, range(15)), "final"}
        assert result.snapshots == snapshots
        assert result.agent.params.allclose(agent.params)
        velocity = result.agent.params.velocity
        assert (velocity is None) == (agent.params.velocity is None) == (momentum == 0.0)
        assert velocity is None or np.array_equal(velocity, agent.params.velocity)


class TestOneWindowPerEpisode:
    """The rollout loop pads each episode's start once and shifts that window
    in by each appended item; the acts and the learners read it, so no step
    pads a history and no learner pads an episode."""

    @pytest.mark.parametrize("method", ("pretrain",) + training.ONLINE_METHODS)
    def test_windows_are_padded_per_start_and_snapshot_and_learned_as_padded(
            self, world, method, monkeypatch):
        pads, starts, learned = [], [], []

        def counted(calls, fn):
            def wrapped(*args):
                calls.append(args)
                return fn(*args)
            return wrapped

        def refused(*args, **kwargs):
            raise AssertionError("TransitionBatch.of ran")

        monkeypatch.setattr(training, "window_ids", counted(pads, training.window_ids))
        monkeypatch.setattr(training._JudgeEnv, "reset", counted(starts, training._JudgeEnv.reset))
        for learner in (training._ReplayTD, training._Reinforce):
            monkeypatch.setattr(learner, "learn", counted(learned, learner.learn))
        monkeypatch.setattr(training.TransitionBatch, "of", refused)
        # a window of 3, shorter than many of the histories
        agent = init_agent(world["catalog"].num_items, embed_dim=8, max_seq_len=3, seed=21)
        oracle = SyntheticOracle(world["truth"], 3.0)
        if method == "pretrain":
            cfg = TrainConfig(pretrain_epochs=5, pretrain_horizon=9, batch_size=8,
                              buffer_capacity=50, k=5)
            pretrain(agent, oracle, cfg, world["train"])
            snapshots, steps = 0, cfg.pretrain_epochs * cfg.pretrain_horizon
        else:
            cfg = TrainConfig(online_steps=60, batch_size=8, buffer_capacity=200, lr=0.002, k=5)
            env = make_env(world, seed=7)
            monkeypatch.setattr(env, "reset", counted(starts, env.reset))
            result = online_phase(method, agent, env, cfg,
                                  eval_env=make_env(world, "test", seed=None),
                                  episodes_per_epoch=2, eval_episodes=3,
                                  oracle=oracle if method == "llm_online" else None)
            snapshots, steps = len(result.snapshots), cfg.online_steps
        assert snapshots in (0, 4) and 1 < len(starts) < steps
        assert len(pads) == len(starts) + snapshots
        assert len(learned) == steps
        assert max(len(t.state_items) for _, t, _ in learned) > agent.encoder_config.max_seq_len
        for _, t, window in learned:
            assert np.array_equal(window, encoder.window_ids([t.state_items],
                                                             agent.encoder_config)[0])
