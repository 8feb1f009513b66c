import dataclasses
import math

import numpy as np
import pytest

from helpers import (actor_loss, actor_loss_check, advantage, critic_loss, critic_loss_check,
                     log_prob, max_rel_err, q_for, selected_q, state_window, td_target)
from prefrl.agent import (Transition, action_distribution, init_agent, policy_for, q_values,
                          update)
from prefrl import agent as agent_module, encoder
from prefrl.encoder import window_ids
from prefrl.nn import finite_diff_grad
from prefrl.training import ReplayBuffer


def toy_agent(num_items=5, embed_dim=3, seed=0):
    return init_agent(num_items, embed_dim=embed_dim, max_seq_len=4, seed=seed)


def random_transition(agent, rng, done=False):
    n = agent.num_items
    items = tuple(int(i) for i in rng.integers(0, n, size=rng.integers(1, 4)))
    action = int(rng.integers(n))
    return Transition(items, action, float(rng.normal()), items + (action,), done)


def with_frozen_probs(batch, frozen):
    """The batch with each transition's frozen_prob set to frozen's
    probability of its action, as the ap act stores it."""
    return [dataclasses.replace(t, frozen_prob=float(policy_for(frozen, t.state_items)[t.action]))
            for t in batch]


class TestHeads:
    def test_zero_actor_weights_give_uniform_policy(self):
        agent = toy_agent()
        agent.params["actor_w"][...] = 0.0
        agent.params["actor_b"][...] = 0.0
        dist = policy_for(agent, [1, 2])
        assert np.allclose(dist, np.full(5, 0.2), atol=1e-15)

    def test_two_item_logit_arithmetic(self):
        agent = toy_agent(num_items=2, embed_dim=2)
        agent.params["actor_w"][...] = [[math.log(3.0), 0.0], [0.0, 0.0]]
        agent.params["actor_b"][...] = 0.0
        dist = action_distribution(np.array([1.0, 0.0]), agent)
        assert np.allclose(dist, [0.75, 0.25], atol=1e-12)

    def test_zero_critic_weights_give_zero_q(self):
        agent = toy_agent()
        agent.params["critic_w"][...] = 0.0
        agent.params["critic_b"][...] = 0.0
        assert np.array_equal(q_for(agent, [0]), np.zeros(5))

    def test_q_reads_weight_rows(self):
        agent = toy_agent(embed_dim=2)
        agent.params["critic_b"][...] = 0.0
        q = q_values(np.array([1.0, 0.0]), agent)
        assert np.allclose(q, agent.params["critic_w"][0], atol=1e-15)

    def test_q_matches_explicit_matvec(self):
        agent = toy_agent(seed=3)
        rng = np.random.default_rng(4)
        state = rng.normal(size=3)
        expected = state @ agent.params["critic_w"] + agent.params["critic_b"]
        assert np.allclose(q_values(state, agent), expected, atol=1e-15)

    @pytest.mark.parametrize("embed_dim", [8, 64])
    @pytest.mark.parametrize("num_items", [30, 300])
    def test_one_state_head_is_bitwise_its_batched_row(self, embed_dim, num_items):
        # a (d,) state's head and a batch's rows are stacked one-row
        # products: every row of a batch of 1, 3 and 64 has the bits of its
        # state's own head, with nonzero biases
        agent = init_agent(num_items, embed_dim=embed_dim, max_seq_len=10, seed=embed_dim)
        rng = np.random.default_rng(num_items)
        for head in ("actor", "critic"):
            agent.params[f"{head}_b"][...] = rng.normal(size=num_items)
        for batch in (1, 3, 64):
            states = rng.normal(size=(batch, embed_dim))
            logits, q = agent_module._head(states, agent, "actor"), q_values(states, agent)
            for b, state in enumerate(states):
                assert np.array_equal(agent_module._head(state, agent, "actor"), logits[b])
                assert np.array_equal(q_values(state, agent), q[b])
                assert np.array_equal(action_distribution(state, agent),
                                      action_distribution(states, agent)[b])

    def test_policy_invariant_under_logit_shift(self):
        agent = toy_agent(seed=5)
        before = policy_for(agent, [1, 3])
        agent.params["actor_b"][...] += 17.5
        after = policy_for(agent, [1, 3])
        assert np.abs(before - after).max() < 1e-9
        assert np.argmax(before) == np.argmax(after)


class TestTdQuantities:
    def test_terminal_advantage_arithmetic(self):
        # done transition: A = r - Q(s, a); pick r so the TD error is 0.5
        agent = toy_agent(seed=6)
        base = Transition((0, 1), 2, 0.0, (0, 1, 2), True)
        r = selected_q(base, agent) + 0.5
        t = Transition((0, 1), 2, r, (0, 1, 2), True)
        assert advantage(t, agent) == pytest.approx(0.5)
        assert critic_loss(t, agent) == pytest.approx(0.25)

    def test_bootstrap_formula(self):
        agent = toy_agent(seed=7)
        t = Transition((1,), 3, 1.0, (1, 3), False)
        expected = 1.0 + 0.5 * q_for(agent, (1, 3)).max() - selected_q(t, agent)
        assert advantage(t, agent, gamma=0.5) == pytest.approx(expected, abs=1e-12)

    def test_consistent_values_give_zero(self):
        agent = toy_agent(seed=8)
        base = Transition((2,), 1, 0.0, (2, 1), True)
        t = Transition((2,), 1, selected_q(base, agent), (2, 1), True)
        assert advantage(t, agent) == pytest.approx(0.0, abs=1e-12)
        assert critic_loss(t, agent) == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_advantage_squared(self):
        agent = toy_agent(seed=9)
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = random_transition(agent, rng, done=bool(rng.integers(2)))
            assert critic_loss(t, agent) == advantage(t, agent) ** 2

    def test_done_ignores_next_state_values(self):
        agent = toy_agent(seed=11)
        t1 = Transition((0,), 1, 2.0, (0, 1), True)
        t2 = Transition((0,), 1, 2.0, (0, 4), True)
        assert advantage(t1, agent) == advantage(t2, agent)


class TestActorLoss:
    def test_uniform_policy_unit_advantage(self):
        agent = toy_agent(num_items=4, seed=12)
        agent.params["actor_w"][...] = 0.0
        agent.params["actor_b"][...] = 0.0
        base = Transition((0,), 2, 0.0, (0, 2), True)
        t = Transition((0,), 2, selected_q(base, agent) + 1.0, (0, 2), True)
        assert actor_loss(t, agent) == pytest.approx(-math.log(0.25), abs=1e-12)

    def test_zero_advantage_means_no_update(self):
        agent = toy_agent(seed=13)
        base = Transition((1, 2), 0, 0.0, (1, 2, 0), True)
        t = Transition((1, 2), 0, selected_q(base, agent), (1, 2, 0), True)
        assert actor_loss(t, agent) == pytest.approx(0.0, abs=1e-12)
        before = agent.params.copy()
        update([t], agent, lr=0.05)
        assert before.allclose(agent.params)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_actor_loss_gradient(self, seed):
        agent = toy_agent(seed=seed)
        t = random_transition(agent, np.random.default_rng(50 + seed))
        loss_fn, analytic = actor_loss_check(t, agent)
        numeric = finite_diff_grad(loss_fn, agent.params)
        assert max_rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_critic_loss_gradient(self, seed):
        agent = toy_agent(seed=seed)
        t = random_transition(agent, np.random.default_rng(70 + seed))
        loss_fn, analytic = critic_loss_check(t, agent)
        numeric = finite_diff_grad(loss_fn, agent.params)
        assert max_rel_err(analytic, numeric) < 1e-4


class TestUpdate:
    def test_duplicate_batch_matches_singleton(self):
        t = Transition((0, 1), 2, 1.0, (0, 1, 2), False)
        a1, a2 = toy_agent(seed=20), toy_agent(seed=20)
        losses_one = update([t], a1, lr=0.01)
        losses_two = update([t, t], a2, lr=0.01)
        assert losses_one == pytest.approx(losses_two)
        assert a1.params.allclose(a2.params)

    def test_zero_lr_reports_losses_without_moving(self):
        agent = toy_agent(seed=21)
        before = agent.params.copy()
        a_loss, c_loss = update([Transition((0,), 1, 1.0, (0, 1), False)], agent, lr=0.0)
        assert np.isfinite(a_loss) and np.isfinite(c_loss)
        assert before.allclose(agent.params)

    @pytest.mark.parametrize("target", [False, True], ids=["live_critic", "target_bundle"])
    def test_td_target_uses_the_gamma_it_is_passed(self, target):
        # at lr 0 the critic loss is the mean squared TD error, so it reads
        # the TD targets; every toy agent elsewhere runs at the default 0.9
        agent = toy_agent(seed=36)
        frozen = toy_agent(seed=37) if target else None
        rng = np.random.default_rng(38)
        batch = [random_transition(agent, rng, done=(i == 0)) for i in range(5)]

        def critic_loss_at(gamma):
            return update(batch, agent, 0.0, 0.0, frozen, actor=False, gamma=gamma)[1]

        expected = np.mean([(td_target(t, agent, frozen, gamma=0.5) - selected_q(t, agent)) ** 2
                            for t in batch])
        assert critic_loss_at(0.5) == pytest.approx(expected, rel=1e-12)
        assert critic_loss_at(0.5) != pytest.approx(critic_loss_at(0.9), rel=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            update([], toy_agent(), lr=0.01)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_update_moves_chosen_action_probability(self, sign):
        # positive advantage raises pi(a|s), negative lowers it
        rng = np.random.default_rng(22)
        for seed in range(5):
            agent = toy_agent(seed=seed)
            items = tuple(int(i) for i in rng.integers(0, 5, size=2))
            action = int(rng.integers(5))
            base = Transition(items, action, 0.0, items + (action,), True)
            r = selected_q(base, agent) + sign * 1.0
            t = Transition(items, action, r, items + (action,), True)
            p_before = policy_for(agent, items)[action]
            update([t], agent, lr=1e-3)
            p_after = policy_for(agent, items)[action]
            if sign > 0:
                assert p_after > p_before
            else:
                assert p_after < p_before

    @pytest.mark.parametrize("setting", [
        "actor_critic", "target_bundle", "critic_only",
        "mixture_0.3", "mixture_0.7", "mixture_1.0", "returns"])
    def test_applied_step_matches_finite_differences(self, setting):
        # at lr 1 without momentum the step update applies is its gradient;
        # compare it with finite differences of the batch-mean loss, TD
        # targets and advantages held at their pre-step values
        agent = toy_agent(seed=24)
        rng = np.random.default_rng(25)
        batch = [random_transition(agent, rng, done=(i == 2)) for i in range(3)]
        target = toy_agent(seed=26) if setting == "target_bundle" else None
        kwargs = {}
        frozen = toy_agent(seed=27)
        if setting == "critic_only":
            kwargs["actor"] = False
        elif setting.startswith("mixture"):
            kwargs["alpha"] = float(setting.split("_")[1])
            batch = with_frozen_probs(batch, frozen)
        elif setting == "returns":
            kwargs["returns"] = rng.normal(size=len(batch))
        targets = [td_target(t, agent, target) for t in batch]
        deltas = [y - selected_q(t, agent) for t, y in zip(batch, targets)]

        def loss_fn(_params):
            total = 0.0
            for i, t in enumerate(batch):
                if setting == "returns":
                    pi = policy_for(agent, t.state_items)
                    total += -log_prob(pi, t.action) * kwargs["returns"][i]
                    continue
                total += (targets[i] - selected_q(t, agent)) ** 2
                if setting != "critic_only":
                    p = policy_for(agent, t.state_items)
                    if "alpha" in kwargs:
                        alpha = kwargs["alpha"]
                        p = (1 - alpha) * policy_for(frozen, t.state_items) + alpha * p
                    total += -log_prob(p, t.action) * deltas[i]
            return total / len(batch)

        numeric = finite_diff_grad(loss_fn, agent.params)
        before = agent.params.copy()
        update(batch, agent, 1.0, 0.0, target, **kwargs)
        applied = {n: before[n] - agent.params[n] for n in agent.params}
        assert max_rel_err(applied, numeric) < 1e-4

    SETTINGS = ["actor_critic", "target_bundle", "target_memo", "critic_only", "mixture_0.3",
                "returns"]

    @staticmethod
    def _setting_kwargs(setting, returns, memo=None):
        """Keyword arguments of a setting; "target_memo" bootstraps from the
        target_bundle through ``memo`` (a fresh one if None)."""
        kwargs = {}
        if setting.startswith("target"):
            kwargs["target_bundle"] = toy_agent(seed=31)
        if setting == "target_memo":
            kwargs["target_memo"] = {} if memo is None else memo
        elif setting == "critic_only":
            kwargs["actor"] = False
        elif setting == "mixture_0.3":
            kwargs["alpha"] = 0.3
        elif setting == "returns":
            kwargs["returns"] = returns
        return kwargs

    @staticmethod
    def _setting_batch(setting, batch):
        """The mixture reads each transition's frozen_prob, here from an
        independent frozen bundle."""
        return with_frozen_probs(batch, toy_agent(seed=32)) if setting == "mixture_0.3" else batch

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_batch_step_is_the_mean_of_single_steps(self, setting):
        # the batched learner takes the mean of what update([t]) applies,
        # with histories of mixed lengths (past max_seq_len too) and some
        # terminal transitions; with a memo the single steps read the
        # bootstraps the whole batch stored
        rng = np.random.default_rng(30)
        batch = []
        for i in range(6):
            items = tuple(int(j) for j in rng.integers(0, 5, size=1 + (3 * i) % 7))
            action = int(rng.integers(5))
            batch.append(Transition(items, action, float(rng.normal()), items + (action,),
                                    i % 3 == 1))
        returns = rng.normal(size=len(batch))
        batch = self._setting_batch(setting, batch)
        memo = {}

        def applied(transitions, rets):
            agent = toy_agent(seed=33)
            before = agent.params.copy()
            update(transitions, agent, 1.0, 0.0, **self._setting_kwargs(setting, rets, memo))
            return {n: before[n] - agent.params[n] for n in agent.params}

        whole = applied(batch, returns)
        singles = [applied([t], returns[i:i + 1]) for i, t in enumerate(batch)]
        for name, step in whole.items():
            mean = sum(single[name] for single in singles) / len(batch)
            assert np.abs(step - mean).max() < 1e-10, name

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_a_sampled_batch_steps_as_its_transitions(self, setting):
        # update on a replay buffer's columns, padded once at push, is
        # bitwise update on the same transitions as a plain list
        rng = np.random.default_rng(44)
        agent = toy_agent(seed=45)
        buffer, pushed = ReplayBuffer(16, agent.encoder_config), []
        items = (0,)
        for i in range(24):
            action = int(rng.integers(5))
            t = Transition(items, action, float(rng.normal()), items + (action,), i % 5 == 4)
            pushed.append(self._setting_batch(setting, [t])[0])
            buffer.push(pushed[-1], state_window(t, agent.encoder_config))
            items = (int(rng.integers(5)),) if t.done else t.next_state_items
        held = pushed[-16:]   # the buffer's rows, oldest first
        returns = rng.normal(size=12)
        sampled, plain = toy_agent(seed=46), toy_agent(seed=46)
        memos = ({}, {})
        for step in range(3):
            batch = buffer.sample(12, np.random.default_rng(step))
            drawn = [held[i] for i in np.random.default_rng(step).choice(16, 12, replace=False)]
            losses = update(batch, sampled, 0.05, 0.5,
                            **self._setting_kwargs(setting, returns, memos[0]))
            assert update(drawn, plain, 0.05, 0.5,
                          **self._setting_kwargs(setting, returns, memos[1])) == losses
            for name in plain.params:
                assert np.array_equal(sampled.params[name], plain.params[name]), name
        assert memos[0] == memos[1]

    def test_a_sampled_batch_is_not_padded_again(self, monkeypatch):
        # the buffer pads at push; update reads its windows, and only a
        # plain list is padded, once, in update, its states alone
        from prefrl import agent as agent_module

        calls = []
        pad = encoder.window_ids

        def counted(sequences, config):
            calls.append(len(sequences))
            return pad(sequences, config)

        agent = toy_agent(seed=47)
        rng = np.random.default_rng(48)
        buffer = ReplayBuffer(64, agent.encoder_config)
        pushed = [random_transition(agent, rng, done=(i % 4 == 0)) for i in range(64)]
        for t in pushed:
            buffer.push(t, state_window(t, agent.encoder_config))
        batch = buffer.sample(32, rng)
        for module in (encoder, agent_module):
            monkeypatch.setattr(module, "window_ids", counted)
        update(batch, agent, 0.01, 0.0, toy_agent(seed=49), target_memo={})
        assert calls == []
        update(pushed[:32], agent, 0.01, 0.0, toy_agent(seed=49), target_memo={})
        assert calls == [32]

    @pytest.mark.parametrize("bad, match", [
        (Transition((0,), 1, 1.0, (0, 2), False), "state plus its action"),
        (Transition((0,), 1, 1.0, (1,), True), "state plus its action"),
        (Transition((0,), 5, 1.0, (0, 5), False), "action 5")])
    def test_a_listed_transition_must_extend_its_state_by_its_action(self, bad, match):
        # a next state's window is derived from the state's and the action
        agent = toy_agent(num_items=5, seed=51)
        before = agent.params.copy()
        for returns in (None, [1.0, 1.0]):
            with pytest.raises(ValueError, match=match):
                update([Transition((0,), 1, 1.0, (0, 1), False), bad], agent, 0.01,
                       returns=returns)
        assert before.allclose(agent.params)

    def test_a_batch_padded_for_another_window_is_refused(self):
        agent = toy_agent(seed=50)
        config = encoder.EncoderConfig(num_items=5, embed_dim=3, max_seq_len=6)
        buffer = ReplayBuffer(4, config)
        t = Transition((0,), 1, 1.0, (0, 1), False)
        buffer.push(t, state_window(t, config))
        before = agent.params.copy()
        with pytest.raises(ValueError, match="window length"):
            update(buffer.sample(1, np.random.default_rng(0)), agent, 0.01)
        assert before.allclose(agent.params)

    @pytest.mark.parametrize("setting, encodes", [
        ("actor_critic", 2), ("target_bundle", 2), ("target_memo", 2), ("critic_only", 2),
        ("mixture_0.3", 2), ("returns", 1)])
    def test_one_encoder_forward_per_role(self, setting, encodes, monkeypatch):
        # one batched forward each for the states and the non-terminal next
        # states, whatever the batch size; the mixture reads the frozen
        # policy from the transitions and encodes nothing under it
        calls = []
        forward = encoder._forward

        def counted(ids, *args):
            calls.append(len(ids))
            return forward(ids, *args)

        monkeypatch.setattr(encoder, "_forward", counted)
        agent = toy_agent(seed=34)
        rng = np.random.default_rng(35)
        batch = [random_transition(agent, rng, done=(i % 4 == 0)) for i in range(64)]
        batch = self._setting_batch(setting, batch)
        calls.clear()
        update(batch, agent, 0.01, 0.0,
               **self._setting_kwargs(setting, rng.normal(size=len(batch))))
        assert len(calls) == encodes

    @staticmethod
    def _count_forwards(monkeypatch) -> list:
        """The batch size of every encoder forward from now on."""
        calls = []
        forward = encoder._forward

        def counted(ids, *args):
            calls.append(len(ids))
            return forward(ids, *args)

        monkeypatch.setattr(encoder, "_forward", counted)
        return calls

    def test_memo_encodes_only_the_distinct_missing_next_states(self, monkeypatch):
        # a cold memo takes one next-state forward over the distinct
        # non-terminal next windows, a partly warm one over those it lacks,
        # a warm one none; the states forward is one per step throughout
        calls = self._count_forwards(monkeypatch)
        agent, target = toy_agent(seed=34), toy_agent(seed=39)
        rng = np.random.default_rng(35)
        pool = [random_transition(agent, rng, done=(i % 4 == 0)) for i in range(24)]
        # a longer history in front of a full window leaves the next window as it is
        pool += [dataclasses.replace(t, state_items=(0, 1) + t.state_items,
                                     next_state_items=(0, 1) + t.next_state_items)
                 for t in pool if len(t.state_items) == 3]
        batch = [pool[int(i)] for i in rng.integers(len(pool), size=64)]

        def key(t):
            return window_ids([t.next_state_items], agent.encoder_config).tobytes()

        live = {key(t) for t in batch if not t.done}
        assert len(live) < len({t.next_state_items for t in batch if not t.done})
        memo = {}
        for warm in (batch[:20], batch, batch):
            missing = {key(t) for t in warm if not t.done} - set(memo)
            calls.clear()
            update(warm, agent, 0.01, 0.0, target, target_memo=memo)
            assert calls == [len(warm)] + ([len(missing)] if missing else [])
        assert set(memo) == live

    def test_equal_next_windows_share_one_entry_and_one_encode(self, monkeypatch):
        # two next states whose histories differ only before the window
        calls = self._count_forwards(monkeypatch)
        memoised, target = toy_agent(seed=50), toy_agent(seed=51)
        plain = memoised.clone()
        batch = [Transition((1, 2, 3), 4, 0.5, (1, 2, 3, 4), False),
                 Transition((0, 4, 1, 2, 3), 4, -1.0, (0, 4, 1, 2, 3, 4), False),
                 Transition((2,), 0, 0.25, (2, 0), False)]
        memo = {}
        losses = update(batch, memoised, 0.05, 0.5, target, target_memo=memo)
        assert calls == [3, 2] and len(memo) == 2
        for t in batch:
            fresh = q_values(encoder.encode(t.next_state_items, target.params,
                                            target.encoder_config), target).max()
            assert memo[window_ids([t.next_state_items], target.encoder_config).tobytes()] \
                == fresh
        calls.clear()
        assert update(batch, plain, 0.05, 0.5, target) == losses
        assert calls == [3, 2]
        for name in plain.params:
            assert np.array_equal(plain.params[name], memoised.params[name]), name

    @pytest.mark.parametrize("setting", ["target_memo", "critic_only", "mixture_0.3"])
    def test_memoised_stream_is_bitwise_the_plain_stream(self, setting):
        # a run of steps on one snapshot, then a refresh (a new snapshot and
        # an empty memo) and more steps: the memo changes no bit of any loss
        # or parameter
        rng = np.random.default_rng(40)
        frozen = toy_agent(seed=41)
        pool = with_frozen_probs([random_transition(frozen, rng, done=(i % 5 == 0))
                                  for i in range(12)], frozen)
        batches = [[pool[int(i)] for i in rng.integers(len(pool), size=8)] for _ in range(12)]
        kwargs = self._setting_kwargs(setting, None)
        kwargs.pop("target_bundle", None)
        kwargs.pop("target_memo", None)
        plain, memoised = toy_agent(seed=42), toy_agent(seed=42)
        target, memo = plain.clone(), {}
        for step, batch in enumerate(batches):
            if step == 6:
                target, memo = plain.clone(), {}
            losses = update(batch, plain, 0.05, 0.5, target, **kwargs)
            assert update(batch, memoised, 0.05, 0.5, target, target_memo=memo,
                          **kwargs) == losses
            for name in plain.params:
                assert np.array_equal(plain.params[name], memoised.params[name]), name
        assert memo

    def test_memo_without_a_target_is_refused(self):
        agent = toy_agent(seed=43)
        before = agent.params.copy()
        with pytest.raises(ValueError, match="target_memo"):
            update([Transition((0,), 1, 1.0, (0, 1), False)], agent, 0.01, target_memo={})
        assert before.allclose(agent.params)

    def test_mixture_needs_frozen_prob_on_every_transition(self):
        agent = toy_agent(seed=36)
        rng = np.random.default_rng(37)
        batch = with_frozen_probs([random_transition(agent, rng) for _ in range(3)],
                                  toy_agent(seed=38))
        batch[1] = dataclasses.replace(batch[1], frozen_prob=None)
        before = agent.params.copy()
        with pytest.raises(ValueError, match="frozen_prob"):
            update(batch, agent, 0.01, alpha=0.3)
        assert before.allclose(agent.params)

    def test_clone_is_independent(self):
        agent = toy_agent(seed=23)
        twin = agent.clone()
        update([Transition((0,), 1, 1.0, (0, 1), False)], agent, lr=0.05)
        assert not twin.params.allclose(agent.params)



class TestStackedForward:
    """One forward over a ParamStack of two sets gives each set's rows of its
    own forward and actor head, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 4, 64])
    def test_stacked_rows_equal_the_per_set_rows(self, batch):
        from prefrl.agent import AgentBundle, _head
        from prefrl.nn import ParamStack

        sets = [init_agent(24, embed_dim=8, max_seq_len=6, seed=seed) for seed in (60, 61)]
        config = sets[0].encoder_config
        stack = ParamStack([a.params for a in sets], encoder.GATHERED)
        both = AgentBundle(stack, config)
        sets[1].params.move_to(stack.flat[1])
        rng = np.random.default_rng(batch)
        # 1 to 9 items against a window of 6, so rows are padded and cut
        histories = [tuple(int(i) for i in rng.integers(24, size=1 + b % 9))
                     for b in range(batch)]
        ids = window_ids(histories, config)
        assert (ids == config.padding_id).any()

        def check():
            states = encoder._forward(ids, stack, config)[0]
            assert states.shape == (2, batch, 8)
            for s, agent in enumerate(sets):
                own = encoder._forward(ids, agent.params, config)[0]
                assert np.array_equal(states[s], own)
                assert np.array_equal(_head(states, both, "actor")[s],
                                      _head(own, agent, "actor"))
                assert np.array_equal(action_distribution(states, both)[s],
                                      action_distribution(own, agent))

        check()
        before = stack.flat.copy()
        transitions = [random_transition(sets[1], rng) for _ in range(8)]
        update(transitions, sets[1], lr=0.05)       # steps row 1 in place
        assert np.array_equal(stack.flat[0], before[0])
        assert not np.array_equal(stack.flat[1], before[1])
        check()
