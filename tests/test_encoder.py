import numpy as np
import pytest

from helpers import max_rel_err
from prefrl.encoder import (EncoderConfig, encode, encode_backward, encode_batch,
                            encode_windows_with_cache, encode_with_cache, init_encoder_params,
                            window_ids)
from prefrl.nn import ParamSet, finite_diff_grad


def make_params(config, seed=0, proj_noise=0.01):
    rng = np.random.default_rng(seed)
    return ParamSet(init_encoder_params(config, rng, proj_noise=proj_noise))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_items=1)
        with pytest.raises(ValueError):
            EncoderConfig(num_items=4, embed_dim=1)
        with pytest.raises(ValueError):
            EncoderConfig(num_items=4, max_seq_len=0)

    def test_padding_id(self):
        assert EncoderConfig(num_items=7).padding_id == 7


class TestForward:
    def test_single_item_hand_computation(self):
        # With exact-identity projections a single item attends only to
        # itself, so the residual doubles the input row:
        # state = 2 * (embedding + position[last slot]).
        config = EncoderConfig(num_items=4, embed_dim=2, max_seq_len=3)
        params = make_params(config, seed=1, proj_noise=0.0)
        expected = 2.0 * (params["item_emb"][2] + params["pos_emb"][-1])
        assert np.allclose(encode([2], params, config), expected, atol=1e-12)

    def test_deterministic(self):
        config = EncoderConfig(num_items=6, embed_dim=4, max_seq_len=5)
        params = make_params(config, seed=2)
        a = encode([0, 3, 5], params, config)
        b = encode([0, 3, 5], params, config)
        assert np.array_equal(a, b)

    def test_truncates_to_most_recent_items(self):
        config = EncoderConfig(num_items=8, embed_dim=4, max_seq_len=4)
        params = make_params(config, seed=3)
        long_seq = [0, 1, 2, 3, 4, 5, 6, 7, 1]
        assert np.array_equal(encode(long_seq, params, config),
                              encode(long_seq[-4:], params, config))

    def test_prefix_state_ignores_suffix(self):
        # encode of a prefix depends only on the prefix, whatever follows it
        config = EncoderConfig(num_items=8, embed_dim=4, max_seq_len=6)
        params = make_params(config, seed=4)
        s = [1, 4, 2, 7, 0]
        base = encode(s[:3], params, config)
        for mutated_tail in ([5, 5], [0, 3], []):
            assert np.array_equal(base, encode((s[:3] + mutated_tail)[:3], params, config))

    def test_left_padding_is_neutral(self):
        # explicit padded computation (pads in the leading slots, masked out
        # as keys) must equal the unpadded library path
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=6)
        params = make_params(config, seed=5)
        ids = [4, 0, 2]
        n, d, L = config.max_seq_len, config.embed_dim, 3
        pad_rows = n - L
        full_ids = np.array([config.padding_id] * pad_rows + ids)
        x = params["item_emb"][full_ids] + params["pos_emb"]
        q, k, v = x @ params["w_q"], x @ params["w_k"], x @ params["w_v"]
        scores = (q @ k.T) / np.sqrt(d)
        blocked = np.triu(np.ones((n, n), dtype=bool), k=1)
        blocked[:, :pad_rows] = True  # padding ids never act as keys
        scores = np.where(blocked, -np.inf, scores)
        with np.errstate(invalid="ignore"):  # all-masked pad rows are discarded anyway
            scores -= scores.max(axis=1, keepdims=True)
            attn = np.exp(scores)
            attn[np.isnan(attn)] = 0.0
            attn /= np.maximum(attn.sum(axis=1, keepdims=True), 1e-300)
        reference = (x + attn @ v)[-1]
        assert np.allclose(encode(ids, params, config), reference, atol=1e-12)

    def test_input_validation(self):
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=4)
        params = make_params(config)
        with pytest.raises(ValueError, match="empty"):
            encode([], params, config)
        with pytest.raises(ValueError, match="out of range"):
            encode([0, 5], params, config)
        with pytest.raises(ValueError, match="out of range"):
            encode([-1], params, config)


class TestBatch:
    def test_batch_of_one_equals_encode(self):
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=4)
        params = make_params(config, seed=6)
        assert np.array_equal(encode_batch([[1, 2]], params, config)[0],
                              encode([1, 2], params, config))

    def test_batch_matches_per_item_encode(self):
        config = EncoderConfig(num_items=10, embed_dim=4, max_seq_len=6)
        params = make_params(config, seed=7)
        rng = np.random.default_rng(8)
        seqs = [list(rng.integers(0, 10, size=rng.integers(1, 9))) for _ in range(64)]
        batch = encode_batch(seqs, params, config)
        for seq, state in zip(seqs, batch):
            assert np.array_equal(state, encode(seq, params, config))


    @pytest.mark.parametrize("size", [1, 2, 3, 64])
    def test_encode_is_its_row_of_every_batch(self, size):
        # embed_dim >= 8, where a (B, d) @ (d, d) GEMM rounds differently at
        # B = 1 than at B >= 2; every row must come out with encode's bits
        config = EncoderConfig(num_items=12, embed_dim=16, max_seq_len=5)
        params = make_params(config, seed=9, proj_noise=0.1)
        rng = np.random.default_rng(10 + size)
        seqs = [tuple(int(i) for i in rng.integers(0, 12, size=rng.integers(1, 9)))
                for _ in range(size)]
        batch = encode_batch(seqs, params, config)
        assert batch.shape == (size, config.embed_dim)
        for position, seq in enumerate(seqs):
            assert np.array_equal(batch[position], encode(seq, params, config))

    def test_empty_batch_rejected(self):
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=4)
        with pytest.raises(ValueError, match="empty"):
            encode_batch([], make_params(config), config)

    def test_ids_outside_the_window_are_validated(self):
        # the encoder reads only the last max_seq_len items, but a bad id
        # anywhere in any sequence of the batch is still an error
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=4)
        params = make_params(config)
        with pytest.raises(ValueError, match="item id 9 out of range"):
            encode_batch([[1], [9, 0, 1, 2, 3]], params, config)
        with pytest.raises(ValueError, match="empty"):
            encode_batch([[1], []], params, config)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, seed):
        config = EncoderConfig(num_items=5, embed_dim=3, max_seq_len=4)
        params = make_params(config, seed=seed)
        rng = np.random.default_rng(100 + seed)
        seq = list(rng.integers(0, 5, size=rng.integers(1, 5)))
        w = rng.normal(size=config.embed_dim)

        state, cache = encode_with_cache(seq, params, config)
        params.zero_grads()
        encode_backward(cache, w, params)
        analytic = {k: v.copy() for k, v in params.grads.items()}
        params.zero_grads()

        numeric = finite_diff_grad(lambda p: float(w @ encode(seq, p, config)), params)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_window_ids_left_pad_and_keep_the_last_items(self):
        config = EncoderConfig(num_items=6, embed_dim=2, max_seq_len=3)
        ids = window_ids([(1,), (2, 3, 4), (0, 1, 2, 3, 5)], config)
        assert ids.dtype == np.int64
        assert ids.tolist() == [[6, 6, 1], [2, 3, 4], [2, 3, 5]]

    @pytest.mark.parametrize("seq", [(1,), [2, 3, 4], (0, 1, 2, 3, 5), np.array([4, 0])])
    def test_one_sequence_pads_as_its_row_in_a_batch(self, seq):
        config = EncoderConfig(num_items=6, embed_dim=2, max_seq_len=3)
        ids = window_ids([seq], config)
        assert ids.dtype == np.int64 and ids.shape == (1, 3)
        assert np.array_equal(ids[0], window_ids([(5, 5, 5, 5), seq], config)[1])

    @pytest.mark.parametrize("seq, bad", [((6,), 6), ((1, -1, 7), -1), ((9, 0, 1, 2, 3), 9)])
    def test_one_sequence_names_its_first_bad_id(self, seq, bad):
        config = EncoderConfig(num_items=6, embed_dim=2, max_seq_len=3)
        for batch in ([seq], [(1,), seq]):
            with pytest.raises(ValueError, match=rf"item id {bad} out of range \[0, 6\)"):
                window_ids(batch, config)

    def _batch_case(self, seed=11):
        # lengths 1, max_seq_len, longer than max_seq_len, and 2
        config = EncoderConfig(num_items=6, embed_dim=4, max_seq_len=3)
        params = make_params(config, seed=seed, proj_noise=0.3)
        rng = np.random.default_rng(seed)
        seqs = [tuple(int(i) for i in rng.integers(0, 6, size=n)) for n in (1, 3, 5, 2)]
        return config, params, seqs, rng.normal(size=(len(seqs), config.embed_dim))

    def test_batched_backward_matches_finite_differences(self):
        config, params, seqs, w = self._batch_case()
        _, cache = encode_windows_with_cache(window_ids(seqs, config), params, config)
        params.zero_grads()
        encode_backward(cache, w, params)
        analytic = {k: v.copy() for k, v in params.grads.items()}
        params.zero_grads()

        numeric = finite_diff_grad(
            lambda p: float(np.sum(w * encode_batch(seqs, p, config))), params)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_padding_row_gets_no_gradient(self):
        config, params, seqs, w = self._batch_case(seed=12)
        _, cache = encode_windows_with_cache(window_ids(seqs, config), params, config)
        params.zero_grads()
        encode_backward(cache, w, params)
        assert np.any(params.grads["item_emb"][:config.num_items] != 0.0)
        assert np.all(params.grads["item_emb"][config.padding_id] == 0.0)
