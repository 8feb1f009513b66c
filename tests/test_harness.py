import inspect
import json
import re

import numpy as np
import pytest

from prefrl.agent import init_agent, policy_for, update
from prefrl.checkpoint import (AGENT_TENSORS, CheckpointError, load_checkpoint,
                               read_checkpoint, save_checkpoint, save_tensors)
from prefrl.config import ConfigError, DEFAULTS, dump_full, load_config
from prefrl.data import generate_synthetic
from prefrl.encoder import EncoderConfig
from prefrl.environment import EnvConfig, LatentPreferenceModel, fit_reward_model
from prefrl.harness import (build_envs, build_oracle, build_reward_model, build_world,
                            encoder_config_from, pretrain_with_checkpoints, strategy_from,
                            train_config_from, write_curve)
from prefrl.metrics import EpisodeRecord, compute_metrics, smooth_curve
from prefrl.oracle import PromptSpec, RemoteEndpoint, SyntheticOracle
from prefrl.training import (ExplorationStrategy, TrainConfig, online_phase, run_baseline,
                             scratch_agent)
from prefrl import cli, environment, harness


class TestEpisodeRecord:
    def test_avg_reward_is_the_ratio(self):
        rec = EpisodeRecord(0, 10, 4.92, 6)
        assert rec.avg_reward == 4.92 / 6
        assert rec.avg_reward == pytest.approx(0.82)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EpisodeRecord(0, 1, 5.0, 0)


class TestComputeMetrics:
    def test_single_constructed_episode(self):
        # a 6-step episode with return 4.92 reproduces the 0.82 ratio
        means = compute_metrics([EpisodeRecord(0, 6, 4.92, 6)])
        assert means.avg_reward == pytest.approx(0.82)

    def test_reported_ratio_consistency(self):
        # R=5.11 with Len=6.21 (means over many episodes) is consistent with
        # an average reward of 0.82 to within 0.01
        assert abs(5.11 / 6.21 - 0.82) < 0.01

    def test_identical_episodes(self):
        eps = [EpisodeRecord(i, i, 2.0, 4) for i in range(1, 6)]
        means = compute_metrics(eps)
        assert means == (2.0, 4.0, 0.5)

    def test_avg_reward_is_mean_of_ratios(self):
        eps = [EpisodeRecord(0, 1, 1.0, 1), EpisodeRecord(1, 3, 1.0, 2)]
        means = compute_metrics(eps)
        assert means.avg_reward == pytest.approx((1.0 + 0.5) / 2)
        assert means.episode_return == pytest.approx(1.0)
        assert means.length == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])


class TestSmoothCurve:
    def test_trailing_window(self):
        eps = [EpisodeRecord(i, i + 1, float(i), 1) for i in range(30)]
        sm = smooth_curve(eps, window=20)
        assert sm[0].episode_return == 0.0
        assert sm[4].episode_return == pytest.approx(2.0)  # mean of 0..4
        assert sm[29].episode_return == pytest.approx(np.mean(range(10, 30)))


def older_layout(src, dst, gamma=0.9):
    """Rewrite the agent file ``src`` at ``dst`` in the layout agent files
    had while the agent carried its discount: the config holds a ``gamma``
    and the JSON header repeats the binary prefix's ``format_version``."""
    data = read_checkpoint(src)
    save_tensors(dst, data.tensors, {**data.config, "gamma": gamma}, data.rng_state)
    blob = dst.read_bytes()
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size])
    header["format_version"] = 1
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    dst.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + size:])


@pytest.fixture
def trained_agent():
    return init_agent(6, embed_dim=4, max_seq_len=5, seed=42)


class TestCheckpoint:
    def test_roundtrip_preserves_distributions(self, tmp_path, trained_agent):
        p = tmp_path / "agent.ckpt"
        save_checkpoint(trained_agent, p)
        loaded = load_checkpoint(p)
        assert loaded.encoder_config == trained_agent.encoder_config
        for seq in ([0], [1, 2, 3], [5, 5, 0, 4]):
            a = policy_for(trained_agent, seq)
            b = policy_for(loaded, seq)
            assert np.abs(a - b).max() <= 1e-6

    def test_save_load_save_is_byte_identical(self, tmp_path, trained_agent):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(trained_agent, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_tensors_view_one_array_in_file_order(self, tmp_path, trained_agent):
        # the file's float32 data is widened once, into the array the loaded
        # parameters are views of; a file listing its tensors in another
        # order keeps that order, and saves back to the same bytes
        p0, p1, p2 = (tmp_path / name for name in ("saved.ckpt", "a.ckpt", "b.ckpt"))
        tensors = trained_agent.params.params
        save_checkpoint(trained_agent, p0)
        save_tensors(p1, dict(reversed(tensors.items())), read_checkpoint(p0).config)
        loaded = load_checkpoint(p1)
        assert loaded.params.names() == list(reversed(tensors))
        assert all(np.shares_memory(loaded.params[name], loaded.params.flat)
                   for name in loaded.params)
        for name in tensors:
            assert np.array_equal(loaded.params[name],
                                  tensors[name].astype(np.float32).astype(np.float64)), name
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_holds_no_discount_and_no_second_version(self, tmp_path, trained_agent):
        p = tmp_path / "agent.ckpt"
        save_checkpoint(trained_agent, p)
        size = int.from_bytes(p.read_bytes()[8:16], "little")
        header = json.loads(p.read_bytes()[16:16 + size])
        assert set(header) == {"config", "rng_state", "tensors"}
        assert set(header["config"]) == {"kind", "num_items", "embed_dim", "max_seq_len"}

    def test_a_file_in_the_older_layout_loads_to_the_same_bundle(self, tmp_path,
                                                                  trained_agent):
        new, old, again = (tmp_path / name for name in ("new.ckpt", "old.ckpt", "again.ckpt"))
        save_checkpoint(trained_agent, new)
        older_layout(new, old)
        assert b'"format_version":1' in old.read_bytes() and b'"gamma":0.9' in old.read_bytes()
        loaded, fresh = load_checkpoint(old), load_checkpoint(new)
        assert loaded.encoder_config == fresh.encoder_config
        assert list(loaded.params.params) == list(fresh.params.params)
        for name in AGENT_TENSORS:
            assert np.array_equal(loaded.params[name], fresh.params[name]), name
        # saving it again writes the current layout
        save_checkpoint(loaded, again)
        assert again.read_bytes() == new.read_bytes()

    def test_greedy_actions_survive_roundtrip(self, tmp_path, trained_agent):
        p = tmp_path / "agent.ckpt"
        save_checkpoint(trained_agent, p)
        loaded = load_checkpoint(p)
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq = list(rng.integers(0, 6, size=rng.integers(1, 6)))
            assert np.argmax(policy_for(trained_agent, seq)) == \
                   np.argmax(policy_for(loaded, seq))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(p)

    def test_version_mismatch(self, tmp_path, trained_agent):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version mismatch"):
            read_checkpoint(p)

    def test_truncated_file(self, tmp_path, trained_agent):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p)
        p.write_bytes(p.read_bytes()[:-64])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(p)

    def test_rng_state_roundtrip(self, tmp_path, trained_agent):
        rng = np.random.default_rng(5)
        rng.random(17)
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p, rng_state=rng.bit_generator.state)
        restored = np.random.default_rng()
        restored.bit_generator.state = read_checkpoint(p).rng_state
        assert restored.random() == rng.random()

    def test_shape_mismatch_on_load(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_tensors(p, {"item_emb": np.zeros((3, 2))},
                     {"kind": "agent", "num_items": 6, "embed_dim": 4, "max_seq_len": 5})
        with pytest.raises(CheckpointError, match="missing tensor|shape mismatch"):
            load_checkpoint(p)

    @pytest.mark.parametrize("header,data_bytes", [
        ([], 0), ({}, 0), ({"tensors": 3}, 0), ({"tensors": [{"name": "x"}]}, 0),
        ({"tensors": [{"name": "x", "shape": ["a"]}]}, 0),
        ({"tensors": [{"name": "x", "shape": [-1]}]}, 0),
        ({"tensors": [{"shape": [1]}]}, 4),
        ({"tensors": [{"name": "x", "shape": []}, {"name": "x", "shape": []}]}, 8),
        ({"tensors": [], "config": []}, 0), ({"tensors": [], "rng_state": 5}, 0),
        ({"tensors": [], "rng_state": []}, 0),
        ({"tensors": [{"name": "x", "shape": [2**32, 2**32]}]}, 0),
    ], ids=["list", "empty", "manifest_not_list", "no_shape", "string_shape",
            "negative_shape", "no_name", "duplicate_name", "config_list", "rng_state_int",
            "rng_state_list", "int64_overflowing_shape"])
    def test_malformed_header_is_a_checkpoint_error(self, tmp_path, header, data_bytes):
        p = tmp_path / "x.ckpt"
        raw = json.dumps(header).encode()
        p.write_bytes(b"PRFL" + (1).to_bytes(4, "little") + len(raw).to_bytes(8, "little")
                      + raw + b"\0" * data_bytes)
        for read in (read_checkpoint, load_checkpoint):
            with pytest.raises(CheckpointError, match=re.escape(str(p))):
                read(p)

    @pytest.mark.parametrize("config", [
        {"kind": "agent"},
        {"kind": "agent", "num_items": "6", "embed_dim": 4, "max_seq_len": 5},
        {"kind": "agent", "num_items": 1, "embed_dim": 4, "max_seq_len": 5},
    ], ids=["no_sizes", "string_size", "one_item"])
    def test_malformed_agent_config_is_a_checkpoint_error(self, tmp_path, trained_agent,
                                                          config):
        p = tmp_path / "x.ckpt"
        save_tensors(p, trained_agent.params.params, config)
        with pytest.raises(CheckpointError, match=re.escape(str(p))):
            load_checkpoint(p)

    def test_unknown_tensor_is_a_checkpoint_error(self, tmp_path, trained_agent):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p)
        tensors = {**trained_agent.params.params, "junk": np.zeros(1000)}
        save_tensors(p, tensors, read_checkpoint(p).config)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p)
        assert str(info.value) == f"{p}: agent checkpoint has unknown tensor 'junk'"

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path, trained_agent):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p, rng_state=np.random.default_rng(0).bit_generator.state)
        blob = p.read_bytes()
        for n in range(len(blob)):
            p.write_bytes(blob[:n])
            for read in (read_checkpoint, load_checkpoint):
                with pytest.raises(CheckpointError):
                    read(p)

    @pytest.mark.parametrize("name", ["item_emb", "pos_emb", "w_q", "w_k", "w_v",
                                      "actor_w", "actor_b", "critic_w", "critic_b"])
    def test_every_agent_tensor_is_shape_checked(self, tmp_path, trained_agent, name):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p)
        config = read_checkpoint(p).config
        for axis in range(trained_agent.params[name].ndim):
            tensors = dict(trained_agent.params.params)
            grown = list(tensors[name].shape)
            grown[axis] += 1
            tensors[name] = np.zeros(grown)
            save_tensors(p, tensors, config)
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(p)
            assert str(info.value).startswith(f"{p}: agent checkpoint tensor {name!r} has shape "
                                              f"{tuple(grown)}, expected ")

    def test_layout_matches_initialised_tensors(self):
        # a non-square config, so a swapped or mislabelled axis shows
        dims = {"items": 7, "ids": 8, "embed_dim": 3, "max_seq_len": 5}
        agent = init_agent(7, embed_dim=3, max_seq_len=5, seed=0)
        assert {name: tuple(dims[axis] for axis in axes)
                for name, axes in AGENT_TENSORS.items()} == \
               {name: arr.shape for name, arr in agent.params.params.items()}


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["training"]["online_steps"] == 50_000
        assert cfg["training"]["pretrain_epochs"] == 100
        assert cfg["training"]["k"] == 10
        assert cfg["harness"]["seeds"] == [0, 1, 2, 3, 4]

    def test_file_values_and_overrides(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[training]\nlr = 0.5\nseed = 9\n", encoding="utf-8")
        cfg = load_config(p, {("training", "seed"): "3"})
        assert cfg["training"]["lr"] == 0.5
        assert cfg["training"]["seed"] == 3

    def test_unknown_key_is_named(self, tmp_path):
        p = tmp_path / "c.ini"
        # keys that configure nothing are rejected like any unknown key
        for section, key in (("training", "foo"), ("harness", "out_dir"),
                             ("oracle", "max_in_flight")):
            p.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=key):
                load_config(p)

    def test_unknown_section_is_named(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[cluster]\nnodes = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cluster"):
            load_config(p)

    @pytest.mark.parametrize("text", ["[cluster]\n", "[training]\nseed = 9\n[cluster]\n"],
                             ids=["alone", "next_to_training"])
    def test_a_section_with_no_keys_is_named(self, tmp_path, text):
        # a section outside the schema is refused even when it sets nothing
        p = tmp_path / "c.ini"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape("unknown config section [cluster]")):
            load_config(p)

    @pytest.mark.parametrize("section, key, raw", [
        ("training", "seed", "-1"), ("environment", "seed", "-2"), ("data", "seed", "-3"),
        ("harness", "seeds", "0, -1"), ("harness", "seeds", "-4")])
    def test_a_negative_seed_is_named(self, tmp_path, section, key, raw):
        p = tmp_path / "c.ini"
        p.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        message = re.escape(f"bad value for [{section}] {key}: {raw!r}")
        with pytest.raises(ConfigError, match=message):
            load_config(p)
        with pytest.raises(ConfigError, match=message):
            load_config(None, {(section, key): raw})
        assert load_config(None, {(section, key): "0"})[section][key] in (0, [0])

    @pytest.mark.parametrize("text", ["[DEFAULT]\nlr = 0.5\n",
                                      "[DEFAULT]\nlr = 0.5\n[training]\nseed = 9\n"],
                             ids=["alone", "next_to_training"])
    def test_a_default_section_is_refused(self, tmp_path, text):
        # configparser would drop its keys, or copy them into every section
        p = tmp_path / "c.ini"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{p}: a [DEFAULT] section")):
            load_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[training]\nlr = fast\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="lr"):
            load_config(p)

    def test_dump_contains_every_key(self):
        text = dump_full(load_config(None))
        for section, keys in DEFAULTS.items():
            assert f"[{section}]" in text
            for key in keys:
                assert f"{key} = " in text

    @pytest.mark.parametrize("api, section, keys", [
        (TrainConfig, "training", {}),
        (EnvConfig, "environment", {}),
        (EncoderConfig, "encoder", {}),
        (RemoteEndpoint, "oracle", {}),
        (fit_reward_model, "environment", {"epochs": "fit_epochs", "lr": "fit_lr",
                                           "max_seq_len": ("encoder", "max_seq_len")}),
        (init_agent, "encoder", {"seed": ("training", "seed")}),
        (LatentPreferenceModel, "environment", {"scale": "latent_scale"}),
        (SyntheticOracle, "oracle", {}),
        (PromptSpec, "training", {}),
        (update, "training", {"target_bundle": None, "actor": None, "alpha": None,
                              "returns": None, "target_memo": None}),
        (online_phase, "harness", {"strategy": None, "eval_env": None, "eval_epochs": None,
                                   "oracle": None}),
        (run_baseline, "harness", {"strategy": None, "eval_env": None, "eval_epochs": None,
                                   "oracle": None}),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_api_defaults_are_the_config_defaults(self, api, section, keys):
        # every keyword default of the API repeats the default of the config
        # key the harness feeds it from, so the CLI and the API start equal;
        # a key mapped to None has no config key (one of update's settings)
        defaults = {name: param.default
                    for name, param in inspect.signature(api).parameters.items()
                    if param.default is not inspect.Parameter.empty}
        assert defaults
        for name, default in defaults.items():
            key = keys.get(name, name)
            if key is None:
                continue
            where, key = key if isinstance(key, tuple) else (section, key)
            assert default == DEFAULTS[where][key], \
                f"{api.__name__}({name}={default!r}), but [{where}] {key} = {DEFAULTS[where][key]!r}"

    def test_dqn_without_a_strategy_explores_at_the_default_epsilon(self, tiny_config):
        # online_phase's own dqn default repeats [training] epsilon, so an API
        # run without a strategy is the run the harness makes by default
        cfg = load_config(tiny_config)
        world = build_world(cfg)
        model = build_reward_model(cfg, world)
        config = train_config_from(cfg, 0)
        agent = scratch_agent(config, encoder_config_from(cfg, world.catalog.num_items))

        def run(strategy):
            return online_phase("dqn", agent, build_envs(cfg, model, world, 0)[0], config,
                                strategy)

        default = run(None)
        configured = run(strategy_from(load_config(None), "epsilon_greedy"))
        assert default.episodes == configured.episodes
        assert default.agent.params.allclose(configured.agent.params)
        other = run(ExplorationStrategy("epsilon_greedy", 0.5))
        assert not default.agent.params.allclose(other.agent.params)

    def test_dump_reloads_identically(self, tmp_path):
        cfg = load_config(None, {("training", "lr"): "0.123"})
        p = tmp_path / "full.ini"
        p.write_text(dump_full(cfg), encoding="utf-8")
        assert load_config(p).values == cfg.values


class TestWorldBuilding:
    def test_synthetic_world_split(self):
        cfg = load_config(None, {("data", "num_users"): "10",
                                 ("data", "num_items"): "12",
                                 ("data", "seq_len"): "4",
                                 ("data", "train_fraction"): "0.8"})
        world = build_world(cfg)
        assert world.train_log.num_sequences == 8
        assert world.test_log.num_sequences == 2
        assert world.truth is not None

    def test_world_from_files(self, tmp_path):
        from prefrl.data import write_catalog, write_interactions
        from prefrl.harness import save_truth
        catalog, log, truth = generate_synthetic(6, 8, 3, 2, seed=4)
        write_catalog(catalog, tmp_path / "cat.csv")
        write_interactions(log, tmp_path / "int.csv")
        save_truth(truth, tmp_path / "truth.npz")
        cfg = load_config(None, {
            ("data", "catalog_path"): str(tmp_path / "cat.csv"),
            ("data", "interactions_path"): str(tmp_path / "int.csv"),
            ("data", "truth_path"): str(tmp_path / "truth.npz"),
        })
        world = build_world(cfg)
        assert world.catalog.num_items == 8
        assert world.log.sequences == log.sequences
        model = build_reward_model(cfg, world)
        assert model.kind == "latent"

    def test_latent_env_requires_truth(self, tmp_path):
        from prefrl.data import write_catalog, write_interactions
        catalog, log, _ = generate_synthetic(6, 8, 3, 2, seed=4)
        write_catalog(catalog, tmp_path / "cat.csv")
        write_interactions(log, tmp_path / "int.csv")
        cfg = load_config(None, {
            ("data", "catalog_path"): str(tmp_path / "cat.csv"),
            ("data", "interactions_path"): str(tmp_path / "int.csv"),
        })
        with pytest.raises(ConfigError, match="latent"):
            build_reward_model(cfg, build_world(cfg))

    def test_only_the_training_environment_has_a_reset_stream(self):
        # evaluate seeds every reset of the test environment, so it has no
        # stream of its own to draw from
        cfg = load_config(None, {("data", "num_users"): "10", ("data", "num_items"): "12"})
        world = build_world(cfg)
        train_env, test_env = build_envs(cfg, build_reward_model(cfg, world), world, 3)
        assert not train_env.reset().done
        with pytest.raises(ValueError, match="no reset stream"):
            test_env.reset()
        assert test_env.reset(seed=7) == test_env.reset(seed=7)

    def test_llm_oracle_requires_base_url(self):
        cfg = load_config(None, {("oracle", "kind"): "llm"})
        with pytest.raises(ConfigError, match="base_url"):
            build_oracle(cfg, build_world(cfg))


class TestCurveFiles:
    def test_ordered_json_lines(self, tmp_path):
        eps = [EpisodeRecord(i, (i + 1) * 3, float(i), 3) for i in range(25)]
        p = tmp_path / "curve.jsonl"
        write_curve(p, eps)
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert len(rows) == 25
        steps = [r["global_step"] for r in rows]
        assert steps == sorted(steps)
        assert rows[3]["smoothed_return"] == pytest.approx(np.mean([0, 1, 2, 3]))
        for r in rows:
            assert r["avg_reward"] * r["length"] == pytest.approx(r["return"], abs=1e-9)


TINY_INI = """
[data]
num_users = 14
num_items = 14
seq_len = 4
d_lat = 3
seed = 2

[encoder]
embed_dim = 6
max_seq_len = 5

[oracle]
threshold = 2.5

[environment]
kind = latent
max_steps = 8
quit_threshold = 0.75

[training]
pretrain_epochs = 3
pretrain_horizon = 8
online_steps = 50
batch_size = 8
buffer_capacity = 300
lr = 0.02
gamma = 0.5
k = 4
candidate_sampling = categorical
alpha_anneal_steps = 25
seed = 0

[harness]
run_id = t
seeds = 0
episodes_per_epoch = 2
eval_episodes = 3
"""


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY_INI, encoding="utf-8")
    return p


def summary_metrics(path) -> dict:
    """(method, seed, epoch) -> the (return, length, avg_reward) cells."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {tuple(cells[:3]): cells[3:6] for cells in (line.split("\t") for line in lines)}


class TestCli:
    def run(self, *args):
        return cli.main(list(args))

    def test_gen_data_writes_world(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "gen-data") == 0
        assert (out / "catalog.csv").exists()
        assert (out / "interactions.csv").exists()
        assert (out / "truth.npz").exists()
        assert (out / "config.full").exists()

    def test_pretrain_online_eval_chain(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        run = out / "t-s0"
        assert (run / "agent_pretrained.ckpt").exists()
        assert (run / "pretrain_log.jsonl").exists()
        assert self.run("--config", str(tiny_config), "--out", str(out),
                        "--scheme", "ft", "online") == 0
        assert (run / "curve_ft.jsonl").exists()
        assert self.run("--config", str(tiny_config), "--out", str(out), "eval") == 0
        assert (run / "eval.tsv").exists()

    def test_online_with_no_episodes_per_epoch_fails_cleanly(self, tiny_config, tmp_path,
                                                             capsys):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI.replace("episodes_per_epoch = 2", "episodes_per_epoch = 0"),
                       encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(bad), "--out", str(out), "online") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "episodes_per_epoch" in err
        assert not (out / "t-s0" / "curve_ft.jsonl").exists()

    def test_online_with_a_batch_larger_than_the_buffer_fails_cleanly(self, tiny_config,
                                                                      tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI.replace("buffer_capacity = 300", "buffer_capacity = 4"),
                       encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(bad), "--out", str(out), "online") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "batch_size" in err and "buffer_capacity" in err
        assert not (out / "t-s0" / "curve_ft.jsonl").exists()

    @pytest.mark.parametrize("arrays", [
        lambda users, items: {"user_latents": users, "item_latents": items[:-3]},
        lambda users, items: {"user_latents": users},
        lambda users, items: {"user_latents": users, "item_latents": items[:, :2]},
        None,
    ], ids=["cut_item_rows", "no_item_latents", "latent_dims_differ", "not_npz"])
    def test_bad_truth_file_is_one_error_naming_it(self, tiny_config, tmp_path, capsys,
                                                   arrays):
        world = tmp_path / "world"
        assert self.run("--config", str(tiny_config), "--out", str(world), "gen-data") == 0
        truth = tmp_path / "truth.npz"
        if arrays is None:
            truth.write_text("not an archive", encoding="utf-8")
        else:
            with np.load(world / "truth.npz") as data:
                np.savez(truth, **arrays(data["user_latents"], data["item_latents"]))
        files = (f"[data]\ncatalog_path = {world / 'catalog.csv'}\n"
                 f"interactions_path = {world / 'interactions.csv'}\ntruth_path = {truth}\n")
        cfg = tmp_path / "files.ini"
        cfg.write_text(TINY_INI.replace("[data]\n", files), encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(tmp_path / "out"), "pretrain") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key", ["catalog_path", "interactions_path", "truth_path"])
    def test_partial_data_paths_are_one_error_naming_them(self, tiny_config, tmp_path, capsys,
                                                          key):
        world = tmp_path / "world"
        assert self.run("--config", str(tiny_config), "--out", str(world), "gen-data") == 0
        name = {"catalog_path": "catalog.csv", "interactions_path": "interactions.csv",
                "truth_path": "truth.npz"}[key]
        cfg = tmp_path / "partial.ini"
        cfg.write_text(TINY_INI.replace("[data]\n", f"[data]\n{key} = {world / name}\n"),
                       encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(tmp_path / "out"), "pretrain") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [data] {key} set, ") and err.count("\n") == 1, err
        assert "catalog_path and interactions_path" in err

    @pytest.mark.parametrize("command", [("pretrain",), ("baseline", "dqn")],
                             ids=["pretrain", "baseline_dqn"])
    def test_empty_train_split_is_one_error_before_any_work(self, tmp_path, capsys, command):
        cfg = tmp_path / "small_split.ini"
        cfg.write_text(TINY_INI.replace("[data]\n", "[data]\ntrain_fraction = 0.05\n"),
                       encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(out), *command) == 1
        assert capsys.readouterr().err == ("error: [data] train_fraction = 0.05 puts none "
                                           "of the 14 sequences in the train split\n")
        assert not list(out.rglob("*.ckpt")) and not list(out.rglob("*.jsonl"))

    @pytest.mark.parametrize("key, value", [("max_retries", "-1"), ("timeout", "0"),
                                            ("backoff", "-1")])
    def test_bad_oracle_retry_setting_is_one_error_naming_it(self, tiny_config, tmp_path,
                                                             capsys, key, value):
        # the endpoint is never contacted: the setting fails when the judge is built
        llm = f"[oracle]\nkind = llm\nbase_url = http://127.0.0.1:9\n{key} = {value}\n"
        cfg = tmp_path / "llm.ini"
        cfg.write_text(TINY_INI.replace("[oracle]\n", llm), encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(tmp_path / "out"), "pretrain") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [oracle] {key} must be ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_oracle_temperature_is_one_error_before_anything_is_written(self, tmp_path,
                                                                           capsys, value):
        llm = f"[oracle]\nkind = llm\nbase_url = http://127.0.0.1:9\ntemperature = {value}\n"
        cfg = tmp_path / "llm.ini"
        cfg.write_text(TINY_INI.replace("[oracle]\n", llm), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(out), "pretrain") == 1
        assert capsys.readouterr().err == ("error: [oracle] temperature must be finite and "
                                           f">= 0, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, needs", [("timeout", "> 0"), ("backoff", ">= 0")])
    def test_an_infinite_judge_timeout_or_backoff_is_one_error_naming_it(self, tmp_path,
                                                                         capsys, key, needs):
        # unchecked, inf reached socket.settimeout (timeout) or time.sleep
        # (backoff) and ended the run in an OverflowError traceback
        llm = f"[oracle]\nkind = llm\nbase_url = http://127.0.0.1:9\n{key} = inf\n"
        cfg = tmp_path / "llm.ini"
        cfg.write_text(TINY_INI.replace("[oracle]\n", llm), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(out), "pretrain") == 1
        assert capsys.readouterr().err == f"error: [oracle] {key} must be finite and {needs}, got inf\n"
        assert not out.exists()

    @staticmethod
    def _with_setting(section, key, value):
        text = re.sub(rf"^{key} = .*\n", "", TINY_INI, flags=re.M)
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_noise_scale_is_one_error_and_gen_data_writes_nothing(self, tmp_path, capsys,
                                                                      value):
        # unchecked, nan and -1 wrote a noiseless world and inf one ordered by +-inf
        cfg = tmp_path / "noise.ini"
        cfg.write_text(self._with_setting("data", "noise_scale", value), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(out), "gen-data") == 1
        assert capsys.readouterr().err == ("error: [data] noise_scale must be finite and "
                                           f">= 0, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, needs, command", [
        ("environment", "r_max", "nan", "finite and > 0", "baseline"),
        ("environment", "r_max", "inf", "finite and > 0", "baseline"),
        ("environment", "latent_scale", "nan", "finite", "baseline"),
        ("environment", "latent_scale", "inf", "finite", "baseline"),
        ("environment", "quit_threshold", "nan", "finite and >= 0", "baseline"),
        ("training", "lr", "nan", "finite and >= 0", "pretrain"),
        ("training", "lr", "inf", "finite and >= 0", "baseline"),
        ("training", "momentum", "nan", "finite and >= 0", "baseline"),
        ("training", "momentum", "inf", "finite and >= 0", "pretrain"),
        ("oracle", "threshold", "nan", "a number", "pretrain"),
    ])
    def test_bad_float_setting_is_one_error_before_anything_is_written(
            self, tmp_path, capsys, section, key, value, needs, command):
        # unchecked, a nan r_max ended in a non-finite loss, inf in a return of
        # 0.000, a nan quit threshold never quit, a nan lr ended pre-training in
        # "softmax requires finite logits", and a nan judge threshold answered
        # None to every call, so pre-training learned from all-zero rewards
        cfg = tmp_path / "setting.ini"
        cfg.write_text(self._with_setting(section, key, value), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        argv = ("baseline", "pg") if command == "baseline" else (command,)
        assert self.run("--config", str(cfg), "--out", str(out), *argv) == 1
        assert capsys.readouterr().err == (f"error: [{section}] {key} must be {needs}, "
                                           f"got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, needs", [
        ("fit_lr", "nan", "finite and > 0"), ("d_rm", "1", ">= 2 for a sequential model")])
    def test_bad_fit_setting_is_one_error_before_anything_is_written(
            self, tmp_path, capsys, key, value, needs):
        # unchecked, a nan fit_lr ended in "softmax requires finite logits" and
        # d_rm 1 in "embed_dim must be >= 2"
        cfg = tmp_path / "env.ini"
        cfg.write_text(self._with_setting("environment", key, value)
                       .replace("kind = latent", "kind = sequential"), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--out", str(out), "baseline", "pg") == 1
        shown = float(value) if key == "fit_lr" else int(value)
        assert capsys.readouterr().err == (f"error: [environment] {key} must be {needs}, "
                                           f"got {shown!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["r_max", "quit_threshold"])
    def test_bad_environment_float_is_refused_before_the_fit(self, tmp_path, key,
                                                              monkeypatch):
        def fit(*args):
            raise AssertionError("the fit started")

        monkeypatch.setattr(environment, "_fit_sequential", fit)
        cfg = tmp_path / "env.ini"
        cfg.write_text(self._with_setting("environment", key, "nan")
                       .replace("kind = latent", "kind = sequential"), encoding="utf-8")
        config = load_config(cfg)
        with pytest.raises(ValueError, match=rf"^\[environment\] {key} must be finite"):
            build_reward_model(config, build_world(config))

    def _assert_refused(self, out, config, *command):
        """Run ``command``, which must exit 1, and assert that it leaves every
        file and directory under ``out`` as it was."""
        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}

        before = tree()
        assert self.run("--config", str(config), "--out", str(out), *command) == 1
        assert tree() == before

    @pytest.mark.parametrize("num_items", [10, 20])
    @pytest.mark.parametrize("command, checkpoint", [
        (("--scheme", "ap", "online"), "agent_pretrained.ckpt"),
        (("eval",), "agent_pretrained.ckpt"),
        (("pretrain", "--resume"), "pretrain_latest.ckpt"),
    ], ids=["online", "eval", "pretrain_resume"])
    def test_agent_for_another_catalog_is_one_error(self, tiny_config, tmp_path, capsys,
                                                    command, checkpoint, num_items):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        other = tmp_path / "other.ini"
        other.write_text(TINY_INI.replace("num_items = 14", f"num_items = {num_items}"),
                         encoding="utf-8")
        # the refused command leaves the snapshot of the run that is there
        assert b"num_items = 14\n" in (out / "t-s0" / "config.full").read_bytes()
        capsys.readouterr()
        self._assert_refused(out, other, *command)
        path = out / "t-s0" / checkpoint
        assert capsys.readouterr().err == \
            f"error: {path}: agent has 14 items, the catalog has {num_items}\n"

    @pytest.mark.parametrize("command, setting, message", [
        (("--scheme", "ft", "online"), "[training]\nstrategy = bogus\n",
         "unknown strategy 'bogus' (egreedy|epsilon_greedy|categorical|greedy)"),
        (("baseline", "llm_online"), "[oracle]\nkind = llm\n",
         "oracle kind 'llm' requires [oracle] base_url"),
        (("rq4",), "[training]\nepsilon = 2.0\n", "epsilon_greedy requires epsilon in [0, 1]"),
    ], ids=["online_bad_strategy", "llm_online_without_base_url", "rq4_bad_epsilon"])
    def test_a_refused_command_writes_nothing(self, tiny_config, tmp_path, capsys, command,
                                              setting, message):
        # the judge and the strategies are built before the first config.full
        # and the first pre-training epoch
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI.replace(setting.split("\n")[0] + "\n", setting),
                       encoding="utf-8")
        capsys.readouterr()
        self._assert_refused(out, bad, *command)
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [("pretrain",), ("rq2",)], ids=["pretrain", "rq2"])
    def test_a_negative_seed_is_one_error_and_writes_nothing(self, tiny_config, tmp_path,
                                                            capsys, command):
        # the seed is refused by name before any run directory is made
        out = tmp_path / "out"
        out.mkdir()
        self._assert_refused(out, tiny_config, "--seed", "-1", *command)
        assert capsys.readouterr().err == "error: bad value for [training] seed: '-1'\n"
        assert not list(out.iterdir())

    def test_a_section_outside_the_schema_is_one_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "bad.ini"
        bad.write_text("[cluster]\n", encoding="utf-8")
        self._assert_refused(out, bad, "gen-data")
        assert capsys.readouterr().err == "error: unknown config section [cluster]\n"

    def test_empty_seeds_are_one_error_and_write_nothing(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI.replace("seeds = 0\n", "seeds =\n"), encoding="utf-8")
        self._assert_refused(out, bad, "rq2")
        assert capsys.readouterr().err == "error: bad value for [harness] seeds: ''\n"

    @pytest.mark.parametrize("command", [("pretrain",), ("baseline", "llm_online"), ("rq3",)],
                             ids=["pretrain", "llm_online", "rq3"])
    def test_k_above_the_catalog_is_one_error_and_writes_nothing(self, tiny_config, tmp_path,
                                                                 capsys, command):
        # the tiny world has 14 items
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI.replace("k = 4\n", "k = 15\n"), encoding="utf-8")
        self._assert_refused(out, bad, *command)
        assert capsys.readouterr().err.startswith("error: [training] k = 15 exceeds the "
                                                  "catalog's 14 items")

    def test_online_without_pretrain_fails_cleanly(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = self.run("--config", str(tiny_config), "--out", str(out), "online")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_baseline_curves(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        for kind in ("dqn", "pg"):
            assert self.run("--config", str(tiny_config), "--out", str(out),
                            "baseline", kind) == 0
            assert (out / "t-s0" / f"curve_{kind}.jsonl").exists()

    def test_pretrain_resume_continues(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        log_p = out / "t-s0" / "pretrain_log.jsonl"
        n_before = len(log_p.read_text().splitlines())
        assert self.run("--config", str(tiny_config), "--out", str(out),
                        "pretrain", "--resume") == 0
        # all epochs were finished, so resume has nothing to redo
        assert len(log_p.read_text().splitlines()) == n_before

    def test_rq1_summary_rows(self, tiny_config, tmp_path):
        out = tmp_path / "rq1"
        assert self.run("--config", str(tiny_config), "--out", str(out), "rq1") == 0
        text = (out / "summary.tsv").read_text()
        for method in ("pretrained", "dqn", "pg", "a2c"):
            assert f"\n{method}\t" in text or text.startswith(f"{method}\t")

    def test_rq1_scratch_rows_are_the_baselines_epoch_zero(self, tiny_config, tmp_path):
        out = tmp_path / "rq1"
        assert self.run("--config", str(tiny_config), "--out", str(out), "rq1") == 0
        rows = summary_metrics(out / "summary.tsv")
        cfg = load_config(tiny_config)
        world = build_world(cfg)
        model = build_reward_model(cfg, world)
        for kind in ("dqn", "pg", "a2c"):
            train_env, test_env = build_envs(cfg, model, world, 0)
            result = run_baseline(kind, train_env, train_config_from(cfg, 0),
                                  encoder_config_from(cfg, world.catalog.num_items),
                                  eval_env=test_env,
                                  episodes_per_epoch=cfg["harness"]["episodes_per_epoch"],
                                  eval_episodes=cfg["harness"]["eval_episodes"])
            snapshot = [f"{v:.6g}" for v in result.snapshots["0"]]
            assert rows[(kind, "0", "0")] == snapshot, kind

    def test_rq1_evaluates_the_scratch_actor_once_per_seed(self, tmp_path, monkeypatch):
        # pg and a2c start from the same scratch agent, so one evaluation
        # gives both rows: three evaluations per seed, not four
        config = tmp_path / "two_seeds.ini"
        config.write_text(TINY_INI.replace("seeds = 0", "seeds = 0 1"), encoding="utf-8")
        calls = []
        evaluate = harness.evaluate

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(harness, "evaluate", counted)
        out = tmp_path / "rq1"
        assert self.run("--config", str(config), "--out", str(out), "rq1") == 0
        assert len(calls) == 3 * 2
        rows = summary_metrics(out / "summary.tsv")
        for seed in ("0", "1", "mean", "std"):
            assert rows[("pg", seed, "0")] == rows[("a2c", seed, "0")]

    def test_rq2_pretrained_row_is_ft_epoch_zero(self, tiny_config, tmp_path):
        out = tmp_path / "rq2"
        assert self.run("--config", str(tiny_config), "--out", str(out), "rq2") == 0
        rows = summary_metrics(out / "summary.tsv")
        assert rows[("pretrained", "0", "0")] == rows[("ft", "0", "0")]

    @pytest.mark.parametrize("slot, message", [("reward_model", "not an agent checkpoint"),
                                               ("final_agent", "no finished epoch")])
    def test_resume_rejects_a_checkpoint_it_cannot_resume(self, tiny_config, tmp_path,
                                                          slot, message):
        cfg = load_config(tiny_config)
        world = build_world(cfg)
        run = tmp_path / "run"
        run.mkdir()
        if slot == "reward_model":  # a model file of another kind
            save_tensors(run / "pretrain_latest.ckpt", {"item_latents": world.truth.item_latents},
                         {"kind": "latent", "r_max": 5.0, "scale": 1.0})
        else:  # a valid agent, but not an epoch checkpoint
            save_checkpoint(init_agent(14, embed_dim=6, max_seq_len=5),
                            run / "pretrain_latest.ckpt")
        with pytest.raises(CheckpointError, match=message):
            pretrain_with_checkpoints(cfg, world, build_oracle(cfg, world), 0, run,
                                      resume=True)

    def _pretrain_then_rewrite_latest(self, tiny_config, tmp_path, extra=None, rng_state=None):
        """Pre-train, then rewrite ``pretrain_latest.ckpt`` with the given
        ``config.extra`` and/or ``rng_state``; returns the checkpoint path."""
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "pretrain") == 0
        ckpt = out / "t-s0" / "pretrain_latest.ckpt"
        data = read_checkpoint(ckpt)
        config = dict(data.config) if extra is None else dict(data.config, extra=extra)
        save_tensors(ckpt, data.tensors, config,
                     data.rng_state if rng_state is None else rng_state)
        return ckpt

    def _resume_error(self, tiny_config, tmp_path, capsys) -> str:
        capsys.readouterr()
        assert self.run("--config", str(tiny_config), "--out", str(tmp_path / "out"),
                        "pretrain", "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("extra", [{"epoch": "x"}, ["epoch"], True, {"epoch": -1},
                                       {"epoch": True}, {"epoch": 1.5}, {"epoch": None}])
    def test_resume_rejects_a_bad_recorded_epoch(self, tiny_config, tmp_path, capsys, extra):
        ckpt = self._pretrain_then_rewrite_latest(tiny_config, tmp_path, extra=extra)
        err = self._resume_error(tiny_config, tmp_path, capsys)
        assert str(ckpt) in err and "epoch" in err

    @pytest.mark.parametrize("kind", ["no_state", "mt19937"])
    def test_resume_rejects_a_bad_rng_state(self, tiny_config, tmp_path, capsys, kind):
        if kind == "no_state":
            state = {"bit_generator": "PCG64"}
        else:
            state = np.random.MT19937(0).state
            state["state"]["key"] = state["state"]["key"].tolist()
        ckpt = self._pretrain_then_rewrite_latest(tiny_config, tmp_path, rng_state=state)
        err = self._resume_error(tiny_config, tmp_path, capsys)
        assert str(ckpt) in err and "rng_state" in err

    def test_rq4_strategy_curves(self, tiny_config, tmp_path):
        out = tmp_path / "rq4"
        assert self.run("--config", str(tiny_config), "--out", str(out), "rq4") == 0
        run = out / "t-s0"
        for strat in ("epsilon_greedy", "categorical", "greedy"):
            for method in ("ap", "a2c"):
                assert (run / f"curve_{method}_{strat}.jsonl").exists()

    def test_rq4_arms_are_each_strategy_kind_in_order(self, tiny_config, tmp_path,
                                                      monkeypatch):
        # rq4's arms read the alias table: each kind once, in this order
        arms = []
        run_method = harness._run_method

        def recorded(*args):
            arms.append((args[5], args[-1]))  # method, curve suffix
            return run_method(*args)

        monkeypatch.setattr(harness, "_run_method", recorded)
        assert self.run("--config", str(tiny_config), "--out", str(tmp_path / "rq4"),
                        "rq4") == 0
        assert arms == [(method, f"_{kind}") for kind in ("epsilon_greedy", "categorical",
                                                           "greedy")
                        for method in ("ap", "a2c")]

    @pytest.mark.parametrize("setting", ["[training]\nstrategy = bogus\n",
                                         "[training]\nstrategy = egreedy\nepsilon = 2.0\n"],
                             ids=["bad_strategy", "bad_epsilon"])
    def test_rq1_uses_no_strategy(self, tmp_path, setting):
        # rq1 runs nothing online, so a strategy it never uses cannot refuse it
        config = tmp_path / "rq1.ini"
        config.write_text(TINY_INI.replace("[training]\n", setting), encoding="utf-8")
        assert self.run("--config", str(config), "--out", str(tmp_path / "rq1"), "rq1") == 0

    def test_baseline_without_a_kind_is_refused(self, tiny_config, tmp_path):
        with pytest.raises(TypeError):
            harness.run_experiment(load_config(tiny_config), "baseline", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_pretrain_resumes_from_a_checkpoint_in_the_older_layout(self, tmp_path):
        # stop after epoch 1 of 3, then resume from the epoch checkpoint as
        # written and from the same checkpoint in the older layout
        short = tmp_path / "short.ini"
        short.write_text(TINY_INI.replace("pretrain_epochs = 3", "pretrain_epochs = 2"),
                         encoding="utf-8")
        full = tmp_path / "full.ini"
        full.write_text(TINY_INI, encoding="utf-8")
        runs = {}
        for layout in ("current", "older"):
            out = tmp_path / layout
            assert self.run("--config", str(short), "--out", str(out), "pretrain") == 0
            latest = out / "t-s0" / "pretrain_latest.ckpt"
            if layout == "older":
                older_layout(latest, latest)
            assert self.run("--config", str(full), "--out", str(out), "pretrain", "--resume") == 0
            runs[layout] = {name: (out / "t-s0" / name).read_bytes()
                            for name in ("pretrain_log.jsonl", "pretrain_latest.ckpt",
                                         "agent_pretrained.ckpt")}
        assert runs["older"] == runs["current"]
        assert len(runs["older"]["pretrain_log.jsonl"].splitlines()) == 3

    @pytest.mark.parametrize("gamma", ["-0.1", "1.5"])
    def test_gamma_outside_the_unit_interval_is_one_error(self, tmp_path, capsys, gamma):
        config = tmp_path / "gamma.ini"
        config.write_text(TINY_INI.replace("gamma = 0.5", f"gamma = {gamma}"), encoding="utf-8")
        capsys.readouterr()
        assert self.run("--config", str(config), "--out", str(tmp_path / "out"), "pretrain") == 1
        assert capsys.readouterr().err == "error: gamma must lie in [0, 1]\n"

    def test_rq4_rows_are_per_method_and_strategy(self, tmp_path):
        config = tmp_path / "two_seeds.ini"
        config.write_text(TINY_INI.replace("seeds = 0", "seeds = 0 1"), encoding="utf-8")
        out = tmp_path / "rq4"
        assert self.run("--config", str(config), "--out", str(out), "rq4") == 0
        lines = (out / "summary.tsv").read_text(encoding="utf-8").splitlines()[1:]
        keys = [tuple(line.split("\t")[:3]) for line in lines]
        arms = [f"{method}_{kind}" for kind in ("epsilon_greedy", "categorical", "greedy")
                for method in ("ap", "a2c")]
        assert sorted(keys) == sorted((arm, seed, epoch) for arm in arms
                                      for seed in ("0", "1", "mean", "std")
                                      for epoch in ("0", "1", "2", "final"))
        rows = summary_metrics(out / "summary.tsv")
        for arm in arms:
            seeds = [float(rows[(arm, seed, "final")][0]) for seed in ("0", "1")]
            assert float(rows[(arm, "mean", "final")][0]) == pytest.approx(np.mean(seeds),
                                                                             rel=1e-5)

    def test_strategy_does_not_reach_dqn(self, tiny_config, tmp_path):
        # dqn explores epsilon-greedy at [training] epsilon whatever --strategy says
        for out, flags in ((tmp_path / "default", ()), (tmp_path / "greedy",
                                                        ("--strategy", "greedy"))):
            assert self.run("--config", str(tiny_config), "--out", str(out), *flags,
                            "baseline", "dqn") == 0
        for name in ("curve_dqn.jsonl", "agent_dqn.ckpt"):
            assert (tmp_path / "greedy" / "t-s0" / name).read_bytes() == \
                   (tmp_path / "default" / "t-s0" / name).read_bytes(), name

    def test_dqn_explores_at_the_configured_epsilon(self, tiny_config, tmp_path):
        config = tmp_path / "greedy.ini"
        config.write_text(TINY_INI.replace("alpha_anneal_steps = 25\n",
                                           "alpha_anneal_steps = 25\nepsilon = 0\n"),
                          encoding="utf-8")
        for out, ini in ((tmp_path / "zero", config), (tmp_path / "default", tiny_config)):
            assert self.run("--config", str(ini), "--out", str(out), "baseline", "dqn") == 0
        cfg = load_config(config)
        world = build_world(cfg)
        train_env, test_env = build_envs(cfg, build_reward_model(cfg, world), world, 0)
        result = run_baseline("dqn", train_env, train_config_from(cfg, 0),
                              encoder_config_from(cfg, world.catalog.num_items),
                              ExplorationStrategy("epsilon_greedy", 0.0), eval_env=test_env,
                              episodes_per_epoch=cfg["harness"]["episodes_per_epoch"],
                              eval_episodes=cfg["harness"]["eval_episodes"])
        write_curve(tmp_path / "reference.jsonl", result.episodes)
        curve = (tmp_path / "zero" / "t-s0" / "curve_dqn.jsonl").read_bytes()
        assert curve == (tmp_path / "reference.jsonl").read_bytes()
        assert curve != (tmp_path / "default" / "t-s0" / "curve_dqn.jsonl").read_bytes()

    def test_a_bad_dqn_epsilon_is_one_error_before_any_write(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_INI.replace("alpha_anneal_steps = 25\n",
                                           "alpha_anneal_steps = 25\nepsilon = 1.5\n"),
                          encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run("--config", str(config), "--out", str(out), "baseline", "dqn") == 1
        assert capsys.readouterr().err == "error: epsilon_greedy requires epsilon in [0, 1]\n"
        assert not out.exists()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nfoo = 1\n", encoding="utf-8")
        code = self.run("--config", str(bad), "gen-data")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "foo" in err
