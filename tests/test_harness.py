import json
import re

import numpy as np
import pytest

from prefrl.agent import init_agent, policy_for
from prefrl.checkpoint import (CheckpointError, load_checkpoint, read_checkpoint,
                               save_checkpoint, save_tensors)
from prefrl.config import ConfigError, DEFAULTS, dump_full, load_config
from prefrl.data import generate_synthetic
from prefrl.environment import LatentPreferenceModel, fit_reward_model
from prefrl.harness import (build_envs, build_oracle, build_reward_model, build_world,
                            encoder_config_from, load_reward_model, pretrain_with_checkpoints,
                            save_reward_model, train_config_from, write_curve)
from prefrl.metrics import EpisodeRecord, compute_metrics, smooth_curve
from prefrl.training import run_baseline
from prefrl import cli


class TestEpisodeRecord:
    def test_create_computes_ratio(self):
        rec = EpisodeRecord.create(0, 10, 4.92, 6)
        assert rec.avg_reward == pytest.approx(0.82)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EpisodeRecord(0, 1, 5.0, 4, 0.9)
        with pytest.raises(ValueError):
            EpisodeRecord(0, 1, 5.0, 0, 0.0)


class TestComputeMetrics:
    def test_single_constructed_episode(self):
        # a 6-step episode with return 4.92 reproduces the 0.82 ratio
        means = compute_metrics([EpisodeRecord.create(0, 6, 4.92, 6)])
        assert means.avg_reward == pytest.approx(0.82)

    def test_reported_ratio_consistency(self):
        # R=5.11 with Len=6.21 (means over many episodes) is consistent with
        # an average reward of 0.82 to within 0.01
        assert abs(5.11 / 6.21 - 0.82) < 0.01

    def test_identical_episodes(self):
        eps = [EpisodeRecord.create(i, i, 2.0, 4) for i in range(1, 6)]
        means = compute_metrics(eps)
        assert means == (2.0, 4.0, 0.5)

    def test_avg_reward_is_mean_of_ratios(self):
        eps = [EpisodeRecord.create(0, 1, 1.0, 1), EpisodeRecord.create(1, 3, 1.0, 2)]
        means = compute_metrics(eps)
        assert means.avg_reward == pytest.approx((1.0 + 0.5) / 2)
        assert means.episode_return == pytest.approx(1.0)
        assert means.length == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])


class TestSmoothCurve:
    def test_trailing_window(self):
        eps = [EpisodeRecord.create(i, i + 1, float(i), 1) for i in range(30)]
        sm = smooth_curve(eps, window=20)
        assert sm[0].episode_return == 0.0
        assert sm[4].episode_return == pytest.approx(2.0)  # mean of 0..4
        assert sm[29].episode_return == pytest.approx(np.mean(range(10, 30)))


@pytest.fixture
def trained_agent():
    return init_agent(6, embed_dim=4, max_seq_len=5, gamma=0.8, seed=42)


class TestCheckpoint:
    def test_roundtrip_preserves_distributions(self, tmp_path, trained_agent):
        p = tmp_path / "agent.ckpt"
        save_checkpoint(trained_agent, p)
        loaded = load_checkpoint(p)
        assert loaded.gamma == trained_agent.gamma
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
                     {"kind": "agent", "num_items": 6, "embed_dim": 4,
                      "max_seq_len": 5, "gamma": 0.9})
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
    ], ids=["list", "empty", "manifest_not_list", "no_shape", "string_shape",
            "negative_shape", "no_name", "duplicate_name", "config_list", "rng_state_int",
            "rng_state_list"])
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
        {"kind": "agent", "num_items": "6", "embed_dim": 4, "max_seq_len": 5, "gamma": 0.9},
        {"kind": "agent", "num_items": 1, "embed_dim": 4, "max_seq_len": 5, "gamma": 0.9},
        {"kind": "agent", "num_items": 6, "embed_dim": 4, "max_seq_len": 5, "gamma": 1.5},
    ], ids=["no_sizes", "string_size", "one_item", "gamma_above_one"])
    def test_malformed_agent_config_is_a_checkpoint_error(self, tmp_path, trained_agent,
                                                          config):
        p = tmp_path / "x.ckpt"
        save_tensors(p, trained_agent.params.params, config)
        with pytest.raises(CheckpointError, match=re.escape(str(p))):
            load_checkpoint(p)

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path, trained_agent):
        p = tmp_path / "x.ckpt"
        save_checkpoint(trained_agent, p, rng_state=np.random.default_rng(0).bit_generator.state)
        blob = p.read_bytes()
        for n in range(len(blob)):
            p.write_bytes(blob[:n])
            for read in (read_checkpoint, load_checkpoint):
                with pytest.raises(CheckpointError):
                    read(p)


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

    def test_dump_reloads_identically(self, tmp_path):
        cfg = load_config(None, {("training", "lr"): "0.123"})
        p = tmp_path / "full.ini"
        p.write_text(dump_full(cfg), encoding="utf-8")
        assert load_config(p).values == cfg.values


class TestRewardModelPersistence:
    def test_latent_roundtrip(self, tmp_path):
        _, _, truth = generate_synthetic(4, 8, 3, 2, seed=0)
        model = LatentPreferenceModel(truth.item_latents, r_max=5.0, scale=1.5)
        p = tmp_path / "rm.ckpt"
        save_reward_model(model, p)
        loaded = load_reward_model(p)
        assert loaded.kind == "latent"
        assert loaded.scale == 1.5
        assert abs(loaded.score([1, 2], 3) - model.score([1, 2], 3)) < 1e-5

    def test_mf_roundtrip(self, tmp_path):
        _, log, _ = generate_synthetic(6, 10, 4, 2, seed=1)
        model = fit_reward_model(log, "matrix_factorization", 10, d_rm=2,
                                 epochs=5, seed=0)
        p = tmp_path / "rm.ckpt"
        save_reward_model(model, p)
        loaded = load_reward_model(p)
        assert loaded.kind == "matrix_factorization"
        assert abs(loaded.score("u0", 3) - model.score("u0", 3)) < 1e-5

    def test_sequential_roundtrip(self, tmp_path):
        _, log, _ = generate_synthetic(6, 10, 4, 2, seed=2)
        model = fit_reward_model(log, "sequential", 10, d_rm=4, epochs=2,
                                 lr=0.05, max_seq_len=5, seed=0)
        p = tmp_path / "rm.ckpt"
        save_reward_model(model, p)
        loaded = load_reward_model(p)
        assert loaded.kind == "sequential"
        assert abs(loaded.score([1, 2], 3) - model.score([1, 2], 3)) < 1e-4

    @pytest.mark.parametrize("kind, edit, named", [
        ("latent", lambda cfg, tensors: cfg.pop("r_max"), "r_max"),
        ("latent", lambda cfg, tensors: tensors.pop("item_latents"), "item_latents"),
        ("matrix_factorization", lambda cfg, tensors: cfg.pop("user_ids"), "user_ids"),
        ("sequential", lambda cfg, tensors: cfg.update(num_items="3"), "num_items"),
        ("latent", lambda cfg, tensors: cfg.update(r_max="x"), "r_max"),
    ], ids=["no_r_max", "no_item_latents", "no_user_ids", "string_num_items", "string_r_max"])
    def test_bad_header_is_a_checkpoint_error(self, tmp_path, kind, edit, named):
        _, log, truth = generate_synthetic(6, 10, 4, 2, seed=1)
        if kind == "latent":
            model = LatentPreferenceModel(truth.item_latents, r_max=5.0)
        else:
            model = fit_reward_model(log, kind, 10, d_rm=2, epochs=1, max_seq_len=5, seed=0)
        p = tmp_path / "rm.ckpt"
        save_reward_model(model, p)
        data = read_checkpoint(p)
        cfg, tensors = dict(data.config), dict(data.tensors)
        edit(cfg, tensors)
        save_tensors(p, tensors, cfg)
        with pytest.raises(CheckpointError, match=named) as info:
            load_reward_model(p)
        assert str(info.value).startswith(f"{p}: ")


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

    def test_llm_oracle_requires_base_url(self):
        cfg = load_config(None, {("oracle", "kind"): "llm"})
        with pytest.raises(ConfigError, match="base_url"):
            build_oracle(cfg, build_world(cfg))


class TestCurveFiles:
    def test_ordered_json_lines(self, tmp_path):
        eps = [EpisodeRecord.create(i, (i + 1) * 3, float(i), 3) for i in range(25)]
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

    def test_fit_env_saves_model(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert self.run("--config", str(tiny_config), "--out", str(out), "fit-env") == 0
        assert load_reward_model(out / "reward_model.ckpt").kind == "latent"

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
        if slot == "reward_model":
            save_reward_model(build_reward_model(cfg, world), run / "pretrain_latest.ckpt")
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

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nfoo = 1\n", encoding="utf-8")
        code = self.run("--config", str(bad), "gen-data")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "foo" in err
