"""Experiment front door: world construction from config, reward-model and
oracle assembly, run directories, learning-curve and summary emission, and
the preset experiments (rq1..rq4).

Outputs per run directory: ``config.full`` (effective configuration),
``*.jsonl`` learning curves (one episode per line, append-only, ordered by
global step), ``summary.tsv``, and ``*.ckpt`` checkpoints.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agent import AgentBundle
from .checkpoint import (CheckpointError, load_checkpoint, read_checkpoint, save_checkpoint,
                         save_tensors)
from .config import AppConfig, ConfigError, dump_full
from .data import (InteractionLog, ItemCatalog, SyntheticGroundTruth, generate_synthetic,
                   load_catalog, load_interactions, split_log, write_catalog,
                   write_interactions)
from .encoder import ENCODER_PARAM_NAMES, EncoderConfig
from .environment import (EnvConfig, LatentPreferenceModel, MatrixFactorizationModel,
                          SequentialModel, UserEnvironment, fit_reward_model)
from .metrics import MetricMeans, smooth_curve
from .nn import ParamSet
from .oracle import LLMOracle, PromptSpec, RemoteEndpoint, SyntheticOracle, load_replay
from .training import (KEY_EVAL, KEY_TEST_ENV, KEY_TRAIN_ENV,
                       ExplorationStrategy, QGreedyPolicy, RunResult, TrainConfig,
                       derive_seed, evaluate, online_phase, pretrain, run_baseline,
                       scratch_agent)

__all__ = [
    "World",
    "build_world",
    "build_reward_model",
    "build_oracle",
    "make_env",
    "write_curve",
    "write_summary",
    "save_reward_model",
    "load_reward_model",
    "run_experiment",
]

log = logging.getLogger(__name__)

STRATEGY_ALIASES = {"greedy": "greedy", "egreedy": "epsilon_greedy",
                    "epsilon_greedy": "epsilon_greedy", "categorical": "categorical"}


@dataclass
class World:
    catalog: ItemCatalog
    log: InteractionLog
    truth: SyntheticGroundTruth | None
    train_log: InteractionLog
    test_log: InteractionLog


def save_truth(truth: SyntheticGroundTruth, path) -> None:
    np.savez(path, user_latents=truth.user_latents, item_latents=truth.item_latents)


def load_truth(path) -> SyntheticGroundTruth:
    with np.load(path) as data:
        return SyntheticGroundTruth(data["user_latents"].copy(), data["item_latents"].copy())


def build_world(cfg: AppConfig) -> World:
    """Load catalog/interactions from the configured paths, or generate the
    seeded synthetic world, then apply the train/test split."""
    d = cfg["data"]
    if d["catalog_path"] and d["interactions_path"]:
        catalog = load_catalog(d["catalog_path"])
        log_ = load_interactions(d["interactions_path"], catalog)
        truth = load_truth(d["truth_path"]) if d["truth_path"] else None
    else:
        catalog, log_, truth = generate_synthetic(
            d["num_users"], d["num_items"], d["seq_len"], d["d_lat"],
            d["seed"], d["noise_scale"])
    train_log, test_log = split_log(log_, d["train_fraction"], d["seed"])
    return World(catalog, log_, truth, train_log, test_log)


def build_reward_model(cfg: AppConfig, world: World):
    e = cfg["environment"]
    if e["kind"] == "latent":
        if world.truth is None:
            raise ConfigError("environment kind 'latent' needs synthetic data or a truth_path")
        return LatentPreferenceModel(world.truth.item_latents, e["r_max"], e["latent_scale"])
    if e["kind"] in ("matrix_factorization", "sequential"):
        # the user-keyed simulator must cover test-split users too (the split
        # is by user), so it fits on the full log; the item-history-keyed
        # simulator fits on the train split only
        fit_log = world.log if e["kind"] == "matrix_factorization" else world.train_log
        return fit_reward_model(
            fit_log, e["kind"], world.catalog.num_items,
            d_rm=e["d_rm"], epochs=e["fit_epochs"], lr=e["fit_lr"],
            neg_per_pos=e["neg_per_pos"], rank_decay=e["rank_decay"],
            max_seq_len=cfg["encoder"]["max_seq_len"],
            r_max=e["r_max"], seed=e["seed"])
    raise ConfigError(f"unknown environment kind {e['kind']!r}")


def make_env(cfg: AppConfig, model, log_: InteractionLog, seed: int) -> UserEnvironment:
    e = cfg["environment"]
    return UserEnvironment(model, log_, EnvConfig(
        max_steps=e["max_steps"], quit_threshold=e["quit_threshold"],
        r_max=e["r_max"], seed=seed))


def build_envs(cfg: AppConfig, model, world: World, seed: int):
    train_env = make_env(cfg, model, world.train_log, derive_seed(seed, KEY_TRAIN_ENV))
    test_env = make_env(cfg, model, world.test_log, derive_seed(seed, KEY_TEST_ENV))
    return train_env, test_env


def evaluate_on_test(cfg: AppConfig, policy, test_env, seed: int) -> MetricMeans:
    """Greedy test metrics on the evaluation stream the online snapshots use,
    so a policy's row here equals its epoch-0 snapshot."""
    return evaluate(policy, test_env, cfg["harness"]["eval_episodes"],
                    derive_seed(seed, KEY_EVAL)).means


def build_oracle(cfg: AppConfig, world: World):
    o = cfg["oracle"]
    if o["kind"] == "synthetic":
        if world.truth is None:
            raise ConfigError("oracle kind 'synthetic' needs synthetic data or a truth_path")
        return SyntheticOracle(world.truth, o["threshold"])
    if o["kind"] == "llm":
        if not o["base_url"]:
            raise ConfigError("oracle kind 'llm' requires [oracle] base_url")
        endpoint = RemoteEndpoint(o["base_url"], o["model"], o["temperature"],
                                  o["timeout"], o["max_retries"], o["backoff"])
        spec = PromptSpec(o["scenario"], o["item_noun"], o["behavior"],
                          world.catalog.attribute_names, cfg["training"]["k"])
        replay = load_replay(o["replay_path"]) if o["replay_path"] else None
        record = o["record_path"] or None
        return LLMOracle(endpoint, world.catalog, spec, replay, record)
    raise ConfigError(f"unknown oracle kind {o['kind']!r}")


def train_config_from(cfg: AppConfig, seed: int | None = None) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(
        pretrain_epochs=t["pretrain_epochs"], pretrain_horizon=t["pretrain_horizon"],
        online_steps=t["online_steps"], batch_size=t["batch_size"],
        buffer_capacity=t["buffer_capacity"], gamma=t["gamma"], lr=t["lr"],
        momentum=t["momentum"], k=t["k"], candidate_sampling=t["candidate_sampling"],
        alpha_init=t["alpha_init"], alpha_anneal_steps=t["alpha_anneal_steps"],
        target_update=t["target_update"],
        seed=t["seed"] if seed is None else seed)


def encoder_config_from(cfg: AppConfig, num_items: int) -> EncoderConfig:
    return EncoderConfig(num_items=num_items, embed_dim=cfg["encoder"]["embed_dim"],
                         max_seq_len=cfg["encoder"]["max_seq_len"])


def strategy_from(cfg: AppConfig, name: str | None = None) -> ExplorationStrategy:
    raw = name or cfg["training"]["strategy"]
    if raw not in STRATEGY_ALIASES:
        raise ConfigError(f"unknown strategy {raw!r} (greedy|egreedy|categorical)")
    kind = STRATEGY_ALIASES[raw]
    eps = cfg["training"]["epsilon"] if kind == "epsilon_greedy" else None
    return ExplorationStrategy(kind, eps)


def write_curve(path, episodes) -> None:
    """One JSON object per finished episode, raw plus trailing-window means."""
    smoothed = smooth_curve(episodes)
    with open(path, "w", encoding="utf-8") as fh:
        for ep, sm in zip(episodes, smoothed):
            fh.write(json.dumps({
                "episode_index": ep.episode_index,
                "global_step": ep.global_step,
                "return": ep.episode_return,
                "length": ep.length,
                "avg_reward": ep.avg_reward,
                "smoothed_return": sm.episode_return,
                "smoothed_length": sm.length,
                "smoothed_avg_reward": sm.avg_reward,
            }, sort_keys=True) + "\n")


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


SUMMARY_COLUMNS = ("method", "seed", "epoch", "return", "length", "avg_reward", "wall_clock")


def write_summary(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(row.get(col, "")) for col in SUMMARY_COLUMNS) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _summary_rows(method: str, seed, snapshots: dict[str, MetricMeans],
                  wall_clock: float) -> list[dict]:
    rows = []
    for epoch, means in snapshots.items():
        rows.append({"method": method, "seed": seed, "epoch": epoch,
                     "return": means.episode_return, "length": means.length,
                     "avg_reward": means.avg_reward, "wall_clock": round(wall_clock, 3)})
    return rows


def save_reward_model(model, path) -> None:
    if isinstance(model, LatentPreferenceModel):
        save_tensors(path, {"item_latents": model.item_latents},
                     {"kind": model.kind, "r_max": model.r_max, "scale": model.scale})
    elif isinstance(model, MatrixFactorizationModel):
        save_tensors(path, {
            "user_factors": model.user_factors, "item_factors": model.item_factors,
            "user_bias": model.user_bias, "item_bias": model.item_bias,
            "global_bias": np.array([model.global_bias]),
        }, {"kind": model.kind, "r_max": model.r_max, "user_ids": model.user_ids})
    elif isinstance(model, SequentialModel):
        save_tensors(path, dict(model.params.params), {
            "kind": model.kind, "r_max": model.r_max,
            "num_items": model.encoder_config.num_items,
            "embed_dim": model.encoder_config.embed_dim,
            "max_seq_len": model.encoder_config.max_seq_len,
        })
    else:
        raise TypeError(f"cannot save reward model of type {type(model).__name__}")


_NUMBER = ("a numeric", lambda v: type(v) in (int, float))
_INTEGER = ("an integer", lambda v: type(v) is int)
_STRINGS = ("a string list", lambda v: isinstance(v, list) and all(isinstance(u, str) for u in v))
# per kind: the checked config keys and the tensor names
_REWARD_MODEL_LAYOUT = {
    "latent": ({"r_max": _NUMBER, "scale": _NUMBER}, ("item_latents",)),
    "matrix_factorization": ({"r_max": _NUMBER, "user_ids": _STRINGS},
                             ("user_factors", "item_factors", "user_bias", "item_bias",
                              "global_bias")),
    "sequential": ({"r_max": _NUMBER, "num_items": _INTEGER, "embed_dim": _INTEGER,
                    "max_seq_len": _INTEGER}, ENCODER_PARAM_NAMES),
}


def load_reward_model(path):
    """Rebuild a reward model written by :func:`save_reward_model`.  A header
    or tensor set that does not describe one raises a CheckpointError naming
    the path."""
    data = read_checkpoint(path)
    cfg, tensors = data.config, data.tensors
    kind = cfg.get("kind")
    if kind not in _REWARD_MODEL_LAYOUT:
        raise ConfigError(f"{path}: unknown reward model kind {kind!r}")
    fields, names = _REWARD_MODEL_LAYOUT[kind]
    for key, (what, valid) in fields.items():
        if not valid(cfg.get(key)):
            raise CheckpointError(f"{path}: {kind} reward model needs {what} {key!r}, "
                                  f"got {cfg.get(key)!r}")
    for name in names:
        if name not in tensors:
            raise CheckpointError(f"{path}: {kind} reward model has no tensor {name!r}")
    try:
        if kind == "latent":
            return LatentPreferenceModel(tensors["item_latents"], cfg["r_max"], cfg["scale"])
        if kind == "matrix_factorization":
            return MatrixFactorizationModel(
                cfg["user_ids"], tensors["user_factors"], tensors["item_factors"],
                tensors["user_bias"], tensors["item_bias"],
                float(tensors["global_bias"][0]), cfg["r_max"])
        enc = EncoderConfig(num_items=cfg["num_items"], embed_dim=cfg["embed_dim"],
                            max_seq_len=cfg["max_seq_len"])
        return SequentialModel(ParamSet(tensors), enc, cfg["r_max"])
    except (ValueError, IndexError) as exc:  # a bad size, an empty bias, a non-finite tensor
        raise CheckpointError(f"{path}: {exc}") from None


def run_dir(out, run_id: str, seed: int) -> Path:
    path = Path(out) / f"{run_id}-s{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_config_snapshot(cfg: AppConfig, out) -> None:
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "config.full").write_text(dump_full(cfg), encoding="utf-8")


def pretrain_with_checkpoints(cfg: AppConfig, world: World, oracle, seed: int,
                              directory: Path, resume: bool = False) -> AgentBundle:
    """Pre-train with an every-epoch checkpoint so interrupted runs (for
    example on oracle failures) can resume from the last finished epoch."""
    tconf = train_config_from(cfg, seed)
    ckpt_path = directory / "pretrain_latest.ckpt"
    log_path = directory / "pretrain_log.jsonl"
    start_epoch = 0
    rng = None
    if resume and ckpt_path.exists():
        agent = load_checkpoint(ckpt_path)
        data = read_checkpoint(ckpt_path)
        extra = data.config.get("extra") or {}
        epoch = extra.get("epoch") if isinstance(extra, dict) else None
        if epoch is None:
            raise CheckpointError(f"{ckpt_path}: no finished epoch recorded to resume from")
        if type(epoch) is not int or epoch < 0:
            raise CheckpointError(f"{ckpt_path}: recorded epoch {epoch!r} is not a "
                                  "nonnegative integer")
        start_epoch = epoch + 1
        if data.rng_state is not None:
            rng = np.random.default_rng()
            try:
                rng.bit_generator.state = data.rng_state
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CheckpointError(f"{ckpt_path}: rng_state is not a "
                                      f"{type(rng.bit_generator).__name__} state "
                                      f"({type(exc).__name__}: {exc})") from None
        log.info("resuming pre-training at epoch %d", start_epoch)
    else:
        agent = scratch_agent(tconf, encoder_config_from(cfg, world.catalog.num_items))
        log_path.write_text("", encoding="utf-8")

    def on_epoch(epoch, bundle, record, rng_state):
        save_checkpoint(bundle, ckpt_path, rng_state=rng_state, extra={"epoch": epoch})
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    agent, _ = pretrain(agent, oracle, tconf, world.train_log,
                        epoch_callback=on_epoch, start_epoch=start_epoch, rng=rng)
    save_checkpoint(agent, directory / "agent_pretrained.ckpt")
    return agent


def _world_and_model(cfg: AppConfig):
    world = build_world(cfg)
    model = build_reward_model(cfg, world)
    return world, model


def cmd_gen_data(cfg: AppConfig, out) -> int:
    d = cfg["data"]
    catalog, log_, truth = generate_synthetic(
        d["num_users"], d["num_items"], d["seq_len"], d["d_lat"],
        d["seed"], d["noise_scale"])
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_catalog(catalog, out / "catalog.csv")
    write_interactions(log_, out / "interactions.csv")
    save_truth(truth, out / "truth.npz")
    _write_config_snapshot(cfg, out)
    print(f"wrote {catalog.num_items} items, {log_.num_sequences} sequences to {out}")
    return 0


def cmd_fit_env(cfg: AppConfig, out) -> int:
    world, model = _world_and_model(cfg)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_reward_model(model, out / "reward_model.ckpt")
    _write_config_snapshot(cfg, out)
    losses = getattr(model, "loss_history", [])
    tail = f", final fit loss {losses[-1]:.4f}" if losses else ""
    print(f"fitted {model.kind} reward model over {model.num_items} items{tail}")
    return 0


def cmd_pretrain(cfg: AppConfig, out, resume: bool = False) -> int:
    world, model = _world_and_model(cfg)
    oracle = build_oracle(cfg, world)
    seed = cfg["training"]["seed"]
    directory = run_dir(out, cfg["harness"]["run_id"], seed)
    _write_config_snapshot(cfg, directory)
    agent = pretrain_with_checkpoints(cfg, world, oracle, seed, directory, resume)
    _, test_env = build_envs(cfg, model, world, seed)
    means = evaluate_on_test(cfg, agent, test_env, seed)
    print(f"pretrained agent: test return {means.episode_return:.3f}, "
          f"len {means.length:.2f}, avg {means.avg_reward:.3f}")
    return 0


def _load_agent(directory: Path, agent_path) -> AgentBundle:
    path = Path(agent_path) if agent_path else directory / "agent_pretrained.ckpt"
    if not path.exists():
        raise FileNotFoundError(f"agent checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_online(cfg: AppConfig, out, method: str, agent_path=None) -> int:
    """One online run: an adaptation scheme (ft|ap) of the pre-trained agent
    or a scratch baseline, with its summary written next to its curve."""
    world, model = _world_and_model(cfg)
    seed = cfg["training"]["seed"]
    directory = run_dir(out, cfg["harness"]["run_id"], seed)
    _write_config_snapshot(cfg, directory)
    pretrained = _load_agent(directory, agent_path) if method in ("ft", "ap") else None
    result, wall = _run_method(cfg, world, model, seed, directory, method,
                               strategy_from(cfg), pretrained)
    write_summary(directory / f"summary_{method}.tsv",
                  _summary_rows(method, seed, result.snapshots, wall))
    final = result.snapshots["final"]
    print(f"{method}: final test return {final.episode_return:.3f} over "
          f"{len(result.episodes)} episodes ({wall:.1f}s)")
    return 0


def cmd_eval(cfg: AppConfig, out, agent_path=None) -> int:
    world, model = _world_and_model(cfg)
    seed = cfg["training"]["seed"]
    directory = run_dir(out, cfg["harness"]["run_id"], seed)
    agent = _load_agent(directory, agent_path)
    _, test_env = build_envs(cfg, model, world, seed)
    means = evaluate_on_test(cfg, agent, test_env, seed)
    write_summary(directory / "eval.tsv", _summary_rows("eval", seed, {"final": means}, 0.0))
    print(f"return {means.episode_return:.3f}\tlen {means.length:.2f}\t"
          f"avg {means.avg_reward:.3f}")
    return 0


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation over seeds for each (method, epoch)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["epoch"]), []).append(row)
    out = []
    for (method, epoch), members in groups.items():
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            out.append({
                "method": method, "seed": stat, "epoch": epoch,
                "return": float(fn([r["return"] for r in members])),
                "length": float(fn([r["length"] for r in members])),
                "avg_reward": float(fn([r["avg_reward"] for r in members])),
                "wall_clock": float(fn([r["wall_clock"] for r in members])),
            })
    return out


def cmd_rq1(cfg: AppConfig, out) -> int:
    """Initial performance: pre-trained agent versus the untrained agent the
    scratch baselines start from, all evaluated greedily on the test
    environment (epoch 0)."""
    world, model = _world_and_model(cfg)
    oracle = build_oracle(cfg, world)
    enc = encoder_config_from(cfg, world.catalog.num_items)
    rows = []
    for seed in cfg["harness"]["seeds"]:
        directory = run_dir(out, cfg["harness"]["run_id"], seed)
        _write_config_snapshot(cfg, directory)
        _, test_env = build_envs(cfg, model, world, seed)
        started = time.perf_counter()
        agent = pretrain_with_checkpoints(cfg, world, oracle, seed, directory)
        wall = time.perf_counter() - started
        scratch = scratch_agent(train_config_from(cfg, seed), enc)
        policies = {"pretrained": agent, "dqn": QGreedyPolicy(scratch),
                    "pg": scratch, "a2c": scratch}
        for method, policy in policies.items():
            means = evaluate_on_test(cfg, policy, test_env, seed)
            rows += _summary_rows(method, seed, {"0": means},
                                  wall if method == "pretrained" else 0.0)
    rows += _aggregate(rows)
    _write_config_snapshot(cfg, out)
    write_summary(Path(out) / "summary.tsv", rows)
    print(f"rq1: wrote {Path(out) / 'summary.tsv'}")
    return 0


def _run_method(cfg: AppConfig, world, model, seed, directory, method, strategy,
                pretrained=None, suffix="") -> tuple[RunResult, float]:
    """Run one online method on fresh environments and write its curve and
    final agent; returns the result and its wall-clock seconds.  dqn keeps
    its own epsilon-greedy default instead of ``strategy``."""
    train_env, test_env = build_envs(cfg, model, world, seed)
    tconf = train_config_from(cfg, seed)
    evaluation = dict(eval_env=test_env, episodes_per_epoch=cfg["harness"]["episodes_per_epoch"],
                      eval_episodes=cfg["harness"]["eval_episodes"])
    started = time.perf_counter()
    if method in ("ft", "ap"):
        result = online_phase(method, pretrained, train_env, tconf, strategy, **evaluation)
    else:
        oracle = build_oracle(cfg, world) if method == "llm_online" else None
        result = run_baseline(method, train_env, tconf,
                              encoder_config_from(cfg, world.catalog.num_items),
                              strategy if method != "dqn" else None, oracle=oracle,
                              **evaluation)
    wall = time.perf_counter() - started
    write_curve(directory / f"curve_{method}{suffix}.jsonl", result.episodes)
    save_checkpoint(result.agent, directory / f"agent_{method}{suffix}.ckpt")
    return result, wall


def _online_methods(cfg: AppConfig, world, model, seed, directory, methods,
                    strategy=None, pretrained=None) -> list[dict]:
    """Run a set of online methods for one seed and emit curves + rows."""
    rows = []
    suffix = f"_{strategy.kind}" if strategy is not None else ""
    for method in methods:
        if method == "pretrained":
            started = time.perf_counter()
            _, test_env = build_envs(cfg, model, world, seed)
            means = evaluate_on_test(cfg, pretrained, test_env, seed)
            rows += _summary_rows(method, seed, {"0": means, "final": means},
                                  time.perf_counter() - started)
            continue
        result, wall = _run_method(cfg, world, model, seed, directory, method,
                                   strategy or strategy_from(cfg), pretrained, suffix)
        rows += _summary_rows(method, seed, result.snapshots, wall)
    return rows


def _run_preset(cfg: AppConfig, out, methods, strategies=None) -> int:
    world, model = _world_and_model(cfg)
    rows = []
    needs_pretrain = any(m in ("pretrained", "ft", "ap") for m in methods)
    for seed in cfg["harness"]["seeds"]:
        directory = run_dir(out, cfg["harness"]["run_id"], seed)
        _write_config_snapshot(cfg, directory)
        pretrained = None
        if needs_pretrain:
            oracle = build_oracle(cfg, world)
            pretrained = pretrain_with_checkpoints(cfg, world, oracle, seed, directory)
        if strategies is None:
            rows += _online_methods(cfg, world, model, seed, directory, methods,
                                    pretrained=pretrained)
        else:
            for name in strategies:
                strat = strategy_from(cfg, name)
                rows += _online_methods(cfg, world, model, seed, directory,
                                        methods, strategy=strat, pretrained=pretrained)
    rows += _aggregate(rows)
    _write_config_snapshot(cfg, out)
    write_summary(Path(out) / "summary.tsv", rows)
    print(f"wrote {Path(out) / 'summary.tsv'}")
    return 0


def cmd_rq2(cfg: AppConfig, out) -> int:
    """Long-term adaptation: frozen pre-trained agent, both adaptation
    schemes, and the scratch actor-critic baseline."""
    return _run_preset(cfg, out, ("pretrained", "ft", "ap", "a2c"))


def cmd_rq3(cfg: AppConfig, out) -> int:
    """Judge-in-the-loop online baseline versus the adaptation schemes."""
    return _run_preset(cfg, out, ("llm_online", "ft", "ap"))


def cmd_rq4(cfg: AppConfig, out) -> int:
    """Exploration strategies: the adaptive scheme versus scratch
    actor-critic under egreedy, categorical, and greedy selection."""
    return _run_preset(cfg, out, ("ap", "a2c"),
                       strategies=("egreedy", "categorical", "greedy"))


COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit-env": cmd_fit_env,
    "pretrain": cmd_pretrain,
    "rq1": cmd_rq1,
    "rq2": cmd_rq2,
    "rq3": cmd_rq3,
    "rq4": cmd_rq4,
}


def run_experiment(cfg: AppConfig, command: str, out, **kwargs) -> int:
    """Dispatch one experiment command; returns a process exit code."""
    if command == "online":
        scheme = cfg["training"]["scheme"]
        if scheme not in ("ft", "ap"):
            raise ConfigError(f"unknown scheme {scheme!r} (ft|ap)")
        return cmd_online(cfg, out, scheme, kwargs.get("agent_path"))
    if command == "baseline":
        return cmd_online(cfg, out, kwargs["kind"])
    if command == "eval":
        return cmd_eval(cfg, out, kwargs.get("agent_path"))
    if command == "pretrain":
        return cmd_pretrain(cfg, out, kwargs.get("resume", False))
    if command in COMMANDS:
        return COMMANDS[command](cfg, out)
    raise ConfigError(f"unknown command {command!r}")
