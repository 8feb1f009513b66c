"""Experiment front door: world construction from config, reward-model and
oracle assembly, run directories, learning-curve and summary emission, and
the preset experiments (rq1..rq4).

Outputs per run directory: ``config.full`` (effective configuration),
``*.jsonl`` learning curves (one episode per line, append-only, ordered by
global step), ``summary.tsv``, and ``*.ckpt`` agent checkpoints, written and
checked by :mod:`prefrl.checkpoint`.  Each command builds its reward model
afresh from the world; none is written to disk.  A command builds its judge
and strategies before it writes anything, so a refused command leaves its
output directory as it was.

Every online run is one :func:`training.online_phase` call (``_run_method``),
from the pre-trained agent for ft/ap and from the scratch agent for the
baselines.  The presets share one per-seed loop (``_run_preset``): pre-train,
then give each method its rows.  The ``pretrained`` row is the pre-trained
agent's greedy test metrics, with the seed's pre-training seconds as its
``wall_clock``; rq1's other rows are the epoch-0 test metrics of the agent
each baseline starts from.  Each preset writes ``<out>/summary.tsv``, with
mean/std rows over seeds, and prints ``wrote <out>/summary.tsv``; rq4's rows
are named by method and strategy kind (``ap_greedy``), as its curves are.
"""
from __future__ import annotations

import json
import logging
import time
import zipfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .agent import AgentBundle
from .checkpoint import CheckpointError, load_checkpoint, read_checkpoint, save_checkpoint
from .config import AppConfig, ConfigError, dump_full
from .data import (InteractionLog, ItemCatalog, SyntheticGroundTruth, generate_synthetic,
                   load_catalog, load_interactions, split_log, write_catalog,
                   write_interactions)
from .encoder import EncoderConfig
from .environment import EnvConfig, LatentPreferenceModel, UserEnvironment, fit_reward_model
from .metrics import MetricMeans, smooth_curve
from .oracle import LLMOracle, PromptSpec, RemoteEndpoint, SyntheticOracle, load_replay
from .training import (KEY_EVAL, KEY_TRAIN_ENV, SCHEMES, ExplorationStrategy, QGreedyPolicy,
                       RunResult, TrainConfig, derive_seed, evaluate, online_phase, pretrain,
                       scratch_agent)

__all__ = [
    "World",
    "build_world",
    "build_reward_model",
    "build_oracle",
    "make_env",
    "write_curve",
    "write_summary",
    "run_experiment",
]

log = logging.getLogger(__name__)

# the names ``[training] strategy`` and ``--strategy`` accept, in rq4's order
STRATEGY_ALIASES = {"egreedy": "epsilon_greedy", "epsilon_greedy": "epsilon_greedy",
                    "categorical": "categorical", "greedy": "greedy"}


@dataclass
class World:
    catalog: ItemCatalog
    log: InteractionLog
    truth: SyntheticGroundTruth | None
    train_log: InteractionLog
    test_log: InteractionLog


def save_truth(truth: SyntheticGroundTruth, path) -> None:
    np.savez(path, user_latents=truth.user_latents, item_latents=truth.item_latents)


def load_truth(path, num_items: int) -> SyntheticGroundTruth:
    """The ground truth written by :func:`save_truth`, checked against a
    catalog of ``num_items`` items; any fault is one ConfigError naming
    ``path``."""
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            arrays = {name: archive[name] for name in archive.files}
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read truth file ({exc.strerror or exc})") from None
    except (EOFError, ValueError, zipfile.BadZipFile):
        raise ConfigError(f"{path}: not an .npz truth file") from None
    for name in ("user_latents", "item_latents"):
        if name not in arrays:
            raise ConfigError(f"{path}: truth file has no array {name!r}")
        if arrays[name].ndim != 2 or arrays[name].dtype.kind not in "fiu":
            raise ConfigError(f"{path}: {name} is not a 2-D numeric array")
    rows = len(arrays["item_latents"])
    if rows != num_items:
        raise ConfigError(f"{path}: item_latents has {rows} rows, "
                          f"but the catalog has {num_items} items")
    try:
        return SyntheticGroundTruth(arrays["user_latents"], arrays["item_latents"])
    except ValueError as exc:  # non-finite latents, or latent dimensions that differ
        raise ConfigError(f"{path}: {exc}") from None


def _synthetic_world(cfg: AppConfig):
    """The seeded synthetic (catalog, log, truth) that ``[data]`` describes."""
    d = cfg["data"]
    return generate_synthetic(d["num_users"], d["num_items"], d["seq_len"], d["d_lat"],
                              d["seed"], d["noise_scale"])


def build_world(cfg: AppConfig) -> World:
    """Load catalog/interactions from the configured paths, or generate the
    seeded synthetic world, then apply the train/test split.  A train split
    with no sequences is a ConfigError naming ``[data] train_fraction``."""
    d = cfg["data"]
    given = [key for key in ("catalog_path", "interactions_path", "truth_path") if d[key]]
    if d["catalog_path"] and d["interactions_path"]:
        catalog = load_catalog(d["catalog_path"])
        log_ = load_interactions(d["interactions_path"], catalog)
        truth = load_truth(d["truth_path"], catalog.num_items) if d["truth_path"] else None
    elif given:
        raise ConfigError(f"[data] {' and '.join(given)} set, but files are loaded only "
                          "when catalog_path and interactions_path are both set")
    else:
        catalog, log_, truth = _synthetic_world(cfg)
    train_log, test_log = split_log(log_, d["train_fraction"], d["seed"])
    if train_log.num_sequences == 0:
        raise ConfigError(f"[data] train_fraction = {d['train_fraction']} puts none of the "
                          f"{log_.num_sequences} sequences in the train split")
    return World(catalog, log_, truth, train_log, test_log)


def build_reward_model(cfg: AppConfig, world: World):
    """The ``[environment]`` reward model of ``world``.  The environment keys
    are checked first (:func:`env_config_from`), so a bad one is refused
    before a fit starts."""
    e = cfg["environment"]
    env_config_from(cfg, None)
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


def env_config_from(cfg: AppConfig, seed: int | None) -> EnvConfig:
    e = cfg["environment"]
    return EnvConfig(max_steps=e["max_steps"], quit_threshold=e["quit_threshold"], seed=seed)


def make_env(cfg: AppConfig, model, log_: InteractionLog, seed: int | None) -> UserEnvironment:
    return UserEnvironment(model, log_, env_config_from(cfg, seed))


def build_envs(cfg: AppConfig, model, world: World, seed: int):
    """The seed's training environment, with its reset stream, and the test
    environment, which has none: :func:`training.evaluate` seeds each of its
    resets."""
    train_env = make_env(cfg, model, world.train_log, derive_seed(seed, KEY_TRAIN_ENV))
    return train_env, make_env(cfg, model, world.test_log, None)


def _test_means(cfg: AppConfig, model, world: World, seed: int, policy) -> MetricMeans:
    """Greedy metrics of ``policy`` on the seed's test environment and the
    evaluation stream the online snapshots use, so a policy's row here
    equals its epoch-0 snapshot."""
    _, test_env = build_envs(cfg, model, world, seed)
    return evaluate(policy, test_env, cfg["harness"]["eval_episodes"],
                    derive_seed(seed, KEY_EVAL)).means


def build_oracle(cfg: AppConfig, world: World):
    k, num_items = cfg["training"]["k"], world.catalog.num_items
    if k > num_items:  # refused here, before any command that asks a judge writes
        raise ConfigError(f"[training] k = {k} exceeds the catalog's {num_items} items: "
                          f"the actor cannot propose {k} distinct candidates")
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
    """The ``[training]`` keys that name TrainConfig's fields, at ``seed`` when
    it is given."""
    config = TrainConfig(**{f.name: cfg["training"][f.name] for f in fields(TrainConfig)})
    return config if seed is None else replace(config, seed=seed)


def encoder_config_from(cfg: AppConfig, num_items: int) -> EncoderConfig:
    return EncoderConfig(num_items=num_items, embed_dim=cfg["encoder"]["embed_dim"],
                         max_seq_len=cfg["encoder"]["max_seq_len"])


def strategy_from(cfg: AppConfig, name: str | None = None) -> ExplorationStrategy:
    raw = name or cfg["training"]["strategy"]
    if raw not in STRATEGY_ALIASES:
        raise ConfigError(f"unknown strategy {raw!r} ({'|'.join(STRATEGY_ALIASES)})")
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


def run_dir(out, run_id: str, seed: int) -> Path:
    path = Path(out) / f"{run_id}-s{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_config_snapshot(cfg: AppConfig, out) -> None:
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "config.full").write_text(dump_full(cfg), encoding="utf-8")


def pretrain_with_checkpoints(cfg: AppConfig, world: World, oracle, seed: int,
                              directory: Path, resume: bool = False,
                              on_start=None) -> AgentBundle:
    """Pre-train with an every-epoch checkpoint so interrupted runs (for
    example on oracle failures) can resume from the last finished epoch.
    ``on_start()`` runs once the checkpoint to resume from has passed every
    check, before the first epoch."""
    tconf = train_config_from(cfg, seed)
    ckpt_path = directory / "pretrain_latest.ckpt"
    log_path = directory / "pretrain_log.jsonl"
    start_epoch = 0
    rng = None
    if resume and ckpt_path.exists():
        agent = _load_agent(ckpt_path, world.catalog.num_items)
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
    if on_start is not None:
        on_start()

    def on_epoch(epoch, bundle, record, rng_state):
        save_checkpoint(bundle, ckpt_path, rng_state=rng_state, extra={"epoch": epoch})
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    agent, _ = pretrain(agent, oracle, tconf, world.train_log,
                        epoch_callback=on_epoch, start_epoch=start_epoch, rng=rng)
    save_checkpoint(agent, directory / "agent_pretrained.ckpt")
    return agent


def _world_and_model(cfg: AppConfig):
    train_config_from(cfg)  # the [training] settings refused by key before anything is built
    world = build_world(cfg)
    model = build_reward_model(cfg, world)
    return world, model


def cmd_gen_data(cfg: AppConfig, out) -> int:
    catalog, log_, truth = _synthetic_world(cfg)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_catalog(catalog, out / "catalog.csv")
    write_interactions(log_, out / "interactions.csv")
    save_truth(truth, out / "truth.npz")
    _write_config_snapshot(cfg, out)
    print(f"wrote {catalog.num_items} items, {log_.num_sequences} sequences to {out}")
    return 0


def cmd_pretrain(cfg: AppConfig, out, resume: bool = False) -> int:
    world, model = _world_and_model(cfg)
    oracle = build_oracle(cfg, world)
    seed = cfg["training"]["seed"]
    directory = run_dir(out, cfg["harness"]["run_id"], seed)
    # the snapshot is written only once a resumed checkpoint has passed its
    # checks, so a refused command leaves the directory's run as it was
    agent = pretrain_with_checkpoints(cfg, world, oracle, seed, directory, resume,
                                      on_start=lambda: _write_config_snapshot(cfg, directory))
    means = _test_means(cfg, model, world, seed, agent)
    print(f"pretrained agent: test return {means.episode_return:.3f}, "
          f"len {means.length:.2f}, avg {means.avg_reward:.3f}")
    return 0


def _load_agent(path, num_items: int) -> AgentBundle:
    """The agent checkpoint at ``path``, checked to act on a catalog of
    ``num_items`` items."""
    if not Path(path).exists():
        raise FileNotFoundError(f"agent checkpoint not found: {path}")
    agent = load_checkpoint(path)
    if agent.num_items != num_items:
        raise CheckpointError(f"{path}: agent has {agent.num_items} items, "
                              f"the catalog has {num_items}")
    return agent


def cmd_online(cfg: AppConfig, out, kind: str | None = None, agent_path=None) -> int:
    """One online run: the configured adaptation scheme (ft|ap) of the
    pre-trained agent, or the scratch baseline ``kind``, with its summary
    written next to its curve."""
    method = kind or cfg["training"]["scheme"]
    if kind is None and method not in SCHEMES:
        raise ConfigError(f"unknown scheme {method!r} ({'|'.join(SCHEMES)})")
    world, model = _world_and_model(cfg)
    strategy = strategy_from(cfg, "epsilon_greedy" if method == "dqn" else None)
    oracle = build_oracle(cfg, world) if method == "llm_online" else None
    seed = cfg["training"]["seed"]
    directory = run_dir(out, cfg["harness"]["run_id"], seed)
    if method in SCHEMES:
        start = _load_agent(agent_path or directory / "agent_pretrained.ckpt",
                            world.catalog.num_items)
    else:
        start = scratch_agent(train_config_from(cfg, seed),
                              encoder_config_from(cfg, world.catalog.num_items))
    _write_config_snapshot(cfg, directory)
    result, wall = _run_method(cfg, world, model, seed, directory, method, start, strategy,
                               oracle)
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
    agent = _load_agent(agent_path or directory / "agent_pretrained.ckpt",
                        world.catalog.num_items)
    means = _test_means(cfg, model, world, seed, agent)
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


def _run_method(cfg: AppConfig, world, model, seed, directory, method, start, strategy,
                oracle=None, suffix="") -> tuple[RunResult, float]:
    """Run one online method from the agent ``start`` on fresh environments
    and write its curve and final agent; returns the result and its
    wall-clock seconds.  dqn explores by the ``strategy_from(cfg,
    "epsilon_greedy")`` its caller builds; llm_online picks with ``oracle``."""
    train_env, test_env = build_envs(cfg, model, world, seed)
    started = time.perf_counter()
    result = online_phase(method, start, train_env, train_config_from(cfg, seed), strategy,
                          test_env, cfg["harness"]["episodes_per_epoch"],
                          cfg["harness"]["eval_episodes"], oracle=oracle)
    wall = time.perf_counter() - started
    write_curve(directory / f"curve_{method}{suffix}.jsonl", result.episodes)
    save_checkpoint(result.agent, directory / f"agent_{method}{suffix}.ckpt")
    return result, wall


def _run_preset(cfg: AppConfig, out, methods, strategies=(None,), online=True) -> int:
    """The per-seed loop of every preset.  Each seed pre-trains its agent,
    then gives each method its rows under each strategy (rows, curves and
    agents named ``<method>_<strategy kind>`` when ``strategies`` names any).  ``pretrained``
    gets the pre-trained agent's test metrics; with ``online`` every other
    method runs online, and without it (rq1) each gets the epoch-0 test
    metrics of the agent it starts from.  The judge and the strategies are
    built before anything is written."""
    world, model = _world_and_model(cfg)
    oracle = build_oracle(cfg, world)
    runs = {name: strategy_from(cfg, name) for name in strategies} if online else {None: None}
    epochs = ("0", "final") if online else ("0",)
    enc = encoder_config_from(cfg, world.catalog.num_items)
    rows = []
    for seed in cfg["harness"]["seeds"]:
        directory = run_dir(out, cfg["harness"]["run_id"], seed)
        _write_config_snapshot(cfg, directory)
        started = time.perf_counter()
        pretrained = pretrain_with_checkpoints(cfg, world, oracle, seed, directory)
        pretrain_wall = time.perf_counter() - started
        scratch = scratch_agent(train_config_from(cfg, seed), enc)
        # pg and a2c start from the same actor, so rq1 evaluates it once
        actor = None if online else _test_means(cfg, model, world, seed, scratch)
        for name, strategy in runs.items():
            suffix = f"_{strategy.kind}" if name else ""
            for method in methods:
                label = method + suffix
                if method == "pretrained":
                    means = _test_means(cfg, model, world, seed, pretrained)
                    rows += _summary_rows(label, seed, dict.fromkeys(epochs, means),
                                          pretrain_wall)
                elif online:
                    start = pretrained if method in SCHEMES else scratch
                    result, wall = _run_method(cfg, world, model, seed, directory, method,
                                               start, strategy, oracle, suffix)
                    rows += _summary_rows(label, seed, result.snapshots, wall)
                else:
                    means = (_test_means(cfg, model, world, seed, QGreedyPolicy(scratch))
                             if method == "dqn" else actor)
                    rows += _summary_rows(label, seed, {"0": means}, 0.0)
    rows += _aggregate(rows)
    _write_config_snapshot(cfg, out)
    write_summary(Path(out) / "summary.tsv", rows)
    print(f"wrote {Path(out) / 'summary.tsv'}")
    return 0


PRESETS = {
    # initial performance: the pre-trained agent versus the untrained agents
    # the scratch baselines start from, evaluated greedily at epoch 0
    "rq1": dict(methods=("pretrained", "dqn", "pg", "a2c"), online=False),
    # long-term adaptation: the frozen pre-trained agent, both adaptation
    # schemes and the scratch actor-critic baseline
    "rq2": dict(methods=("pretrained", "ft", "ap", "a2c")),
    # the judge-in-the-loop online baseline versus the adaptation schemes
    "rq3": dict(methods=("llm_online", "ft", "ap")),
    # exploration strategies: the adaptive scheme versus scratch actor-critic
    # under each strategy kind (egreedy, categorical, greedy)
    "rq4": dict(methods=("ap", "a2c"),
                strategies=tuple(dict.fromkeys(STRATEGY_ALIASES.values()))),
}

COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "online": cmd_online,
    "baseline": lambda cfg, out, kind: cmd_online(cfg, out, kind),
    "eval": cmd_eval,
    **{name: lambda cfg, out, name=name: _run_preset(cfg, out, **PRESETS[name])
       for name in PRESETS},
}


def run_experiment(cfg: AppConfig, command: str, out, **options) -> int:
    """Run one command of ``COMMANDS`` with its subcommand's options
    (``resume``, ``kind``, ``agent_path``); returns a process exit code."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return COMMANDS[command](cfg, out, **options)
