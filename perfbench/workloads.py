"""The three benchmark workloads, each driven through the public
``prefrl.harness`` / ``prefrl.training`` entry points.

One *repetition* of a workload is the command a user would run (``prefrl
online``, ``prefrl pretrain``, ``prefrl baseline pg``) at a fixed size: set-up
from the config, the loop, then writing the curve, checkpoint and summary.
The environment (or judge) handed to the loop is wrapped so that it stamps
the clock after every step; that stamp is the only hook in an untraced
repetition. Every repetition checks its own outputs.

Fixed-length episodes (``quit_threshold = 0``) keep the work per step the same
from seed to seed: with the default quit rule the episode length, and with it
the history length the encoder sees, depends on how well the policy happens to
do, and the cost per step moved by a factor of two between seeds.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prefrl import checkpoint, harness, oracle, training
from prefrl.config import load_config

from stub import JudgeStub

# the judge stub's per-reply delay; at the seed code a pretrain_remote step
# spends about 10 ms acting and in the batch-16 learner and about 9 ms in the
# HTTP client and the stub, so the judge holds about three quarters of a step,
# and the step time follows the shared host's CPU speed only weakly (with an
# 8 ms delay it spread by a quarter from run to run)
JUDGE_DELAY_S = 0.030
# one request in 50 is answered with HTTP 503; the retry after a 10 ms
# backoff makes those 2% of steps the slowest by a fixed sleep, which puts
# the 99th-percentile step of a 400-step repetition on the median of them
# rather than on host noise (with one in 25 it sat on their upper quartile
# and spread by 0.16 of its median between runs)
JUDGE_FAIL_EVERY = 50
JUDGE_BACKOFF_S = 0.01


def clock() -> int:
    return time.perf_counter_ns()


class StampedEnv:
    """The environment handed to the loop; stamps the clock after every step.
    With ``record`` set it also keeps each transition, as probe input."""

    def __init__(self, env, record: list | None = None):
        self.env = env
        self.stamps: list[int] = []
        self.record = record

    def __getattr__(self, name):
        return getattr(self.env, name)

    def step(self, state, action):
        out = self.env.step(state, action)
        self.stamps.append(clock())
        if self.record is not None:
            reward, next_state, done = out
            self.record.append((state.history, action, reward, next_state.history, done))
        return out


class StampedJudge:
    """The judge handed to the pre-training loop; stamps the clock after every
    call and keeps the label it returned (and, with ``record``, its input)."""

    def __init__(self, judge, record: list | None = None):
        self.judge = judge
        self.stamps: list[int] = []
        self.labels: list[int | None] = []
        self.failed = 0
        self.record = record

    def choose(self, history, candidates):
        try:
            choice = self.judge.choose(history, candidates)
        except oracle.OracleError:
            self.failed += 1
            raise
        self.stamps.append(clock())
        self.labels.append(choice.label_index)
        if self.record is not None:
            self.record.append((tuple(history), tuple(candidates), choice.label_index))
        return choice


@dataclass
class Rep:
    """Measurements and check results of one repetition."""
    setup_s: float
    loop_s: float
    wall_s: float
    steps: int
    intervals_ms: np.ndarray
    final_test_return: float
    curve_digest: str
    failures: list[str]
    agent: object = None
    judge_calls: int = 0
    judge_failed: int = 0
    judge_retries: int = 0
    judge_none: int = 0
    loop_span: tuple[int, int] = (0, 0)
    loop_ns: int = 0
    seen_steps: list | None = None          # (history, action, reward, next_history, done)
    seen_judge_calls: list | None = None    # (history, candidates, label)


def _intervals_ms(stamps: list[int]) -> np.ndarray:
    return np.diff(np.asarray(stamps, dtype=np.int64)) / 1e6


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _summary_rows(method: str, seed: int, snapshots: dict, wall: float) -> list[dict]:
    return [{"method": method, "seed": seed, "epoch": epoch, "return": m.episode_return,
             "length": m.length, "avg_reward": m.avg_reward, "wall_clock": round(wall, 3)}
            for epoch, m in snapshots.items()]


def check_curve(path) -> list[str]:
    """Every curve row must satisfy avg_reward * length == return."""
    bad = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            row = json.loads(line)
            if abs(row["avg_reward"] * row["length"] - row["return"]) > 1e-9 * max(1.0, abs(row["return"])):
                bad.append(f"{Path(path).name} row {n}: avg_reward * length != return")
    return bad


def check_checkpoint(bundle, path) -> list[str]:
    """The written checkpoint must load back equal to float32 rounding."""
    loaded = checkpoint.load_checkpoint(path)
    bad = []
    for name in bundle.params.names():
        want = bundle.params[name].astype(np.float32).astype(np.float64)
        if not np.array_equal(loaded.params[name], want):
            bad.append(f"{Path(path).name}: tensor {name} differs from its float32 rounding")
    if loaded.encoder_config != bundle.encoder_config:
        bad.append(f"{Path(path).name}: encoder config differs")
    return bad


def check_steps(done: int, expected: int, what: str) -> list[str]:
    return [] if done == expected else [f"{what}: {done} of {expected} configured steps completed"]


class Workload:
    name = ""
    why = ""
    # whether timings are scaled to the nominal host (see hostspeed.py); not
    # for a workload whose steps are mostly a sleep the host's speed leaves
    # alone
    host_scaled = True
    # settings layered over the config defaults (the default synthetic world)
    settings: dict[tuple[str, str], str] = {}

    def config(self, seed: int):
        """The AppConfig of this workload; ``seed`` sets the seeds the
        ``prefrl --seed`` flag sets ([training] and [environment] seed)."""
        overrides = dict(self.settings)
        overrides[("training", "seed")] = str(seed)
        overrides[("environment", "seed")] = str(seed)
        return load_config(None, overrides)

    def steps(self, cfg) -> int:
        return cfg["training"]["online_steps"]

    def prepare(self, cfg, workdir: Path, seed: int):
        """Untimed work done once per run before the repetitions."""
        return None

    def run(self, cfg, prepared, repdir: Path, seed: int, tracer=None) -> Rep:
        """One repetition. With ``tracer`` set it also keeps what the loop
        saw (``Rep.seen_*``) as probe input and marks the loop's spans."""
        raise NotImplementedError

    def setup_s(self, cfg, prepared, repdir: Path, seed: int) -> float:
        """Seconds for the set-up of one repetition alone, then torn down."""
        raise NotImplementedError


def _judge_transitions(calls: list) -> list:
    """The transitions pre-training stores for the judge calls seen (a None
    answer acts on the first candidate here instead of a random one)."""
    out = []
    for history, candidates, label in calls:
        action = candidates[0 if label is None else label]
        out.append((history, action, float(label is not None), history + (action,), False))
    return out


def _span_mark(tracer) -> int:
    return len(tracer) if tracer is not None else 0


class OnlineWorkload(Workload):
    """An online loop over a stamped training environment, as ``prefrl
    online`` / ``prefrl baseline`` run it."""
    method = ""

    def start(self, cfg, world, prepared, seed):
        """The rest of set-up; returns ``loop(env, test_env) -> RunResult``."""
        raise NotImplementedError

    def _setup(self, cfg, prepared, seed, record=None):
        world = harness.build_world(cfg)
        model = harness.build_reward_model(cfg, world)
        train_env, test_env = harness.build_envs(cfg, model, world, seed)
        return StampedEnv(train_env, record), test_env, self.start(cfg, world, prepared, seed)

    def setup_s(self, cfg, prepared, repdir, seed):
        t0 = clock()
        self._setup(cfg, prepared, seed)
        return (clock() - t0) / 1e9

    def run(self, cfg, prepared, repdir, seed, tracer=None):
        record = [] if tracer is not None else None
        t0 = clock()
        env, test_env, loop = self._setup(cfg, prepared, seed, record)
        t1, lo = clock(), _span_mark(tracer)
        result = loop(env, test_env)
        t2, hi = clock(), _span_mark(tracer)
        curve, ckpt = repdir / f"curve_{self.method}.jsonl", repdir / f"agent_{self.method}.ckpt"
        harness.write_curve(curve, result.episodes)
        checkpoint.save_checkpoint(result.agent, ckpt)
        harness.write_summary(repdir / f"summary_{self.method}.tsv", _summary_rows(
            self.method, seed, result.snapshots, (t2 - t1) / 1e9))
        t3 = clock()
        failures = (check_steps(len(env.stamps), self.steps(cfg), self.name)
                    + check_curve(curve) + check_checkpoint(result.agent, ckpt))
        return Rep((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t0) / 1e9, len(env.stamps),
                   _intervals_ms(env.stamps), result.snapshots["final"].episode_return,
                   _digest(curve), failures, agent=result.agent,
                   loop_span=(lo, hi), loop_ns=t2 - t1, seen_steps=record)


class AdaptAp(OnlineWorkload):
    name = "adapt_ap"
    method = "ap"
    why = ("learner-bound: the ap mixture update on 64 transitions, re-encoding "
           "the frozen policy for every sample, is most of each step")
    settings = {
        ("environment", "kind"): "latent",
        ("environment", "quit_threshold"): "0",
        ("encoder", "embed_dim"): "64",
        ("encoder", "max_seq_len"): "10",
        ("training", "batch_size"): "64",
        ("training", "target_update"): "100",
        ("training", "strategy"): "categorical",
        ("training", "scheme"): "ap",
        ("training", "pretrain_epochs"): "20",
        ("training", "online_steps"): "300",
        ("training", "alpha_anneal_steps"): "300",
        ("harness", "episodes_per_epoch"): "2",
        ("harness", "eval_episodes"): "20",
    }

    def prepare(self, cfg, workdir, seed):
        """Pre-train with the code under test and keep ``agent_pretrained.ckpt``,
        as ``prefrl pretrain`` does before ``prefrl online``."""
        world = harness.build_world(cfg)
        judge = harness.build_oracle(cfg, world)
        harness.pretrain_with_checkpoints(cfg, world, judge, seed, workdir)
        return workdir / "agent_pretrained.ckpt"

    def start(self, cfg, world, prepared, seed):
        """Snapshots at every epoch of the repetition (not only epochs 0-2, as
        ``prefrl online`` takes them): four in-loop snapshots in 300 steps put
        the 99th-percentile step on a snapshot, a fixed amount of work, rather
        than on the host's noisiest learner step."""
        agent = checkpoint.load_checkpoint(prepared)
        tconf = harness.train_config_from(cfg, seed)
        strategy = harness.strategy_from(cfg)
        epp = cfg["harness"]["episodes_per_epoch"]
        epochs = range(tconf.online_steps // (cfg["environment"]["max_steps"] * epp))
        return lambda env, test_env: training.online_phase(
            cfg["training"]["scheme"], agent, env, tconf, strategy, eval_env=test_env,
            episodes_per_epoch=epp, eval_episodes=cfg["harness"]["eval_episodes"],
            eval_epochs=epochs)


class PretrainRemote(Workload):
    name = "pretrain_remote"
    why = ("judge-bound: pre-training against LLMOracle over HTTP to a local stub "
           "with 30 ms replies and 1-in-50 HTTP 503, with per-epoch checkpoints")
    host_scaled = False
    settings = {
        ("environment", "kind"): "latent",
        ("environment", "quit_threshold"): "0",
        ("oracle", "kind"): "llm",
        ("oracle", "model"): "judge-stub",
        ("oracle", "backoff"): str(JUDGE_BACKOFF_S),
        ("oracle", "max_retries"): "3",
        ("oracle", "timeout"): "10",
        ("training", "batch_size"): "16",
        ("training", "target_update"): "100",
        ("training", "pretrain_epochs"): "20",
        ("harness", "eval_episodes"): "20",
    }

    def steps(self, cfg) -> int:
        return cfg["training"]["pretrain_epochs"] * cfg["training"]["pretrain_horizon"]

    def _setup(self, cfg, repdir, seed, record=None):
        """World, test environment, judge stub and the LLMOracle pointed at
        it; the caller stops the stub."""
        world = harness.build_world(cfg)
        model = harness.build_reward_model(cfg, world)
        stub = JudgeStub(world.catalog, world.truth, cfg["oracle"]["threshold"],
                         oracle.synthetic_choice, JUDGE_DELAY_S,
                         fail_every=JUDGE_FAIL_EVERY, fail_offset=seed % JUDGE_FAIL_EVERY,
                         max_connections=os.cpu_count() or 1).start()
        try:
            cfg = cfg.copy()
            cfg["oracle"]["base_url"] = stub.base_url
            cfg["oracle"]["record_path"] = str(repdir / "judge_record.jsonl")
            judge = StampedJudge(harness.build_oracle(cfg, world), record)
            _, test_env = harness.build_envs(cfg, model, world, seed)
        except BaseException:
            stub.stop()
            raise
        return cfg, world, stub, judge, test_env

    def setup_s(self, cfg, prepared, repdir, seed):
        t0 = clock()
        stub = self._setup(cfg, repdir, seed)[2]
        elapsed = (clock() - t0) / 1e9
        stub.stop()
        return elapsed

    def run(self, cfg, prepared, repdir, seed, tracer=None):
        record = [] if tracer is not None else None
        t0 = clock()
        cfg, world, stub, judge, test_env = self._setup(cfg, repdir, seed, record)
        fixture = repdir / "judge_record.jsonl"
        try:
            t1, lo = clock(), _span_mark(tracer)
            agent = harness.pretrain_with_checkpoints(cfg, world, judge, seed, repdir)
            t2, hi = clock(), _span_mark(tracer)
            evaluation = training.evaluate(agent, test_env, cfg["harness"]["eval_episodes"], seed)
            curve = repdir / "curve_pretrained_eval.jsonl"
            harness.write_curve(curve, evaluation.episodes)
            harness.write_summary(repdir / "summary_pretrain.tsv", _summary_rows(
                "pretrained", seed, {"final": evaluation.means}, (t2 - t1) / 1e9))
            t3 = clock()
        finally:
            stub.stop()
        log_path, ckpt = repdir / "pretrain_log.jsonl", repdir / "agent_pretrained.ckpt"
        failures = (check_steps(len(judge.stamps), self.steps(cfg), self.name)
                    + check_curve(curve) + check_checkpoint(agent, ckpt)
                    + check_checkpoint(agent, repdir / "pretrain_latest.ckpt"))
        epochs = len(log_path.read_text(encoding="utf-8").splitlines())
        if epochs != cfg["training"]["pretrain_epochs"]:
            failures.append(f"pretrain_log.jsonl has {epochs} lines, expected one per epoch")
        if stub.errors:
            failures.append(f"judge stub could not read {len(stub.errors)} prompt(s): {stub.errors[0]}")
        if stub.sent != judge.labels:
            mismatch = sum(a != b for a, b in zip(stub.sent, judge.labels))
            failures.append(f"labels parsed differ from labels sent on {mismatch} call(s) "
                            f"({len(judge.labels)} parsed, {len(stub.sent)} sent)")
        recorded = len(fixture.read_text(encoding="utf-8").splitlines())
        if recorded != len(judge.labels):
            failures.append(f"record fixture has {recorded} lines for {len(judge.labels)} judge calls")
        return Rep((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t0) / 1e9, len(judge.stamps),
                   _intervals_ms(judge.stamps), evaluation.means.episode_return,
                   _digest(log_path, curve), failures, agent=agent,
                   judge_calls=len(judge.labels) + judge.failed, judge_failed=judge.failed,
                   judge_retries=stub.rejected,
                   judge_none=sum(label is None for label in judge.labels),
                   loop_span=(lo, hi), loop_ns=t2 - t1,
                   seen_steps=None if record is None else _judge_transitions(record),
                   seen_judge_calls=record)


class RolloutPg(OnlineWorkload):
    name = "rollout_pg"
    method = "pg"
    why = ("rollout-bound: the pg baseline acts on one sequence at a time against the "
           "frozen sequential reward encoder and skips the minibatch learner")
    settings = {
        ("environment", "kind"): "sequential",
        ("environment", "quit_threshold"): "0",
        ("environment", "max_steps"): "10",
        ("training", "strategy"): "categorical",
        ("training", "online_steps"): "3000",
        ("harness", "episodes_per_epoch"): "100",
        ("harness", "eval_episodes"): "20",
    }

    def config(self, seed):
        """``seed`` sets [environment] seed: the fit of the sequential reward
        model and the environment streams. The scratch agent and its
        exploration stream keep [training] seed 0, because the greedy return of
        a barely trained scratch agent is set by its random initialisation,
        which would spread final_test_return over a factor of five."""
        cfg = super().config(seed)
        cfg["training"]["seed"] = 0
        return cfg

    def start(self, cfg, world, prepared, seed):
        tconf = harness.train_config_from(cfg)
        enc = harness.encoder_config_from(cfg, world.catalog.num_items)
        strategy = harness.strategy_from(cfg)
        return lambda env, test_env: training.run_baseline(
            "pg", env, tconf, enc, strategy, eval_env=test_env,
            episodes_per_epoch=cfg["harness"]["episodes_per_epoch"],
            eval_episodes=cfg["harness"]["eval_episodes"])


WORKLOADS = {w.name: w for w in (AdaptAp(), PretrainRemote(), RolloutPg())}
