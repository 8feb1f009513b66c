"""Layer probes: the cost of one call into a public ``prefrl`` function, timed
directly on inputs captured from the traced repetition of a workload
(full-length histories, a 64-transition batch, the judge calls it made).

A probe whose function is missing or no longer accepts these arguments is
reported as 0 and listed in ``unavailable``, so a later rename shows up in the
output instead of stopping the benchmark.
"""
from __future__ import annotations

import dataclasses
import os
import statistics
import time
from pathlib import Path

import numpy as np

from prefrl import agent, checkpoint, encoder, harness, nn, oracle, training

from stub import JudgeStub

BATCH = 64
REMOTE_CALLS = 40


def per_call_s(fn, budget_s: float = 0.1, repeats: int = 5) -> float:
    """Median over ``repeats`` rounds of the mean seconds per call, each round
    long enough to take about ``budget_s / repeats``."""
    fn()
    number = 1
    while True:
        t = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t
        if elapsed >= budget_s / repeats or number >= 1 << 16:
            break
        number *= 2
    rounds = [elapsed / number]
    for _ in range(repeats - 1):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        rounds.append((time.perf_counter() - t) / number)
    return statistics.median(rounds)


def _batch(steps: list, max_len: int) -> list:
    """64 transitions, longest histories first, repeating when fewer were seen."""
    ranked = sorted(steps, key=lambda s: -min(len(s[0]), max_len))
    return [agent.Transition(*ranked[i % len(ranked)]) for i in range(BATCH)]


def run_probes(cfg, bundle, steps: list, judge_calls: list | None, workdir: Path, seed: int):
    """Time every layer probe; returns (metrics, unavailable probes, check failures).

    ``steps`` holds (history, action, reward, next_history, done) tuples and
    ``judge_calls`` (history, candidates, label) tuples from the workload;
    histories are truncated to the encoder window by the encoder itself.
    """
    world = harness.build_world(cfg)
    enc_cfg, params = bundle.encoder_config, bundle.params
    batch = _batch(steps, enc_cfg.max_seq_len)
    history = batch[0].state_items
    histories = [t.state_items for t in batch]
    k = cfg["training"]["k"]
    if not judge_calls:
        rng = np.random.default_rng(seed)
        judge_calls = [(h, tuple(training.sample_candidates(
            agent.policy_for(bundle, h), k, "topk", rng)), None) for h in histories[:REMOTE_CALLS]]
    metrics: dict[str, float] = {}
    unavailable: list[str] = []

    def probe(name: str, scale: float, fn) -> None:
        try:
            metrics[name] = per_call_s(fn) * scale
        except (AttributeError, TypeError, KeyError) as exc:
            metrics[name] = 0.0
            unavailable.append(f"{name}: {type(exc).__name__}: {exc}")

    work = bundle.clone()
    state, cache = encoder.encode_with_cache(history, work.params, enc_cfg)
    d_state = np.full(enc_cfg.embed_dim, 1e-3)
    d_logits = np.full(bundle.num_items, 1e-3)
    d_q = np.full(bundle.num_items, 1e-3)

    def forward_backward():
        _, c = encoder.encode_with_cache(history, work.params, enc_cfg)
        encoder.encode_backward(c, d_state, work.params)

    probe("encoder.forward_us", 1e6, lambda: encoder.encode(history, params, enc_cfg))
    probe("encoder.forward_backward_us", 1e6, forward_backward)
    probe("encoder.batch64_forward_us", 1e6, lambda: encoder.encode_batch(histories, params, enc_cfg))
    probe("agent.backprop_heads_us", 1e6,
          lambda: agent.backprop_heads(work, state, cache, d_logits, d_q))
    probe("agent.update64_ms", 1e3, lambda: agent.update(batch, work, 0.0, 0.0))
    probe("nn.optimizer_step_us", 1e6, lambda: nn.optimizer_step(work.params, 0.0))

    for kind in ("latent", "sequential", "matrix_factorization"):
        env_cfg = cfg.copy()
        env_cfg["environment"]["kind"] = kind
        env_cfg["environment"]["fit_epochs"] = 1   # the cost of a step does not depend on fit quality
        model = harness.build_reward_model(env_cfg, world)
        env = harness.make_env(env_cfg, model, world.train_log, seed)
        start = dataclasses.replace(env.reset(seed=0), history=history)
        probe(f"environment.{kind}.step_us", 1e6, lambda: env.step(start, batch[0].action))

    synthetic = oracle.SyntheticOracle(world.truth, cfg["oracle"]["threshold"])
    h0, c0, _ = judge_calls[0]
    probe("oracle.synthetic.call_us", 1e6, lambda: synthetic.choose(list(h0), list(c0)))

    fixture = workdir / "probe_judge_record.jsonl"
    fixture.unlink(missing_ok=True)
    remote_cfg = cfg.copy()
    remote_cfg["oracle"].update(kind="llm", model="judge-stub", record_path=str(fixture),
                                replay_path="", max_retries=0)
    calls = judge_calls[:REMOTE_CALLS]
    with JudgeStub(world.catalog, world.truth, cfg["oracle"]["threshold"],
                   oracle.synthetic_choice, 0.0,
                   max_connections=os.cpu_count() or 1) as stub:
        remote_cfg["oracle"]["base_url"] = stub.base_url
        remote = harness.build_oracle(remote_cfg, world)
        remote_ms, remote_labels = [], []
        for h, c, _ in calls:
            t = time.perf_counter()
            remote_labels.append(remote.choose(list(h), list(c)).label_index)
            remote_ms.append((time.perf_counter() - t) * 1e3)
    metrics["oracle.remote.call_ms"] = statistics.median(remote_ms)

    replay_cfg = cfg.copy()
    replay_cfg["oracle"].update(kind="llm", base_url="http://127.0.0.1:9", record_path="",
                                replay_path=str(fixture))
    replay = harness.build_oracle(replay_cfg, world)
    replay_labels = [replay.choose(list(h), list(c)).label_index for h, c, _ in calls]
    probe("oracle.replay.call_us", 1e6, lambda: replay.choose(list(h0), list(c0)))
    failures = []
    if replay_labels != remote_labels:
        failures.append("replaying the recorded fixture gave other labels than the live judge")
    if remote_labels != stub.sent:
        failures.append("probe judge: labels parsed differ from labels sent")

    ckpt = workdir / "probe_agent.ckpt"
    probe("checkpoint.save_ms", 1e3, lambda: checkpoint.save_checkpoint(bundle, ckpt))
    probe("checkpoint.load_ms", 1e3, lambda: checkpoint.load_checkpoint(ckpt))
    return metrics, unavailable, failures
