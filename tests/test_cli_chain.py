"""``tools/cli_chain.py`` runs every subcommand of the command line in
process, and two runs of it at the same seeds give byte-identical outputs:
the north star's "same seed, byte-identical" rule, checked across every
command.  The tool is loaded by its path, as a script."""
from __future__ import annotations

import argparse
import importlib.util
import json
import threading
from pathlib import Path

from prefrl import cli
from prefrl.agent import init_agent
from prefrl.checkpoint import read_checkpoint, save_checkpoint, save_tensors

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_chain.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_chain", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_chain_runs_every_subcommand_byte_for_byte(tmp_path):
    chain = _load_tool()
    ran = chain.run_chain(tmp_path / "a")
    chain.run_chain(tmp_path / "b")
    first = chain.digests(tmp_path / "a")
    assert first == chain.digests(tmp_path / "b")
    # the judge stub served the live runs and has stopped
    assert not [t for t in threading.enumerate() if t.name == "judge-stub"]
    assert any(line.endswith("  latent/rq4/summary.tsv") for line in first)
    paths = [line.split("  ", 1)[1] for line in first]
    # the target_update = 5 runs have their own run id and train other weights
    digest = {path: sha for sha, path in (line.split("  ") for line in first)}
    for method in ("ap", "dqn"):
        for name in (f"curve_{method}.jsonl", f"agent_{method}.ckpt", f"summary_{method}.tsv"):
            assert f"latent/runs/target-s3/{name}" in digest, name
        plain, frozen = (digest[f"latent/runs/{run}-s3/agent_{method}.ckpt#tensors"]
                         for run in ("t", "target"))
        assert plain != frozen
    # so do the momentum = 0.5 runs, whose steps use the optimizer's velocity
    for name in ("pretrain_log.jsonl", "agent_pretrained.ckpt", "curve_ap.jsonl",
                 "agent_ap.ckpt", "summary_ap.tsv", "curve_pg.jsonl", "agent_pg.ckpt",
                 "summary_pg.tsv"):
        assert f"latent/runs/momentum-s3/{name}" in digest, name
    for method in ("pretrained", "ap", "pg"):
        plain, moving = (digest[f"latent/runs/{run}-s3/agent_{method}.ckpt#tensors"]
                         for run in ("t", "momentum"))
        assert plain != moving
    for kind in chain.KINDS:
        # every kind plays episodes past their first step, so sequential
        # transitions are bootstrapped too
        lengths = [json.loads(line)["length"]
                   for curve in (tmp_path / "a" / kind).rglob("curve_*.jsonl")
                   for line in curve.read_text(encoding="utf-8").splitlines()]
        assert max(lengths) > 1, kind
        runs = f"{kind}/runs"
        # a world read from the files gen-data wrote trains and evaluates as
        # the generated one does, and the replayed judge as the synthetic one
        for name in ("pretrain_log.jsonl", "pretrain_latest.ckpt", "pretrain_latest.ckpt#tensors",
                     "agent_pretrained.ckpt", "agent_pretrained.ckpt#tensors", "eval.tsv"):
            assert digest[f"{runs}/files-s3/{name}"] == digest[f"{runs}/t-s3/{name}"], name
        for name in ("pretrain_log.jsonl", "agent_pretrained.ckpt"):
            assert digest[f"{runs}/replay-s3/{name}"] == digest[f"{runs}/t-s3/{name}"], name
        # one recorded reply per step of 3 pre-training epochs of 8; the live run's own
        # directory, whose config holds the stub's port, is not digested
        fixture = (tmp_path / "a" / kind / "judge.jsonl").read_text(encoding="utf-8")
        assert len(fixture.splitlines()) == 3 * 8 and f"{kind}/judge.jsonl" in digest
        assert not any(path.startswith(f"{kind}/live/") for path in digest)
        # top-k candidates train other weights than categorical ones
        assert (digest[f"{runs}/topk-s3/agent_pretrained.ckpt#tensors"]
                != digest[f"{runs}/t-s3/agent_pretrained.ckpt#tensors"])
        assert f"{runs}/topk-s3/curve_llm_online.jsonl" in digest
    checkpoints = [path for path in paths if path.endswith(".ckpt")]
    assert checkpoints
    for path in checkpoints:
        assert paths[paths.index(path) + 1] == f"{path}#tensors"
    parser = cli.build_parser()
    subcommands = {choice for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)
                   for choice in action.choices}
    assert {parser.parse_args(argv).command for argv in ran} == subcommands


def test_a_tsv_digest_leaves_out_the_wall_clock_column(tmp_path):
    chain = _load_tool()
    paths = [tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv")]
    for path, row in zip(paths, ("ft\t1.5\t0.25", "ft\t1.5\t9.75", "ft\t2.5\t0.25")):
        path.write_text(f"method\treturn\twall_clock\n{row}\n", encoding="utf-8")
    a, b, c = (chain.file_digest(path) for path in paths)
    assert a == b != c


def test_a_checkpoint_tensor_digest_leaves_out_the_header(tmp_path):
    # a.ckpt and b.ckpt differ in their config only, a.ckpt and c.ckpt in
    # one tensor value only
    chain = _load_tool()
    save_checkpoint(init_agent(4, embed_dim=2, max_seq_len=3, seed=0), tmp_path / "a.ckpt")
    data = read_checkpoint(tmp_path / "a.ckpt")
    save_tensors(tmp_path / "b.ckpt", data.tensors, {**data.config, "gamma": 0.9})
    changed = dict(data.tensors, actor_b=data.tensors["actor_b"] + 1.0)
    save_tensors(tmp_path / "c.ckpt", changed, data.config)
    digest = {path: sha for sha, path in (line.split("  ") for line in chain.digests(tmp_path))}
    assert list(digest) == ["a.ckpt", "a.ckpt#tensors", "b.ckpt", "b.ckpt#tensors",
                            "c.ckpt", "c.ckpt#tensors"]
    assert digest["a.ckpt"] != digest["b.ckpt"]
    assert digest["a.ckpt#tensors"] == digest["b.ckpt#tensors"] != digest["c.ckpt#tensors"]
