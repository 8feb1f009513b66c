"""Run every ``prefrl`` subcommand in-process on a tiny config and print one
``sha256  path`` line per output file, so that two checkouts, or two runs of
one checkout, can be compared byte for byte.

    python tools/cli_chain.py --out A > a.txt    # in one checkout
    python tools/cli_chain.py --out B > b.txt    # in another
    diff a.txt b.txt

Every config the chain runs is ``dump_full(load_config(None, overrides))``,
the overrides taken from one table, ``SETTINGS``: a base row, a row per
environment kind (``sequential`` quits at 0, so its episodes run all 8 steps)
and a row per run id, written to ``<run id>.ini``.  For each environment kind
the chain runs, in ``DIR/<kind>`` (paths in a config are read from there):
``gen-data`` into ``world``; ``pretrain``, ``pretrain --resume``, ``online
--scheme ft|ap``, ``baseline dqn|pg|a2c|llm_online`` and ``eval`` at ``--seed
3`` under the run id ``t``; ``online --scheme ap`` (from that pre-trained
agent) and ``baseline dqn`` at ``target_update = 5`` (``target``), so that the
frozen target critic and its bootstrap memo take part; ``pretrain``, ``online
--scheme ap`` and ``baseline pg`` at ``momentum = 0.5`` (``momentum``);
``pretrain`` and ``baseline llm_online`` at ``candidate_sampling = topk``
(``topk``); ``pretrain`` and ``eval`` of ``t``'s ap agent on the world read
back from ``world`` (``files``); ``pretrain`` against an LLM judge, perfbench's
``JudgeStub`` over HTTP, recording its replies to ``judge.jsonl`` (``live``),
and again replaying them (``replay``); and the presets ``rq1`` to ``rq4`` over
seeds 0 and 1.  The ``live`` run's config and runs, in ``live/``, hold the
stub's port and are not digested.

A ``.tsv`` file's digest leaves out its ``wall_clock`` column, the one timed
value.  Each ``.ckpt`` file gets a second line, ``sha256  path#tensors``, over
the tensors ``prefrl.checkpoint.read_checkpoint`` returns (name, shape and
values, in manifest order), so a change to a checkpoint's header alone shows
as a changed file with unchanged tensors.  Paths are relative to ``DIR``.  The
commands' own output goes to stderr.  The tool imports ``prefrl`` from the
``src/`` next to it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("latent", "matrix_factorization", "sequential")
# the run id of the live judge: its config holds the judge stub's port, so
# its directory (config and runs) is not digested
LIVE = "live"

# The settings of every config the chain runs, {section: {key: value}}, in
# three parts applied in order: the base, the environment kind's and the run
# id's.  Each run id's config is <run id>.ini; paths are read from the kind's
# directory.
SETTINGS = {
    "base": {
        "data": dict(num_users=14, num_items=14, seq_len=4, d_lat=3, seed=2),
        "encoder": dict(embed_dim=6, max_seq_len=5),
        "oracle": dict(threshold=2.5),
        "environment": dict(max_steps=8, quit_threshold=0.75, d_rm=4, fit_epochs=3),
        "training": dict(pretrain_epochs=3, pretrain_horizon=8, online_steps=50, batch_size=8,
                         buffer_capacity=300, lr=0.02, gamma=0.5, k=4, seed=0,
                         candidate_sampling="categorical", alpha_anneal_steps=25),
        "harness": dict(seeds="0 1", episodes_per_epoch=2, eval_episodes=3),
    },
    "kind": {
        # the 3-epoch reward model scores every item below 0.75, so no
        # episode would pass its first step
        "sequential": {"environment": dict(quit_threshold=0)},
    },
    "run": {
        "t": {},
        # a frozen target critic refreshed every 5 learner steps, with its memo
        "target": {"training": dict(target_update=5)},
        # the optimizer's velocity
        "momentum": {"training": dict(momentum=0.5)},
        "topk": {"training": dict(candidate_sampling="topk")},
        # the world gen-data wrote
        "files": {"data": dict(catalog_path="world/catalog.csv", truth_path="world/truth.npz",
                               interactions_path="world/interactions.csv")},
        # the judge over HTTP (its base_url is the stub's), recorded
        LIVE: {"oracle": dict(kind="llm", record_path="judge.jsonl")},
        # the recorded judge, which never contacts its base_url
        "replay": {"oracle": dict(kind="llm", replay_path="judge.jsonl",
                                  base_url="http://127.0.0.1:9/v1")},
    },
}


def config_of(kind: str, run_id: str, *rows: dict):
    """The config of run ``run_id`` in ``kind``, with ``rows`` applied last."""
    from prefrl.config import load_config

    overrides = {("environment", "kind"): kind, ("harness", "run_id"): run_id}
    for row in (SETTINGS["base"], SETTINGS["kind"].get(kind, {}), SETTINGS["run"][run_id],
                *rows):
        overrides.update(((section, key), str(value))
                         for section, keys in row.items() for key, value in keys.items())
    return load_config(None, overrides)


def config_path(run_id: str) -> str:
    return f"{LIVE}/{run_id}.ini" if run_id == LIVE else f"{run_id}.ini"


def chain_argvs() -> list[list[str]]:
    """The command lines the chain runs in a kind's directory, in order."""
    def run(run_id: str, *argv: str) -> list[str]:
        return ["--config", config_path(run_id), "--out", LIVE if run_id == LIVE else "runs",
                "--seed", "3", *argv]

    argvs = [["--config", "t.ini", "--out", "world", "gen-data"],
             run("t", "pretrain"), run("t", "pretrain", "--resume"),
             run("t", "--scheme", "ft", "online"), run("t", "--scheme", "ap", "online")]
    argvs += [run("t", "baseline", name) for name in ("dqn", "pg", "a2c", "llm_online")]
    argvs += [run("target", "--scheme", "ap", "online", "--agent",
                  "runs/t-s3/agent_pretrained.ckpt"),
              run("target", "baseline", "dqn"),
              run("momentum", "pretrain"), run("momentum", "--scheme", "ap", "online"),
              run("momentum", "baseline", "pg"),
              run("t", "eval"), run("t", "eval", "--agent", "runs/t-s3/agent_ap.ckpt"),
              run("topk", "pretrain"), run("topk", "baseline", "llm_online"),
              run("files", "pretrain"), run("files", "eval", "--agent", "runs/t-s3/agent_ap.ckpt"),
              run(LIVE, "pretrain"), run("replay", "pretrain")]
    argvs += [["--config", "t.ini", "--out", preset, preset]
              for preset in ("rq1", "rq2", "rq3", "rq4")]
    return argvs


def run_chain(out, kinds=KINDS) -> list[list[str]]:
    """Run the chain under ``out`` for each of ``kinds``, in the kind's
    directory, with a judge stub serving the live run; returns every command
    line run.  A command that exits nonzero raises RuntimeError."""
    from prefrl import cli
    from prefrl.config import dump_full
    from prefrl.harness import build_world
    from prefrl.oracle import synthetic_choice

    judge_stub = runpy.run_path(str(ROOT / "perfbench" / "stub.py"))["JudgeStub"]
    ran, previous, out = [], os.getcwd(), Path(out).resolve()
    try:
        for kind in kinds:
            home = out / kind
            (home / LIVE).mkdir(parents=True, exist_ok=True)
            (home / "judge.jsonl").unlink(missing_ok=True)  # the live run appends to it
            os.chdir(home)
            cfg = config_of(kind, "t")
            world = build_world(cfg)
            with judge_stub(world.catalog, world.truth, cfg["oracle"]["threshold"],
                            synthetic_choice, 0.0) as stub:
                for run_id in SETTINGS["run"]:
                    url = {"oracle": {"base_url": stub.base_url}} if run_id == LIVE else {}
                    Path(config_path(run_id)).write_text(dump_full(config_of(kind, run_id, url)),
                                                         encoding="utf-8")
                for argv in chain_argvs():
                    with contextlib.redirect_stdout(sys.stderr):
                        code = cli.main(argv)
                    if code != 0:
                        raise RuntimeError(f"prefrl {' '.join(argv)} exited {code} in {home}")
                    ran.append(argv)
    finally:
        os.chdir(previous)
    return ran


def file_digest(path: Path) -> str:
    """sha256 of the file's bytes; of a ``.tsv`` without its wall_clock column."""
    data = path.read_bytes()
    if path.suffix == ".tsv":
        rows = [line.split("\t") for line in data.decode("utf-8").splitlines()]
        if rows and "wall_clock" in rows[0]:
            col = rows[0].index("wall_clock")
            rows = [row[:col] + row[col + 1:] for row in rows]
        data = "\n".join("\t".join(row) for row in rows).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def tensor_digest(path: Path) -> str:
    """sha256 of a checkpoint's tensors as ``read_checkpoint`` returns them:
    each one's name, shape and float64 values, in manifest order."""
    from prefrl.checkpoint import read_checkpoint

    h = hashlib.sha256()
    for name, arr in read_checkpoint(path).tensors.items():
        h.update(f"{name}{list(arr.shape)}".encode("utf-8"))
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def digests(out) -> list[str]:
    """One ``sha256  path`` line per file under ``out``, sorted by path, and
    after each checkpoint's a ``sha256  path#tensors`` line."""
    out = Path(out)
    lines = []
    for path in sorted(out.rglob("*")):
        if path.is_file() and LIVE not in path.relative_to(out).parts:
            rel = path.relative_to(out).as_posix()
            lines.append(f"{file_digest(path)}  {rel}")
            if path.suffix == ".ckpt":
                lines.append(f"{tensor_digest(path)}  {rel}#tensors")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    args = parser.parse_args(argv)
    run_chain(args.out)
    print("\n".join(digests(args.out)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
