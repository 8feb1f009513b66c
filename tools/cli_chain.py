"""Run every ``prefrl`` subcommand in-process on a tiny config and print one
``sha256  path`` line per output file, so that two checkouts, or two runs of
one checkout, can be compared byte for byte.

    python tools/cli_chain.py --out A > a.txt    # in one checkout
    python tools/cli_chain.py --out B > b.txt    # in another
    diff a.txt b.txt

For each environment kind the chain runs, under ``DIR/<kind>``: ``gen-data``;
``pretrain``, ``pretrain --resume``, ``online --scheme ft|ap``,
``baseline dqn|pg|a2c|llm_online`` and ``eval`` at ``--seed 3``; ``online
--scheme ap`` (from that pre-trained agent) and ``baseline dqn`` again at
``target_update = 5``, under the run id ``target``, so that the frozen
target critic and its bootstrap memo take part; ``pretrain``, ``online
--scheme ap`` and ``baseline pg`` again at ``momentum = 0.5``, under the run
id ``momentum``, so that the optimizer's velocity takes part; and the
presets ``rq1`` to ``rq4`` over seeds 0 and 1.  A ``.tsv`` file's digest
leaves out its ``wall_clock`` column, the one timed value.  Each ``.ckpt``
file gets a second line, ``sha256  path#tensors``, over the tensors
``prefrl.checkpoint.read_checkpoint`` returns (name, shape and values, in
manifest order), so a change to a checkpoint's header alone shows as a
changed file with unchanged tensors.  Paths are relative to ``DIR``.  The
commands' own output goes to stderr.  The tool imports ``prefrl`` from the
``src/`` next to it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("latent", "matrix_factorization", "sequential")

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
kind = {kind}
max_steps = 8
quit_threshold = 0.75
d_rm = 4
fit_epochs = 3

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
seeds = 0 1
episodes_per_epoch = 2
eval_episodes = 3
"""


# run id -> the [training] setting its config adds to the chain's: a frozen
# target critic refreshed every 5 learner steps, and momentum
VARIANTS = {"target": "target_update = 5", "momentum": "momentum = 0.5"}


def variant_ini(kind: str, run_id: str) -> str:
    """The chain's config with the setting of ``VARIANTS[run_id]``, under the
    run id ``run_id``."""
    return (TINY_INI.format(kind=kind)
            .replace("[training]\n", f"[training]\n{VARIANTS[run_id]}\n")
            .replace("run_id = t\n", f"run_id = {run_id}\n"))


def chain_argvs(out: Path, kind: str) -> list[list[str]]:
    """The command lines the chain runs for ``kind``, in order."""
    def runs_of(ini: str) -> list[str]:
        return ["--config", str(out / kind / ini), "--out", str(out / kind / "runs"),
                "--seed", "3"]

    base = ["--config", str(out / kind / "chain.ini")]
    runs, target, momentum = runs_of("chain.ini"), runs_of("target.ini"), runs_of("momentum.ini")
    argvs = [[*base, "--out", str(out / kind / "world"), "gen-data"],
             [*runs, "pretrain"], [*runs, "pretrain", "--resume"],
             [*runs, "--scheme", "ft", "online"], [*runs, "--scheme", "ap", "online"]]
    argvs += [[*runs, "baseline", name] for name in ("dqn", "pg", "a2c", "llm_online")]
    argvs += [[*target, "--scheme", "ap", "online", "--agent",
               str(out / kind / "runs" / "t-s3" / "agent_pretrained.ckpt")],
              [*target, "baseline", "dqn"]]
    argvs += [[*momentum, "pretrain"], [*momentum, "--scheme", "ap", "online"],
              [*momentum, "baseline", "pg"]]
    argvs += [[*runs, "eval"],
              [*runs, "eval", "--agent", str(out / kind / "runs" / "t-s3" / "agent_ap.ckpt")]]
    argvs += [[*base, "--out", str(out / kind / preset), preset]
              for preset in ("rq1", "rq2", "rq3", "rq4")]
    return argvs


def run_chain(out, kinds=KINDS) -> list[list[str]]:
    """Run the chain under ``out`` for each of ``kinds``; returns every
    command line run.  A command that exits nonzero raises RuntimeError."""
    from prefrl import cli

    out = Path(out)
    ran = []
    for kind in kinds:
        (out / kind).mkdir(parents=True, exist_ok=True)
        (out / kind / "chain.ini").write_text(TINY_INI.format(kind=kind), encoding="utf-8")
        for run_id in VARIANTS:
            (out / kind / f"{run_id}.ini").write_text(variant_ini(kind, run_id),
                                                      encoding="utf-8")
        for argv in chain_argvs(out, kind):
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"prefrl {' '.join(argv)} exited {code}")
            ran.append(argv)
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
        if path.is_file():
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
