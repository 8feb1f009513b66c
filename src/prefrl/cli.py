"""Command-line front door.

Subcommands: gen-data, pretrain, online, baseline, eval, rq1, rq2, rq3, rq4.
Shared flags: --config PATH, --seed N, --out DIR, --oracle synthetic|llm,
--scheme ft|ap, --strategy egreedy|epsilon_greedy|categorical|greedy.  LLM
mode reads its auth token from the ORACLE_API_KEY environment variable.  Exit
code 0 on success; failures print one ``error: ...`` line on stderr and exit
nonzero.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .checkpoint import CheckpointError
from .config import ConfigError, load_config
from .harness import PRESETS, STRATEGY_ALIASES, run_experiment
from .oracle import OracleError
from .training import BASELINE_KINDS, SCHEMES


def build_parser() -> argparse.ArgumentParser:
    # shared flags accepted both before and after the subcommand; SUPPRESS
    # keeps a flag given in one position from being erased by the other's
    # unset default
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="config file (INI, one section per module)")
    common.add_argument("--seed", type=int, metavar="N", help="override the run seed (and the preset seed list)")
    common.add_argument("--out", metavar="DIR", help="output directory (default: runs)")
    common.add_argument("--oracle", choices=("synthetic", "llm"), help="preference judge backend")
    common.add_argument("--scheme", choices=SCHEMES, help="online adaptation scheme")
    common.add_argument("--strategy", choices=tuple(STRATEGY_ALIASES),
                        help="exploration strategy of the ft, ap, pg and a2c runs (dqn: "
                             "epsilon-greedy at [training] epsilon; llm_online: the judge)")
    common.add_argument("-v", "--verbose", action="store_true", help="info-level logging")

    parser = argparse.ArgumentParser(
        prog="prefrl",
        description="Judge-pretrained actor-critic recommendation experiments",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", parents=[common],
                   help="generate a seeded synthetic catalog/log/latents")
    p = sub.add_parser("pretrain", parents=[common],
                       help="pre-train the agent against the preference judge")
    p.add_argument("--resume", action="store_true", default=False,
                   help="continue from the last epoch checkpoint")
    p = sub.add_parser("online", parents=[common],
                       help="adapt a pre-trained agent online (ft or ap)")
    p.add_argument("--agent", dest="agent_path", metavar="PATH", help="pre-trained agent checkpoint")
    p = sub.add_parser("baseline", parents=[common], help="run a scratch baseline online")
    p.add_argument("kind", choices=BASELINE_KINDS)
    p = sub.add_parser("eval", parents=[common],
                       help="greedy evaluation of an agent checkpoint on the test environment")
    p.add_argument("--agent", dest="agent_path", metavar="PATH", help="agent checkpoint to evaluate")
    for preset in PRESETS:
        sub.add_parser(preset, parents=[common], help=f"run the {preset} experiment preset")
    return parser


def _overrides(options: dict) -> dict:
    """The config overrides the shared flags give, each flag popped from
    ``options``."""
    overrides = {}
    seed = options.pop("seed", None)
    if seed is not None:
        overrides[("training", "seed")] = str(seed)
        overrides[("environment", "seed")] = str(seed)
        overrides[("harness", "seeds")] = str(seed)
    for attr, target in (("oracle", ("oracle", "kind")),
                         ("scheme", ("training", "scheme")),
                         ("strategy", ("training", "strategy"))):
        value = options.pop(attr, None)
        if value is not None:
            overrides[target] = value
    return overrides


def main(argv=None) -> int:
    # what is left of the parsed options once the shared flags are taken
    # out is the subcommand's own: resume, kind or agent_path
    options = vars(build_parser().parse_args(argv))
    logging.basicConfig(level=logging.INFO if options.pop("verbose", False) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(options.pop("config", None), _overrides(options))
        return run_experiment(cfg, options.pop("command"), options.pop("out", "runs"), **options)
    except (ConfigError, CheckpointError, OracleError, FileNotFoundError,
            ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
