"""Flat ``key = value`` configuration with one section per module.

Every knob has a default recorded here; loading validates section and key
names against the schema (a section with no keys too) and parses values to
their declared types.  Seeds, and the ``[harness] seeds`` list, are
non-negative integers.  The full effective configuration can be dumped back
out (``config.full``) so every run records its provenance.
"""
from __future__ import annotations

import configparser
import io

__all__ = ["ConfigError", "AppConfig", "load_config", "dump_full", "DEFAULTS"]


class ConfigError(ValueError):
    pass


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("negative seed")
    return value


def _seed_list(raw: str) -> list[int]:
    values = [_seed(tok) for tok in raw.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


# section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "data": {
        "num_users": (int, 30),
        "num_items": (int, 30),
        "seq_len": (int, 6),
        "d_lat": (int, 4),
        "noise_scale": (float, 0.05),
        "seed": (_seed, 0),
        "train_fraction": (float, 0.8),
        "catalog_path": (str, ""),
        "interactions_path": (str, ""),
        "truth_path": (str, ""),
    },
    "encoder": {
        "embed_dim": (int, 64),
        "max_seq_len": (int, 10),
    },
    "oracle": {
        "kind": (str, "synthetic"),
        "threshold": (float, 0.5),
        "base_url": (str, ""),
        "model": (str, ""),
        "temperature": (float, 0.0),
        "timeout": (float, 30.0),
        "max_retries": (int, 3),
        "backoff": (float, 0.5),
        "replay_path": (str, ""),
        "record_path": (str, ""),
        "scenario": (str, "music streaming"),
        "item_noun": (str, "track"),
        "behavior": (str, "listening"),
    },
    "environment": {
        "kind": (str, "latent"),
        "max_steps": (int, 30),
        "quit_threshold": (float, 0.75),
        "r_max": (float, 5.0),
        "seed": (_seed, 0),
        "d_rm": (int, 8),
        "fit_epochs": (int, 40),
        "fit_lr": (float, 0.01),
        "neg_per_pos": (int, 2),
        "rank_decay": (float, 0.7),
        "latent_scale": (float, 1.0),
    },
    "training": {
        "pretrain_epochs": (int, 100),
        "pretrain_horizon": (int, 20),
        "online_steps": (int, 50_000),
        "batch_size": (int, 64),
        "buffer_capacity": (int, 10_000),
        "gamma": (float, 0.9),
        "lr": (float, 1e-3),
        "momentum": (float, 0.0),
        "k": (int, 10),
        "candidate_sampling": (str, "topk"),
        "alpha_init": (float, 0.2),
        "alpha_anneal_steps": (int, 20_000),
        "target_update": (int, 0),
        "seed": (_seed, 0),
        "scheme": (str, "ft"),
        "strategy": (str, "categorical"),
        "epsilon": (float, 0.1),
    },
    "harness": {
        "run_id": (str, "run"),
        "seeds": (_seed_list, [0, 1, 2, 3, 4]),
        "episodes_per_epoch": (int, 50),
        "eval_episodes": (int, 20),
    },
}

DEFAULTS = {section: {key: default for key, (_, default) in keys.items()}
            for section, keys in SCHEMA.items()}


class AppConfig:
    """Parsed configuration values, addressable as ``cfg['section']['key']``."""

    def __init__(self, values: dict[str, dict]):
        self.values = values

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def copy(self) -> "AppConfig":
        return AppConfig({s: dict(v) for s, v in self.values.items()})


def _parse_value(section: str, key: str, raw: str):
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key '{key}' in section [{section}]")
    parser, _ = SCHEMA[section][key]
    try:
        return parser(raw)
    except ValueError:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from None


def load_config(path=None, overrides: dict[tuple[str, str], str] | None = None) -> AppConfig:
    """Defaults, then the file (if given), then CLI overrides."""
    values = {section: dict(defaults) for section, defaults in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if parser.defaults():
            # configparser would copy its keys into every section
            raise ConfigError(f"{path}: a [DEFAULT] section is not supported; "
                              "put each key in its module's section")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                values[section][key] = _parse_value(section, key, raw)
    for (section, key), raw in (overrides or {}).items():
        values[section][key] = _parse_value(section, key, raw)
    return AppConfig(values)


def dump_full(config: AppConfig) -> str:
    """Render every effective value as INI text."""
    out = io.StringIO()
    for section in SCHEMA:
        out.write(f"[{section}]\n")
        for key in SCHEMA[section]:
            value = config[section][key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
