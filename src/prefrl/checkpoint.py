"""Portable binary checkpoints, and the one place that knows the on-disk
layout of every model kind.

Layout: 4-byte magic ``PRFL``, uint32 little-endian format version, uint64
little-endian header length, a UTF-8 JSON header, then the raw tensor data.
The header carries a config snapshot, an optional rng state, and the tensor
manifest (name + shape, in order); tensor data is float32 little-endian,
concatenated in manifest order.  Headers are serialized with sorted keys so
save -> load -> save is byte-identical.

Four kinds of model file are written here: ``agent`` (the actor-critic
bundle) and the reward models ``latent``, ``matrix_factorization`` and
``sequential``.  :data:`LAYOUTS` gives each kind's checked config fields and
tensor shapes; :func:`load_checkpoint` and :func:`load_reward_model` both
check a file against it and raise one :class:`CheckpointError` naming the
path for any file that does not describe its kind.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .agent import AgentBundle
from .encoder import EncoderConfig
from .environment import LatentPreferenceModel, MatrixFactorizationModel, SequentialModel
from .nn import ParamSet

__all__ = [
    "CheckpointError",
    "CheckpointData",
    "LAYOUTS",
    "save_tensors",
    "read_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_reward_model",
    "load_reward_model",
]

MAGIC = b"PRFL"
FORMAT_VERSION = 1

# a checked config field: what it must be, and the test of its value
_NUMBER = ("a numeric", lambda v: type(v) in (int, float))
_INTEGER = ("an integer", lambda v: type(v) is int)
_DISTINCT_STRINGS = ("a list of distinct strings", lambda v: isinstance(v, list)
                     and all(isinstance(u, str) for u in v) and len(set(v)) == len(v))

_ENCODER_FIELDS = {"num_items": _INTEGER, "embed_dim": _INTEGER, "max_seq_len": _INTEGER}
_ENCODER_TENSORS = {
    "item_emb": ("ids", "embed_dim"), "pos_emb": ("max_seq_len", "embed_dim"),
    "w_q": ("embed_dim", "embed_dim"), "w_k": ("embed_dim", "embed_dim"),
    "w_v": ("embed_dim", "embed_dim"),
}
# per kind: the checked config fields and each tensor's shape, as sizes or as
# named dimensions.  The header fixes ``items`` (num_items), ``ids`` (one more,
# for the padding id), ``embed_dim``, ``max_seq_len`` and ``users``
# (len(user_ids)); any other dimension is set by the first tensor that has it.
LAYOUTS = {
    "agent": ({**_ENCODER_FIELDS, "gamma": _NUMBER}, {
        **_ENCODER_TENSORS, "actor_w": ("embed_dim", "items"), "actor_b": ("items",),
        "critic_w": ("embed_dim", "items"), "critic_b": ("items",)}),
    "latent": ({"r_max": _NUMBER, "scale": _NUMBER}, {"item_latents": ("items", "dim")}),
    "matrix_factorization": ({"r_max": _NUMBER, "user_ids": _DISTINCT_STRINGS}, {
        "user_factors": ("users", "dim"), "item_factors": ("items", "dim"),
        "user_bias": ("users",), "item_bias": ("items",), "global_bias": (1,)}),
    "sequential": ({"r_max": _NUMBER, **_ENCODER_FIELDS}, _ENCODER_TENSORS),
}
_REWARD_MODEL_KINDS = ("latent", "matrix_factorization", "sequential")


class CheckpointError(Exception):
    pass


@dataclass
class CheckpointData:
    format_version: int
    tensors: dict[str, np.ndarray]   # float64, widened from the float32 storage
    config: dict
    rng_state: dict | None


def save_tensors(path, tensors: dict[str, np.ndarray], config: dict,
                 rng_state: dict | None = None) -> None:
    """Write named tensors plus a JSON config snapshot to ``path``."""
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "rng_state": rng_state,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _parse_header(path, raw: bytes) -> dict:
    """The JSON header, checked to be an object with a config object, an
    optional rng-state object and a manifest of ``{name, shape}`` entries."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("config", {}), dict)
            and isinstance(header.get("rng_state", {}), (dict, type(None)))):
        raise CheckpointError(f"{path}: corrupt header: expected a tensor manifest list, "
                              "a config object and an optional rng_state object")
    for i, entry in enumerate(header["tensors"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(f"{path}: corrupt header: manifest entry {i} is not "
                                  "{name: string, shape: [nonnegative integers]}")
    if len({entry["name"] for entry in header["tensors"]}) != len(header["tensors"]):
        raise CheckpointError(f"{path}: corrupt header: duplicate tensor names")
    return header


def read_checkpoint(path) -> CheckpointData:
    """Parse a checkpoint file, validating magic, version, and sizes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: version mismatch (file {version}, supported {FORMAT_VERSION})")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated file (header)")
    header = _parse_header(path, blob[16:16 + header_len])
    offset = 16 + header_len
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        nbytes = math.prod(shape) * 4   # Python ints: a huge manifest shape cannot wrap
        if len(blob) < offset + nbytes:
            raise CheckpointError(f"{path}: truncated file (tensor {entry['name']!r})")
        flat = np.frombuffer(blob[offset:offset + nbytes], dtype="<f4")
        tensors[entry["name"]] = flat.astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return CheckpointData(version, tensors, header.get("config", {}), header.get("rng_state"))


def _read_model(path, kinds: tuple[str, ...], what: str) -> tuple[str, dict, dict]:
    """Read ``path`` as a model file of one of ``kinds`` and check it against
    :data:`LAYOUTS`: the kind, each config field, the tensor set (no tensor
    missing, none unknown) and every tensor's shape.  Returns the kind, the
    config and the tensors."""
    data = read_checkpoint(path)
    cfg, tensors = data.config, data.tensors
    kind = cfg.get("kind")
    if kind not in kinds:
        raise CheckpointError(f"{path}: not {what} (kind={kind!r})")
    label = "agent checkpoint" if kind == "agent" else f"{kind} reward model"
    fields, shapes = LAYOUTS[kind]
    for key, (needs, valid) in fields.items():
        if not valid(cfg.get(key)):
            raise CheckpointError(f"{path}: {label} needs {needs} {key!r}, got {cfg.get(key)!r}")
    for name in shapes:
        if name not in tensors:
            raise CheckpointError(f"{path}: {label} is missing tensor {name!r}")
    for name in tensors:
        if name not in shapes:
            raise CheckpointError(f"{path}: {label} has unknown tensor {name!r}")
    dims = {"users": len(cfg["user_ids"])} if "user_ids" in fields else {}
    if "num_items" in fields:
        dims.update(items=cfg["num_items"], ids=cfg["num_items"] + 1,
                    embed_dim=cfg["embed_dim"], max_seq_len=cfg["max_seq_len"])
    for name, axes in shapes.items():
        shape = tensors[name].shape
        if len(shape) == len(axes):
            for axis, size in zip(axes, shape):
                if isinstance(axis, str):
                    dims.setdefault(axis, size)
        expected = tuple(dims.get(axis, axis) for axis in axes)
        if shape != expected:
            shown = ", ".join(map(str, expected)) + ("," if len(expected) == 1 else "")
            raise CheckpointError(f"{path}: {label} tensor {name!r} has shape {shape}, "
                                  f"expected ({shown})")
    return kind, cfg, tensors


def save_checkpoint(bundle: AgentBundle, path, rng_state: dict | None = None,
                    extra: dict | None = None) -> None:
    """Persist an agent bundle (tensors at 32-bit) with its config snapshot."""
    config = {
        "kind": "agent",
        "num_items": bundle.encoder_config.num_items,
        "embed_dim": bundle.encoder_config.embed_dim,
        "max_seq_len": bundle.encoder_config.max_seq_len,
        "gamma": bundle.gamma,
    }
    if extra:
        config["extra"] = extra
    save_tensors(path, bundle.params.params, config, rng_state)


def load_checkpoint(path) -> AgentBundle:
    """Rebuild an agent bundle from a checkpoint written by :func:`save_checkpoint`."""
    _, cfg, tensors = _read_model(path, ("agent",), "an agent checkpoint")
    try:
        enc = EncoderConfig(cfg["num_items"], cfg["embed_dim"], cfg["max_seq_len"])
        return AgentBundle(ParamSet(tensors), enc, cfg["gamma"])
    except ValueError as exc:  # a size below its minimum, a non-finite tensor, gamma outside [0, 1]
        raise CheckpointError(f"{path}: {exc}") from None


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


def load_reward_model(path):
    """Rebuild a reward model written by :func:`save_reward_model`."""
    kind, cfg, tensors = _read_model(path, _REWARD_MODEL_KINDS, "a reward model")
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
    except ValueError as exc:  # a size below its minimum or a non-finite tensor
        raise CheckpointError(f"{path}: {exc}") from None
