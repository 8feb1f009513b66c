"""Portable binary checkpoints, and the one place that knows the on-disk
layout of an agent file.

Layout: 4-byte magic ``PRFL``, uint32 little-endian format version, uint64
little-endian header length, a UTF-8 JSON header, then the raw tensor data.
The header carries a config snapshot, an optional rng state, and the tensor
manifest (name + shape, in order); tensor data is float32 little-endian,
concatenated in manifest order.  Headers are serialized with sorted keys so
save -> load -> save is byte-identical.  The format version lives in the
binary prefix only; the reader ignores header and config keys it does not
use, so files whose header repeats the version, or whose config carries a
``gamma``, still load.

An ``agent`` file holds the actor-critic bundle, weights plus shape: its
config fields are the sizes, and :data:`AGENT_TENSORS` gives its tensor
shapes in them.  :func:`load_checkpoint` checks a file against both, and
raises one :class:`CheckpointError` naming the path for any file that does
not describe an agent.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .agent import AgentBundle
from .encoder import EncoderConfig
from .nn import ParamSet, flat_layout, flat_views

__all__ = [
    "CheckpointError",
    "CheckpointData",
    "AGENT_TENSORS",
    "save_tensors",
    "read_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"PRFL"
FORMAT_VERSION = 1

# the config fields of an agent file, each an integer size
_AGENT_FIELDS = ("num_items", "embed_dim", "max_seq_len")
# each agent tensor's shape in named dimensions, all fixed by the header:
# ``items`` (num_items), ``ids`` (one more, for the padding id), ``embed_dim``
# and ``max_seq_len``
AGENT_TENSORS = {
    "item_emb": ("ids", "embed_dim"), "pos_emb": ("max_seq_len", "embed_dim"),
    "w_q": ("embed_dim", "embed_dim"), "w_k": ("embed_dim", "embed_dim"),
    "w_v": ("embed_dim", "embed_dim"),
    "actor_w": ("embed_dim", "items"), "actor_b": ("items",),
    "critic_w": ("embed_dim", "items"), "critic_b": ("items",),
}


class CheckpointError(Exception):
    pass


@dataclass
class CheckpointData:
    tensors: dict[str, np.ndarray]   # float64 views of ``flat``, in file order
    config: dict
    rng_state: dict | None
    flat: np.ndarray                 # every tensor's values, widened from float32 once


def save_tensors(path, tensors: dict[str, np.ndarray], config: dict,
                 rng_state: dict | None = None) -> None:
    """Write named tensors plus a JSON config snapshot to ``path``."""
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()]
    header = {"config": config, "rng_state": rng_state, "tensors": manifest}
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
    """Parse a checkpoint file, validating magic, version, and sizes.  The
    tensors are views into ``flat``, laid out by :func:`prefrl.nn.flat_layout`
    as a :class:`~prefrl.nn.ParamSet` lays out its parameters."""
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
    start = 16 + header_len
    layout, size = flat_layout({entry["name"]: tuple(entry["shape"])
                                for entry in header["tensors"]})
    for name, (span, _) in layout.items():   # Python ints: a huge shape cannot wrap
        if len(blob) < start + span.stop * 4:
            raise CheckpointError(f"{path}: truncated file (tensor {name!r})")
    end = start + size * 4
    if end != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - end} trailing bytes")
    # one widening of all the tensor data, which each tensor views
    flat = np.frombuffer(blob, dtype="<f4", count=size, offset=start).astype(np.float64)
    return CheckpointData(flat_views(flat, layout), header.get("config", {}),
                          header.get("rng_state"), flat)


def save_checkpoint(bundle: AgentBundle, path, rng_state: dict | None = None,
                    extra: dict | None = None) -> None:
    """Persist an agent bundle (tensors at 32-bit) with its config snapshot."""
    config = {
        "kind": "agent",
        "num_items": bundle.encoder_config.num_items,
        "embed_dim": bundle.encoder_config.embed_dim,
        "max_seq_len": bundle.encoder_config.max_seq_len,
    }
    if extra:
        config["extra"] = extra
    save_tensors(path, bundle.params.params, config, rng_state)


def load_checkpoint(path) -> AgentBundle:
    """Rebuild an agent bundle from a checkpoint written by
    :func:`save_checkpoint`, checked in this order: the kind, each config
    field, the tensor set (no tensor missing, none unknown) and every tensor's
    shape."""
    data = read_checkpoint(path)
    cfg, tensors = data.config, data.tensors
    if cfg.get("kind") != "agent":
        raise CheckpointError(f"{path}: not an agent checkpoint (kind={cfg.get('kind')!r})")
    for key in _AGENT_FIELDS:
        if type(cfg.get(key)) is not int:
            raise CheckpointError(f"{path}: agent checkpoint needs an integer {key!r}, "
                                  f"got {cfg.get(key)!r}")
    for name in AGENT_TENSORS:
        if name not in tensors:
            raise CheckpointError(f"{path}: agent checkpoint is missing tensor {name!r}")
    for name in tensors:
        if name not in AGENT_TENSORS:
            raise CheckpointError(f"{path}: agent checkpoint has unknown tensor {name!r}")
    dims = {"items": cfg["num_items"], "ids": cfg["num_items"] + 1,
            "embed_dim": cfg["embed_dim"], "max_seq_len": cfg["max_seq_len"]}
    for name, axes in AGENT_TENSORS.items():
        expected = tuple(dims[axis] for axis in axes)
        if tensors[name].shape != expected:
            raise CheckpointError(f"{path}: agent checkpoint tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {expected}")
    try:
        enc = EncoderConfig(cfg["num_items"], cfg["embed_dim"], cfg["max_seq_len"])
        shapes = {name: tensor.shape for name, tensor in tensors.items()}
        return AgentBundle(ParamSet.from_flat(data.flat, shapes), enc)
    except ValueError as exc:  # a size below its minimum, a non-finite tensor
        raise CheckpointError(f"{path}: {exc}") from None
