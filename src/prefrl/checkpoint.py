"""Portable binary checkpoints.

Layout: 4-byte magic ``PRFL``, uint32 little-endian format version, uint64
little-endian header length, a UTF-8 JSON header, then the raw tensor data.
The header carries a config snapshot, an optional rng state, and the tensor
manifest (name + shape, in order); tensor data is float32 little-endian,
concatenated in manifest order.  Headers are serialized with sorted keys so
save -> load -> save is byte-identical.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .agent import AgentBundle
from .encoder import EncoderConfig
from .nn import ParamSet

__all__ = [
    "CheckpointError",
    "CheckpointData",
    "save_tensors",
    "read_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"PRFL"
FORMAT_VERSION = 1


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
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if len(blob) < offset + nbytes:
            raise CheckpointError(f"{path}: truncated file (tensor {entry['name']!r})")
        flat = np.frombuffer(blob[offset:offset + nbytes], dtype="<f4")
        if flat.size != count:
            raise CheckpointError(f"{path}: shape mismatch for tensor {entry['name']!r}")
        tensors[entry["name"]] = flat.astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return CheckpointData(version, tensors, header.get("config", {}), header.get("rng_state"))


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
    data = read_checkpoint(path)
    cfg = data.config
    if cfg.get("kind") != "agent":
        raise CheckpointError(f"{path}: not an agent checkpoint (kind={cfg.get('kind')!r})")
    sizes = [cfg.get(key) for key in ("num_items", "embed_dim", "max_seq_len")]
    gamma = cfg.get("gamma")
    if not (all(type(n) is int for n in sizes) and type(gamma) in (int, float)):
        raise CheckpointError(f"{path}: agent config needs integer num_items, embed_dim "
                              "and max_seq_len and a numeric gamma")
    try:
        enc = EncoderConfig(*sizes)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    expected = {
        "item_emb": (enc.num_items + 1, enc.embed_dim),
        "pos_emb": (enc.max_seq_len, enc.embed_dim),
        "w_q": (enc.embed_dim, enc.embed_dim),
        "w_k": (enc.embed_dim, enc.embed_dim),
        "w_v": (enc.embed_dim, enc.embed_dim),
        "actor_w": (enc.embed_dim, enc.num_items),
        "actor_b": (enc.num_items,),
        "critic_w": (enc.embed_dim, enc.num_items),
        "critic_b": (enc.num_items,),
    }
    for name, shape in expected.items():
        if name not in data.tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if data.tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: file {data.tensors[name].shape}, expected {shape}")
    try:
        return AgentBundle(ParamSet(data.tensors), enc, gamma)
    except ValueError as exc:  # non-finite tensor or gamma outside [0, 1]
        raise CheckpointError(f"{path}: {exc}") from None
