"""Catalog and interaction-log ingestion, the train/test split, and seeded
synthetic data with known latent preferences.

File formats (UTF-8, comma-separated, header row, commas inside attribute
values escaped by double-quoting):

* catalog:       ``id,<attr1>,<attr2>,...`` with dense ids 0..num_items-1
* interactions:  ``user_id,item_id,timestamp`` with integer timestamps

All randomness comes from caller-supplied seeds; every function here is pure
over immutable inputs.  The synthetic world takes its draws in one call per
purpose (latents, attribute words, noise), in the stream order of a loop
over items and then users, and sorts every user's scores in one call.
"""
from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ItemRecord",
    "ItemCatalog",
    "UserSequence",
    "InteractionLog",
    "SyntheticGroundTruth",
    "load_catalog",
    "write_catalog",
    "load_interactions",
    "write_interactions",
    "split_log",
    "generate_synthetic",
]

log = logging.getLogger(__name__)

_ADJECTIVES = ("amber", "breezy", "cobalt", "dusty", "electric", "faded",
               "golden", "hazy", "ivory", "jade", "lunar", "mellow",
               "neon", "opal", "pale", "quiet", "rustic", "silver",
               "tidal", "velvet")
_NOUNS = ("anthem", "ballad", "chorus", "drift", "echo", "fable", "groove",
          "horizon", "interlude", "jam", "lullaby", "motif", "nocturne",
          "overture", "prelude", "reverie", "serenade", "tune", "verse",
          "waltz")
_STYLES = ("ambient", "blues", "classical", "electronic", "folk", "indie",
           "jazz", "pop", "rock", "soul")


@dataclass(frozen=True)
class ItemRecord:
    id: int
    attributes: tuple[tuple[str, str], ...]

    def attribute(self, name: str) -> str:
        for key, value in self.attributes:
            if key == name:
                return value
        raise KeyError(f"item {self.id} has no attribute {name!r}")


@dataclass(frozen=True)
class ItemCatalog:
    items: tuple[ItemRecord, ...]
    attribute_names: tuple[str, ...]

    @property
    def num_items(self) -> int:
        return len(self.items)

    def __getitem__(self, item_id: int) -> ItemRecord:
        return self.items[item_id]


@dataclass(frozen=True)
class UserSequence:
    user_id: str
    items: tuple[int, ...]
    timestamps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class InteractionLog:
    sequences: tuple[UserSequence, ...]
    num_dropped_short: int = 0

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Latent vectors behind a synthetic world; the test oracle's scorebook."""
    user_latents: np.ndarray
    item_latents: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.user_latents).all() and np.isfinite(self.item_latents).all()):
            raise ValueError("latents must be finite")
        if self.user_latents.shape[1] != self.item_latents.shape[1]:
            raise ValueError("user and item latent dimensions differ")


@contextmanager
def _csv_rows(path, what: str):
    """Open a world CSV file and hand out its header and its data rows, one
    at a time, each with its 1-based line number.  A missing file or one
    without a header row is refused, naming ``what`` the file holds."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty {what} file") from None
        yield header, enumerate(reader, start=2)


def load_catalog(path) -> ItemCatalog:
    """Read an item catalog, enforcing dense ids and nonempty attributes.

    Errors carry the 1-based line number of the offending row.
    """
    with _csv_rows(path, "catalog") as (header, numbered_rows):
        if len(header) < 2 or header[0] != "id":
            raise ValueError(f"{path}: line 1: header must be 'id,<attr1>,...'")
        attribute_names = tuple(header[1:])
        rows: dict[int, ItemRecord] = {}
        for line_no, row in numbered_rows:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                item_id = int(row[0])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: malformed id {row[0]!r}") from None
            if item_id in rows:
                raise ValueError(f"{path}: line {line_no}: duplicate id {item_id}")
            values = tuple(row[1:])
            if all(v.strip() == "" for v in values):
                raise ValueError(f"{path}: line {line_no}: item {item_id} has no nonempty attribute")
            rows[item_id] = ItemRecord(item_id, tuple(zip(attribute_names, values)))
    if len(rows) < 2:
        raise ValueError(f"{path}: catalog needs at least 2 items")
    for expected in range(len(rows)):
        if expected not in rows:
            raise ValueError(f"{path}: id gap at {expected}")
    items = tuple(rows[i] for i in range(len(rows)))
    return ItemCatalog(items, attribute_names)


def write_catalog(catalog: ItemCatalog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id",) + catalog.attribute_names)
        for item in catalog.items:
            writer.writerow((item.id,) + tuple(v for _, v in item.attributes))


def load_interactions(path, catalog: ItemCatalog) -> InteractionLog:
    """Read interaction rows, group them per user ordered by timestamp, and
    drop sequences shorter than 2 (count reported on the returned log)."""
    per_user: dict[str, list[tuple[int, int]]] = {}
    with _csv_rows(path, "interactions") as (header, numbered_rows):
        if [h.strip() for h in header[:3]] != ["user_id", "item_id", "timestamp"]:
            raise ValueError(f"{path}: line 1: header must be 'user_id,item_id,timestamp'")
        for line_no, row in numbered_rows:
            if len(row) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 fields, got {len(row)}")
            user_id = row[0]
            try:
                item_id = int(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: malformed item id {row[1]!r}") from None
            if not 0 <= item_id < catalog.num_items:
                raise ValueError(f"{path}: line {line_no}: unknown item id {item_id}")
            try:
                timestamp = int(row[2])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: unparseable timestamp {row[2]!r}") from None
            per_user.setdefault(user_id, []).append((timestamp, item_id))
    sequences = []
    dropped = 0
    for user_id, events in per_user.items():
        events.sort(key=lambda e: e[0])  # stable: ties keep file order
        if len(events) < 2:
            dropped += 1
            continue
        sequences.append(UserSequence(
            user_id,
            tuple(item for _, item in events),
            tuple(ts for ts, _ in events),
        ))
    if dropped:
        log.warning("%s: dropped %d sequence(s) shorter than 2", path, dropped)
    return InteractionLog(tuple(sequences), num_dropped_short=dropped)


def write_interactions(log_: InteractionLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("user_id", "item_id", "timestamp"))
        for seq in log_.sequences:
            for item, ts in zip(seq.items, seq.timestamps):
                writer.writerow((seq.user_id, item, ts))


def split_log(log_: InteractionLog, train_fraction: float, seed: int) -> tuple[InteractionLog, InteractionLog]:
    """Partition user sequences by a seeded shuffle.

    The train side receives floor(train_fraction * n) sequences; both sides
    keep the input's relative order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = log_.num_sequences
    if n == 0:
        raise ValueError("cannot split an empty log")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(math.floor(train_fraction * n))
    train_idx = sorted(perm[:n_train])
    test_idx = sorted(perm[n_train:])
    train = tuple(log_.sequences[i] for i in train_idx)
    test = tuple(log_.sequences[i] for i in test_idx)
    return InteractionLog(train), InteractionLog(test)


def generate_synthetic(num_users: int, num_items: int, seq_len: int, d_lat: int,
                       seed: int, noise_scale: float = 0.05
                       ) -> tuple[ItemCatalog, InteractionLog, SyntheticGroundTruth]:
    """Seeded synthetic world with known latent preferences.

    Latents are i.i.d. standard normal.  Each user's sequence is built
    greedily: items ordered by descending dot(user latent, item latent) plus
    ``noise_scale`` times standard normal noise, so with noise_scale=0 the
    sequence is exactly the user's top-``seq_len`` items.

    One generator draws, one call each: the user latents, the item latents,
    every item's adjective, noun and style (one bounded draw per word, as
    ``rng.choice`` of a tuple takes it) and every user's noise row.  Each
    user's scores are their own matrix-vector product (a stacked ``matmul``;
    one matrix product would round differently), ordered by a stable sort.
    """
    if min(num_users, num_items, seq_len, d_lat) < 2:
        raise ValueError("num_users, num_items, seq_len and d_lat must all be >= 2")
    if seq_len > num_items:
        raise ValueError("seq_len cannot exceed num_items")
    if not (math.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"[data] noise_scale must be finite and >= 0, got {noise_scale!r}")
    rng = np.random.default_rng(seed)
    user_latents = rng.standard_normal((num_users, d_lat))
    item_latents = rng.standard_normal((num_items, d_lat))
    words = rng.integers(0, np.tile([len(_ADJECTIVES), len(_NOUNS), len(_STYLES)], num_items))
    catalog = ItemCatalog(
        tuple(ItemRecord(i, (("title", f"{_ADJECTIVES[a]} {_NOUNS[n]} {i:03d}"),
                             ("style", _STYLES[s])))
              for i, (a, n, s) in enumerate(words.reshape(num_items, 3).tolist())),
        ("title", "style"),
    )
    scores = (item_latents @ user_latents[:, :, None])[..., 0]
    if noise_scale > 0.0:
        scores = scores + noise_scale * rng.standard_normal((num_users, num_items))
    orders = np.argsort(-scores, axis=1, kind="stable")[:, :seq_len].tolist()
    timestamps = tuple(range(seq_len))
    sequences = tuple(UserSequence(f"u{u}", tuple(order), timestamps)
                      for u, order in enumerate(orders))
    truth = SyntheticGroundTruth(user_latents, item_latents)
    return catalog, InteractionLog(sequences), truth
