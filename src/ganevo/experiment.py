"""Run configuration, dataset ingestion, persistence, the run driver and
the CLI.

Config files and metrics are line-oriented key=value text so runs diff
cleanly.  A checkpoint is one file, a line of JSON state followed by every
parameter store's rows as raw little-endian float32, and restores
bit-exactly.  Generator samples dump as binary P5 graymaps for image data or
as coordinate text for the 2-d toy dataset.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np

from .backend import NetworkInstance, ParamStore
from .coevolution import (
    PAIRING_STRATEGIES,
    POPULATIONS,
    RNG_STREAMS,
    EvolutionState,
    Individual,
    MetricsRecord,
    best_generator_network,
    run_generation,
)
from .fitness import EMBEDDINGS
from .gan import NoiseSource, generate_samples
from .genome import (DISCRIMINATOR, GENERATOR, Gene, Genome, InnovationCounter,
                     new_minimal_genome, validate)
from .variation import MIN_THRESHOLD

DATASETS = ("mnist", "fashion-mnist", "ring2d")

IDX_IMAGES_MAGIC = 0x00000803

# ring2d points are divided by this multiple of the radius before training so
# real samples fit the generator's tanh output range
RING_SCALE_MARGIN = 1.1

CHECKPOINT_VERSION = 7

# glibc's mallopt parameters, and the bytes both are raised to: freed blocks
# below this size stay in the process and large ones are served from the heap
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
KEEP_HEAP_BYTES = 1 << 30

# The JSON shape of the document that heads state.bin: a type, or a
# tuple of types, for a value; an object of exactly these keys; or a list
# whose every item has the one shape given.
_INDIVIDUAL_SHAPE = {
    "id": int, "gene_reuse": dict, "params": (list, type(None)),
    "genome": {"role": str, "max_len": int, "genes": [
        {"innovation_id": int, "kind": str, "units": int, "activation": str}]},
}
_STATE_SHAPE = {
    "version": int, "config": dict, "generation": int, "next_innovation_id": int,
    "prev_best": {role: (int, type(None)) for role in POPULATIONS},
    "speciation": {role: float for role in POPULATIONS},
    "rng": {name: dict for name in RNG_STREAMS}, "data": dict,
    "populations": {name: [_INDIVIDUAL_SHAPE] for name in POPULATIONS.values()},
}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


class CheckpointError(ValueError):
    """Unsupported or malformed checkpoint; the message names the file."""


class IdxFormatError(ValueError):
    """Malformed IDX file; the message carries the byte offset."""


class MetricsError(ValueError):
    """Malformed metrics stream; the message names the file and line."""


@dataclass(frozen=True)
class RunConfig:
    """Every run parameter, checked by validate_config whenever one is built."""

    generations: int = 50
    generator_population: int = 10
    discriminator_population: int = 10
    add_layer_rate: float = 0.20
    remove_layer_rate: float = 0.10
    change_layer_rate: float = 0.10
    feature_range: tuple[int, int] = (32, 1024)
    channel_range: tuple[int, int] = (16, 128)
    tournament_k: int = 2
    fid_samples: int = 1000
    rmse_samples: int = 1000
    genome_limit: int = 6
    species_target: int = 3
    batch_size: int = 64
    batches_per_pair: int = 20
    learning_rate: float = 0.001
    dataset: str = "ring2d"
    data_dir: str = "data"
    pairing: str = "all"
    noise_dim: int = 100
    embedding: str = "identity"
    seed: int = 0
    out_dir: str = "ganevo_out"
    ring_modes: int = 8
    ring_radius: float = 2.0
    ring_sigma: float = 0.05

    def __post_init__(self):
        # an int is accepted where a float is expected
        for key, default in _DEFAULTS.items():
            value = getattr(self, key)
            if isinstance(default, float) and type(value) is int:
                try:
                    object.__setattr__(self, key, float(value))
                except OverflowError:
                    raise ConfigError(f"{key}: {value} is not finite") from None
        validate_config(self)


# every key's parser and validation follow the type of its default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    default = _DEFAULTS[key]
    if isinstance(default, tuple):
        parts = raw.split(",")
        if len(parts) != len(default):
            raise ValueError(f"expected {len(default)} comma-separated values")
        return tuple(type(d)(p.strip()) for d, p in zip(default, parts))
    return type(default)(raw)


_POSITIVE_COUNTS = (
    "generator_population", "discriminator_population", "tournament_k",
    "rmse_samples", "genome_limit", "species_target",
    "batch_size", "batches_per_pair", "noise_dim", "ring_modes",
)
_RATES = ("add_layer_rate", "remove_layer_rate", "change_layer_rate")


def validate_config(config: RunConfig) -> None:
    for key, default in _DEFAULTS.items():
        value = getattr(config, key)
        if isinstance(default, tuple):
            expected = f"{len(default)} ints"
            ok = (type(value) is tuple and len(value) == len(default)
                  and all(type(v) is int for v in value))
        else:
            expected = type(default).__name__
            ok = type(value) is type(default)
        if not ok:
            raise ConfigError(f"{key}: {value!r} is not {expected}")
        if isinstance(default, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: {value} is not finite")
    if config.generations < 0:
        raise ConfigError(f"generations: {config.generations} must be >= 0")
    for key in _POSITIVE_COUNTS:
        value = getattr(config, key)
        if value < 1:
            raise ConfigError(f"{key}: {value} must be >= 1")
    if config.fid_samples < 2:  # a covariance needs two samples
        raise ConfigError(f"fid_samples: {config.fid_samples} must be >= 2")
    for key in _RATES:
        value = getattr(config, key)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{key}: {value} outside [0, 1]")
    for key in ("feature_range", "channel_range"):
        lo, hi = getattr(config, key)
        if not 1 <= lo <= hi:
            raise ConfigError(f"{key}: ({lo}, {hi}) must satisfy 1 <= lo <= hi")
    if config.learning_rate < 0:
        raise ConfigError(f"learning_rate: {config.learning_rate} must be >= 0")
    if config.dataset not in DATASETS:
        raise ConfigError(f"dataset: {config.dataset!r} not one of {DATASETS}")
    if config.pairing not in PAIRING_STRATEGIES:
        raise ConfigError(f"pairing: {config.pairing!r} not one of {PAIRING_STRATEGIES}")
    if config.embedding not in EMBEDDINGS:
        raise ConfigError(f"embedding: {config.embedding!r} not one of {tuple(EMBEDDINGS)}")
    if config.ring_radius <= 0:
        raise ConfigError(f"ring_radius: {config.ring_radius} must be > 0")
    if config.ring_sigma < 0:
        raise ConfigError(f"ring_sigma: {config.ring_sigma} must be >= 0")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overridden by a key=value file, in which each key may appear
    once, overridden by `overrides`: flags, or a record such as
    dataclasses.asdict after a JSON round trip (lists become tuples)."""
    values: dict = {}
    set_on: dict = {}  # key -> the file line that set it
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown key {key!r}")
            if key in set_on:
                raise ConfigError(f"{path}:{line_no}: {key} already set on line {set_on[key]}")
            set_on[key] = line_no
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None
    for key, value in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**values)


def save_config(config: RunConfig, path: str) -> None:
    lines = []
    for key, value in dataclasses.asdict(config).items():
        if isinstance(value, tuple):
            shown = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            shown = repr(value)
        else:
            shown = str(value)
        lines.append(f"{key} = {shown}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- datasets ---------------------------------------------------------------

def _read_be_u32(data: bytes, offset: int, path: str) -> int:
    if len(data) < offset + 4:
        raise IdxFormatError(f"{path}: truncated at byte offset {len(data)}")
    return int.from_bytes(data[offset:offset + 4], "big")


def _parse_idx(path: str) -> np.ndarray:
    """An IDX image file's pixels as a (count, 1, rows, cols) uint8 array: a
    read-only view of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = _read_be_u32(data, 0, path)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    count = _read_be_u32(data, 4, path)
    rows = _read_be_u32(data, 8, path)
    cols = _read_be_u32(data, 12, path)
    for offset, value in ((4, count), (8, rows), (12, cols)):
        if value == 0:
            raise IdxFormatError(f"{path}: zero dimension at byte offset {offset}")
    header = 16
    expected = header + count * rows * cols
    if len(data) < expected:
        raise IdxFormatError(
            f"{path}: truncated at byte offset {len(data)}, expected {expected} bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols, offset=header)
    return pixels.reshape(count, 1, rows, cols)


class IdxSource:
    """Cycling sample source over an IDX image file, reshuffled per epoch.

    Pixels rescale to [-1, 1] via x / 127.5 - 1.
    """

    def __init__(self, images: np.ndarray, rng):
        self._images = images
        self.rng = rng
        self.scale = 1.0
        self._epoch_state = rng.bit_generator.state
        self._perm = rng.permutation(len(images))
        self._cursor = 0

    @property
    def data_shape(self) -> tuple[int, int, int]:
        return tuple(self._images.shape[1:])

    def __len__(self) -> int:
        return len(self._images)

    def next_batch(self, n: int) -> np.ndarray:
        idx = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            take = min(n - filled, len(self._perm) - self._cursor)
            idx[filled:filled + take] = self._perm[self._cursor:self._cursor + take]
            self._cursor += take
            filled += take
            if self._cursor == len(self._perm):
                self._epoch_state = self.rng.bit_generator.state
                self._perm = self.rng.permutation(len(self._images))
                self._cursor = 0
        return self._images[idx].astype(np.float32) / 127.5 - 1.0

    def state(self) -> dict:
        """Where the stream stands: the rng state its epoch's permutation was
        drawn at, and the cursor into that permutation."""
        return {"kind": "idx", "rng": self._epoch_state, "cursor": int(self._cursor)}

    def restore(self, state: dict) -> None:
        cursor = state.get("cursor")
        if state.get("kind") != "idx" or type(cursor) is not int or not 0 <= cursor <= len(self):
            raise ValueError(f"not an idx data record over {len(self)} images")
        self.rng.bit_generator.state = state["rng"]
        self._epoch_state = self.rng.bit_generator.state
        self._perm = self.rng.permutation(len(self._images))
        self._cursor = cursor


def load_idx_dataset(images_path: str, rng) -> IdxSource:
    """Parse an IDX image file bit-exactly into a cycling sample source."""
    return IdxSource(_parse_idx(images_path), rng)


def ring_mode_centers(modes: int, radius: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(modes) / modes
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


class Ring2dSource:
    """Mixture of isotropic Gaussians centered evenly on a circle.

    Yields coordinates divided by `scale`, shaped (n, 1, 1, 2).
    """

    def __init__(self, modes: int, radius: float, noise_sigma: float, rng,
                 scale: float = 1.0):
        self.modes = modes
        self.noise_sigma = noise_sigma
        self.rng = rng
        self.scale = float(scale)
        self.centers = ring_mode_centers(modes, radius)

    @property
    def data_shape(self) -> tuple[int, int, int]:
        return (1, 1, 2)

    def next_batch(self, n: int) -> np.ndarray:
        which = self.rng.integers(self.modes, size=n)
        points = self.centers[which] + self.noise_sigma * self.rng.standard_normal((n, 2))
        return points.reshape(n, 1, 1, 2).astype(np.float32) / np.float32(self.scale)

    def state(self) -> dict:
        """Nothing beyond its rng, which is saved with the run's streams."""
        return {"kind": "ring2d"}

    def restore(self, state: dict) -> None:
        if state != self.state():
            raise ValueError("not a ring2d data record")


def make_data_source(config: RunConfig, rng):
    if config.dataset == "ring2d":
        return Ring2dSource(config.ring_modes, config.ring_radius, config.ring_sigma, rng,
                            scale=RING_SCALE_MARGIN * config.ring_radius)
    images = os.path.join(config.data_dir, config.dataset, "train-images-idx3-ubyte")
    return load_idx_dataset(images, rng=rng)


def mode_coverage(fake_samples: np.ndarray, mode_centers: np.ndarray,
                  capture_radius: float) -> int:
    """Modes with at least 1% of the fake samples within capture_radius."""
    centers = np.asarray(mode_centers, dtype=np.float64)
    if centers.size == 0:
        raise ValueError("mode_centers must be non-empty")
    fake = np.asarray(fake_samples, dtype=np.float64).reshape(-1, centers.shape[1])
    if fake.shape[0] == 0:
        return 0
    covered = 0
    for center in centers:
        dist = np.linalg.norm(fake - center, axis=1)
        if np.mean(dist <= capture_radius) >= 0.01:
            covered += 1
    return covered


# -- metrics ----------------------------------------------------------------

def metrics_path(out_dir: str) -> str:
    return os.path.join(out_dir, "metrics.txt")


def timings_path(out_dir: str) -> str:
    return os.path.join(out_dir, "timings.txt")


def append_metrics(out_dir: str, record: MetricsRecord, seconds: float) -> None:
    """Append the record's line to metrics.txt and its generation's wall
    seconds to timings.txt."""
    with open(metrics_path(out_dir), "a", encoding="utf-8") as fh:
        fh.write(record.to_line() + "\n")
    with open(timings_path(out_dir), "a", encoding="utf-8") as fh:
        fh.write(f"generation={record.generation} wall_seconds={seconds!r}\n")


def _truncate_stream(path: str, generation: int) -> None:
    """Drop a per-generation stream's lines from `generation` on: a line is
    appended before its generation's checkpoint is written."""
    if not os.path.exists(path):
        return
    keep = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):  # torn by a kill mid-append
                break
            try:
                line_generation = int(line.split(b"generation=")[1].split()[0])
            except (IndexError, ValueError):
                raise CheckpointError(
                    f"{path}: no generation in the line at byte offset {keep}") from None
            if line_generation >= generation:
                break
            keep += len(line)
    os.truncate(path, keep)


def read_metrics(out_dir: str) -> list[MetricsRecord]:
    """The records of a metrics stream; a last line with no newline was torn
    by a kill mid-append and is skipped, as resume drops it.  A malformed line
    raises MetricsError naming the file and line number."""
    with open(metrics_path(out_dir), "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    records = []
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(MetricsRecord.from_line(line))
            except ValueError as exc:
                raise MetricsError(f"{metrics_path(out_dir)}:{line_no}: {exc}") from None
    return records


# -- checkpoints -------------------------------------------------------------

def _individual_to_record(ind: Individual) -> dict:
    """The individual's JSON record; `params` lays out its store's rows as one
    [gene id, weight shape, bias shape, Adam step] record per entry."""
    layout = None
    if ind.param_store is not None:
        layout = [[gene_id, list(w), list(b), entry.step]
                  for (gene_id, (w, b)), entry in ind.param_store.entries.items()]
    return {"id": ind.id, "genome": dataclasses.asdict(ind.genome),
            "gene_reuse": {str(k): v for k, v in ind.gene_reuse.items()},
            "params": layout}


def _store_from_layout(layout: list | None, rows: memoryview, offset: int,
                       where: str) -> tuple[ParamStore | None, int]:
    """The store a `params` layout describes, its rows read from `rows` at
    `offset`; returns it and the offset where its rows end."""
    if layout is None:
        return None, offset
    for item in layout:
        # [gene id, shape, shape, step], all ints, dimensions > 0 and step >= 0
        if not (isinstance(item, list) and len(item) == 4
                and all(isinstance(shape, list) for shape in item[1:3])
                and all(type(n) is int for n in [item[0], item[3], *item[1], *item[2]])
                and min(item[1] + item[2] + [1]) > 0 and item[3] >= 0):
            raise CheckpointError(f"{where}: malformed layout record {item!r}")
    keys = [ParamStore.key(*item[:3]) for item in layout]
    size = sum(math.prod(w) + math.prod(b) for _, (w, b) in keys)
    if len(set(keys)) < len(keys) or offset + 12 * size > len(rows):
        raise CheckpointError(f"{where}: {len(rows)} bytes of rows do not hold the "
                              f"layout at offset {offset}")
    store = ParamStore(keys)
    store.data[:3] = np.frombuffer(rows, "<f4", 3 * size, offset).reshape(3, size)
    for entry, item in zip(store.entries.values(), layout):
        entry.step = item[3]
    return store, offset + 12 * size


def _conform(value, shape, state_file: str, path: str = "") -> None:
    """Raise CheckpointError naming `path` where `value` does not have
    `shape`, as _STATE_SHAPE gives it.  type(), not isinstance: JSON true is
    not a number here."""
    kinds = dict if isinstance(shape, dict) else list if isinstance(shape, list) else shape
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds:
        raise CheckpointError(f"{state_file}: {path!r} is a JSON {type(value).__name__}, "
                              f"expected {' or '.join(kind.__name__ for kind in kinds)}")
    if isinstance(shape, dict):
        if value.keys() != shape.keys():
            raise CheckpointError(f"{state_file}: {path or 'the document'} has keys "
                                  f"{sorted(value)}, expected {sorted(shape)}")
        for key, inner in shape.items():
            _conform(value[key], inner, state_file, f"{path}.{key}" if path else key)
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            _conform(item, shape[0], state_file, f"{path}[{i}]")


def checkpoint_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "checkpoint")


def write_checkpoint(state: EvolutionState, config: RunConfig,
                     out_dir: str) -> str:
    """Persist everything needed to resume bit-exactly in one file,
    out_dir/checkpoint/state.bin: the JSON document on one line, then rows
    0-2 of every individual's store, in population order, as little-endian
    float32.  The file is written beside the old one and moved over it, so a
    kill at any step leaves a whole checkpoint.  The run directory itself is
    not recorded: read_checkpoint takes it to be the one that holds the
    checkpoint."""
    ckpt = checkpoint_dir(out_dir)
    os.makedirs(ckpt, exist_ok=True)
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k != "out_dir"},
        "generation": state.generation,
        "next_innovation_id": state.innovations.next,
        "prev_best": state.prev_best,
        "speciation": state.threshold,
        "rng": {name: stream.bit_generator.state for name, stream in state.rng.items()},
        "data": state.data_source.state(),
        "populations": {name: [_individual_to_record(ind) for ind in getattr(state, name)]
                        for name in POPULATIONS.values()},
    }
    stores = [ind.param_store for name in POPULATIONS.values()
              for ind in getattr(state, name) if ind.param_store is not None]
    state_file = os.path.join(ckpt, "state.bin")
    with open(state_file + ".tmp", "wb") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
        for store in stores:
            fh.write(store.data[:3].astype("<f4", copy=False))
    os.replace(state_file + ".tmp", state_file)
    return ckpt


def read_checkpoint(ckpt: str) -> tuple[EvolutionState, RunConfig]:
    """Inverse of write_checkpoint: the state init_state builds from the
    saved config, with every saved value restored into it.  The config's
    out_dir is the directory that holds `ckpt`.

    Raises CheckpointError, naming state.bin, on a first line that is not a
    JSON object, is of another version, breaks the format anywhere or holds
    a value the program never writes (a negative generation or innovation
    id, a speciation threshold below MIN_THRESHOLD), or on rows that do not
    match the layouts; a bad config record raises ConfigError."""
    state_file = os.path.join(ckpt, "state.bin")
    with open(state_file, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n")
    if end < 0:
        raise CheckpointError(f"{state_file}: not a JSON document (no line break ends it)")
    try:
        doc = json.loads(raw[:end])
    except (ValueError, RecursionError) as exc:  # nested too deep for the parser
        raise CheckpointError(f"{state_file}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{state_file}: a JSON {type(doc).__name__}, not an object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{state_file}: unsupported checkpoint version "
                              f"{doc.get('version')!r}, expected {CHECKPOINT_VERSION}")
    _conform(doc, _STATE_SHAPE, state_file)
    if "out_dir" in doc["config"]:
        raise CheckpointError(f"{state_file}: 'config' records an out_dir; "
                              "a run lives in the directory that holds its checkpoint")
    if doc["generation"] < 0:
        raise CheckpointError(f"{state_file}: generation {doc['generation']} is negative")
    config = load_config(overrides=dict(
        doc["config"], out_dir=os.path.normpath(os.path.join(ckpt, os.pardir))))
    rows = memoryview(raw)[end + 1:]

    state = init_state(config)
    offset = 0
    for role, name in POPULATIONS.items():
        individuals = []
        for record in doc["populations"][name]:
            where = f"{state_file}: {name} id {record['id']}"
            genes = tuple(Gene(**gene) for gene in record["genome"]["genes"])
            genome = Genome(**dict(record["genome"], genes=genes))
            problems = validate(genome)
            if genome.role != role:
                problems.append(f"a {genome.role!r} genome")
            reuse = record["gene_reuse"]
            if not all(key.isdecimal() and type(count) is int for key, count in reuse.items()):
                problems.append(f"gene_reuse {reuse!r}")
            if problems:
                raise CheckpointError(f"{where}: {'; '.join(problems)}")
            store, offset = _store_from_layout(record["params"], rows, offset, where)
            individuals.append(Individual(
                id=record["id"], genome=genome, param_store=store,
                gene_reuse={int(key): count for key, count in reuse.items()}))
        if len(individuals) != len(getattr(state, name)):
            raise CheckpointError(f"{state_file}: {len(individuals)} {name}, the config "
                                  f"has {len(getattr(state, name))}")
        setattr(state, name, individuals)
        best = doc["prev_best"][role]
        if best is not None and best not in [ind.id for ind in individuals]:
            raise CheckpointError(f"{state_file}: prev_best {role} {best} is not among the {name}")
        threshold = doc["speciation"][role]
        if not MIN_THRESHOLD <= threshold < math.inf:  # speciate never returns less
            raise CheckpointError(f"{state_file}: speciation {role} {threshold} outside "
                                  f"[{MIN_THRESHOLD}, inf)")
    ids = [ind.id for ind in state.generators + state.discriminators]
    if len(set(ids)) < len(ids):
        raise CheckpointError(f"{state_file}: individual ids {ids} repeat")
    if offset != len(rows):
        raise CheckpointError(f"{state_file}: {len(rows)} bytes of rows, the layouts "
                              f"hold {offset}")
    state.generation = doc["generation"]
    state.innovations.next = doc["next_innovation_id"]
    state.prev_best = doc["prev_best"]
    state.threshold = doc["speciation"]
    try:
        for name, stream in state.rng.items():
            stream.bit_generator.state = doc["rng"][name]
        # after the streams: an IDX source redraws its epoch from the data stream
        state.data_source.restore(doc["data"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{state_file}: malformed rng or data record ({exc!r})") from None
    return state, config


# -- sample dumping -----------------------------------------------------------

def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary P5 graymap; input values in [-1, 1] map onto [0, 255]."""
    h, w = image.shape
    levels = np.clip(np.rint((np.asarray(image, dtype=np.float64) + 1.0) * 127.5),
                     0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def dump_samples(network: NetworkInstance, n: int, out_dir: str, noise: NoiseSource,
                 fmt: str = "pgm", scale: float = 1.0) -> list[str]:
    """Write n generator samples: one P5 file each for images, or a single
    coordinate text file for 2-d points (multiplied back by `scale`)."""
    os.makedirs(out_dir, exist_ok=True)
    samples = generate_samples(network, noise, n)
    written = []
    if fmt == "pgm":
        for i, sample in enumerate(samples):
            path = os.path.join(out_dir, f"sample_{i:03d}.pgm")
            write_pgm(path, sample[0])
            written.append(path)
    elif fmt == "xy":
        path = os.path.join(out_dir, "samples.txt")
        points = samples.reshape(len(samples), -1) * scale
        with open(path, "w", encoding="utf-8") as fh:
            for point in points:
                fh.write(" ".join(repr(float(v)) for v in point) + "\n")
        written.append(path)
    else:
        raise ValueError(f"unknown sample format {fmt!r}")
    return written


def prepare_run_dir(config: RunConfig) -> None:
    """Empty the metrics streams and remove the checkpoint, samples and plot
    files of any run the directory held before."""
    os.makedirs(config.out_dir, exist_ok=True)
    open(metrics_path(config.out_dir), "w").close()
    open(timings_path(config.out_dir), "w").close()
    for sub in ("checkpoint", "samples", "plot"):
        if os.path.isdir(os.path.join(config.out_dir, sub)):
            shutil.rmtree(os.path.join(config.out_dir, sub))


def dump_final_samples(state: EvolutionState, config: RunConfig,
                       n: int = 16) -> None:
    """Samples of the last finished generation's best generator; none
    before the first generation."""
    best = best_generator_network(state, config)
    if best is None:
        return
    fmt = "xy" if config.dataset == "ring2d" else "pgm"
    dump_samples(best, n, os.path.join(config.out_dir, "samples"),
                 noise=NoiseSource(config.noise_dim, np.random.default_rng(config.seed)),
                 fmt=fmt, scale=state.data_source.scale)


# -- runs -------------------------------------------------------------------------

def keep_freed_heap() -> bool:
    """Have the C allocator keep freed memory in the process.

    Sets glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to KEEP_HEAP_BYTES
    through `mallopt`, so an array of up to that size comes from the heap and
    its pages stay mapped once freed: the next batch reuses them instead of
    mapping and faulting in fresh ones.  No value changes, only where memory
    comes from.  Returns whether the allocator took both settings: False
    where the C library has no `mallopt` (it is glibc's) or refuses one.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, KEEP_HEAP_BYTES) == 1
               for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD))


def init_state(config: RunConfig) -> EvolutionState:
    """Fresh populations of minimal genomes plus the derived rng streams."""
    children = np.random.SeedSequence(config.seed).spawn(len(RNG_STREAMS))
    rng = {name: np.random.Generator(np.random.PCG64(seq))
           for name, seq in zip(RNG_STREAMS, children)}
    innovations = InnovationCounter()
    roles = ([GENERATOR] * config.generator_population
             + [DISCRIMINATOR] * config.discriminator_population)
    population = [
        Individual(id=i, genome=new_minimal_genome(role, rng["init"], innovations, config))
        for i, role in enumerate(roles)
    ]
    return EvolutionState(
        generation=0,
        generators=population[:config.generator_population],
        discriminators=population[config.generator_population:],
        innovations=innovations,
        rng=rng,
        data_source=make_data_source(config, rng["data"]),
    )


def run_evolution(config: RunConfig) -> tuple[list[MetricsRecord], EvolutionState]:
    """Full run from fresh minimal populations: an emptied run directory and
    init_state's generation-0 checkpoint, which resume_evolution runs."""
    prepare_run_dir(config)
    return resume_evolution(write_checkpoint(init_state(config), config, config.out_dir))


def resume_evolution(checkpoint_dir: str, generations: int | None = None,
                     out_dir: str | None = None) -> tuple[list[MetricsRecord], EvolutionState]:
    """Run a checkpointed run on to config.generations; the only generation
    loop.

    The run continues in the directory that holds the checkpoint unless
    `out_dir` forks it into another directory, which it first empties as a
    fresh run does.  The config it runs, after the `generations` and
    `out_dir` overrides, goes to config.txt, and the metrics and timings
    streams lose any lines past the checkpoint.  Every
    generation then appends its metrics and timings lines and replaces the
    checkpoint file, so a failed run keeps its history and a kill at any
    instant leaves a checkpoint that resumes.  The final samples follow
    from the last checkpoint and are written after it: a kill while they are
    written leaves a finished run, whose resume rewrites them.

    It first calls `keep_freed_heap`, so the process keeps the memory its
    batches free and its resident size stays near its peak; off glibc that
    call does nothing.
    """
    keep_freed_heap()
    state, config = read_checkpoint(checkpoint_dir)
    if generations is not None:
        config = dataclasses.replace(config, generations=generations)
    if out_dir is not None:
        config = dataclasses.replace(config, out_dir=out_dir)
    os.makedirs(config.out_dir, exist_ok=True)
    if not os.path.samefile(os.path.join(checkpoint_dir, os.pardir), config.out_dir):
        prepare_run_dir(config)
    save_config(config, os.path.join(config.out_dir, "config.txt"))
    for path in (metrics_path(config.out_dir), timings_path(config.out_dir)):
        _truncate_stream(path, state.generation)
    history = []
    while state.generation < config.generations:
        start = time.perf_counter()
        state, record = run_generation(state, config)
        append_metrics(config.out_dir, record, time.perf_counter() - start)
        write_checkpoint(state, config, config.out_dir)
        history.append(record)
    dump_final_samples(state, config)
    return history, state


# -- plot-data export ----------------------------------------------------------

def export_plot_data(run_dir: str) -> list[str]:
    """Per-metric two-column files (generation value) under run_dir/plot."""
    records = read_metrics(run_dir)
    plot_dir = os.path.join(run_dir, "plot")
    os.makedirs(plot_dir, exist_ok=True)
    written = []
    for f in dataclasses.fields(MetricsRecord):
        if f.name == "generation":
            continue
        path = os.path.join(plot_dir, f"{f.name}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(f"{r.generation} {getattr(r, f.name)!r}\n")
        written.append(path)
    return written


# -- CLI -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ganevo",
        description="Coevolutionary architecture search for adversarial networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="start a fresh evolutionary run")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--dataset", choices=DATASETS)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--generations", type=int)
    run_p.add_argument("--out-dir")
    run_p.add_argument("--pairing", choices=PAIRING_STRATEGIES)
    run_p.add_argument("--embedding", choices=EMBEDDINGS)

    resume_p = sub.add_parser("resume", help="continue from a checkpoint")
    resume_p.add_argument("--checkpoint", required=True)
    resume_p.add_argument("--generations", type=int)
    resume_p.add_argument("--out-dir")

    export_p = sub.add_parser("metrics-export", help="emit per-metric plot files")
    export_p.add_argument("--run-dir", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            keys = ("dataset", "seed", "generations", "pairing", "embedding", "out_dir")
            config = load_config(args.config, {key: getattr(args, key) for key in keys
                                               if getattr(args, key) is not None})
            history, _ = run_evolution(config)
            best = f"best FID {history[-1].best_fid:.6g}, " if history else ""
            print(f"run complete: {len(history)} generations, {best}outputs in {config.out_dir}")
        elif args.command == "resume":
            history, _ = resume_evolution(
                args.checkpoint, generations=args.generations, out_dir=args.out_dir)
            print(f"resume complete: {len(history)} additional generations")
        else:
            written = export_plot_data(args.run_dir)
            print(f"wrote {len(written)} plot files under {os.path.join(args.run_dir, 'plot')}")
    except (ConfigError, CheckpointError, IdxFormatError, MetricsError, OSError) as exc:
        print(f"ganevo: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
