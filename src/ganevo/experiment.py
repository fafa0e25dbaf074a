"""Run configuration, dataset ingestion, persistence, the run drivers and
the CLI.

Config files and metrics are line-oriented key=value text so runs diff
cleanly.  Checkpoints pair a JSON state file with a raw little-endian float32
blob for every parameter store, and restore bit-exactly.  Generator samples
dump as binary P5 graymaps for image data or as coordinate text for the 2-d
toy dataset.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .backend import ParamEntry, ParamStore
from .coevolution import (
    PAIRING_STRATEGIES,
    RNG_STREAMS,
    EvolutionState,
    Individual,
    MetricsRecord,
    run_generation,
)
from .fitness import Embedding, identity_embedding, random_projection_embedding
from .gan import NoiseSource, generate_samples
from .genome import (
    DISCRIMINATOR,
    GENERATOR,
    InnovationCounter,
    genome_from_record,
    genome_to_record,
    new_minimal_genome,
)
from .variation import FitnessRecord, SpeciationState

DATA_DIR_ENV = "GANEVO_DATA_DIR"
DATASETS = ("mnist", "fashion-mnist", "ring2d")
EMBEDDINGS = ("identity", "randproj")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# ring2d points are divided by this multiple of the radius before training so
# real samples fit the generator's tanh output range
RING_SCALE_MARGIN = 1.1

CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


class IdxFormatError(ValueError):
    """Malformed IDX file; the message carries the byte offset."""


@dataclass(frozen=True)
class RunConfig:
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


# every key's parser and validation follow the type of its default
_DEFAULTS = dataclasses.asdict(RunConfig())


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
    "fid_samples", "rmse_samples", "genome_limit", "species_target",
    "batch_size", "batches_per_pair", "noise_dim", "ring_modes",
)
_RATES = ("add_layer_rate", "remove_layer_rate", "change_layer_rate")


def validate_config(config: RunConfig) -> None:
    for key, default in _DEFAULTS.items():
        value = getattr(config, key)
        if isinstance(default, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: {value} is not finite")
    if config.generations < 0:
        raise ConfigError(f"generations: {config.generations} must be >= 0")
    for key in _POSITIVE_COUNTS:
        value = getattr(config, key)
        if value < 1:
            raise ConfigError(f"{key}: {value} must be >= 1")
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
        raise ConfigError(f"embedding: {config.embedding!r} not one of {EMBEDDINGS}")
    if config.ring_radius <= 0:
        raise ConfigError(f"ring_radius: {config.ring_radius} must be > 0")
    if config.ring_sigma < 0:
        raise ConfigError(f"ring_sigma: {config.ring_sigma} must be >= 0")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overridden by a key=value file, overridden by flags."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
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
                try:
                    values[key] = _parse_value(key, raw)
                except ValueError as exc:
                    raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None
    if overrides:
        for key, value in overrides.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown key {key!r}")
            values[key] = value
    config = RunConfig(**values)
    validate_config(config)
    return config


def replace_config(config: RunConfig, **changes) -> RunConfig:
    out = dataclasses.replace(config, **changes)
    validate_config(out)
    return out


def config_from_dict(record: dict) -> RunConfig:
    """Inverse of dataclasses.asdict after a JSON round trip (tuples come
    back as lists)."""
    config = RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in record.items()})
    validate_config(config)
    return config


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


def _parse_idx(path: str, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic = _read_be_u32(data, 0, path)
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{expected_magic:08x}"
        )
    count = _read_be_u32(data, 4, path)
    if expected_magic == IDX_IMAGES_MAGIC:
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
        pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols,
                               offset=header)
        return pixels.reshape(count, 1, rows, cols).copy()
    header = 8
    expected = header + count
    if len(data) < expected:
        raise IdxFormatError(
            f"{path}: truncated at byte offset {len(data)}, expected {expected} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=header).copy()


class IdxSource:
    """Cycling sample source over an IDX image file, reshuffled per epoch.

    Pixels rescale to [-1, 1] via x / 127.5 - 1.
    """

    def __init__(self, images: np.ndarray, rng, labels: np.ndarray | None = None):
        self._images = images
        self.labels = labels
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
        return {"kind": "idx", "rng": self._epoch_state, "cursor": int(self._cursor)}

    def restore(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self._epoch_state = self.rng.bit_generator.state
        self._perm = self.rng.permutation(len(self._images))
        self._cursor = int(state["cursor"])


def load_idx_dataset(images_path: str, labels_path: str | None = None,
                     rng=None) -> IdxSource:
    """Parse IDX files bit-exactly into a cycling sample source."""
    images = _parse_idx(images_path, IDX_IMAGES_MAGIC)
    labels = None
    if labels_path is not None:
        labels = _parse_idx(labels_path, IDX_LABELS_MAGIC)
    if rng is None:
        rng = np.random.default_rng(0)
    return IdxSource(images, rng, labels)


def ring_mode_centers(modes: int, radius: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(modes) / modes
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


class Ring2dSource:
    """Mixture of isotropic Gaussians centered evenly on a circle.

    Yields raw (unscaled) coordinates shaped (n, 1, 1, 2).
    """

    def __init__(self, modes: int, radius: float, noise_sigma: float, rng):
        if modes < 1:
            raise ValueError("modes must be >= 1")
        self.modes = modes
        self.radius = radius
        self.noise_sigma = noise_sigma
        self.rng = rng
        self.scale = 1.0
        self.centers = ring_mode_centers(modes, radius)

    @property
    def data_shape(self) -> tuple[int, int, int]:
        return (1, 1, 2)

    def next_batch(self, n: int) -> np.ndarray:
        which = self.rng.integers(self.modes, size=n)
        points = self.centers[which] + self.noise_sigma * self.rng.standard_normal((n, 2))
        return points.reshape(n, 1, 1, 2).astype(np.float32)

    def state(self) -> dict:
        return {"kind": "ring2d", "rng": self.rng.bit_generator.state}

    def restore(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


class ScaledSource:
    """Divides another source's samples by a constant so they fit [-1, 1]."""

    def __init__(self, inner, scale: float):
        self.inner = inner
        self.scale = float(scale)

    @property
    def data_shape(self):
        return self.inner.data_shape

    def next_batch(self, n: int) -> np.ndarray:
        return self.inner.next_batch(n) / np.float32(self.scale)

    def state(self) -> dict:
        return self.inner.state()

    def restore(self, state: dict) -> None:
        self.inner.restore(state)


def dataset_root(config: RunConfig) -> str:
    return os.environ.get(DATA_DIR_ENV, config.data_dir)


def make_data_source(config: RunConfig, rng):
    if config.dataset == "ring2d":
        inner = Ring2dSource(config.ring_modes, config.ring_radius, config.ring_sigma, rng)
        return ScaledSource(inner, RING_SCALE_MARGIN * config.ring_radius)
    if config.dataset in ("mnist", "fashion-mnist"):
        images = os.path.join(dataset_root(config), config.dataset,
                              "train-images-idx3-ubyte")
        return load_idx_dataset(images, rng=rng)
    raise ConfigError(f"dataset: unknown dataset {config.dataset!r}")


def make_embedding(name: str) -> Embedding:
    if name == "identity":
        return identity_embedding()
    if name == "randproj":
        return random_projection_embedding()
    raise ConfigError(f"embedding: unknown embedding {name!r}")


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


def append_metrics(out_dir: str, record: MetricsRecord) -> None:
    with open(metrics_path(out_dir), "a", encoding="utf-8") as fh:
        fh.write(record.to_line() + "\n")
    with open(timings_path(out_dir), "a", encoding="utf-8") as fh:
        fh.write(f"generation={record.generation} wall_seconds={record.wall_seconds!r}\n")


def persist_metrics(records, out_dir: str) -> None:
    """Write the whole record stream, replacing any existing metrics file."""
    with open(metrics_path(out_dir), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_line() + "\n")


def read_metrics(out_dir: str) -> list[MetricsRecord]:
    records = []
    with open(metrics_path(out_dir), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(MetricsRecord.from_line(line))
    return records


# -- checkpoints -------------------------------------------------------------

def store_to_bytes(store: ParamStore) -> bytes:
    """Per entry: id, shape signature, step, then raw little-endian float32
    weights/bias and Adam moments."""
    out = bytearray()
    out += struct.pack("<I", len(store.entries))
    for (gene_id, (w_shape, b_shape)), entry in store.entries.items():
        out += struct.pack("<q", int(gene_id))
        out += struct.pack("<B", len(w_shape))
        out += struct.pack(f"<{len(w_shape)}I", *w_shape)
        out += struct.pack("<B", len(b_shape))
        out += struct.pack(f"<{len(b_shape)}I", *b_shape)
        out += struct.pack("<Q", entry.step)
        for arr in (entry.weights, entry.bias, entry.m_w, entry.v_w,
                    entry.m_b, entry.v_b):
            out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(out)


def store_from_bytes(data: bytes, offset: int = 0) -> tuple[ParamStore, int]:
    """Inverse of store_to_bytes; returns the store and the end offset."""
    store = ParamStore()
    (n_entries,) = struct.unpack_from("<I", data, offset)
    offset += 4

    def read_shape(off):
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        dims = struct.unpack_from(f"<{ndim}I", data, off)
        return tuple(int(d) for d in dims), off + 4 * ndim

    for _ in range(n_entries):
        (gene_id,) = struct.unpack_from("<q", data, offset)
        offset += 8
        w_shape, offset = read_shape(offset)
        b_shape, offset = read_shape(offset)
        (step,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        arrays = []
        for shape in (w_shape, b_shape, w_shape, w_shape, b_shape, b_shape):
            count = 1
            for s in shape:
                count *= s
            arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
            arrays.append(arr.reshape(shape).astype(np.float32))
            offset += 4 * count
        entry = ParamEntry(weights=arrays[0], bias=arrays[1], m_w=arrays[2],
                           v_w=arrays[3], m_b=arrays[4], v_b=arrays[5], step=int(step))
        store.put(ParamStore.key(gene_id, w_shape, b_shape), entry)
    return store, offset


def _individual_to_record(ind: Individual, blob: bytearray) -> dict:
    record = {
        "id": ind.id,
        "genome": genome_to_record(ind.genome),
        "gene_reuse": {str(k): v for k, v in ind.gene_reuse.items()},
        "fitness": None if ind.fitness is None else
            {"raw": ind.fitness.raw, "orientation": ind.fitness.orientation},
        "params": None,
    }
    if ind.param_store is not None:
        data = store_to_bytes(ind.param_store)
        record["params"] = {"offset": len(blob), "length": len(data)}
        blob += data
    return record


def _individual_from_record(record: dict, blob: bytes) -> Individual:
    store = None
    if record["params"] is not None:
        store, _ = store_from_bytes(blob, record["params"]["offset"])
    fitness = None
    if record["fitness"] is not None:
        fitness = FitnessRecord(raw=record["fitness"]["raw"],
                                orientation=record["fitness"]["orientation"])
    return Individual(
        id=int(record["id"]),
        genome=genome_from_record(record["genome"]),
        param_store=store,
        fitness=fitness,
        gene_reuse={int(k): int(v) for k, v in record["gene_reuse"].items()},
    )


def checkpoint_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "checkpoint")


def write_checkpoint(state: EvolutionState, config: RunConfig,
                     out_dir: str) -> str:
    """Persist everything needed to resume bit-exactly."""
    ckpt = checkpoint_dir(out_dir)
    os.makedirs(ckpt, exist_ok=True)
    blob = bytearray()
    populations = {
        "generators": [_individual_to_record(i, blob) for i in state.generators],
        "discriminators": [_individual_to_record(i, blob) for i in state.discriminators],
    }
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "generation": state.generation,
        "next_individual_id": state.next_individual_id,
        "next_innovation_id": state.innovations.next,
        "prev_best": {"generator": state.prev_best_g, "discriminator": state.prev_best_d},
        "speciation": {
            "generator": dataclasses.asdict(state.speciation_g),
            "discriminator": dataclasses.asdict(state.speciation_d),
        },
        "rng": {name: state.rng[name].bit_generator.state
                for name in ("init", "variation", "pairing")},
        "noise": {"train": state.train_noise.state(), "eval": state.eval_noise.state()},
        "data": state.data_source.state(),
        "populations": populations,
    }
    params_file = os.path.join(ckpt, "params.bin")
    state_file = os.path.join(ckpt, "state.json")
    with open(params_file + ".tmp", "wb") as fh:
        fh.write(bytes(blob))
    os.replace(params_file + ".tmp", params_file)
    with open(state_file + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(state_file + ".tmp", state_file)
    return ckpt


def read_checkpoint(ckpt: str) -> tuple[EvolutionState, RunConfig]:
    with open(os.path.join(ckpt, "state.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc['version']}")
    with open(os.path.join(ckpt, "params.bin"), "rb") as fh:
        blob = fh.read()
    config = config_from_dict(doc["config"])

    def generator_with_state(rng_state) -> np.random.Generator:
        gen = np.random.Generator(np.random.PCG64())
        gen.bit_generator.state = rng_state
        return gen

    rng = {name: generator_with_state(doc["rng"][name])
           for name in ("init", "variation", "pairing")}
    train_noise = NoiseSource(config.noise_dim, generator_with_state(doc["noise"]["train"]["rng"]))
    eval_noise = NoiseSource(config.noise_dim, generator_with_state(doc["noise"]["eval"]["rng"]))
    data_source = make_data_source(config, np.random.Generator(np.random.PCG64()))
    data_source.restore(doc["data"])

    def speciation(record) -> SpeciationState:
        return SpeciationState(threshold=record["threshold"],
                               target_species=record["target_species"],
                               min_threshold=record["min_threshold"])

    state = EvolutionState(
        generation=int(doc["generation"]),
        generators=[_individual_from_record(r, blob)
                    for r in doc["populations"]["generators"]],
        discriminators=[_individual_from_record(r, blob)
                        for r in doc["populations"]["discriminators"]],
        speciation_g=speciation(doc["speciation"]["generator"]),
        speciation_d=speciation(doc["speciation"]["discriminator"]),
        next_individual_id=int(doc["next_individual_id"]),
        innovations=InnovationCounter(int(doc["next_innovation_id"])),
        rng=rng,
        train_noise=train_noise,
        eval_noise=eval_noise,
        data_source=data_source,
        embedding=make_embedding(config.embedding),
        prev_best_g=doc["prev_best"]["generator"],
        prev_best_d=doc["prev_best"]["discriminator"],
    )
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


def dump_samples(individual: Individual, n: int, out_dir: str,
                 noise: NoiseSource | None = None, fmt: str = "pgm",
                 scale: float = 1.0) -> list[str]:
    """Write n generator samples: one P5 file each for images, or a single
    coordinate text file for 2-d points (multiplied back by `scale`)."""
    if individual.network is None:
        raise ValueError("generator network is not built")
    os.makedirs(out_dir, exist_ok=True)
    if noise is None:
        noise = NoiseSource(individual.network.input_shape[0], np.random.default_rng(0))
    samples = generate_samples(individual.network, noise, n)
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
    os.makedirs(config.out_dir, exist_ok=True)
    save_config(config, os.path.join(config.out_dir, "config.txt"))
    # truncate the metrics stream for a fresh run
    open(metrics_path(config.out_dir), "w").close()
    open(timings_path(config.out_dir), "w").close()


def dump_final_samples(state: EvolutionState, config: RunConfig,
                       n: int = 16) -> None:
    best = state.last_best_generator
    if best is None or best.network is None:
        return
    fmt = "xy" if config.dataset == "ring2d" else "pgm"
    scale = getattr(state.data_source, "scale", 1.0)
    dump_samples(best, n, os.path.join(config.out_dir, "samples"),
                 noise=NoiseSource(config.noise_dim, np.random.default_rng(config.seed)),
                 fmt=fmt, scale=scale)


# -- runs -------------------------------------------------------------------------

def init_state(config: RunConfig) -> EvolutionState:
    """Fresh populations of minimal genomes plus the derived rng streams."""
    children = np.random.SeedSequence(config.seed).spawn(len(RNG_STREAMS))
    rng = {name: np.random.Generator(np.random.PCG64(seq))
           for name, seq in zip(RNG_STREAMS, children)}
    innovations = InnovationCounter()
    roles = ([GENERATOR] * config.generator_population
             + [DISCRIMINATOR] * config.discriminator_population)
    population = [
        Individual(id=i, genome=new_minimal_genome(role, rng["init"], innovations,
                                                   feature_range=config.feature_range,
                                                   max_len=config.genome_limit))
        for i, role in enumerate(roles)
    ]
    return EvolutionState(
        generation=0,
        generators=population[:config.generator_population],
        discriminators=population[config.generator_population:],
        speciation_g=SpeciationState(target_species=config.species_target),
        speciation_d=SpeciationState(target_species=config.species_target),
        next_individual_id=len(population),
        innovations=innovations,
        rng=rng,
        train_noise=NoiseSource(config.noise_dim, rng["noise_train"]),
        eval_noise=NoiseSource(config.noise_dim, rng["noise_eval"]),
        data_source=make_data_source(config, rng["data"]),
        embedding=make_embedding(config.embedding),
    )


def _evolution_loop(state: EvolutionState, config: RunConfig,
                    classifier=None) -> list[MetricsRecord]:
    """Run generations until config.generations, persisting as we go.

    Metrics lines append to the run directory and a resumable checkpoint is
    rewritten after every generation, so a failed run keeps its history.
    """
    history = []
    while state.generation < config.generations:
        state, record = run_generation(state, config, classifier)
        history.append(record)
        append_metrics(config.out_dir, record)
        write_checkpoint(state, config, config.out_dir)
    return history


def run_evolution(config: RunConfig,
                  classifier=None) -> tuple[list[MetricsRecord], EvolutionState]:
    """Full run from fresh minimal populations.

    Persists the resolved config, the metrics stream, a checkpoint per
    generation and a final grid of generator samples into config.out_dir.
    """
    prepare_run_dir(config)
    state = init_state(config)
    write_checkpoint(state, config, config.out_dir)
    history = _evolution_loop(state, config, classifier)
    dump_final_samples(state, config)
    return history, state


def resume_evolution(checkpoint_dir: str, generations: int | None = None,
                     out_dir: str | None = None,
                     classifier=None) -> tuple[list[MetricsRecord], EvolutionState]:
    """Continue a checkpointed run; appends to the original metrics stream."""
    state, config = read_checkpoint(checkpoint_dir)
    if generations is not None:
        config = replace_config(config, generations=generations)
    if out_dir is not None:
        config = replace_config(config, out_dir=out_dir)
    os.makedirs(config.out_dir, exist_ok=True)
    history = _evolution_loop(state, config, classifier)
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
        if f.name in ("generation", "wall_seconds"):
            continue
        values = [(r.generation, getattr(r, f.name)) for r in records
                  if getattr(r, f.name) is not None]
        if not values:
            continue
        path = os.path.join(plot_dir, f"{f.name}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            for generation, value in values:
                fh.write(f"{generation} {value!r}\n")
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

    if args.command == "run":
        overrides = {}
        for key in ("dataset", "seed", "generations", "pairing", "embedding"):
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        config = load_config(args.config, overrides)
        history, _ = run_evolution(config)
        if history:
            last = history[-1]
            print(f"run complete: {len(history)} generations, "
                  f"best FID {last.best_fid:.6g}, outputs in {config.out_dir}")
        else:
            print(f"run complete: 0 generations, outputs in {config.out_dir}")
        return 0

    if args.command == "resume":
        history, _ = resume_evolution(
            args.checkpoint, generations=args.generations, out_dir=args.out_dir)
        print(f"resume complete: {len(history)} additional generations")
        return 0

    written = export_plot_data(args.run_dir)
    print(f"wrote {len(written)} plot files under {os.path.join(args.run_dir, 'plot')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
