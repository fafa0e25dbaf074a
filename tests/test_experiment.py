import copy
import dataclasses
import functools
import json
import operator
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_individual, make_genome, write_idx_images
from ganevo import backend as B
from ganevo import coevolution as C
from ganevo import experiment as E
from ganevo import gan
from ganevo import genome as G


class TestConfigDefaults:
    def test_experimental_parameter_defaults(self):
        cfg = E.load_config()
        assert cfg.generations == 50
        assert cfg.generator_population == 10
        assert cfg.discriminator_population == 10
        assert cfg.add_layer_rate == 0.20
        assert cfg.remove_layer_rate == 0.10
        assert cfg.change_layer_rate == 0.10
        assert cfg.feature_range == (32, 1024)
        assert cfg.channel_range == (16, 128)
        assert cfg.tournament_k == 2
        assert cfg.fid_samples == 1000
        assert cfg.rmse_samples == 1000
        assert cfg.genome_limit == 6
        assert cfg.species_target == 3
        assert cfg.batch_size == 64
        assert cfg.batches_per_pair == 20
        assert cfg.learning_rate == 0.001


class TestConfigLoading:
    def test_flag_overrides_default(self):
        cfg = E.load_config(overrides={"generations": 5})
        assert cfg.generations == 5
        assert cfg.tournament_k == 2

    def test_file_then_flags_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ngenerations = 7\nseed = 3\n")
        cfg = E.load_config(str(path), overrides={"seed": 9})
        assert cfg.generations == 7
        assert cfg.seed == 9

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(E.ConfigError, match="momentum"):
            E.load_config(str(path))
        with pytest.raises(E.ConfigError, match="momentum"):
            E.load_config(overrides={"momentum": 0.9})

    def test_out_of_range_rate_names_key(self):
        for key in ("add_layer_rate", "remove_layer_rate", "change_layer_rate"):
            with pytest.raises(E.ConfigError, match=key):
                E.load_config(overrides={key: 1.5})

    @pytest.mark.parametrize("key", ["learning_rate", "ring_radius", "ring_sigma"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_key(self, tmp_path, key, raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(E.ConfigError, match=key):
            E.load_config(str(path))
        with pytest.raises(E.ConfigError, match=key):
            E.load_config(overrides={key: float(raw)})

    def test_bad_counts_rejected(self):
        with pytest.raises(E.ConfigError, match="batch_size"):
            E.load_config(overrides={"batch_size": 0})
        with pytest.raises(E.ConfigError, match="generations"):
            E.load_config(overrides={"generations": -1})
        with pytest.raises(E.ConfigError, match="batches_per_pair"):
            E.load_config(overrides={"batches_per_pair": 0})
        with pytest.raises(E.ConfigError, match="fid_samples"):
            E.load_config(overrides={"fid_samples": 1})

    def test_every_way_of_building_is_checked(self):
        cfg = E.load_config()
        with pytest.raises(E.ConfigError, match="add_layer_rate"):
            dataclasses.replace(cfg, add_layer_rate=2.0)
        with pytest.raises(E.ConfigError, match="batch_size"):
            E.RunConfig(batch_size=0)
        with pytest.raises(E.ConfigError, match="species_target"):
            E.config_from_dict(dict(dataclasses.asdict(cfg), species_target=0))

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "8"), ("batch_size", 8.0), ("batch_size", True),
        ("learning_rate", "0.1"), ("learning_rate", None), ("dataset", 3),
        ("feature_range", (8, "16")), ("feature_range", (8, 16, 32)), ("channel_range", 8)])
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(E.ConfigError, match=key):
            E.load_config(overrides={key: value})
        record = dict(dataclasses.asdict(E.RunConfig()), **{key: value})
        with pytest.raises(E.ConfigError, match=key):
            E.config_from_dict(json.loads(json.dumps(record)))

    def test_int_accepted_for_float(self):
        cfg = E.load_config(overrides={"learning_rate": 1, "ring_radius": 3})
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert type(cfg.ring_radius) is float and cfg.ring_radius == 3.0
        with pytest.raises(E.ConfigError, match="learning_rate"):
            E.load_config(overrides={"learning_rate": 10 ** 400})

    def test_invalid_utf8_names_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        with pytest.raises(E.ConfigError, match="run.cfg"):
            E.load_config(str(path))

    @settings(max_examples=300, deadline=None)
    @given(content=st.one_of(
        st.binary(max_size=200),
        st.lists(st.tuples(st.sampled_from(sorted(E._DEFAULTS) + ["", "#x", "seed seed"]),
                           st.sampled_from(["=", " = ", "", "=="]),
                           st.text(max_size=12)), max_size=6).map(
            lambda lines: "\n".join(k + sep + v for k, sep, v in lines).encode("utf-8"))))
    def test_arbitrary_file_fails_only_with_config_error(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
        path.write_bytes(content)
        try:
            E.load_config(str(path))
        except E.ConfigError:
            pass

    def test_round_trip(self, tmp_path):
        cfg = E.load_config(overrides={"generations": 12, "learning_rate": 0.0005,
                                       "feature_range": (16, 64),
                                       "dataset": "ring2d"})
        path = tmp_path / "echo.cfg"
        E.save_config(cfg, str(path))
        assert E.load_config(str(path)) == cfg

    def test_dict_round_trip(self):
        cfg = E.load_config(overrides={"seed": 77})
        record = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert E.config_from_dict(record) == cfg


class TestIdxParsing:
    def test_bit_exact_pixels(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 4, 5)).astype(np.uint8)
        images[0, 0, 0] = 0
        images[1, 2, 3] = 255
        path = tmp_path / "images-idx3-ubyte"
        write_idx_images(str(path), images)
        source = E.load_idx_dataset(str(path), rng=np.random.default_rng(0))
        assert source.data_shape == (1, 4, 5)
        assert len(source) == 3
        assert np.array_equal(source._images.reshape(3, 4, 5), images)

    def test_rescale_endpoints(self, tmp_path):
        images = np.array([[[0, 255]]], dtype=np.uint8)
        path = tmp_path / "imgs"
        write_idx_images(str(path), images)
        source = E.load_idx_dataset(str(path), rng=np.random.default_rng(0))
        batch = source.next_batch(1)
        assert batch.min() == pytest.approx(-1.0)
        assert batch.max() == pytest.approx(1.0)

    def test_wrong_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(E.IdxFormatError, match="byte offset 0"):
            E.load_idx_dataset(str(path), np.random.default_rng(0))

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "short"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, 10, 28, 28))
            fh.write(bytes(100))
        with pytest.raises(E.IdxFormatError, match="truncated"):
            E.load_idx_dataset(str(path), np.random.default_rng(0))

    @pytest.mark.parametrize("count,rows,cols,offset", [
        (0, 28, 28, 4), (3, 0, 28, 8), (3, 28, 0, 12)])
    def test_zero_dimension_reports_offset(self, tmp_path, count, rows, cols, offset):
        path = tmp_path / "empty"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, count, rows, cols))
        with pytest.raises(E.IdxFormatError, match=f"byte offset {offset}"):
            E.load_idx_dataset(str(path), np.random.default_rng(0))

    @settings(max_examples=500, deadline=None)
    @given(header=st.lists(st.integers(0, 40), max_size=3),
           tail=st.binary(max_size=64), prefix=st.booleans())
    def test_arbitrary_bytes_fail_only_with_idx_format_error(self, tmp_path_factory,
                                                            header, tail, prefix):
        # small header numbers so some inputs get past the size checks
        data = (struct.pack(">I", E.IDX_IMAGES_MAGIC) if prefix else b"") + b"".join(
            struct.pack(">I", n) for n in header) + tail
        path = tmp_path_factory.mktemp("idx") / "fuzz"
        path.write_bytes(data)
        try:
            parsed = E._parse_idx(str(path))
        except E.IdxFormatError:
            return
        assert parsed.dtype == np.uint8

    def test_epoch_cycling_covers_dataset(self, tmp_path, rng):
        images = np.arange(3 * 4, dtype=np.uint8).reshape(3, 2, 2)
        path = tmp_path / "imgs"
        write_idx_images(str(path), images)
        source = E.load_idx_dataset(str(path), rng=np.random.default_rng(0))
        batch = source.next_batch(9)  # three full epochs
        values = ((batch + 1.0) * 127.5).round().astype(np.uint8)
        firsts = sorted(v[0, 0, 0] for v in values)
        assert firsts == [0, 0, 0, 4, 4, 4, 8, 8, 8]

    def test_state_restore_resumes_stream(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 2, 2)).astype(np.uint8)
        path = tmp_path / "imgs"
        write_idx_images(str(path), images)
        source = E.load_idx_dataset(str(path), rng=np.random.default_rng(1))
        source.next_batch(5)  # advance mid-epoch
        saved = source.state()
        expected = source.next_batch(6)
        fresh = E.load_idx_dataset(str(path), rng=np.random.default_rng(99))
        fresh.restore(saved)
        assert np.array_equal(fresh.next_batch(6), expected)


class TestRing2d:
    def test_single_mode_no_noise(self):
        source = E.Ring2dSource(1, 2.0, 0.0, np.random.default_rng(0))
        batch = source.next_batch(10).reshape(10, 2)
        assert np.allclose(batch, [2.0, 0.0])

    def test_eight_modes_no_noise_distinct_values(self):
        source = E.Ring2dSource(8, 2.0, 0.0, np.random.default_rng(0))
        batch = source.next_batch(400).reshape(400, 2)
        distinct = {tuple(row) for row in np.round(batch, 6)}
        assert len(distinct) == 8

    def test_mode_counts_multinomial(self):
        n = 10_000
        source = E.Ring2dSource(8, 2.0, 0.05, np.random.default_rng(3))
        batch = source.next_batch(n).reshape(n, 2)
        centers = E.ring_mode_centers(8, 2.0)
        dists = np.linalg.norm(batch[:, None, :] - centers[None, :, :], axis=2)
        counts = np.bincount(dists.argmin(axis=1), minlength=8)
        sigma = np.sqrt(n * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - n / 8) <= 3 * sigma)

    def test_state_restore(self):
        # the source's one rng is a run stream, saved with the others, so
        # its own record holds nothing else
        source = E.Ring2dSource(4, 1.0, 0.1, np.random.default_rng(5))
        source.next_batch(3)
        saved = source.rng.bit_generator.state
        expected = source.next_batch(4)
        source.rng.bit_generator.state = saved
        source.restore(source.state())
        assert np.array_equal(source.next_batch(4), expected)
        with pytest.raises(ValueError, match="ring2d"):
            source.restore({"kind": "idx"})

    def test_scaled_source_divides(self):
        scaled = E.Ring2dSource(1, 2.0, 0.0, np.random.default_rng(0), scale=2.2)
        batch = scaled.next_batch(4).reshape(4, 2)
        assert np.allclose(batch, [2.0 / 2.2, 0.0])


class TestModeCoverage:
    def test_all_modes_hit(self):
        centers = E.ring_mode_centers(8, 2.0)
        fakes = np.repeat(centers, 20, axis=0)
        assert E.mode_coverage(fakes, centers, 0.1) == 8

    def test_collapse_to_one(self):
        centers = E.ring_mode_centers(8, 2.0)
        fakes = np.tile(centers[0], (100, 1))
        assert E.mode_coverage(fakes, centers, 0.1) == 1

    def test_empty_fake_set(self):
        centers = E.ring_mode_centers(4, 1.0)
        assert E.mode_coverage(np.zeros((0, 2)), centers, 0.1) == 0

    def test_below_one_percent_not_covered(self):
        centers = E.ring_mode_centers(2, 1.0)
        fakes = np.tile(centers[0], (1000, 1))
        fakes[:5] = centers[1]  # 0.5% of samples on the second mode
        assert E.mode_coverage(fakes, centers, 0.1) == 1


class TestMetricsPersistence:
    def _record(self, generation=0):
        return E.MetricsRecord(
            generation=generation, d_best_fitness=1.25, d_mean_fitness=1.5,
            g_best_fitness=0.25, g_mean_fitness=0.5, best_fid=0.25, rmse=1.0,
            d_mean_layers=1.5, g_mean_layers=2.0,
            d_mean_gene_reuse=0.5, g_mean_gene_reuse=0.75, d_species_count=3,
            g_species_count=2, d_threshold=2.2, g_threshold=1.8,
            wall_seconds=12.5)

    def test_line_round_trip(self):
        record = self._record()
        parsed = E.MetricsRecord.from_line(record.to_line())
        assert parsed.best_fid == record.best_fid
        assert parsed.d_species_count == 3
        assert parsed.wall_seconds == 0.0  # not persisted

    def test_wall_seconds_never_in_line(self):
        assert "wall_seconds" not in self._record().to_line()

    def test_persist_and_read(self, tmp_path):
        records = [self._record(i) for i in range(5)]
        for record in records:
            E.append_metrics(str(tmp_path), record)
        loaded = E.read_metrics(str(tmp_path))
        assert [r.generation for r in loaded] == [0, 1, 2, 3, 4]
        assert len((tmp_path / "metrics.txt").read_text().splitlines()) == 5

    def test_torn_last_line_skipped_at_every_cut(self, tmp_path):
        first, last = self._record(0), self._record(1)
        for record in (first, last):
            E.append_metrics(str(tmp_path), record)
        path = tmp_path / "metrics.txt"
        data = path.read_bytes()
        for cut in range(data.index(b"\n") + 1, len(data)):
            path.write_bytes(data[:cut])
            assert E.read_metrics(str(tmp_path)) == [dataclasses.replace(first, wall_seconds=0.0)]
        path.write_bytes(data)
        assert [r.generation for r in E.read_metrics(str(tmp_path))] == [0, 1]

    @pytest.mark.parametrize("name,item", [pytest.param(name, "", id=name) for name in (
        ["schema"] + [f.name for f in dataclasses.fields(E.MetricsRecord)][:-1])] + [
        pytest.param("rmse", "rmse", id="item-without-equals"),
        pytest.param("generation", "generation=x", id="int-does-not-parse"),
        pytest.param("best_fid", "best_fid=abc", id="float-does-not-parse"),
        pytest.param("d_species_count", "d_species_count=1.5", id="float-for-int")])
    def test_missing_field_named(self, name, item):
        """`name` dropped from a good line, and `item` put in its place."""
        line = " ".join([part for part in self._record().to_line().split()
                         if part.split("=")[0] != name] + [item])
        with pytest.raises(ValueError, match=name):
            E.MetricsRecord.from_line(line)

    def test_malformed_line_named_with_its_number(self, tmp_path):
        for generation in range(2):
            E.append_metrics(str(tmp_path), self._record(generation))
        with open(tmp_path / "metrics.txt", "a") as fh:
            fh.write("schema=1 generation=2 rmse\n")
        with pytest.raises(ValueError, match=r"metrics\.txt:3: metrics item 'rmse'"):
            E.read_metrics(str(tmp_path))


def trained_state(out_dir, rng):
    """A fresh ring2d state whose individuals hold built stores with random
    parameters and moments and a distinct Adam step on every entry."""
    config = E.load_config(overrides=dict(
        dataset="ring2d", generator_population=2, discriminator_population=3,
        noise_dim=4, feature_range=(4, 8), out_dir=str(out_dir)))
    state = E.init_state(config)
    steps = iter(range(int(rng.integers(1000)), 10 ** 6, 7))
    for ind in state.generators + state.discriminators:
        plan = G.infer_shapes(ind.genome, (1, 1, 2), config.noise_dim)
        _, store = B.build_network(ind.genome, plan, rng=rng)
        store.data[:3] = rng.standard_normal((3, store.data.shape[1]))
        for entry in store.entries.values():
            entry.step = next(steps)
        ind.param_store = store
    return state, config


class TestParamStoreSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        state, config = trained_state(tmp_path / "run", rng)
        state.generation = 3
        ckpt = E.write_checkpoint(state, config, config.out_dir)
        assert sorted(os.listdir(ckpt)) == ["params-3.bin", "state.json"]
        loaded, _ = E.read_checkpoint(ckpt)
        before = state.generators + state.discriminators
        after = loaded.generators + loaded.discriminators
        assert [i.id for i in before] == [i.id for i in after]
        steps = []
        for a, b in zip(before, after):
            assert list(a.param_store.entries) == list(b.param_store.entries)
            assert b.param_store.data.dtype == np.float32
            assert np.array_equal(a.param_store.data[:3], b.param_store.data[:3])
            assert not b.param_store.data[3].any()
            a_steps = [e.step for e in a.param_store.entries.values()]
            assert a_steps == [e.step for e in b.param_store.entries.values()]
            steps += a_steps
        assert len(set(steps)) == len(steps) > len(before)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(state.json document, params bytes, scratch directory) of a checkpoint."""
    tmp = tmp_path_factory.mktemp("checkpoint")
    state, config = trained_state(tmp / "run", np.random.default_rng(8))
    return load_checkpoint(E.write_checkpoint(state, config, config.out_dir)) + (tmp,)


@pytest.fixture(scope="module")
def run_checkpoint(tmp_path_factory):
    """(state.json document, params bytes, scratch directory) of the
    checkpoint a tiny ring2d run writes after 2 generations, so gene reuse
    and the previous bests are set."""
    tmp = tmp_path_factory.mktemp("run_checkpoint")
    config = E.load_config(overrides=dict(
        dataset="ring2d", ring_modes=4, generations=2, generator_population=2,
        discriminator_population=3, batches_per_pair=1, batch_size=8, fid_samples=16,
        rmse_samples=16, noise_dim=4, feature_range=(4, 8), seed=2, out_dir=str(tmp / "run")))
    E.run_evolution(config)
    return load_checkpoint(E.checkpoint_dir(config.out_dir)) + (tmp,)


def load_checkpoint(ckpt):
    """A checkpoint's state.json document and params file bytes."""
    with open(os.path.join(ckpt, "state.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(E.params_path(ckpt, doc["generation"]), "rb") as fh:
        return doc, fh.read()


def read_written(directory, doc, blob):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "state.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(E.params_path(str(directory), doc["generation"]), "wb") as fh:
        fh.write(blob)
    return E.read_checkpoint(str(directory))


def json_paths(value, path=()):
    """The path of every value inside a JSON document, as keys and indices."""
    inner = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in inner:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


def replaced(doc, path, value):
    """A copy of `doc` with the value at `path` replaced."""
    doc = copy.deepcopy(doc)
    *head, last = path
    functools.reduce(operator.getitem, head, doc)[last] = value
    return doc


LAYOUT_VALUES = st.one_of(st.integers(-3, 2 ** 40), st.floats(allow_nan=False),
                          st.booleans(), st.none())

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


class TestCheckpointErrors:
    def test_intact_checkpoint_reads(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        state, _ = read_written(tmp / "intact", doc, blob)
        assert all(i.param_store is not None for i in state.generators)

    def test_version_one_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        with pytest.raises(E.CheckpointError, match="state.json: unsupported checkpoint version 1"):
            read_written(tmp / "v1", dict(doc, version=1), blob)

    def test_version_two_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        with pytest.raises(E.CheckpointError, match="state.json: unsupported checkpoint version 2"):
            read_written(tmp / "v2", dict(doc, version=2), blob)

    def test_version_three_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        with pytest.raises(E.CheckpointError, match="state.json: unsupported checkpoint version 3"):
            read_written(tmp / "v3", dict(doc, version=3), blob)

    def test_version_four_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        with pytest.raises(E.CheckpointError, match="state.json: unsupported checkpoint version 4"):
            read_written(tmp / "v4", dict(doc, version=4), blob)

    def test_missing_top_level_key_named(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "partial", doc, blob)
        for key in doc:
            partial = {k: v for k, v in doc.items() if k != key}
            (tmp / "partial" / "state.json").write_text(json.dumps(partial))
            with pytest.raises(E.CheckpointError, match="state.json"):
                E.read_checkpoint(str(tmp / "partial"))

    def test_float_version_rejected(self, saved_checkpoint):
        # 3.0 == CHECKPOINT_VERSION in Python, but it is not what was written
        doc, blob, tmp = saved_checkpoint
        with pytest.raises(E.CheckpointError, match="state.json: 'version' is a JSON float"):
            read_written(tmp / "v3f", dict(doc, version=float(E.CHECKPOINT_VERSION)), blob)

    def test_not_an_object_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "array", doc, blob)
        (tmp / "array" / "state.json").write_text("[]")
        with pytest.raises(E.CheckpointError, match="state.json: a JSON list, not an object"):
            E.read_checkpoint(str(tmp / "array"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_top_level_value_of_another_type_named(self, saved_checkpoint, data):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "retyped", doc, blob)
        key = data.draw(st.sampled_from(sorted(doc)))
        value = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(doc[key])))
        (tmp / "retyped" / "state.json").write_text(json.dumps(dict(doc, **{key: value})))
        with pytest.raises(E.CheckpointError, match="state.json"):
            E.read_checkpoint(str(tmp / "retyped"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_value_at_any_depth_of_another_type_named(self, run_checkpoint, data):
        doc, blob, tmp = run_checkpoint
        read_written(tmp / "nested", doc, blob)
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        old = functools.reduce(operator.getitem, path, doc)
        value = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        (tmp / "nested" / "state.json").write_text(json.dumps(replaced(doc, path, value)))
        try:
            E.read_checkpoint(str(tmp / "nested"))
        except E.CheckpointError as exc:
            assert "state.json" in str(exc)
        except E.ConfigError:
            assert path[0] == "config"

    @pytest.mark.parametrize("path,value", [pytest.param(
        path, value, id=f"{'.'.join(map(str, path))}={value!r}") for path, value in [
        (("populations", "generators"), [1]),
        (("populations", "generators"), []),
        (("populations", "discriminators", 0, "gene_reuse"), []),
        (("populations", "discriminators", 0, "gene_reuse"), {"x": 1}),
        (("rng", "init"), {}),
        (("rng", "data", "state", "state"), -1),
        (("data",), {"kind": "idx"}),
        (("populations", "discriminators", 1, "genome", "genes", 0, "units"), "abc"),
        (("populations", "generators", 0, "genome", "genes", 0, "units"), 0),
        (("populations", "generators", 1, "genome", "role"), "bogus"),
        (("populations", "generators", 1, "genome", "role"), "discriminator"),
        (("populations", "generators", 1, "genome", "max_len"), 0),
        (("populations", "generators", 0, "id"), 12),  # the first discriminator's id
        (("speciation", "generator"), "abc"),
        (("speciation", "discriminator"), float("nan")),
        (("prev_best", "discriminator"), "abc"),
        (("prev_best", "generator"), 99),
        (("populations", "discriminators", 1, "id"), 12),  # the first discriminator's id
    ]])
    def test_malformed_nested_value_named(self, run_checkpoint, path, value):
        doc, blob, tmp = run_checkpoint
        read_written(tmp / "malformed", doc, blob)
        (tmp / "malformed" / "state.json").write_text(json.dumps(replaced(doc, path, value)))
        with pytest.raises(E.CheckpointError, match="state.json"):
            E.read_checkpoint(str(tmp / "malformed"))

    @pytest.mark.parametrize("cursor", [-1, 6, 2.0, None])
    def test_idx_cursor_outside_the_images_rejected(self, tmp_path, monkeypatch, cursor):
        monkeypatch.delenv(E.DATA_DIR_ENV, raising=False)
        (tmp_path / "data" / "mnist").mkdir(parents=True)
        write_idx_images(str(tmp_path / "data" / "mnist" / "train-images-idx3-ubyte"),
                         np.zeros((5, 4, 4), dtype=np.uint8))
        config = E.load_config(overrides=dict(
            dataset="mnist", data_dir=str(tmp_path / "data"), generator_population=1,
            discriminator_population=1, out_dir=str(tmp_path / "run")))
        doc, blob = load_checkpoint(E.write_checkpoint(E.init_state(config), config,
                                                       config.out_dir))
        for ok in (0, 5):  # a cursor at the end starts the next epoch
            read_written(tmp_path / "ok", replaced(doc, ("data", "cursor"), ok), blob)
        with pytest.raises(E.CheckpointError, match="state.json: .*idx data record"):
            read_written(tmp_path / "bad", replaced(doc, ("data", "cursor"), cursor), blob)

    def test_deeply_nested_state_file_rejected(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "deep", doc, blob)
        (tmp / "deep" / "state.json").write_text("[" * 100_000)
        with pytest.raises(E.CheckpointError, match="state.json: not a JSON document"):
            E.read_checkpoint(str(tmp / "deep"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_state_file_rejected(self, saved_checkpoint, data):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "torn", doc, blob)
        text = (tmp / "torn" / "state.json").read_bytes()
        (tmp / "torn" / "state.json").write_bytes(text[:data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(E.CheckpointError, match="state.json: not a JSON document"):
            E.read_checkpoint(str(tmp / "torn"))

    def test_missing_params_file_named(self, saved_checkpoint):
        doc, blob, tmp = saved_checkpoint
        read_written(tmp / "missing", doc, blob)
        os.remove(E.params_path(str(tmp / "missing"), doc["generation"]))
        with pytest.raises(E.CheckpointError, match=r"params-0\.bin: params file missing"):
            E.read_checkpoint(str(tmp / "missing"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_params_file_rejected(self, saved_checkpoint, data):
        doc, blob, tmp = saved_checkpoint
        cut = data.draw(st.integers(0, len(blob) - 1))
        doc = copy.deepcopy(doc)
        if data.draw(st.booleans()):
            doc["params_length"] = cut  # a state.json that agrees with the cut
        with pytest.raises(E.CheckpointError, match="params-0.bin"):
            read_written(tmp / "truncated", doc, blob[:cut])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_perturbed_layout_fails_only_with_checkpoint_error(self, saved_checkpoint, data):
        doc, blob, tmp = saved_checkpoint
        doc = copy.deepcopy(doc)
        layout = data.draw(st.sampled_from(
            [r["params"] for pop in doc["populations"].values() for r in pop]))
        item = data.draw(st.sampled_from(layout))
        where = data.draw(st.sampled_from(["gene", "dim", "step", "arity"]))
        value = data.draw(LAYOUT_VALUES)
        if where == "gene":
            item[0] = value
        elif where == "step":
            item[3] = value
        elif where == "arity":
            item.append(value) if data.draw(st.booleans()) else item.pop()
        else:
            dims = item[data.draw(st.sampled_from([1, 2]))]
            i = data.draw(st.integers(0, len(dims) - 1))
            old, dims[i] = dims[i], value
        try:
            read_written(tmp / "perturbed", doc, blob)
        except E.CheckpointError:
            return
        # a read may succeed only where the layout still describes the file
        assert where in ("gene", "step") or (
            where == "dim" and type(value) is int and value == old)


class TestSampleDumping:
    def test_pgm_headers_and_endpoints(self, tmp_path):
        image = np.array([[-1.0, 1.0], [0.0, -1.0]])
        path = tmp_path / "sample.pgm"
        E.write_pgm(str(path), image)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = data[len(b"P5\n2 2\n255\n"):]
        assert pixels[0] == 0 and pixels[1] == 255

    def test_dump_samples_pgm(self, tmp_path, rng):
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 16, "relu")])
        ind = build_individual(0, genome, (1, 28, 28), 8, rng)
        written = E.dump_samples(ind.network, 16, str(tmp_path / "samples"),
                                 noise=gan.NoiseSource(8, np.random.default_rng(0)))
        assert len(written) == 16
        for path in written:
            header = open(path, "rb").read(20)
            assert header.startswith(b"P5\n28 28\n255\n")

    def test_dump_samples_xy_applies_scale(self, tmp_path, rng):
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 8, "tanh")])
        ind = build_individual(0, genome, (1, 1, 2), 4, rng)
        written = E.dump_samples(ind.network, 5, str(tmp_path / "xy"), fmt="xy", scale=2.2,
                                 noise=gan.NoiseSource(4, np.random.default_rng(0)))
        lines = open(written[0]).read().splitlines()
        assert len(lines) == 5
        xy = np.array([[float(v) for v in line.split()] for line in lines])
        assert np.all(np.abs(xy) <= 2.2)


class TestPlotExport:
    def test_export_creates_column_files(self, tmp_path):
        records = [E.MetricsRecord(
            generation=i, d_best_fitness=1.0, d_mean_fitness=1.0,
            g_best_fitness=0.5, g_mean_fitness=0.5, best_fid=0.5 - 0.1 * i,
            rmse=1.0, d_mean_layers=1.0, g_mean_layers=1.0,
            d_mean_gene_reuse=0.0, g_mean_gene_reuse=0.0, d_species_count=1,
            g_species_count=1, d_threshold=2.0, g_threshold=2.0, wall_seconds=0.0)
            for i in range(3)]
        for record in records:
            E.append_metrics(str(tmp_path), record)
        written = E.export_plot_data(str(tmp_path))
        fid_file = tmp_path / "plot" / "best_fid.dat"
        assert str(fid_file) in written
        rows = [line.split() for line in fid_file.read_text().splitlines()]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        assert float(rows[1][1]) == pytest.approx(0.4)


class TestCli:
    def _cfg_file(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "dataset = ring2d\nring_modes = 4\nring_radius = 1.0\n"
            "generations = 2\ngenerator_population = 2\ndiscriminator_population = 2\n"
            "batches_per_pair = 1\nbatch_size = 8\nfid_samples = 16\n"
            "rmse_samples = 16\nnoise_dim = 8\nfeature_range = 8,16\n")
        return str(path)

    def test_run_resume_export(self, tmp_path, capsys):
        out_dir = str(tmp_path / "cli_run")
        assert E.main(["run", "--config", self._cfg_file(tmp_path),
                       "--seed", "4", "--out-dir", out_dir]) == 0
        assert "run complete" in capsys.readouterr().out
        assert len(E.read_metrics(out_dir)) == 2

        assert E.main(["resume", "--checkpoint", os.path.join(out_dir, "checkpoint"),
                       "--generations", "4"]) == 0
        assert len(E.read_metrics(out_dir)) == 4

        assert E.main(["metrics-export", "--run-dir", out_dir]) == 0
        assert (tmp_path / "cli_run" / "plot" / "best_fid.dat").exists()

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["run", "--generations", "-1", "--out-dir", "{tmp}/run"],
                     "generations: -1 must be >= 0", id="config"),
        pytest.param(["run", "--dataset", "mnist", "--out-dir", "{tmp}/run"],
                     "byte offset 0", id="idx"),
        pytest.param(["run", "--config", "{tmp}/missing.cfg"], "missing.cfg", id="no-config"),
        pytest.param(["resume", "--checkpoint", "{tmp}"], "state.json: not a JSON document",
                     id="checkpoint"),
        pytest.param(["metrics-export", "--run-dir", "{tmp}/missing"], "metrics.txt",
                     id="no-run-dir"),
        pytest.param(["metrics-export", "--run-dir", "{tmp}/bad"],
                     "bad/metrics.txt:1: metrics item 'rmse'", id="bad-metrics"),
    ])
    def test_bad_input_reported_in_one_line(self, tmp_path, capsys, monkeypatch, argv,
                                            message):
        (tmp_path / "mnist").mkdir()
        (tmp_path / "mnist" / "train-images-idx3-ubyte").write_bytes(bytes(16))
        (tmp_path / "state.json").write_text("{")
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "metrics.txt").write_text("schema=1 generation=0 rmse\n")
        monkeypatch.setenv(E.DATA_DIR_ENV, str(tmp_path))
        assert E.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ganevo: ") and err.count("\n") == 1 and message in err

    def test_run_writes_config_echo(self, tmp_path):
        out_dir = str(tmp_path / "echo_run")
        E.main(["run", "--config", self._cfg_file(tmp_path), "--generations", "1",
                "--out-dir", out_dir])
        echoed = E.load_config(os.path.join(out_dir, "config.txt"))
        assert echoed.generations == 1
        assert echoed.dataset == "ring2d"

    def test_dataset_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(E.DATA_DIR_ENV, str(tmp_path / "cache"))
        cfg = E.load_config(overrides={"dataset": "mnist", "data_dir": "elsewhere"})
        assert E.dataset_root(cfg) == str(tmp_path / "cache")

    def test_mnist_source_reads_idx_tree(self, tmp_path, monkeypatch, rng):
        cache = tmp_path / "cache" / "mnist"
        cache.mkdir(parents=True)
        images = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
        write_idx_images(str(cache / "train-images-idx3-ubyte"), images)
        monkeypatch.setenv(E.DATA_DIR_ENV, str(tmp_path / "cache"))
        cfg = E.load_config(overrides={"dataset": "mnist"})
        source = E.make_data_source(cfg, np.random.default_rng(0))
        assert source.data_shape == (1, 28, 28)
        assert source.next_batch(3).shape == (3, 1, 28, 28)
