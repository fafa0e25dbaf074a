import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from conftest import build_individual, make_genome
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
        with pytest.raises(E.ConfigError, match="add_layer_rate"):
            E.load_config(overrides={"add_layer_rate": 1.5})

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


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", E.IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


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
            fh.write(struct.pack(">IIII", E.IDX_LABELS_MAGIC, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(E.IdxFormatError, match="byte offset 0"):
            E.load_idx_dataset(str(path))

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "short"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, 10, 28, 28))
            fh.write(bytes(100))
        with pytest.raises(E.IdxFormatError, match="truncated"):
            E.load_idx_dataset(str(path))

    @pytest.mark.parametrize("count,rows,cols,offset", [
        (0, 28, 28, 4), (3, 0, 28, 8), (3, 28, 0, 12)])
    def test_zero_dimension_reports_offset(self, tmp_path, count, rows, cols, offset):
        path = tmp_path / "empty"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, count, rows, cols))
        with pytest.raises(E.IdxFormatError, match=f"byte offset {offset}"):
            E.load_idx_dataset(str(path))

    def test_labels_parsed(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([7, 1, 2], dtype=np.uint8)
        ipath, lpath = tmp_path / "imgs", tmp_path / "labels"
        write_idx_images(str(ipath), images)
        write_idx_labels(str(lpath), labels)
        source = E.load_idx_dataset(str(ipath), str(lpath),
                                    rng=np.random.default_rng(0))
        assert np.array_equal(source.labels, labels)

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
        source = E.Ring2dSource(4, 1.0, 0.1, np.random.default_rng(5))
        source.next_batch(3)
        saved = source.state()
        expected = source.next_batch(4)
        source.restore(saved)
        assert np.array_equal(source.next_batch(4), expected)

    def test_scaled_source_divides(self):
        inner = E.Ring2dSource(1, 2.0, 0.0, np.random.default_rng(0))
        scaled = E.ScaledSource(inner, 2.2)
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
    def _record(self, generation=0, score=None):
        return E.MetricsRecord(
            generation=generation, d_best_fitness=1.25, d_mean_fitness=1.5,
            g_best_fitness=0.25, g_mean_fitness=0.5, best_fid=0.25, rmse=1.0,
            classifier_score=score, d_mean_layers=1.5, g_mean_layers=2.0,
            d_mean_gene_reuse=0.5, g_mean_gene_reuse=0.75, d_species_count=3,
            g_species_count=2, d_threshold=2.2, g_threshold=1.8,
            wall_seconds=12.5)

    def test_line_round_trip(self):
        record = self._record()
        parsed = E.MetricsRecord.from_line(record.to_line())
        assert parsed.best_fid == record.best_fid
        assert parsed.classifier_score is None
        assert parsed.d_species_count == 3
        assert parsed.wall_seconds == 0.0  # not persisted

    def test_line_with_classifier_score(self):
        record = self._record(score=2.5)
        assert "classifier_score=2.5" in record.to_line()
        assert E.MetricsRecord.from_line(record.to_line()).classifier_score == 2.5

    def test_wall_seconds_never_in_line(self):
        assert "wall_seconds" not in self._record().to_line()

    def test_persist_and_read(self, tmp_path):
        records = [self._record(i) for i in range(5)]
        E.persist_metrics(records, str(tmp_path))
        loaded = E.read_metrics(str(tmp_path))
        assert [r.generation for r in loaded] == [0, 1, 2, 3, 4]
        assert len((tmp_path / "metrics.txt").read_text().splitlines()) == 5


class TestParamStoreSerialization:
    def test_round_trip_bit_exact(self, rng):
        store = B.ParamStore()
        for gene_id, shape in ((0, (4, 3)), (5, (2, 3, 3, 3)), (-1, (1, 9))):
            entry = B.fresh_entry(shape, (shape[0],), fan_in=9, rng=rng)
            entry.m_w += rng.standard_normal(shape).astype(np.float32)
            entry.step = int(rng.integers(0, 1000))
            store.put(B.ParamStore.key(gene_id, shape, (shape[0],)), entry)
        data = E.store_to_bytes(store)
        loaded, end = E.store_from_bytes(data)
        assert end == len(data)
        assert set(loaded.entries) == set(store.entries)
        for key, entry in store.entries.items():
            other = loaded.get(key)
            assert np.array_equal(entry.weights, other.weights)
            assert np.array_equal(entry.m_w, other.m_w)
            assert np.array_equal(entry.v_b, other.v_b)
            assert entry.step == other.step


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
        written = E.dump_samples(ind, 16, str(tmp_path / "samples"),
                                 noise=gan.NoiseSource(8, np.random.default_rng(0)))
        assert len(written) == 16
        for path in written:
            header = open(path, "rb").read(20)
            assert header.startswith(b"P5\n28 28\n255\n")

    def test_dump_samples_xy_applies_scale(self, tmp_path, rng):
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 8, "tanh")])
        ind = build_individual(0, genome, (1, 1, 2), 4, rng)
        written = E.dump_samples(ind, 5, str(tmp_path / "xy"), fmt="xy", scale=2.2,
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
            rmse=1.0, classifier_score=None, d_mean_layers=1.0, g_mean_layers=1.0,
            d_mean_gene_reuse=0.0, g_mean_gene_reuse=0.0, d_species_count=1,
            g_species_count=1, d_threshold=2.0, g_threshold=2.0, wall_seconds=0.0)
            for i in range(3)]
        E.persist_metrics(records, str(tmp_path))
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
