import json
import os
import shutil

import numpy as np
import pytest

from conftest import linear_genome, write_idx_images
from ganevo import coevolution as C
from ganevo import experiment as E
from ganevo import genome as G


def fake_population(ids, role=G.GENERATOR):
    return [C.Individual(id=i, genome=linear_genome(role, [i])) for i in ids]


def tiny_config(tmp_path, **overrides):
    base = dict(
        dataset="ring2d", ring_modes=4, ring_radius=1.0, ring_sigma=0.05,
        generations=3, generator_population=3, discriminator_population=3,
        batches_per_pair=2, batch_size=8, fid_samples=32, rmse_samples=32,
        noise_dim=8, feature_range=(8, 32), channel_range=(4, 16),
        seed=5, out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return E.load_config(overrides=base)


def case_config(tmp_path, case, run, **overrides):
    """tiny_config for the ring2d case, or for an evolving run on a synthetic
    IDX file of 7 8x8 images: epochs wrap inside every bout, and at add rate
    0.5 conv and transpose-conv genes appear."""
    if case == "idx":
        data = tmp_path / "data"
        if not data.exists():
            (data / "mnist").mkdir(parents=True)
            images = np.random.default_rng(3).integers(0, 256, size=(7, 8, 8))
            write_idx_images(str(data / "mnist" / "train-images-idx3-ubyte"), images)
        overrides = dict(dataset="mnist", data_dir=str(data), add_layer_rate=0.5, **overrides)
    return tiny_config(tmp_path / run, **overrides)


def checkpoint_contents(run_dir):
    """Params file bytes and state.json with the run-specific out_dir left out."""
    ckpt = run_dir / "checkpoint"
    state = json.loads((ckpt / "state.json").read_text())
    del state["config"]["out_dir"]
    return (ckpt / f"params-{state['generation']}.bin").read_bytes(), state


class Fault:
    """Raises OSError at the n-th filesystem step it is asked about."""

    def __init__(self, n):
        self.n = n
        self.steps = 0

    def step(self, what):
        self.steps += 1
        if self.steps == self.n:
            raise OSError(f"injected fault at step {self.n}: {what}")


class TornFile:
    """A file whose first write stops halfway when the fault fires there."""

    def __init__(self, fh, fault):
        self._fh = fh
        self._fault = fault
        self._written = False

    def write(self, data):
        if not self._written:
            self._written = True
            try:
                self._fault.step("write")
            except OSError:
                if isinstance(data, str):
                    self._fh.write(data[: len(data) // 2])
                else:
                    raw = memoryview(data).cast("B")
                    self._fh.write(raw[: len(raw) // 2])
                raise
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def inject_faults(monkeypatch, fault):
    """Route the experiment module's file writes, replaces and removes
    through `fault`: opening a file for writing, its first write, each
    os.replace and each os.remove is one step."""

    def faulty_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        try:
            fault.step(f"open {path}")
        except OSError:
            fh.close()
            raise
        return TornFile(fh, fault)

    class FaultyOs:
        def __getattr__(self, name):
            return getattr(os, name)

        def replace(self, src, dst):
            fault.step(f"replace {dst}")
            os.replace(src, dst)

        def remove(self, path):
            fault.step(f"remove {path}")
            os.remove(path)

    monkeypatch.setattr(E, "open", faulty_open, raising=False)
    monkeypatch.setattr(E, "os", FaultyOs())


class TestMakePairs:
    def test_all_vs_all_order(self):
        gens = fake_population([0, 1])
        discs = fake_population([10, 11], role=G.DISCRIMINATOR)
        pairs = C.make_pairs(C.ALL_VS_ALL, gens, discs)
        ids = [(g.id, d.id) for g, d in pairs]
        assert ids == [(0, 10), (0, 11), (1, 10), (1, 11)]

    def test_all_vs_best_pair_count_and_membership(self):
        gens = fake_population([0, 1, 2])
        discs = fake_population([10, 11, 12], role=G.DISCRIMINATOR)
        pairs = C.make_pairs(C.ALL_VS_BEST, gens, discs,
                             prev_best={G.GENERATOR: 2, G.DISCRIMINATOR: 11})
        assert len(pairs) == 6
        assert all(d.id == 11 for _, d in pairs[:3])
        assert all(g.id == 2 for g, _ in pairs[3:])

    def test_all_vs_best_defaults_to_first(self):
        gens = fake_population([0, 1])
        discs = fake_population([10, 11], role=G.DISCRIMINATOR)
        pairs = C.make_pairs(C.ALL_VS_BEST, gens, discs,
                             prev_best={G.GENERATOR: None, G.DISCRIMINATOR: None})
        assert all(d.id == 10 for _, d in pairs[:2])
        assert all(g.id == 0 for g, _ in pairs[2:])

    def test_random_equal_sizes_is_perfect_matching(self, rng):
        gens = fake_population(list(range(10)))
        discs = fake_population(list(range(100, 110)), role=G.DISCRIMINATOR)
        pairs = C.make_pairs(C.RANDOM, gens, discs, rng=rng)
        assert len(pairs) == 10
        assert sorted(g.id for g, _ in pairs) == list(range(10))
        assert sorted(d.id for _, d in pairs) == list(range(100, 110))

    def test_random_unequal_covers_everyone(self, rng):
        gens = fake_population(list(range(5)))
        discs = fake_population([100, 101, 102], role=G.DISCRIMINATOR)
        for _ in range(10):
            pairs = C.make_pairs(C.RANDOM, gens, discs, rng=rng)
            assert len(pairs) == 5
            assert {g.id for g, _ in pairs} == set(range(5))
            assert {d.id for _, d in pairs} == {100, 101, 102}

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ValueError):
            C.make_pairs(C.ALL_VS_ALL, [], fake_population([1]), rng=rng)

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValueError):
            C.make_pairs("round-robin", fake_population([0]),
                         fake_population([1], role=G.DISCRIMINATOR), rng=rng)


class TestRunGeneration:
    def test_one_plus_one_population(self, tmp_path):
        config = tiny_config(tmp_path, generator_population=1,
                             discriminator_population=1, batches_per_pair=1)
        state = E.init_state(config)
        state, record = C.run_generation(state, config)
        assert len(state.generators) == 1
        assert len(state.discriminators) == 1
        assert record.generation == 0
        # exactly one bout of one batch: every parameter stepped once
        best = C.best_generator_network(state, config)
        assert all(e.step == 1 for e in best.store.entries.values())

    def test_population_sizes_constant(self, tmp_path):
        config = tiny_config(tmp_path, generator_population=4,
                             discriminator_population=3)
        state = E.init_state(config)
        for _ in range(2):
            state, record = C.run_generation(state, config)
            assert len(state.generators) == 4
            assert len(state.discriminators) == 3

    def test_zero_mutation_rates_copy_genomes(self, tmp_path):
        config = tiny_config(tmp_path, add_layer_rate=0.0, remove_layer_rate=0.0,
                             change_layer_rate=0.0)
        state = E.init_state(config)
        parents_g = {i.genome for i in state.generators}
        parents_d = {i.genome for i in state.discriminators}
        state, _ = C.run_generation(state, config)
        assert {i.genome for i in state.generators} <= parents_g
        assert {i.genome for i in state.discriminators} <= parents_d

    def test_bout_accounting_three_by_three(self, tmp_path):
        config = tiny_config(tmp_path, batches_per_pair=4)
        state = E.init_state(config)
        state, _ = C.run_generation(state, config)
        # all-vs-all: every individual participates in 3 bouts of 4 batches
        trained = C.best_generator_network(state, config)
        assert all(e.step == 12 for e in trained.store.entries.values())

    def test_gene_reuse_counts_with_frozen_genomes(self, tmp_path):
        config = tiny_config(tmp_path, add_layer_rate=0.0, remove_layer_rate=0.0,
                             change_layer_rate=0.0, generations=3)
        history, _ = E.run_evolution(config)
        assert history[0].g_mean_gene_reuse == pytest.approx(0.0)
        assert history[1].g_mean_gene_reuse == pytest.approx(1.0)
        assert history[2].g_mean_gene_reuse == pytest.approx(2.0)
        assert history[2].d_mean_gene_reuse == pytest.approx(2.0)


class TestRunEvolution:
    def test_zero_generations(self, tmp_path):
        config = tiny_config(tmp_path, generations=0)
        history, state = E.run_evolution(config)
        assert history == []
        assert (tmp_path / "run" / "checkpoint" / "state.json").exists()
        assert (tmp_path / "run" / "metrics.txt").read_text() == ""

    def test_history_length_matches_generations(self, tmp_path):
        config = tiny_config(tmp_path, generations=3)
        history, _ = E.run_evolution(config)
        assert [r.generation for r in history] == [0, 1, 2]
        assert len(E.read_metrics(config.out_dir)) == 3

    @pytest.mark.parametrize("case", ["ring2d", "idx"])
    def test_fixed_seed_reproducible(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv(E.DATA_DIR_ENV, raising=False)
        history_a, _ = E.run_evolution(case_config(tmp_path, case, "a"))
        history_b, _ = E.run_evolution(case_config(tmp_path, case, "b"))
        lines_a = (tmp_path / "a" / "run" / "metrics.txt").read_text()
        lines_b = (tmp_path / "b" / "run" / "metrics.txt").read_text()
        assert lines_a == lines_b
        assert [r.best_fid for r in history_a] == [r.best_fid for r in history_b]
        assert checkpoint_contents(tmp_path / "a" / "run") == \
            checkpoint_contents(tmp_path / "b" / "run")

    @pytest.mark.parametrize("case", ["ring2d", "idx"])
    def test_resume_matches_uninterrupted(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv(E.DATA_DIR_ENV, raising=False)
        _, state = E.run_evolution(case_config(tmp_path, case, "full", generations=4))
        E.run_evolution(case_config(tmp_path, case, "half", generations=2))
        E.resume_evolution(str(tmp_path / "half" / "run" / "checkpoint"),
                           generations=4)
        full = (tmp_path / "full" / "run" / "metrics.txt").read_text()
        half = (tmp_path / "half" / "run" / "metrics.txt").read_text()
        assert full == half
        assert checkpoint_contents(tmp_path / "full" / "run") == \
            checkpoint_contents(tmp_path / "half" / "run")
        if case == "idx":
            kinds = {gene.kind for ind in state.generators + state.discriminators
                     for gene in ind.genome.genes}
            assert {G.CONV, G.TRANSPOSE_CONV} <= kinds

    def test_resume_drops_metrics_past_checkpoint(self, tmp_path):
        E.run_evolution(tiny_config(tmp_path / "full", generations=4))
        full = (tmp_path / "full" / "run" / "metrics.txt").read_text()
        E.run_evolution(tiny_config(tmp_path / "half", generations=2))
        # the line a kill between append_metrics and write_checkpoint leaves
        with open(tmp_path / "half" / "run" / "metrics.txt", "a") as fh:
            fh.write(full.splitlines(keepends=True)[2])
        E.resume_evolution(str(tmp_path / "half" / "run" / "checkpoint"), generations=4)
        assert (tmp_path / "half" / "run" / "metrics.txt").read_text() == full
        timings = (tmp_path / "half" / "run" / "timings.txt").read_text().splitlines()
        assert [line.split()[0] for line in timings] == [f"generation={g}" for g in range(4)]

    def test_resume_names_a_line_with_no_generation(self, tmp_path):
        E.run_evolution(tiny_config(tmp_path, generations=2))
        path = tmp_path / "run" / "metrics.txt"
        offset = path.stat().st_size
        with open(path, "a") as fh:
            fh.write("schema=1 rmse=0.5\n")
        with pytest.raises(E.CheckpointError, match=f"metrics.txt: .* byte offset {offset}"):
            E.resume_evolution(str(tmp_path / "run" / "checkpoint"), generations=3)

    def test_kill_at_any_checkpoint_step_resumes_exactly(self, tmp_path, monkeypatch):
        E.run_evolution(tiny_config(tmp_path / "full", generations=4))
        full = (tmp_path / "full" / "run" / "metrics.txt").read_text()
        E.run_evolution(tiny_config(tmp_path / "half", generations=2))
        n = 0
        while True:
            n += 1
            run = tmp_path / f"kill{n}" / "run"
            shutil.copytree(tmp_path / "half" / "run", run)
            fault = Fault(n)
            with monkeypatch.context() as patched:
                inject_faults(patched, fault)
                try:
                    E.resume_evolution(str(run / "checkpoint"), generations=4,
                                       out_dir=str(run))
                except OSError:
                    pass
            if fault.steps < n:
                break  # the run finished: every step of a checkpoint write was hit
            E.resume_evolution(str(run / "checkpoint"), generations=4, out_dir=str(run))
            assert (run / "metrics.txt").read_text() == full, f"fault at step {n}"
            assert checkpoint_contents(run) == checkpoint_contents(tmp_path / "full" / "run")
        # per checkpoint write: open and torn write of the params file and of
        # state.json, the replace, the removal of the previous params file;
        # after the last one, the open and write of the final samples
        assert n - 1 == 2 * 6 + 2

    def test_kill_in_final_generation_keeps_samples_whole(self, tmp_path, monkeypatch):
        def files(directory):
            return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

        E.run_evolution(tiny_config(tmp_path / "full", generations=3))
        full = files(tmp_path / "full" / "run" / "samples")
        E.run_evolution(tiny_config(tmp_path / "half", generations=2))
        n = 0
        while True:
            n += 1
            run = tmp_path / f"kill{n}" / "run"
            shutil.copytree(tmp_path / "half" / "run", run)
            fault = Fault(n)
            with monkeypatch.context() as patched:
                inject_faults(patched, fault)
                try:
                    E.resume_evolution(str(run / "checkpoint"), generations=3,
                                       out_dir=str(run))
                except OSError:
                    pass
            if fault.steps < n:
                break  # the run finished: every write step of its last generation was hit
            E.resume_evolution(str(run / "checkpoint"), generations=3, out_dir=str(run))
            assert files(run / "samples") == full, f"fault at step {n}"
        # the six checkpoint steps, then the samples file's open and torn write
        assert n - 1 == 2 + 6

    def test_resume_of_finished_run_rewrites_samples(self, tmp_path):
        E.run_evolution(tiny_config(tmp_path, generations=2))
        samples = tmp_path / "run" / "samples"
        written = {p.name: p.read_bytes() for p in samples.iterdir()}
        shutil.rmtree(samples)
        history, _ = E.resume_evolution(str(tmp_path / "run" / "checkpoint"))
        assert history == []
        assert {p.name: p.read_bytes() for p in samples.iterdir()} == written

    def test_samples_dumped_for_ring_dataset(self, tmp_path):
        config = tiny_config(tmp_path, generations=1)
        E.run_evolution(config)
        assert (tmp_path / "run" / "samples" / "samples.txt").exists()

    def test_resume_into_relocated_directory(self, tmp_path):
        config = tiny_config(tmp_path, generations=2)
        E.run_evolution(config)
        moved = tmp_path / "elsewhere"
        history, _ = E.resume_evolution(str(tmp_path / "run" / "checkpoint"),
                                        generations=4, out_dir=str(moved))
        assert [r.generation for r in history] == [2, 3]
        assert len(E.read_metrics(str(moved))) == 2

    def test_offspring_genomes_always_validate(self, tmp_path):
        config = tiny_config(tmp_path, generations=4, add_layer_rate=0.6,
                             remove_layer_rate=0.3, change_layer_rate=0.5)
        _, state = E.run_evolution(config)
        for ind in state.generators + state.discriminators:
            assert G.validate(ind.genome, feature_range=config.feature_range,
                              channel_range=config.channel_range) == []


class TestStreamSplitting:
    def test_named_streams_are_independent(self):
        children = np.random.SeedSequence(0).spawn(len(C.RNG_STREAMS))
        gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
        draws = [g.random() for g in gens]
        assert len(set(draws)) == len(draws)
