import json

import numpy as np
import pytest

from conftest import linear_genome
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


def checkpoint_contents(run_dir):
    """params.bin bytes and state.json with the run-specific out_dir left out."""
    ckpt = run_dir / "checkpoint"
    state = json.loads((ckpt / "state.json").read_text())
    del state["config"]["out_dir"]
    return (ckpt / "params.bin").read_bytes(), state


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
        pairs = C.make_pairs(C.ALL_VS_BEST, gens, discs, prev_best=(2, 11))
        assert len(pairs) == 6
        assert all(d.id == 11 for _, d in pairs[:3])
        assert all(g.id == 2 for g, _ in pairs[3:])

    def test_all_vs_best_defaults_to_first(self):
        gens = fake_population([0, 1])
        discs = fake_population([10, 11], role=G.DISCRIMINATOR)
        pairs = C.make_pairs(C.ALL_VS_BEST, gens, discs, prev_best=(None, None))
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
        best = state.last_best_generator
        assert all(e.step == 1 for e in best.param_store.entries.values())

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
        trained = state.last_best_generator
        assert all(e.step == 12 for e in trained.param_store.entries.values())

    def test_gene_reuse_counts_with_frozen_genomes(self, tmp_path):
        config = tiny_config(tmp_path, add_layer_rate=0.0, remove_layer_rate=0.0,
                             change_layer_rate=0.0, generations=3)
        history, _ = E.run_evolution(config)
        assert history[0].g_mean_gene_reuse == pytest.approx(0.0)
        assert history[1].g_mean_gene_reuse == pytest.approx(1.0)
        assert history[2].g_mean_gene_reuse == pytest.approx(2.0)
        assert history[2].d_mean_gene_reuse == pytest.approx(2.0)

    def test_classifier_score_recorded_when_supplied(self, tmp_path):
        config = tiny_config(tmp_path, generations=1)
        state = E.init_state(config)

        def classifier(batch):
            return np.tile([0.5, 0.5], (len(batch), 1))

        state, record = C.run_generation(state, config, classifier=classifier)
        assert record.classifier_score == pytest.approx(1.0)


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

    def test_fixed_seed_reproducible(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = tiny_config(tmp_path / "b")
        history_a, _ = E.run_evolution(config_a)
        history_b, _ = E.run_evolution(config_b)
        lines_a = (tmp_path / "a" / "run" / "metrics.txt").read_text()
        lines_b = (tmp_path / "b" / "run" / "metrics.txt").read_text()
        assert lines_a == lines_b
        assert [r.best_fid for r in history_a] == [r.best_fid for r in history_b]
        assert checkpoint_contents(tmp_path / "a" / "run") == \
            checkpoint_contents(tmp_path / "b" / "run")

    def test_resume_matches_uninterrupted(self, tmp_path):
        config_full = tiny_config(tmp_path / "full", generations=4)
        E.run_evolution(config_full)
        config_half = tiny_config(tmp_path / "half", generations=2)
        E.run_evolution(config_half)
        E.resume_evolution(str(tmp_path / "half" / "run" / "checkpoint"),
                           generations=4)
        full = (tmp_path / "full" / "run" / "metrics.txt").read_text()
        half = (tmp_path / "half" / "run" / "metrics.txt").read_text()
        assert full == half
        assert checkpoint_contents(tmp_path / "full" / "run") == \
            checkpoint_contents(tmp_path / "half" / "run")

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
