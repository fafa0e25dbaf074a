import numpy as np
import pytest

from conftest import linear_genome, make_genome
from ganevo import experiment as E
from ganevo import genome as G
from ganevo import variation as V


def forced(add=0.0, remove=0.0, change=0.0):
    return E.RunConfig(add_layer_rate=add, remove_layer_rate=remove, change_layer_rate=change)


def ids_of(genome):
    return [g.innovation_id for g in genome.genes]


class FakeIndividual:
    def __init__(self, ind_id, genome):
        self.id = ind_id
        self.genome = genome


class TestMutate:
    def test_forced_add_grows_and_gets_fresh_id(self, rng):
        counter = G.InnovationCounter(100)
        base = linear_genome(G.DISCRIMINATOR, [0])
        child, _ = V.mutate_with_events(base, forced(add=1.0), rng, counter)
        assert len(child.genes) == 2
        new_ids = set(ids_of(child)) - {0}
        assert new_ids == {100}

    def test_add_blocked_at_genome_limit(self, rng):
        base = linear_genome(G.DISCRIMINATOR, list(range(6)))
        child, _ = V.mutate_with_events(base, forced(add=1.0), rng, G.InnovationCounter(100))
        assert len(child.genes) == 6
        assert child == base

    def test_remove_blocked_at_single_gene(self, rng):
        base = linear_genome(G.GENERATOR, [7])
        child, _ = V.mutate_with_events(base, forced(remove=1.0), rng, G.InnovationCounter(100))
        assert child == base

    def test_remove_shrinks(self, rng):
        base = linear_genome(G.DISCRIMINATOR, [0, 1, 2])
        child, _ = V.mutate_with_events(base, forced(remove=1.0), rng, G.InnovationCounter(100))
        assert len(child.genes) == 2
        assert set(ids_of(child)) < {0, 1, 2}

    def test_change_preserves_ids_and_kinds(self, rng):
        base = make_genome(G.GENERATOR, [
            (0, G.LINEAR, 64, "relu"),
            (1, G.TRANSPOSE_CONV, 32, "sigmoid"),
        ])
        child, _ = V.mutate_with_events(base, forced(change=1.0), rng, G.InnovationCounter(100))
        assert ids_of(child) == ids_of(base)
        assert [g.kind for g in child.genes] == [g.kind for g in base.genes]
        for gene in child.genes:
            lo, hi = (32, 1024) if gene.kind == G.LINEAR else (16, 128)
            assert lo <= gene.units <= hi

    def test_no_rates_no_change(self, rng):
        base = linear_genome(G.DISCRIMINATOR, [0, 1])
        assert V.mutate_with_events(base, forced(), rng, G.InnovationCounter(100))[0] == base

    @pytest.mark.parametrize("role", [G.DISCRIMINATOR, G.GENERATOR])
    def test_mutation_chains_always_validate(self, role, rng):
        counter = G.InnovationCounter()
        config = forced(0.5, 0.3, 0.4)
        for _ in range(60):
            genome = G.new_minimal_genome(role, rng, counter, config)
            for _ in range(10):
                genome, _ = V.mutate_with_events(genome, config, rng, counter)
                assert G.validate(genome, feature_range=(32, 1024),
                                  channel_range=(16, 128)) == []
                assert 1 <= len(genome.genes) <= 6

    def test_spatial_gene_lands_in_its_section(self, rng):
        counter = G.InnovationCounter(10)
        base = make_genome(G.DISCRIMINATOR, [
            (0, G.CONV, 32, "relu"),
            (1, G.LINEAR, 64, "relu"),
        ])
        for _ in range(40):
            child, _ = V.mutate_with_events(base, forced(add=1.0), rng, counter)
            assert G.validate(child) == []


class TestMutationRateStatistics:
    """Events fired on fresh minimal genomes; the observed rates against
    the table are acceptance criterion 4."""

    @staticmethod
    def _events(config, rng, trials=500):
        counter = G.InnovationCounter()
        for _ in range(trials):
            base = G.new_minimal_genome(G.DISCRIMINATOR, rng, counter, config)
            yield V.mutate_with_events(base, config, rng, counter)[1]

    def test_zero_rates(self, rng):
        for events in self._events(forced(), rng):
            assert events == {"add_layer": False, "remove_layer": False,
                              "change_layer": False}

    def test_certain_add(self, rng):
        assert all(events["add_layer"] for events in self._events(forced(add=1.0), rng))


def brute_force_cluster_count(genomes, threshold):
    """Connected components of the distance <= threshold graph."""
    n = len(genomes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if G.distance(genomes[i], genomes[j]) <= threshold:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


class TestSpeciate:
    def test_identical_genomes_single_species(self):
        inds = [FakeIndividual(i, linear_genome(G.DISCRIMINATOR, [1, 2]))
                for i in range(5)]
        species, threshold = V.speciate(inds, 2.0, 3)
        assert len(species) == 1
        assert sorted(species[0].members) == [0, 1, 2, 3, 4]
        assert threshold == pytest.approx(1.8)  # decreased: 1 < 3

    def test_three_well_separated_clusters(self):
        # intra-cluster distance 0, inter-cluster distance >= 4 > threshold
        clusters = [[0, 1], [10, 11], [20, 21]]
        genomes = [linear_genome(G.DISCRIMINATOR, c) for c in clusters for _ in range(3)]
        inds = [FakeIndividual(i, g) for i, g in enumerate(genomes)]
        species, threshold = V.speciate(inds, 2.0, 3)
        assert len(species) == 3
        assert len(species) == brute_force_cluster_count([i.genome for i in inds], 2.0)
        assert threshold == pytest.approx(2.0)  # on target

    def test_ten_singletons_grow_threshold(self):
        inds = [FakeIndividual(i, linear_genome(G.DISCRIMINATOR, [10 * i, 10 * i + 1]))
                for i in range(10)]
        species, threshold = V.speciate(inds, 2.0, 3)
        assert len(species) == 10
        assert threshold == pytest.approx(2.2)

    def test_members_within_threshold_of_representative(self, rng):
        counter = G.InnovationCounter()
        genomes = []
        for _ in range(12):
            g = G.new_minimal_genome(G.DISCRIMINATOR, rng, counter, forced())
            for _ in range(int(rng.integers(0, 4))):
                g, _ = V.mutate_with_events(g, forced(0.8, 0.1, 0.1), rng, counter)
            genomes.append(g)
        inds = [FakeIndividual(i, g) for i, g in enumerate(genomes)]
        species, _ = V.speciate(inds, 3.0, 3)
        by_id = {i.id: i.genome for i in inds}
        seen = []
        for sp in species:
            assert sp.members
            for member in sp.members:
                assert G.distance(by_id[member], sp.representative) <= 3.0
            seen.extend(sp.members)
        assert sorted(seen) == list(range(12))  # exactly one species each

    def test_threshold_floor(self):
        inds = [FakeIndividual(0, linear_genome(G.DISCRIMINATOR, [1]))]
        _, threshold = V.speciate(inds, 0.55, 3)
        assert threshold == V.MIN_THRESHOLD

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            V.speciate([], V.DEFAULT_THRESHOLD, 3)

    def test_adaptive_loop_reaches_target_band(self):
        # heterogeneous sizes make intermediate species counts reachable
        sizes = [1, 1, 2, 2, 3, 3, 4, 5, 6, 6]
        base = 0
        genomes = []
        for size in sizes:
            genomes.append(linear_genome(G.DISCRIMINATOR, list(range(base, base + size))))
            base += size
        inds = [FakeIndividual(i, g) for i, g in enumerate(genomes)]
        threshold = 2.0
        hit = False
        for _ in range(50):
            species, threshold = V.speciate(inds, threshold, 3)
            if 2 <= len(species) <= 4 or threshold == V.MIN_THRESHOLD:
                hit = True
                break
        assert hit


class TestTournament:
    def test_single_member(self, rng):
        fitness = {3: 1.0}
        assert V.tournament_select([3], fitness, 2, rng) == 3

    def test_equal_fitness_prefers_lower_id(self, rng):
        # k_t large enough that both members are sampled
        fitness = {5: 1.0, 9: 1.0}
        assert V.tournament_select([5, 9], fitness, 64, rng) == 5

    def test_large_tournament_finds_best(self, rng):
        fitness = {0: 3.0, 1: 1.0, 2: 2.0}
        assert V.tournament_select([0, 1, 2], fitness, 64, rng) == 1

    def test_empty_members_rejected(self, rng):
        with pytest.raises(ValueError):
            V.tournament_select([], {}, 2, rng)


class TestRanksAndQuotas:
    def test_best_gets_rank_n(self):
        fitness = {0: 5.0, 1: 1.0, 2: 3.0}
        ranks = V.population_ranks([0, 1, 2], fitness)
        assert ranks == {1: 3, 2: 2, 0: 1}

    def test_ties_rank_lower_id_higher(self):
        fitness = {0: 1.0, 1: 1.0}
        ranks = V.population_ranks([0, 1], fitness)
        assert ranks[0] == 2 and ranks[1] == 1

    def test_largest_remainder_hand_case(self):
        assert V.largest_remainder([0.34, 0.33, 0.33], 10) == [4, 3, 3]

    def test_largest_remainder_even_split(self):
        assert V.largest_remainder([0.5, 0.5], 10) == [5, 5]

    def test_largest_remainder_sums(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 6))
            raw = rng.random(k) + 1e-9
            shares = list(raw / raw.sum())
            total = int(rng.integers(1, 20))
            quotas = V.largest_remainder(shares, total)
            assert sum(quotas) == total
            assert all(q >= 0 for q in quotas)


class TestNextGeneration:
    def _population(self, ids_lists, fitness_values):
        inds = [FakeIndividual(i, linear_genome(G.DISCRIMINATOR, ids))
                for i, ids in enumerate(ids_lists)]
        fitness = dict(enumerate(fitness_values))
        return inds, fitness

    def test_single_individual_elite_copy(self, rng):
        inds, fitness = self._population([[0]], [1.0])
        species = [V.Species(representative=inds[0].genome, members=[0])]
        offspring = V.next_generation(inds, species, fitness, forced(add=1.0), rng,
                                      G.InnovationCounter(100))
        assert len(offspring) == 1
        assert offspring[0].elite
        assert offspring[0].genome == inds[0].genome
        assert offspring[0].parent_id == 0

    def test_two_species_near_equal_ranks_split_evenly(self, rng):
        # interleaved fitness: species A holds ranks {10,7,6,3,2}, B the rest;
        # largest remainder turns the 27/28 rank split into quotas 5 and 5
        values = [1, 4, 5, 8, 9, 2, 3, 6, 7, 10]
        ids_lists = [[0, 1]] * 5 + [[50, 51]] * 5
        inds, fitness = self._population(ids_lists, values)
        species = [
            V.Species(representative=inds[0].genome, members=[0, 1, 2, 3, 4]),
            V.Species(representative=inds[5].genome, members=[5, 6, 7, 8, 9]),
        ]
        offspring = V.next_generation(inds, species, fitness, forced(), rng,
                                      G.InnovationCounter(100))
        assert len(offspring) == 10
        first = sum(1 for o in offspring if o.parent_id < 5)
        assert first == 5

    def test_population_size_preserved(self, rng):
        for trial in range(30):
            n = int(rng.integers(1, 12))
            ids_lists = [[int(rng.integers(0, 5))] for _ in range(n)]
            values = [float(rng.random()) for _ in range(n)]
            inds, fitness = self._population(ids_lists, values)
            species, _ = V.speciate(inds, 1.0, 3)
            offspring = V.next_generation(inds, species, fitness, forced(0.4, 0.2, 0.2), rng,
                                          counter=G.InnovationCounter(1000 * trial + 100))
            assert len(offspring) == n
            for off in offspring:
                assert G.validate(off.genome, feature_range=(32, 1024),
                                  channel_range=(16, 128)) == []

    def test_elites_bit_identical(self, rng):
        inds, fitness = self._population([[0], [0], [9], [9]], [2.0, 1.0, 4.0, 3.0])
        species, _ = V.speciate(inds, 1.0, 3)
        offspring = V.next_generation(inds, species, fitness, forced(add=1.0), rng,
                                      counter=G.InnovationCounter(500))
        elites = [o for o in offspring if o.elite]
        assert len(elites) == len(species)
        genomes = {i.id: i.genome for i in inds}
        for elite in elites:
            assert elite.genome == genomes[elite.parent_id]
        # best member of each species is the elite (fitness 1.0 -> id 1, 3.0 -> id 3)
        assert {e.parent_id for e in elites} == {1, 3}
