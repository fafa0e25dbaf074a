import itertools

import numpy as np
import pytest

from conftest import linear_genome, make_genome
from ganevo import genome as G
from ganevo import variation as V


class TestMinimalGenome:
    def test_discriminator_minimal(self, rng):
        genome = G.new_minimal_genome(G.DISCRIMINATOR, rng, G.InnovationCounter())
        assert len(genome.genes) == 1
        assert genome.genes[0].kind == G.LINEAR
        assert G.validate(genome) == []

    def test_generator_minimal(self, rng):
        genome = G.new_minimal_genome(G.GENERATOR, rng, G.InnovationCounter())
        assert len(genome.genes) == 1
        assert genome.genes[0].kind == G.LINEAR
        assert G.validate(genome) == []

    def test_distinct_innovation_ids(self):
        counter = G.InnovationCounter()
        a = G.new_minimal_genome(G.DISCRIMINATOR, np.random.default_rng(1), counter)
        b = G.new_minimal_genome(G.DISCRIMINATOR, np.random.default_rng(2), counter)
        assert a.genes[0].innovation_id != b.genes[0].innovation_id

    def test_units_within_range(self, rng):
        for _ in range(50):
            genome = G.new_minimal_genome(G.GENERATOR, rng, G.InnovationCounter(),
                                          feature_range=(32, 1024))
            assert 32 <= genome.genes[0].units <= 1024

    def test_unknown_role(self, rng):
        with pytest.raises(ValueError):
            G.new_minimal_genome("critic", rng, G.InnovationCounter())


class TestDistance:
    def test_identical_genomes(self):
        a = linear_genome(G.DISCRIMINATOR, [1, 2, 3])
        assert G.distance(a, a) == 0

    def test_one_exclusive_each_side(self):
        a = linear_genome(G.DISCRIMINATOR, [1, 2, 3])
        b = linear_genome(G.DISCRIMINATOR, [1, 2, 4])
        assert G.distance(a, b) == 2

    def test_disjoint(self):
        a = linear_genome(G.DISCRIMINATOR, [1])
        b = linear_genome(G.DISCRIMINATOR, [2, 3])
        assert G.distance(a, b) == 3

    def test_metric_properties_exhaustive(self):
        # every non-empty subset of a 4-id universe as a genome
        universe = [0, 1, 2, 3]
        subsets = []
        for r in range(1, len(universe) + 1):
            subsets.extend(itertools.combinations(universe, r))
        genomes = [linear_genome(G.DISCRIMINATOR, list(s)) for s in subsets]
        for a in genomes:
            assert G.distance(a, a) == 0
        for a, b in itertools.combinations(genomes, 2):
            assert G.distance(a, b) == G.distance(b, a)
            assert G.distance(a, b) > 0  # distinct id sets
        for a, b, c in itertools.product(genomes, repeat=3):
            assert G.distance(a, c) <= G.distance(a, b) + G.distance(b, c)


class TestValidate:
    def test_minimal_ok(self, rng):
        assert G.validate(G.new_minimal_genome(G.DISCRIMINATOR, rng, G.InnovationCounter())) == []

    def test_linear_before_conv_is_ordering_violation(self):
        genome = make_genome(G.DISCRIMINATOR, [
            (0, G.LINEAR, 64, "relu"),
            (1, G.CONV, 32, "relu"),
        ])
        violations = G.validate(genome)
        assert len(violations) == 1
        assert "section" in violations[0]

    def test_length_violation(self):
        genome = make_genome(G.DISCRIMINATOR,
                             [(i, G.LINEAR, 64, "relu") for i in range(7)])
        violations = G.validate(genome)
        assert any("length" in v for v in violations)

    def test_wrong_kind_for_role(self):
        genome = make_genome(G.GENERATOR, [(0, G.CONV, 32, "relu")])
        assert any("not allowed" in v for v in G.validate(genome))
        genome = make_genome(G.DISCRIMINATOR, [(0, G.TRANSPOSE_CONV, 32, "relu")])
        assert any("not allowed" in v for v in G.validate(genome))

    def test_reports_every_violation(self):
        genome = make_genome(G.DISCRIMINATOR, [
            (i, G.LINEAR, 64, "relu") for i in range(6)
        ] + [(6, G.CONV, 32, "relu")])  # 7 genes and conv after linear
        violations = G.validate(genome)
        assert len(violations) >= 2

    def test_range_checks_opt_in(self):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        assert G.validate(genome) == []
        assert any("out_features" in v
                   for v in G.validate(genome, feature_range=(32, 1024)))

    def test_duplicate_ids(self):
        genome = make_genome(G.DISCRIMINATOR, [
            (5, G.LINEAR, 64, "relu"),
            (5, G.LINEAR, 32, "relu"),
        ])
        assert any("duplicate" in v for v in G.validate(genome))


class TestInferShapesDiscriminator:
    def test_two_convs_halve_spatial(self):
        genome = make_genome(G.DISCRIMINATOR, [
            (0, G.CONV, 8, "relu"),
            (1, G.CONV, 16, "relu"),
        ])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        assert plan.layers[0].out_shape == (8, 14, 14)
        assert plan.layers[1].out_shape == (16, 7, 7)
        assert plan.layers[0].stride == 2

    def test_linear_only_flattens_input(self):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 64, "relu")])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        assert plan.layers[0].weight_shape == (64, 784)
        assert plan.adapter.weight_shape == (1, 64)
        assert plan.adapter.post == "sigmoid"
        assert plan.output_shape == (1,)

    def test_spatial_floor_switches_to_stride_one(self):
        genome = make_genome(G.DISCRIMINATOR,
                             [(i, G.CONV, 4, "relu") for i in range(4)])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        sizes = [lp.out_shape[1:] for lp in plan.layers]
        assert sizes == [(14, 14), (7, 7), (4, 4), (4, 4)]
        assert plan.layers[3].stride == 1

    def test_tiny_spatial_input_never_shrinks(self):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 4, "relu")])
        plan = G.infer_shapes(genome, (1, 1, 2), 100)
        assert plan.layers[0].out_shape == (4, 1, 2)
        assert plan.layers[0].stride == 1


class TestInferShapesGenerator:
    def test_single_tconv_doubles(self):
        genome = make_genome(G.GENERATOR, [(0, G.TRANSPOSE_CONV, 8, "relu")])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        lp = plan.layers[0]
        assert lp.reshape_to == (1, 14, 14)  # ceil(100 / 196) = 1 channel
        assert lp.out_shape == (8, 28, 28)
        assert plan.adapter.kind == "conv"
        assert plan.adapter.crop == (28, 28)
        assert plan.adapter.post == "tanh"

    def test_linear_only_generator(self):
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 50, "relu")])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        assert plan.layers[0].weight_shape == (50, 100)
        assert plan.adapter.weight_shape == (784, 50)
        assert plan.adapter.reshape == (1, 28, 28)
        assert plan.output_shape == (1, 28, 28)

    def test_two_tconvs(self):
        genome = make_genome(G.GENERATOR, [
            (0, G.LINEAR, 300, "relu"),
            (1, G.TRANSPOSE_CONV, 8, "relu"),
            (2, G.TRANSPOSE_CONV, 4, "relu"),
        ])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        # k=2: start at ceil(28/4) = 7, doubled twice -> 28
        assert plan.layers[1].reshape_to == (7, 7, 7)  # ceil(300/49) = 7
        assert plan.layers[1].out_shape == (8, 14, 14)
        assert plan.layers[2].out_shape == (4, 28, 28)
        assert plan.adapter.crop == (28, 28)

    def test_crop_when_doubling_overshoots(self):
        genome = make_genome(G.GENERATOR, [
            (i, G.TRANSPOSE_CONV, 4, "relu") for i in range(3)
        ])
        plan = G.infer_shapes(genome, (1, 28, 28), 100)
        # ceil(28/8) = 4 -> 8 -> 16 -> 32, cropped to 28
        assert plan.layers[-1].out_shape == (4, 32, 32)
        assert plan.adapter.crop == (28, 28)
        assert plan.adapter.out_shape == (1, 28, 28)


class TestShapePlanProperties:
    def _random_valid_genome(self, role, rng):
        genome = G.new_minimal_genome(role, rng, counter=G.InnovationCounter(1000))
        rates = V.MutationRates(0.6, 0.2, 0.3)
        counter = G.InnovationCounter(2000)
        for _ in range(int(rng.integers(0, 8))):
            genome, _ = V.mutate_with_events(genome, rates, rng, counter)
        return genome

    @pytest.mark.parametrize("role,data_shape", [
        (G.DISCRIMINATOR, (1, 28, 28)),
        (G.GENERATOR, (1, 28, 28)),
        (G.DISCRIMINATOR, (1, 1, 2)),
        (G.GENERATOR, (1, 1, 2)),
        (G.DISCRIMINATOR, (3, 9, 13)),
        (G.GENERATOR, (3, 9, 13)),
    ])
    def test_chain_holds_for_random_genomes(self, role, data_shape, rng):
        for _ in range(40):
            genome = self._random_valid_genome(role, rng)
            plan = G.infer_shapes(genome, data_shape, 100)
            assert plan.layers[0].in_shape == plan.input_shape
            for prev, cur in zip(plan.layers, plan.layers[1:]):
                assert cur.in_shape == prev.out_shape
            assert plan.adapter.in_shape == plan.layers[-1].out_shape
            expected_out = (1,) if role == G.DISCRIMINATOR else tuple(data_shape)
            assert plan.adapter.out_shape == expected_out

    def test_deterministic(self, rng):
        genome = self._random_valid_genome(G.GENERATOR, rng)
        a = G.infer_shapes(genome, (1, 28, 28), 100)
        b = G.infer_shapes(genome, (1, 28, 28), 100)
        assert a == b

    def test_invalid_genome_rejected(self):
        genome = make_genome(G.DISCRIMINATOR, [
            (0, G.LINEAR, 64, "relu"),
            (1, G.CONV, 32, "relu"),
        ])
        with pytest.raises(G.InvalidGenomeError):
            G.infer_shapes(genome, (1, 28, 28), 100)


class TestSerialization:
    def test_genome_record_round_trip(self, rng):
        genome = make_genome(G.GENERATOR, [
            (3, G.LINEAR, 128, "elu"),
            (9, G.TRANSPOSE_CONV, 16, "tanh"),
        ])
        assert G.genome_from_record(G.genome_to_record(genome)) == genome


class TestInnovationCounter:
    def test_monotonic(self):
        counter = G.InnovationCounter(5)
        assert counter.next_id() == 5
        assert counter.next_id() == 6
        assert counter.next == 7
