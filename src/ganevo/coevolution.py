"""One generation of the coevolutionary search, with no I/O.

Two subpopulations (generators and discriminators) are paired per generation,
every pair trains for a fixed batch budget, fitness is assigned from bout
losses and Frechet distances, each subpopulation is speciated and reproduced,
and a metrics record is returned.  Everything is driven by named seeded rng
streams and the state's own innovation counter, so runs replay bit-exactly
and checkpoints can resume mid-run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .backend import AdamConfig, NetworkInstance, ParamStore, build_network
from .fitness import Embedding, assign_fitness, classifier_score, fid, rmse_metric
from .gan import NoiseSource, PairingOutcome, TrainingBudget, generate_samples, train_pair
from .genome import Genome, InnovationCounter, infer_shapes
from .variation import (
    FitnessRecord,
    MutationRates,
    Offspring,
    SpeciationState,
    goodness_key,
    next_generation,
    speciate,
)

ALL_VS_ALL = "all"
RANDOM = "random"
ALL_VS_BEST = "best"
PAIRING_STRATEGIES = (ALL_VS_ALL, RANDOM, ALL_VS_BEST)

# Stream names for the documented seed-split scheme: SeedSequence(seed)
# spawns one child per entry, in this order.
RNG_STREAMS = ("init", "variation", "pairing", "noise_train", "noise_eval", "data")

METRICS_SCHEMA = 1


@dataclass(frozen=True)
class MetricsRecord:
    generation: int
    d_best_fitness: float
    d_mean_fitness: float
    g_best_fitness: float
    g_mean_fitness: float
    best_fid: float
    rmse: float
    classifier_score: float | None
    d_mean_layers: float
    g_mean_layers: float
    d_mean_gene_reuse: float
    g_mean_gene_reuse: float
    d_species_count: int
    g_species_count: int
    d_threshold: float
    g_threshold: float
    wall_seconds: float

    def to_line(self) -> str:
        """Self-describing key=value line; wall clock is deliberately left
        out so equal-seed runs produce byte-identical metrics files."""
        parts = [f"schema={METRICS_SCHEMA}"]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "wall_seconds" or value is None:
                continue
            # f.type is the annotation's text: annotations are postponed here
            shown = str(value) if f.type == "int" else repr(float(value))
            parts.append(f"{f.name}={shown}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> MetricsRecord:
        pairs = dict(item.split("=", 1) for item in line.split())
        schema = int(pairs.pop("schema"))
        if schema != METRICS_SCHEMA:
            raise ValueError(f"unsupported metrics schema {schema}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name == "wall_seconds":
                kwargs[f.name] = 0.0
            elif f.name not in pairs:
                kwargs[f.name] = None
            else:
                kwargs[f.name] = (int if f.type == "int" else float)(pairs[f.name])
        return cls(**kwargs)


@dataclass
class Individual:
    """One population member: genome plus its trained parameters.

    `param_store` initially references the parent's trained store; building
    the network at the start of a generation replaces it with this
    individual's own store (copying compatible entries).
    """

    id: int
    genome: Genome
    param_store: ParamStore | None = None
    fitness: FitnessRecord | None = None
    gene_reuse: dict[int, int] = field(default_factory=dict)
    network: NetworkInstance | None = None


@dataclass
class EvolutionState:
    generation: int
    generators: list[Individual]
    discriminators: list[Individual]
    speciation_g: SpeciationState
    speciation_d: SpeciationState
    next_individual_id: int
    innovations: InnovationCounter
    rng: dict[str, np.random.Generator]
    train_noise: NoiseSource
    eval_noise: NoiseSource
    data_source: object
    embedding: Embedding
    prev_best_g: int | None = None
    prev_best_d: int | None = None
    # transient: the best trained generator of the last finished generation,
    # kept so end-of-run sample dumps have a built network to draw from
    last_best_generator: Individual | None = None


def _by_id(individuals: list[Individual], ind_id: int) -> Individual:
    for ind in individuals:
        if ind.id == ind_id:
            return ind
    raise ValueError(f"individual id {ind_id} not in population")


def make_pairs(strategy: str, generators: list[Individual],
               discriminators: list[Individual],
               prev_best: tuple[int | None, int | None] = (None, None),
               rng=None) -> list[tuple[Individual, Individual]]:
    """Build the ordered (generator, discriminator) bout list.

    all: full cross product in generator-major order.  random: a uniform
    perfect matching when sizes are equal; otherwise the larger side may
    repeat partners but the smaller side is still fully covered.  best:
    everyone trains against the other population's previous best (the first
    individual when no fitness exists yet).
    """
    if not generators or not discriminators:
        raise ValueError("both populations must be non-empty")
    if strategy == ALL_VS_ALL:
        return [(g, d) for g in generators for d in discriminators]
    if strategy == RANDOM:
        if rng is None:
            raise ValueError("random pairing needs an rng")
        if len(generators) == len(discriminators):
            perm = rng.permutation(len(discriminators))
            return [(g, discriminators[int(j)]) for g, j in zip(generators, perm)]
        gen_major = len(generators) > len(discriminators)
        large = generators if gen_major else discriminators
        small = discriminators if gen_major else generators
        # a shuffled prefix of the large side takes distinct partners so the
        # small side is fully covered; the rest draw uniformly
        covered = rng.permutation(len(large))[: len(small)]
        small_order = rng.permutation(len(small))
        partner = {int(li): int(small_order[rank]) for rank, li in enumerate(covered)}
        pairs = []
        for li, big in enumerate(large):
            si = partner.get(li)
            if si is None:
                si = int(rng.integers(len(small)))
            pairs.append((big, small[si]) if gen_major else (small[si], big))
        return pairs
    if strategy == ALL_VS_BEST:
        best_g = _by_id(generators, prev_best[0]) if prev_best[0] is not None else generators[0]
        best_d = _by_id(discriminators, prev_best[1]) if prev_best[1] is not None else discriminators[0]
        return [(g, best_d) for g in generators] + [(best_g, d) for d in discriminators]
    raise ValueError(f"unknown pairing strategy {strategy!r}")


def _best(individuals: list[Individual]) -> Individual:
    return max(individuals, key=lambda ind: goodness_key(ind.fitness, ind.id))


def _mean_layers(individuals: list[Individual]) -> float:
    return float(np.mean([len(ind.genome.genes) for ind in individuals]))


def _mean_gene_reuse(individuals: list[Individual]) -> float:
    total = 0
    genes = 0
    for ind in individuals:
        for gene in ind.genome.genes:
            total += ind.gene_reuse.get(gene.innovation_id, 0)
            genes += 1
    return total / genes if genes else 0.0


def _build_population(individuals: list[Individual], data_shape, noise_dim, rng) -> None:
    for ind in individuals:
        plan = infer_shapes(ind.genome, data_shape, noise_dim)
        net, store = build_network(ind.genome, plan, parent_store=ind.param_store, rng=rng)
        for gene_id in net.copied_gene_ids:
            ind.gene_reuse[gene_id] = ind.gene_reuse.get(gene_id, 0) + 1
        ind.param_store = store
        ind.network = net


def _materialize(offspring: list[Offspring], parents: dict[int, Individual],
                 state: EvolutionState) -> tuple[list[Individual], dict[int, int]]:
    """Turn offspring records into fresh individuals inheriting parent stores.

    Returns the new population plus a parent-id -> new-elite-id map used to
    track the previous best for the all-vs-best strategy.
    """
    new_population = []
    elite_of = {}
    for off in offspring:
        parent = parents[off.parent_id]
        kept_ids = {g.innovation_id for g in off.genome.genes}
        ind = Individual(
            id=state.next_individual_id,
            genome=off.genome,
            param_store=parent.param_store,
            gene_reuse={k: v for k, v in parent.gene_reuse.items() if k in kept_ids},
        )
        state.next_individual_id += 1
        if off.elite:
            elite_of[off.parent_id] = ind.id
        new_population.append(ind)
    return new_population, elite_of


def run_generation(state: EvolutionState, config,
                   classifier=None) -> tuple[EvolutionState, MetricsRecord]:
    """Execute one full generation of a RunConfig in place; returns the
    metrics record."""
    start = time.perf_counter()
    data = state.data_source
    data_shape = data.data_shape

    _build_population(state.generators, data_shape, config.noise_dim, state.rng["init"])
    _build_population(state.discriminators, data_shape, config.noise_dim, state.rng["init"])

    pairs = make_pairs(
        config.pairing, state.generators, state.discriminators,
        (state.prev_best_g, state.prev_best_d), state.rng["pairing"],
    )
    budget = TrainingBudget(batches_per_pair=config.batches_per_pair,
                            batch_size=config.batch_size)
    adam = AdamConfig(learning_rate=config.learning_rate)
    outcomes: list[PairingOutcome] = []
    for g, d in pairs:
        outcomes.append(train_pair(d, g, data, budget, adam, state.train_noise))

    real_fid = data.next_batch(config.fid_samples)
    fid_map = {}
    for g in state.generators:
        fakes = generate_samples(g.network, state.eval_noise, config.fid_samples)
        fid_map[g.id] = fid(state.embedding, real_fid, fakes, config.fid_samples)
    fitness_map = assign_fitness(outcomes, fid_map,
                                 discriminator_ids=[d.id for d in state.discriminators])
    for ind in state.generators + state.discriminators:
        ind.fitness = fitness_map[ind.id]

    best_g = _best(state.generators)
    best_d = _best(state.discriminators)
    real_rmse = data.next_batch(config.rmse_samples)
    fake_rmse = generate_samples(best_g.network, state.eval_noise, config.rmse_samples)
    rmse = rmse_metric(fake_rmse, real_rmse, config.rmse_samples)
    score = None
    if classifier is not None:
        score = classifier_score(classifier, fake_rmse, config.rmse_samples)

    species_g, state.speciation_g = speciate(state.generators, state.speciation_g)
    species_d, state.speciation_d = speciate(state.discriminators, state.speciation_d)

    rates = MutationRates(add_layer=config.add_layer_rate,
                          remove_layer=config.remove_layer_rate,
                          change_layer=config.change_layer_rate)
    kwargs = dict(rates=rates, rng=state.rng["variation"], counter=state.innovations,
                  tournament_k=config.tournament_k, feature_range=config.feature_range,
                  channel_range=config.channel_range)
    offspring_g = next_generation(state.generators, species_g, fitness_map, **kwargs)
    offspring_d = next_generation(state.discriminators, species_d, fitness_map, **kwargs)

    record = MetricsRecord(
        generation=state.generation,
        d_best_fitness=best_d.fitness.raw,
        d_mean_fitness=float(np.mean([d.fitness.raw for d in state.discriminators])),
        g_best_fitness=best_g.fitness.raw,
        g_mean_fitness=float(np.mean([g.fitness.raw for g in state.generators])),
        best_fid=fid_map[best_g.id],
        rmse=rmse,
        classifier_score=score,
        d_mean_layers=_mean_layers(state.discriminators),
        g_mean_layers=_mean_layers(state.generators),
        d_mean_gene_reuse=_mean_gene_reuse(state.discriminators),
        g_mean_gene_reuse=_mean_gene_reuse(state.generators),
        d_species_count=len(species_d),
        g_species_count=len(species_g),
        d_threshold=state.speciation_d.threshold,
        g_threshold=state.speciation_g.threshold,
        wall_seconds=time.perf_counter() - start,
    )

    gen_parents = {ind.id: ind for ind in state.generators}
    disc_parents = {ind.id: ind for ind in state.discriminators}
    state.last_best_generator = best_g
    state.generators, elite_g = _materialize(offspring_g, gen_parents, state)
    state.discriminators, elite_d = _materialize(offspring_d, disc_parents, state)
    state.prev_best_g = elite_g.get(best_g.id, state.generators[0].id)
    state.prev_best_d = elite_d.get(best_d.id, state.discriminators[0].id)
    state.generation += 1
    return state, record
