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
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .backend import NetworkInstance, ParamStore, build_network
from .fitness import Embedding, assign_fitness, fid, rmse_metric
from .gan import NoiseSource, generate_samples, train_pair
from .genome import DISCRIMINATOR, GENERATOR, Genome, InnovationCounter, infer_shapes
from .variation import DEFAULT_THRESHOLD, Offspring, goodness_key, next_generation, speciate

ALL_VS_ALL = "all"
RANDOM = "random"
ALL_VS_BEST = "best"
PAIRING_STRATEGIES = (ALL_VS_ALL, RANDOM, ALL_VS_BEST)

# each role's subpopulation attribute of EvolutionState, in the order every
# per-role step runs: it fixes the draws on the variation stream and the ids
POPULATIONS = {GENERATOR: "generators", DISCRIMINATOR: "discriminators"}

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
    d_mean_layers: float
    g_mean_layers: float
    d_mean_gene_reuse: float
    g_mean_gene_reuse: float
    d_species_count: int
    g_species_count: int
    d_threshold: float
    g_threshold: float
    wall_seconds: float  # last, and never written to a metrics line

    def to_line(self) -> str:
        """Self-describing key=value line; wall clock is deliberately left
        out so equal-seed runs produce byte-identical metrics files."""
        parts = [f"schema={METRICS_SCHEMA}"]
        for f in dataclasses.fields(self)[:-1]:
            value = getattr(self, f.name)
            # f.type is the annotation's text: annotations are postponed here
            shown = str(value) if f.type == "int" else repr(float(value))
            parts.append(f"{f.name}={shown}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> MetricsRecord:
        """Parse a `to_line` line; raises ValueError naming an item that is
        not key=value, or a field (schema included) that is missing or does
        not parse."""
        pairs = {}
        for item in line.split():
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"metrics item {item!r} is not key=value")
            pairs[key] = value
        schema = pairs.pop("schema", None)
        if schema != str(METRICS_SCHEMA):
            raise ValueError(f"unsupported metrics schema {schema}")
        kwargs = {"wall_seconds": 0.0}
        for f in dataclasses.fields(cls)[:-1]:
            if f.name not in pairs:
                raise ValueError(f"metrics line has no {f.name}")
            try:
                kwargs[f.name] = (int if f.type == "int" else float)(pairs[f.name])
            except ValueError:
                raise ValueError(f"metrics field {f.name}: cannot parse "
                                 f"{pairs[f.name]!r}") from None
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
    gene_reuse: dict[int, int] = field(default_factory=dict)
    network: NetworkInstance | None = None


@dataclass
class EvolutionState:
    generation: int
    generators: list[Individual]
    discriminators: list[Individual]
    innovations: InnovationCounter
    rng: dict[str, np.random.Generator]
    train_noise: NoiseSource
    eval_noise: NoiseSource
    data_source: object
    embedding: Embedding
    # per role: the adaptive speciation threshold, and the id of the elite
    # child of the last generation's best individual (None before the first)
    threshold: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(POPULATIONS, DEFAULT_THRESHOLD))
    prev_best: dict[str, int | None] = field(default_factory=lambda: dict.fromkeys(POPULATIONS))


def _by_id(individuals: list[Individual], ind_id: int | None) -> Individual:
    """The individual with id `ind_id`; the first one for None."""
    if ind_id is None:
        return individuals[0]
    for ind in individuals:
        if ind.id == ind_id:
            return ind
    raise ValueError(f"individual id {ind_id} not in population")


def make_pairs(strategy: str, generators: list[Individual],
               discriminators: list[Individual],
               prev_best: dict[str, int | None] | None = None,
               rng=None) -> list[tuple[Individual, Individual]]:
    """Build the ordered (generator, discriminator) bout list.

    all: full cross product in generator-major order.  random: a uniform
    perfect matching when sizes are equal; otherwise the larger side may
    repeat partners but the smaller side is still fully covered.  best:
    everyone trains against the other population's previous best, by role
    (the first individual when there is none yet).
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
        prev_best = prev_best or {}
        best_g = _by_id(generators, prev_best.get(GENERATOR))
        best_d = _by_id(discriminators, prev_best.get(DISCRIMINATOR))
        return [(g, best_d) for g in generators] + [(best_g, d) for d in discriminators]
    raise ValueError(f"unknown pairing strategy {strategy!r}")


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


def _materialize(offspring: list[Offspring], parents: list[Individual], best_id: int,
                 ids: itertools.count) -> tuple[list[Individual], int]:
    """Turn offspring records into fresh individuals, numbered from `ids`,
    that inherit their parents' stores.

    Returns the new population plus the id of the elite child of `best_id`
    (the first child when it has none): the previous best for the
    all-vs-best strategy.
    """
    by_id = {ind.id: ind for ind in parents}
    children = []
    elite_of_best = None
    for off in offspring:
        parent = by_id[off.parent_id]
        kept_ids = {g.innovation_id for g in off.genome.genes}
        child = Individual(
            id=next(ids),
            genome=off.genome,
            param_store=parent.param_store,
            gene_reuse={k: v for k, v in parent.gene_reuse.items() if k in kept_ids},
        )
        if off.elite and off.parent_id == best_id:
            elite_of_best = child.id
        children.append(child)
    return children, children[0].id if elite_of_best is None else elite_of_best


def best_generator_network(state: EvolutionState, config) -> NetworkInstance | None:
    """The trained network of the last generation's best generator, rebuilt
    from the store its elite child `prev_best[GENERATOR]` inherited.  The
    child has the same genome, so every entry is copied and nothing is drawn
    from the init stream.  None before the first generation."""
    best_id = state.prev_best[GENERATOR]
    if best_id is None:
        return None
    elite = _by_id(state.generators, best_id)
    plan = infer_shapes(elite.genome, state.data_source.data_shape, config.noise_dim)
    net, _ = build_network(elite.genome, plan, parent_store=elite.param_store,
                           rng=state.rng["init"])
    return net


def run_generation(state: EvolutionState, config) -> tuple[EvolutionState, MetricsRecord]:
    """Execute one full generation of a RunConfig in place; returns the
    metrics record."""
    start = time.perf_counter()
    data = state.data_source
    parents = {role: getattr(state, name) for role, name in POPULATIONS.items()}

    for population in parents.values():
        _build_population(population, data.data_shape, config.noise_dim, state.rng["init"])

    pairs = make_pairs(config.pairing, state.generators, state.discriminators,
                       state.prev_best, state.rng["pairing"])
    outcomes = [train_pair(d, g, data, config, state.train_noise) for g, d in pairs]

    real_fid = data.next_batch(config.fid_samples)
    fid_map = {}
    for g in state.generators:
        fakes = generate_samples(g.network, state.eval_noise, config.fid_samples)
        fid_map[g.id] = fid(state.embedding, real_fid, fakes, config.fid_samples)
    fitness = assign_fitness(outcomes, fid_map,
                             discriminator_ids=[d.id for d in state.discriminators])

    best = {role: max(population, key=lambda ind: goodness_key(fitness[ind.id], ind.id))
            for role, population in parents.items()}
    real_rmse = data.next_batch(config.rmse_samples)
    fake_rmse = generate_samples(best[GENERATOR].network, state.eval_noise, config.rmse_samples)
    rmse = rmse_metric(fake_rmse, real_rmse, config.rmse_samples)

    species_count = {}
    ids = itertools.count(max(ind.id for population in parents.values() for ind in population) + 1)
    for role, name in POPULATIONS.items():
        species, state.threshold[role] = speciate(parents[role], state.threshold[role],
                                                  config.species_target)
        species_count[role] = len(species)
        offspring = next_generation(parents[role], species, fitness, config,
                                    state.rng["variation"], state.innovations)
        children, state.prev_best[role] = _materialize(offspring, parents[role],
                                                       best[role].id, ids)
        setattr(state, name, children)

    gens, discs = parents[GENERATOR], parents[DISCRIMINATOR]
    record = MetricsRecord(
        generation=state.generation,
        d_best_fitness=fitness[best[DISCRIMINATOR].id],
        d_mean_fitness=float(np.mean([fitness[d.id] for d in discs])),
        g_best_fitness=fitness[best[GENERATOR].id],
        g_mean_fitness=float(np.mean([fitness[g.id] for g in gens])),
        best_fid=fid_map[best[GENERATOR].id],
        rmse=rmse,
        d_mean_layers=_mean_layers(discs),
        g_mean_layers=_mean_layers(gens),
        d_mean_gene_reuse=_mean_gene_reuse(discs),
        g_mean_gene_reuse=_mean_gene_reuse(gens),
        d_species_count=species_count[DISCRIMINATOR],
        g_species_count=species_count[GENERATOR],
        d_threshold=state.threshold[DISCRIMINATOR],
        g_threshold=state.threshold[GENERATOR],
        wall_seconds=time.perf_counter() - start,
    )
    state.generation += 1
    return state, record
