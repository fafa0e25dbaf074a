"""Variation and selection for one subpopulation.

Mutation applies add/remove/change operators as independent coin flips;
speciation clusters genomes greedily by innovation-id distance under an
adaptive threshold; reproduction allocates offspring to species by rank share,
protects each species' best individual, and fills the rest with mutated
tournament winners.  Rates, size ranges and the tournament size come from the
RunConfig each call is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .genome import (
    LINEAR,
    SECTIONS,
    Genome,
    InnovationCounter,
    distance,
    random_activation,
    random_gene,
    random_units,
    section_boundary,
    spatial_kind,
)

MIN_THRESHOLD = 0.5
THRESHOLD_GROW = 1.1
THRESHOLD_SHRINK = 0.9
DEFAULT_THRESHOLD = 2.0


def goodness_key(fitness: float, individual_id: int) -> tuple:
    """Sort key where larger means better: fitness is a value to minimise, and
    ties favor the lower id."""
    return (-fitness, -individual_id)


@dataclass
class Species:
    representative: Genome
    members: list[int]


@dataclass(frozen=True)
class Offspring:
    genome: Genome
    parent_id: int
    elite: bool


def mutate_with_events(genome: Genome, config, rng,
                       counter: InnovationCounter) -> tuple[Genome, dict[str, bool]]:
    """Apply add/remove/change coin flips at a RunConfig's rates, in order;
    report which fired.

    A fired mutation that cannot apply (add at the length cap, remove at the
    single-gene floor) is skipped silently but still reported as fired.
    """
    events = {"add_layer": False, "remove_layer": False, "change_layer": False}
    genes = list(genome.genes)

    if rng.random() < config.add_layer_rate:
        events["add_layer"] = True
        if len(genes) < genome.max_len:
            kind = (LINEAR, spatial_kind(genome.role))[int(rng.integers(2))]
            gene = random_gene(kind, rng, counter, config)
            boundary = section_boundary(genome)
            # legal insertion slots keep the two sections contiguous
            if kind == SECTIONS[genome.role][0]:
                slots = list(range(0, boundary + 1))
            else:
                slots = list(range(boundary, len(genes) + 1))
            pos = slots[int(rng.integers(len(slots)))]
            genes.insert(pos, gene)

    if rng.random() < config.remove_layer_rate:
        events["remove_layer"] = True
        if len(genes) > 1:
            del genes[int(rng.integers(len(genes)))]

    if rng.random() < config.change_layer_rate:
        events["change_layer"] = True
        idx = int(rng.integers(len(genes)))
        old = genes[idx]
        # the activation is always redrawn; the size attribute only half the
        # time, since resizing invalidates the layer's trained parameters
        units = random_units(old.kind, rng, config) if rng.random() < 0.5 else old.units
        genes[idx] = replace(old, units=units, activation=random_activation(rng))

    return Genome(role=genome.role, genes=tuple(genes), max_len=genome.max_len), events


def speciate(individuals, threshold: float,
             target_species: int) -> tuple[list[Species], float]:
    """Greedy clustering by genome distance, then threshold adjustment.

    Individuals are visited in list order; each joins the first species whose
    representative lies within the threshold, otherwise founds a new species.
    Returns the species and the threshold moved 10% toward producing
    `target_species` species, never below MIN_THRESHOLD.
    """
    if not individuals:
        raise ValueError("cannot speciate an empty population")
    species: list[Species] = []
    for ind in individuals:
        for sp in species:
            if distance(ind.genome, sp.representative) <= threshold:
                sp.members.append(ind.id)
                break
        else:
            species.append(Species(representative=ind.genome, members=[ind.id]))
    count = len(species)
    if count > target_species:
        threshold *= THRESHOLD_GROW
    elif count < target_species:
        threshold = max(threshold * THRESHOLD_SHRINK, MIN_THRESHOLD)
    return species, threshold


def tournament_select(members: list[int], fitness: dict[int, float],
                      k_t: int, rng) -> int:
    """Best of k_t uniform draws with replacement; ties go to the lower id."""
    if not members:
        raise ValueError("tournament over an empty member list")
    if k_t < 1:
        raise ValueError("tournament size must be >= 1")
    picks = [members[int(rng.integers(len(members)))] for _ in range(k_t)]
    return max(picks, key=lambda i: goodness_key(fitness[i], i))


def population_ranks(ids: list[int], fitness: dict[int, float]) -> dict[int, int]:
    """Ranks 1..N with N for the best individual (ties: lower id ranks higher)."""
    ordered = sorted(ids, key=lambda i: goodness_key(fitness[i], i))
    return {ind_id: rank for rank, ind_id in enumerate(ordered, start=1)}


def largest_remainder(shares: list[float], total: int) -> list[int]:
    """Round non-negative shares to integers summing exactly to total."""
    raw = [s * total for s in shares]
    floors = [int(r) for r in raw]
    deficit = total - sum(floors)
    order = sorted(range(len(shares)), key=lambda i: (-(raw[i] - floors[i]), i))
    for i in order[:deficit]:
        floors[i] += 1
    return floors


def next_generation(individuals, species: list[Species], fitness: dict[int, float],
                    config, rng, counter: InnovationCounter) -> list[Offspring]:
    """Produce exactly len(individuals) offspring under a RunConfig.

    Species quotas follow each species' share of the population's rank mass
    (best rank = N), rounded by largest remainder.  The best member of every
    quota-holding species is copied unchanged; remaining slots are mutated
    tournament winners (of `tournament_k` draws) inside the species.
    """
    n = len(individuals)
    genomes = {ind.id: ind.genome for ind in individuals}
    ranks = population_ranks(list(genomes), fitness)
    mean_ranks = [sum(ranks[m] for m in sp.members) / len(sp.members) for sp in species]
    total = sum(mean_ranks)
    quotas = largest_remainder([m / total for m in mean_ranks], n)

    offspring: list[Offspring] = []
    for sp, quota in zip(species, quotas):
        if quota == 0:
            continue
        best = max(sp.members, key=lambda i: goodness_key(fitness[i], i))
        offspring.append(Offspring(genome=genomes[best], parent_id=best, elite=True))
        for _ in range(quota - 1):
            parent = tournament_select(sp.members, fitness, config.tournament_k, rng)
            child, _ = mutate_with_events(genomes[parent], config, rng, counter)
            offspring.append(Offspring(genome=child, parent_id=parent, elite=False))
    return offspring
