"""Variation and selection for one subpopulation.

Mutation applies add/remove/change operators as independent coin flips;
speciation clusters genomes greedily by innovation-id distance under an
adaptive threshold; reproduction allocates offspring to species by rank share,
protects each species' best individual, and fills the rest with mutated
tournament winners.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .genome import (
    ACTIVATIONS,
    DEFAULT_CHANNEL_RANGE,
    DEFAULT_FEATURE_RANGE,
    DISCRIMINATOR,
    LINEAR,
    Gene,
    Genome,
    InnovationCounter,
    allowed_kinds,
    distance,
    new_minimal_genome,
    section_boundary,
)

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"

MIN_THRESHOLD = 0.5
THRESHOLD_GROW = 1.1
THRESHOLD_SHRINK = 0.9
DEFAULT_THRESHOLD = 2.0


@dataclass(frozen=True)
class MutationRates:
    add_layer: float = 0.20
    remove_layer: float = 0.10
    change_layer: float = 0.10

    def __post_init__(self):
        for name in ("add_layer", "remove_layer", "change_layer"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")


@dataclass(frozen=True)
class FitnessRecord:
    raw: float
    orientation: str = LOWER_IS_BETTER


def goodness_key(record: FitnessRecord, individual_id: int) -> tuple:
    """Sort key where larger means better; ties favor the lower id."""
    signed = -record.raw if record.orientation == LOWER_IS_BETTER else record.raw
    return (signed, -individual_id)


@dataclass
class Species:
    representative: Genome
    members: list[int]


@dataclass(frozen=True)
class SpeciationState:
    threshold: float = DEFAULT_THRESHOLD
    target_species: int = 3
    min_threshold: float = MIN_THRESHOLD


@dataclass(frozen=True)
class Offspring:
    genome: Genome
    parent_id: int
    elite: bool


def _random_units(kind: str, rng, feature_range, channel_range) -> int:
    lo, hi = feature_range if kind == LINEAR else channel_range
    return int(rng.integers(lo, hi + 1))


def _random_gene(role: str, rng, counter: InnovationCounter,
                 feature_range, channel_range) -> Gene:
    spatial, linear = allowed_kinds(role)
    kind = (linear, spatial)[int(rng.integers(2))]
    return Gene(
        innovation_id=counter.next_id(),
        kind=kind,
        units=_random_units(kind, rng, feature_range, channel_range),
        activation=ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))],
    )


def mutate_with_events(
    genome: Genome,
    rates: MutationRates,
    rng,
    counter: InnovationCounter,
    feature_range=DEFAULT_FEATURE_RANGE,
    channel_range=DEFAULT_CHANNEL_RANGE,
) -> tuple[Genome, dict[str, bool]]:
    """Apply add/remove/change coin flips in order; report which fired.

    A fired mutation that cannot apply (add at the length cap, remove at the
    single-gene floor) is skipped silently but still reported as fired.
    """
    events = {"add_layer": False, "remove_layer": False, "change_layer": False}
    genes = list(genome.genes)

    if rng.random() < rates.add_layer:
        events["add_layer"] = True
        if len(genes) < genome.max_len:
            gene = _random_gene(genome.role, rng, counter, feature_range, channel_range)
            boundary = section_boundary(genome)
            # legal insertion slots keep the two sections contiguous
            gene_in_first_section = (gene.kind != LINEAR) if genome.role == DISCRIMINATOR \
                else (gene.kind == LINEAR)
            if gene_in_first_section:
                slots = list(range(0, boundary + 1))
            else:
                slots = list(range(boundary, len(genes) + 1))
            pos = slots[int(rng.integers(len(slots)))]
            genes.insert(pos, gene)

    if rng.random() < rates.remove_layer:
        events["remove_layer"] = True
        if len(genes) > 1:
            del genes[int(rng.integers(len(genes)))]

    if rng.random() < rates.change_layer:
        events["change_layer"] = True
        idx = int(rng.integers(len(genes)))
        old = genes[idx]
        # the activation is always redrawn; the size attribute only half the
        # time, since resizing invalidates the layer's trained parameters
        units = old.units
        if rng.random() < 0.5:
            units = _random_units(old.kind, rng, feature_range, channel_range)
        genes[idx] = Gene(
            innovation_id=old.innovation_id,
            kind=old.kind,
            units=units,
            activation=ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))],
        )

    return Genome(role=genome.role, genes=tuple(genes), max_len=genome.max_len), events


def mutation_rate_statistics(rates: MutationRates, trials: int, rng,
                             counter: InnovationCounter | None = None) -> dict[str, float]:
    """Observed firing frequency of each mutation over fresh minimal genomes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counter = counter or InnovationCounter()
    counts = {"add_layer": 0, "remove_layer": 0, "change_layer": 0}
    for _ in range(trials):
        base = new_minimal_genome(DISCRIMINATOR, rng, counter)
        _, events = mutate_with_events(base, rates, rng, counter)
        for name, fired in events.items():
            counts[name] += fired
    return {name: count / trials for name, count in counts.items()}


def speciate(individuals, state: SpeciationState) -> tuple[list[Species], SpeciationState]:
    """Greedy clustering by genome distance, then threshold adjustment.

    Individuals are visited in list order; each joins the first species whose
    representative lies within the threshold, otherwise founds a new species.
    The threshold moves 10% toward producing the target species count.
    """
    if not individuals:
        raise ValueError("cannot speciate an empty population")
    species: list[Species] = []
    for ind in individuals:
        for sp in species:
            if distance(ind.genome, sp.representative) <= state.threshold:
                sp.members.append(ind.id)
                break
        else:
            species.append(Species(representative=ind.genome, members=[ind.id]))
    count = len(species)
    threshold = state.threshold
    if count > state.target_species:
        threshold *= THRESHOLD_GROW
    elif count < state.target_species:
        threshold = max(threshold * THRESHOLD_SHRINK, state.min_threshold)
    return species, replace(state, threshold=threshold)


def tournament_select(members: list[int], fitness: dict[int, FitnessRecord],
                      k_t: int, rng) -> int:
    """Best of k_t uniform draws with replacement; ties go to the lower id."""
    if not members:
        raise ValueError("tournament over an empty member list")
    if k_t < 1:
        raise ValueError("tournament size must be >= 1")
    picks = [members[int(rng.integers(len(members)))] for _ in range(k_t)]
    return max(picks, key=lambda i: goodness_key(fitness[i], i))


def population_ranks(ids: list[int], fitness: dict[int, FitnessRecord]) -> dict[int, int]:
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


def next_generation(
    individuals,
    species: list[Species],
    fitness: dict[int, FitnessRecord],
    rates: MutationRates,
    rng,
    counter: InnovationCounter,
    tournament_k: int = 2,
    feature_range=DEFAULT_FEATURE_RANGE,
    channel_range=DEFAULT_CHANNEL_RANGE,
) -> list[Offspring]:
    """Produce exactly len(individuals) offspring.

    Species quotas follow each species' share of the population's rank mass
    (best rank = N), rounded by largest remainder.  The best member of every
    quota-holding species is copied unchanged; remaining slots are mutated
    tournament winners drawn inside the species.
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
            parent = tournament_select(sp.members, fitness, tournament_k, rng)
            child, _ = mutate_with_events(genomes[parent], rates, rng, counter,
                                          feature_range, channel_range)
            offspring.append(Offspring(genome=child, parent_id=parent, elite=False))
    return offspring
