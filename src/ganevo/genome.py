"""Genotype encoding for evolved generator and discriminator networks.

A genome is an ordered tuple of layer genes in two contiguous sections whose
kinds `SECTIONS` gives per role: discriminators hold a convolutional section
followed by a linear one, generators a linear section followed by a
transpose-convolutional one.  The genotype stores only layer type, size
attribute and activation: concrete kernel sizes, strides and tensor shapes
are derived from the data shape by `infer_shapes`, whose plan ends with the
fixed (non-evolved) output adapter mapping the last gene to the required
network output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

DISCRIMINATOR = "discriminator"
GENERATOR = "generator"
ROLES = (DISCRIMINATOR, GENERATOR)

LINEAR = "linear"
CONV = "conv"
TRANSPOSE_CONV = "transpose_conv"

# Each role's two section kinds, in genome order.
SECTIONS = {DISCRIMINATOR: (CONV, LINEAR), GENERATOR: (LINEAR, TRANSPOSE_CONV)}

ACTIVATIONS = ("relu", "leaky_relu", "elu", "sigmoid", "tanh")

# Spatial rule: conv layers halve height/width (ceil) until either axis would
# shrink below MIN_SPATIAL, then degrade to stride 1; transpose conv always
# doubles.  Kernel/stride/padding are fixed so that these rules hold exactly.
MIN_SPATIAL = 4
CONV_KERNEL = 3
CONV_PADDING = 1
TCONV_KERNEL = 4
TCONV_STRIDE = 2
TCONV_PADDING = 1

# Reserved innovation id for the fixed output adapter's parameters.
ADAPTER_ID = -1


class InvalidGenomeError(ValueError):
    """Raised when a genome breaks a structural invariant."""


@dataclass
class InnovationCounter:
    """Monotonic source of innovation ids, owned by one run's state.

    Genes created by the same add event share an id; every new event gets a
    fresh one.
    """

    next: int = 0

    def next_id(self) -> int:
        value = self.next
        self.next += 1
        return value


@dataclass(frozen=True)
class Gene:
    """One layer of the genotype.

    `units` is the kind-specific size attribute: output features for linear
    genes, output channels for (transpose) convolutional genes.
    """

    innovation_id: int
    kind: str
    units: int
    activation: str


@dataclass(frozen=True)
class Genome:
    role: str
    genes: tuple[Gene, ...]
    max_len: int

    def innovation_ids(self) -> frozenset[int]:
        return frozenset(g.innovation_id for g in self.genes)


def spatial_kind(role: str) -> str:
    """The role's convolutional gene kind: its section that is not linear."""
    first, second = SECTIONS[role]
    return second if first == LINEAR else first


def section_boundary(genome: Genome) -> int:
    """Index where the role's second section starts: genes[:boundary] are of
    its first section kind, genes[boundary:] of its second."""
    first_kind = SECTIONS[genome.role][0]
    boundary = 0
    for gene in genome.genes:
        if gene.kind != first_kind:
            break
        boundary += 1
    return boundary


def random_units(kind: str, rng, config) -> int:
    """A `kind` gene's size: uniform over `feature_range` if linear, else `channel_range`."""
    lo, hi = config.feature_range if kind == LINEAR else config.channel_range
    return int(rng.integers(lo, hi + 1))


def random_activation(rng) -> str:
    return ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))]


def random_gene(kind: str, rng, counter: InnovationCounter, config) -> Gene:
    """A gene of `kind` under a fresh innovation id: its units are drawn
    first, then its activation."""
    return Gene(innovation_id=counter.next_id(), kind=kind,
                units=random_units(kind, rng, config), activation=random_activation(rng))


def new_minimal_genome(role: str, rng, counter: InnovationCounter, config) -> Genome:
    """Starting genome for either role: a single random linear gene, capped
    at a RunConfig's `genome_limit`."""
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    return Genome(role=role, genes=(random_gene(LINEAR, rng, counter, config),),
                  max_len=config.genome_limit)


def distance(a: Genome, b: Genome) -> int:
    """Number of genes existing exclusively in one of the two genomes."""
    return len(a.innovation_ids() ^ b.innovation_ids())


def validate(
    genome: Genome,
    feature_range: tuple[int, int] | None = None,
    channel_range: tuple[int, int] | None = None,
) -> list[str]:
    """Check every genome invariant; returns all violations (empty = ok).

    Attribute ranges are configured per run, so they are only checked when
    passed explicitly.
    """
    violations = []
    if genome.role not in ROLES:
        violations.append(f"unknown role {genome.role!r}")
        return violations
    if not 1 <= len(genome.genes) <= genome.max_len:
        violations.append(
            f"genome length {len(genome.genes)} outside [1, {genome.max_len}]"
        )
    first_kind, second_kind = SECTIONS[genome.role]
    seen_second_section = False
    seen_ids = set()
    for i, gene in enumerate(genome.genes):
        if gene.kind not in (first_kind, second_kind):
            violations.append(
                f"gene {i}: kind {gene.kind!r} not allowed for {genome.role}"
            )
            continue
        if gene.kind == second_kind:
            seen_second_section = True
        elif seen_second_section:
            violations.append(
                f"gene {i}: {first_kind} gene after the {second_kind} section"
            )
        if gene.units < 1:
            violations.append(f"gene {i}: units {gene.units} not positive")
        if gene.activation not in ACTIVATIONS:
            violations.append(f"gene {i}: unknown activation {gene.activation!r}")
        if gene.innovation_id < 0:
            violations.append(f"gene {i}: innovation id {gene.innovation_id} negative")
        if gene.innovation_id in seen_ids:
            violations.append(f"gene {i}: duplicate innovation id {gene.innovation_id}")
        seen_ids.add(gene.innovation_id)
        if gene.kind == LINEAR and feature_range is not None:
            lo, hi = feature_range
            if not lo <= gene.units <= hi:
                violations.append(f"gene {i}: out_features {gene.units} outside [{lo}, {hi}]")
        if gene.kind != LINEAR and channel_range is not None:
            lo, hi = channel_range
            if not lo <= gene.units <= hi:
                violations.append(f"gene {i}: out_channels {gene.units} outside [{lo}, {hi}]")
    return violations


@dataclass(frozen=True)
class LayerPlan:
    """Concrete dimensions for one gene, or for the output adapter that ends
    every plan under gene id ADAPTER_ID.

    `reshape_to` is set on the first transpose-conv gene: the incoming flat
    feature vector is zero-padded up to prod(reshape_to) and viewed as a
    (channels, h, w) volume before the layer applies.

    `head` is set on the adapter alone.  "sigmoid" ends a discriminator in the
    clipped sigmoid, one probability per sample.  "crop" and "reshape" end a
    generator in tanh, then crop the 1x1 conv's output to the sample size or
    reshape the linear output into the sample shape; `out_shape` is the
    sample shape either way.
    """

    gene_id: int
    kind: str
    activation: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    weight_shape: tuple[int, ...]
    bias_shape: tuple[int, ...]
    fan_in: int
    kernel: int | None = None
    stride: int | None = None
    padding: int | None = None
    reshape_to: tuple[int, int, int] | None = None
    head: str | None = None


@dataclass(frozen=True)
class ShapePlan:
    """The network's input shape and its layers: one per gene, in genome
    order, then the output adapter."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerPlan, ...]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _layer(gene_id: int, kind: str, units: int, activation: str, in_shape: tuple[int, ...],
           reshape_to: tuple[int, int, int] | None = None, pointwise: bool = False) -> LayerPlan:
    """The plan of one layer of `kind` with `units` outputs fed `in_shape`,
    under the spatial rule above; a `pointwise` conv is a stride-1 1x1 one."""
    if kind == LINEAR:
        fan_in = math.prod(in_shape)
        return LayerPlan(gene_id=gene_id, kind=kind, activation=activation,
                         in_shape=in_shape, out_shape=(units,), weight_shape=(units, fan_in),
                         bias_shape=(units,), fan_in=fan_in)
    c, h, w = reshape_to or in_shape
    if kind == TRANSPOSE_CONV:
        kernel, stride, padding = TCONV_KERNEL, TCONV_STRIDE, TCONV_PADDING
        weight_shape, out_hw = (c, units, kernel, kernel), (h * 2, w * 2)
    else:
        kernel, padding = (1, 0) if pointwise else (CONV_KERNEL, CONV_PADDING)
        halved = (_ceil_div(h, 2), _ceil_div(w, 2))
        stride = 2 if not pointwise and min(halved) >= MIN_SPATIAL else 1
        weight_shape, out_hw = (units, c, kernel, kernel), halved if stride == 2 else (h, w)
    return LayerPlan(gene_id=gene_id, kind=kind, activation=activation, in_shape=in_shape,
                     out_shape=(units,) + out_hw, weight_shape=weight_shape,
                     bias_shape=(units,), fan_in=c * kernel * kernel, kernel=kernel,
                     stride=stride, padding=padding, reshape_to=reshape_to)


def infer_shapes(
    genome: Genome,
    data_shape: tuple[int, int, int],
    noise_dim: int,
) -> ShapePlan:
    """Derive concrete layer dimensions and the output adapter for a genome.

    Discriminators consume `data_shape` samples and emit one probability per
    sample; generators consume a `noise_dim` vector and emit a sample-shaped
    tensor.  Raises InvalidGenomeError if the genome breaks an invariant.
    """
    violations = validate(genome)
    if violations:
        raise InvalidGenomeError("; ".join(violations))
    data_shape = tuple(data_shape)
    input_shape = data_shape if genome.role == DISCRIMINATOR else (noise_dim,)
    # a generator's transpose convs start at the size their doublings bring
    # up to (at least) the sample size
    growth = 2 ** sum(gene.kind == TRANSPOSE_CONV for gene in genome.genes)
    start_hw = (_ceil_div(data_shape[1], growth), _ceil_div(data_shape[2], growth))
    layers = []
    shape = input_shape
    for gene in genome.genes:
        reshape_to = None
        if gene.kind == TRANSPOSE_CONV and len(shape) == 1:
            reshape_to = (_ceil_div(shape[0], math.prod(start_hw)),) + start_hw
        layers.append(_layer(gene.innovation_id, gene.kind, gene.units, gene.activation,
                             shape, reshape_to))
        shape = layers[-1].out_shape
    if genome.role == DISCRIMINATOR:
        adapter = replace(_layer(ADAPTER_ID, LINEAR, 1, "sigmoid", shape), head="sigmoid")
    elif len(shape) == 3:
        adapter = replace(_layer(ADAPTER_ID, CONV, data_shape[0], "tanh", shape, pointwise=True),
                          out_shape=data_shape, head="crop")
    else:
        adapter = replace(_layer(ADAPTER_ID, LINEAR, math.prod(data_shape), "tanh", shape),
                          out_shape=data_shape, head="reshape")
    return ShapePlan(input_shape=input_shape, layers=tuple(layers) + (adapter,))

