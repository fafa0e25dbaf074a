"""Genotype encoding for evolved generator and discriminator networks.

A genome is an ordered tuple of layer genes.  Discriminator genomes hold a
convolutional section followed by a linear section; generator genomes hold a
linear section followed by a transpose-convolutional section.  The genotype
stores only layer type, size attribute and activation: concrete kernel sizes,
strides and tensor shapes are derived from the data shape by `infer_shapes`,
which also plans the fixed (non-evolved) output adapter mapping the last gene
to the required network output.
"""

from __future__ import annotations

from dataclasses import dataclass

DISCRIMINATOR = "discriminator"
GENERATOR = "generator"
ROLES = (DISCRIMINATOR, GENERATOR)

LINEAR = "linear"
CONV = "conv"
TRANSPOSE_CONV = "transpose_conv"

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

    def __len__(self) -> int:
        return len(self.genes)


def allowed_kinds(role: str) -> tuple[str, str]:
    """Gene kinds a role may carry: (spatial kind, linear kind)."""
    if role == DISCRIMINATOR:
        return (CONV, LINEAR)
    if role == GENERATOR:
        return (TRANSPOSE_CONV, LINEAR)
    raise ValueError(f"unknown role {role!r}")


def section_boundary(genome: Genome) -> int:
    """Index where the second section starts.

    Discriminators: genes[:boundary] is the conv section, genes[boundary:]
    the linear section.  Generators: genes[:boundary] is the linear section,
    genes[boundary:] the transpose-conv section.
    """
    first_kind = CONV if genome.role == DISCRIMINATOR else LINEAR
    boundary = 0
    for gene in genome.genes:
        if gene.kind != first_kind:
            break
        boundary += 1
    return boundary


def new_minimal_genome(role: str, rng, counter: InnovationCounter, config) -> Genome:
    """Starting genome for either role: a single random linear gene sized
    within a RunConfig's `feature_range`, capped at its `genome_limit`."""
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    lo, hi = config.feature_range
    gene = Gene(
        innovation_id=counter.next_id(),
        kind=LINEAR,
        units=int(rng.integers(lo, hi + 1)),
        activation=ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))],
    )
    return Genome(role=role, genes=(gene,), max_len=config.genome_limit)


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
    spatial_kind, _ = allowed_kinds(genome.role)
    seen_second_section = False
    first_kind = CONV if genome.role == DISCRIMINATOR else LINEAR
    second_kind = LINEAR if genome.role == DISCRIMINATOR else TRANSPOSE_CONV
    seen_ids = set()
    for i, gene in enumerate(genome.genes):
        if gene.kind not in (LINEAR, spatial_kind):
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
    """Concrete dimensions for one gene.

    `reshape_to` is set on the first transpose-conv gene: the incoming flat
    feature vector is zero-padded up to prod(reshape_to) and viewed as a
    (channels, h, w) volume before the layer applies.
    """

    gene_id: int
    kind: str
    activation: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    units: int
    weight_shape: tuple[int, ...]
    bias_shape: tuple[int, ...]
    fan_in: int
    kernel: int | None = None
    stride: int | None = None
    padding: int | None = None
    reshape_to: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class AdapterPlan:
    """Fixed output head: linear -> sigmoid for discriminators; a channel
    projection (1x1 conv or linear) -> tanh for generators, cropped or
    reshaped to the exact sample dims."""

    kind: str  # "linear" or "conv"
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    weight_shape: tuple[int, ...]
    bias_shape: tuple[int, ...]
    fan_in: int
    post: str  # "sigmoid" or "tanh"
    crop: tuple[int, int] | None = None
    reshape: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ShapePlan:
    input_shape: tuple[int, ...]
    layers: tuple[LayerPlan, ...]
    adapter: AdapterPlan
    output_shape: tuple[int, ...]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _conv_out(h: int, w: int) -> tuple[int, int, int]:
    """(stride, out_h, out_w) for one conv gene under the halving rule."""
    if _ceil_div(h, 2) >= MIN_SPATIAL and _ceil_div(w, 2) >= MIN_SPATIAL:
        return 2, _ceil_div(h, 2), _ceil_div(w, 2)
    return 1, h, w


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
    if genome.role == DISCRIMINATOR:
        return _infer_discriminator(genome, data_shape)
    return _infer_generator(genome, data_shape, noise_dim)


def _infer_discriminator(genome: Genome, data_shape: tuple[int, int, int]) -> ShapePlan:
    layers = []
    shape: tuple[int, ...] = tuple(data_shape)
    for gene in genome.genes:
        if gene.kind == CONV:
            c, h, w = shape
            stride, oh, ow = _conv_out(h, w)
            out_shape = (gene.units, oh, ow)
            layers.append(
                LayerPlan(
                    gene_id=gene.innovation_id,
                    kind=CONV,
                    activation=gene.activation,
                    in_shape=shape,
                    out_shape=out_shape,
                    units=gene.units,
                    weight_shape=(gene.units, c, CONV_KERNEL, CONV_KERNEL),
                    bias_shape=(gene.units,),
                    fan_in=c * CONV_KERNEL * CONV_KERNEL,
                    kernel=CONV_KERNEL,
                    stride=stride,
                    padding=CONV_PADDING,
                )
            )
        else:
            in_features = _prod(shape)
            out_shape = (gene.units,)
            layers.append(
                LayerPlan(
                    gene_id=gene.innovation_id,
                    kind=LINEAR,
                    activation=gene.activation,
                    in_shape=shape,
                    out_shape=out_shape,
                    units=gene.units,
                    weight_shape=(gene.units, in_features),
                    bias_shape=(gene.units,),
                    fan_in=in_features,
                )
            )
        shape = layers[-1].out_shape
    in_features = _prod(shape)
    adapter = AdapterPlan(
        kind="linear",
        in_shape=shape,
        out_shape=(1,),
        weight_shape=(1, in_features),
        bias_shape=(1,),
        fan_in=in_features,
        post="sigmoid",
    )
    return ShapePlan(
        input_shape=tuple(data_shape),
        layers=tuple(layers),
        adapter=adapter,
        output_shape=(1,),
    )


def _infer_generator(
    genome: Genome, data_shape: tuple[int, int, int], noise_dim: int
) -> ShapePlan:
    target_c, target_h, target_w = data_shape
    n_tconv = sum(1 for g in genome.genes if g.kind == TRANSPOSE_CONV)
    h0 = _ceil_div(target_h, 2 ** n_tconv)
    w0 = _ceil_div(target_w, 2 ** n_tconv)
    layers = []
    shape: tuple[int, ...] = (noise_dim,)
    first_tconv = True
    for gene in genome.genes:
        if gene.kind == LINEAR:
            in_features = _prod(shape)
            layers.append(
                LayerPlan(
                    gene_id=gene.innovation_id,
                    kind=LINEAR,
                    activation=gene.activation,
                    in_shape=shape,
                    out_shape=(gene.units,),
                    units=gene.units,
                    weight_shape=(gene.units, in_features),
                    bias_shape=(gene.units,),
                    fan_in=in_features,
                )
            )
        else:
            reshape_to = None
            if first_tconv:
                flat = _prod(shape)
                c_in = _ceil_div(flat, h0 * w0)
                reshape_to = (c_in, h0, w0)
                in_spatial = reshape_to
                first_tconv = False
            else:
                in_spatial = shape  # already (c, h, w)
            c, h, w = in_spatial
            out_shape = (gene.units, h * 2, w * 2)
            layers.append(
                LayerPlan(
                    gene_id=gene.innovation_id,
                    kind=TRANSPOSE_CONV,
                    activation=gene.activation,
                    in_shape=shape,
                    out_shape=out_shape,
                    units=gene.units,
                    weight_shape=(c, gene.units, TCONV_KERNEL, TCONV_KERNEL),
                    bias_shape=(gene.units,),
                    fan_in=c * TCONV_KERNEL * TCONV_KERNEL,
                    kernel=TCONV_KERNEL,
                    stride=TCONV_STRIDE,
                    padding=TCONV_PADDING,
                    reshape_to=reshape_to,
                )
            )
        shape = layers[-1].out_shape
    if n_tconv > 0:
        c, h, w = shape
        adapter = AdapterPlan(
            kind="conv",
            in_shape=shape,
            out_shape=tuple(data_shape),
            weight_shape=(target_c, c, 1, 1),
            bias_shape=(target_c,),
            fan_in=c,
            post="tanh",
            crop=(target_h, target_w),
        )
    else:
        in_features = _prod(shape)
        out_features = target_c * target_h * target_w
        adapter = AdapterPlan(
            kind="linear",
            in_shape=shape,
            out_shape=tuple(data_shape),
            weight_shape=(out_features, in_features),
            bias_shape=(out_features,),
            fan_in=in_features,
            post="tanh",
            reshape=tuple(data_shape),
        )
    return ShapePlan(
        input_shape=(noise_dim,),
        layers=tuple(layers),
        adapter=adapter,
        output_shape=tuple(data_shape),
    )


def _prod(shape: tuple[int, ...]) -> int:
    out = 1
    for s in shape:
        out *= s
    return out


def gene_to_record(gene: Gene) -> dict:
    return {
        "innovation_id": gene.innovation_id,
        "kind": gene.kind,
        "units": gene.units,
        "activation": gene.activation,
    }


def gene_from_record(record: dict) -> Gene:
    return Gene(
        innovation_id=int(record["innovation_id"]),
        kind=record["kind"],
        units=int(record["units"]),
        activation=record["activation"],
    )


def genome_to_record(genome: Genome) -> dict:
    """Self-describing record embedded in checkpoints."""
    return {
        "role": genome.role,
        "max_len": genome.max_len,
        "genes": [gene_to_record(g) for g in genome.genes],
    }


def genome_from_record(record: dict) -> Genome:
    return Genome(
        role=record["role"],
        genes=tuple(gene_from_record(g) for g in record["genes"]),
        max_len=int(record["max_len"]),
    )
