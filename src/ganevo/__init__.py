"""Coevolutionary architecture search for adversarial generative networks.

Two subpopulations (generators and discriminators) evolve their layer-level
genomes while gradient descent trains the weights inside each generation.
See the README for the CLI and the module layout.
"""

from .backend import NetworkInstance, ParamStore, build_network
from .coevolution import EvolutionState, Individual, MetricsRecord, make_pairs, run_generation
from .experiment import RunConfig, load_config, resume_evolution, run_evolution
from .fitness import fid, frechet_distance
from .gan import NoiseSource, train_pair
from .genome import Gene, Genome, distance, infer_shapes, new_minimal_genome, validate
from .variation import mutate_with_events, next_generation, speciate

__version__ = "0.1.0"

__all__ = [
    "NetworkInstance", "ParamStore", "build_network",
    "EvolutionState", "Individual", "make_pairs", "resume_evolution",
    "run_evolution", "run_generation", "MetricsRecord", "RunConfig",
    "load_config", "fid", "frechet_distance", "NoiseSource",
    "train_pair", "Gene", "Genome", "distance", "infer_shapes",
    "new_minimal_genome", "validate", "mutate_with_events",
    "next_generation", "speciate", "__version__",
]
