"""Coevolutionary architecture search for adversarial generative networks.

Two subpopulations (generators and discriminators) evolve their layer-level
genomes while gradient descent trains the weights inside each generation.
See the README for the CLI and the module layout.
"""

__version__ = "0.1.0"
