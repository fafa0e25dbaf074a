"""Fitness assignment and evaluation metrics.

Discriminator fitness is the mean adversarial loss over its training bouts.
Generator fitness is the Frechet distance between Gaussians fitted to embedded
real and generated samples; the embedding is pluggable (identity flatten or a
fixed random projection) since no pretrained feature extractor is bundled.
Also provides the RMSE metric and a classifier-based diversity score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gan import PairingOutcome


class Embedding:
    """Deterministic map from a sample batch to fixed-size feature vectors."""

    def __init__(self, name: str, transform):
        self.name = name
        self._transform = transform

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        features = np.asarray(self._transform(np.asarray(samples)), dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("embedding must return a 2-d feature matrix")
        return features


def identity_embedding() -> Embedding:
    return Embedding("identity", lambda x: x.reshape(x.shape[0], -1))


def random_projection_embedding(out_dim: int = 64, matrix_seed: int = 7) -> Embedding:
    """Fixed seeded linear projection; the matrix depends only on (matrix_seed,
    input dim), never on the run's seed."""
    matrices: dict[int, np.ndarray] = {}

    def transform(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1).astype(np.float64)
        in_dim = flat.shape[1]
        if in_dim not in matrices:
            rng = np.random.default_rng([matrix_seed, in_dim])
            matrices[in_dim] = rng.standard_normal((in_dim, out_dim)) / np.sqrt(in_dim)
        return flat @ matrices[in_dim]

    return Embedding(f"randproj{out_dim}", transform)


@dataclass(frozen=True)
class GaussianSummary:
    mean: np.ndarray
    cov: np.ndarray


def estimate_gaussian(features: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased covariance (divisor n-1), symmetrized."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("need at least 2 feature rows to estimate a Gaussian")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return GaussianSummary(mean=mean, cov=cov)


def frechet_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    The square-root trace comes from the symmetric eigendecomposition of
    S_a^{1/2} S_b S_a^{1/2}; tiny negative eigenvalues are clamped to zero and
    the result is clamped to be non-negative.
    """
    if a.mean.shape != b.mean.shape or a.cov.shape != b.cov.shape:
        raise ValueError("Gaussian summaries have mismatched dimensions")
    parts = (a.mean, a.cov, b.mean, b.cov)
    if not all(np.isfinite(p).all() for p in parts):
        raise ValueError("non-finite values in Gaussian summaries")
    diff = a.mean - b.mean
    mean_term = float(diff @ diff)
    eigvals_a, vecs_a = np.linalg.eigh(a.cov)
    sqrt_a = (vecs_a * np.sqrt(np.clip(eigvals_a, 0.0, None))) @ vecs_a.T
    inner = sqrt_a @ b.cov @ sqrt_a
    inner = (inner + inner.T) / 2.0
    eigvals = np.linalg.eigvalsh(inner)
    # negative eigenvalues are numerical noise on PSD inputs
    trace_sqrt = float(np.sqrt(np.clip(eigvals, 0.0, None)).sum())
    value = mean_term + float(np.trace(a.cov) + np.trace(b.cov)) - 2.0 * trace_sqrt
    return max(value, 0.0)


def fid(embedding: Embedding, real_samples: np.ndarray, fake_samples: np.ndarray,
        n: int) -> float:
    """Frechet distance between embedded real and fake sample Gaussians."""
    real_samples = np.asarray(real_samples)
    fake_samples = np.asarray(fake_samples)
    if real_samples.shape[0] < n or fake_samples.shape[0] < n:
        raise ValueError(
            f"need {n} samples per side, got {real_samples.shape[0]} real "
            f"and {fake_samples.shape[0]} fake"
        )
    real_gauss = estimate_gaussian(embedding(real_samples[:n]))
    fake_gauss = estimate_gaussian(embedding(fake_samples[:n]))
    return frechet_distance(real_gauss, fake_gauss)


def rmse_metric(fake_samples: np.ndarray, real_samples: np.ndarray, n: int) -> float:
    """Root mean squared elementwise difference over n sample pairs."""
    fake_samples = np.asarray(fake_samples, dtype=np.float64)
    real_samples = np.asarray(real_samples, dtype=np.float64)
    if fake_samples.shape[0] < n or real_samples.shape[0] < n:
        raise ValueError(f"need {n} samples per side for the RMSE metric")
    diff = fake_samples[:n] - real_samples[:n]
    return float(np.sqrt(np.mean(diff * diff)))


def classifier_score(classifier, fake_samples: np.ndarray, n: int) -> float:
    """exp(mean KL(p(y|x) || mean p(y|x))) over n generated samples.

    The classifier must return one probability vector per sample; rows are
    rejected if they deviate from summing to 1 by more than 1e-6.
    """
    fake_samples = np.asarray(fake_samples)
    if fake_samples.shape[0] < n:
        raise ValueError(f"need {n} samples for the classifier score")
    probs = np.asarray(classifier(fake_samples[:n]), dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != n:
        raise ValueError("classifier must return one probability row per sample")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"classifier output row {worst} sums to {sums[worst]}, not 1")
    marginal = probs.mean(axis=0)
    mask = probs > 0
    kl_terms = np.where(mask, probs * (np.log(np.where(mask, probs, 1.0)) - np.log(marginal)), 0.0)
    return float(np.exp(kl_terms.sum(axis=1).mean()))


def assign_fitness(
    pairing_outcomes: list[PairingOutcome],
    fid_per_generator: dict[int, float],
    discriminator_ids: list[int] | None = None,
) -> dict[int, float]:
    """Discriminators get their mean bout loss; generators get their FID.

    Both are values to minimise.  A discriminator with no pairings is an
    error (its fitness would be undefined).
    """
    d_losses: dict[int, list[float]] = {}
    for outcome in pairing_outcomes:
        d_losses.setdefault(outcome.discriminator_id, []).append(outcome.d_loss_mean)
    if discriminator_ids is not None:
        missing = [i for i in discriminator_ids if i not in d_losses]
        if missing:
            raise ValueError(f"discriminators with zero pairings: {missing}")
    fitness = {d_id: float(np.mean(losses)) for d_id, losses in d_losses.items()}
    fitness.update((g_id, float(value)) for g_id, value in fid_per_generator.items())
    return fitness
