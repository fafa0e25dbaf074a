"""Fitness assignment and evaluation metrics.

Discriminator fitness is the mean adversarial loss over its training bouts.
Generator fitness is the Frechet distance between Gaussians fitted to embedded
real and generated samples; the embedding is pluggable (identity flatten or a
fixed random projection) since no pretrained feature extractor is bundled.
Each Gaussian keeps its covariance S as a factor R with R.T @ R == S, at most
min(n, d) rows for n samples of d features, and the Frechet trace term
Tr((S_a S_b)^{1/2}) is the nuclear norm of R_a @ R_b.T, so no d x d array is
formed when n <= d.
Also provides the RMSE metric and a classifier-based diversity score.
"""

from __future__ import annotations

import math

import numpy as np

from .gan import PairingOutcome


class Embedding:
    """Deterministic map from a sample batch to fixed-size feature vectors."""

    def __init__(self, transform):
        self._transform = transform

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        features = np.asarray(self._transform(np.asarray(samples)), dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("embedding must return a 2-d feature matrix")
        return features


def identity_embedding() -> Embedding:
    return Embedding(lambda x: x.reshape(x.shape[0], -1))


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

    return Embedding(transform)


# a RunConfig's `embedding` names one of these factories
EMBEDDINGS = {"identity": identity_embedding, "randproj": random_projection_embedding}


class GaussianSummary:
    """A Gaussian's mean and a factor `root` of its covariance: a k x d
    matrix with root.T @ root == cov.  Give either the covariance, whose
    symmetric square root becomes the root, or the root itself."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray | None = None, *,
                 root: np.ndarray | None = None):
        if (cov is None) == (root is None):
            raise TypeError("GaussianSummary takes exactly one of cov and root")
        if root is None:
            eigvals, vecs = np.linalg.eigh(cov)
            # negative eigenvalues are numerical noise on PSD inputs
            root = (vecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ vecs.T
        self.mean = mean
        self.root = root

    @property
    def cov(self) -> np.ndarray:
        """The d x d covariance, for inspection; `fid` never forms it."""
        return self.root.T @ self.root


def estimate_gaussian(features: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased covariance (divisor n-1) of n rows of d
    features, kept as a root: the centered rows / sqrt(n-1) when n <= d,
    else their QR factor R (d x d), so the root has min(n, d) rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("need at least 2 feature rows to estimate a Gaussian")
    n, d = features.shape
    mean = features.mean(axis=0)
    centered = features - mean
    root = centered if n <= d else np.linalg.qr(centered, mode="r")
    return GaussianSummary(mean, root=root / math.sqrt(n - 1))


def frechet_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    With S = R.T @ R for each side's root R, Tr(S) is the sum of R's squared
    entries, and Tr((S_a S_b)^{1/2}) is the nuclear norm (the sum of the
    singular values) of R_a @ R_b.T: the nonzero eigenvalues of S_a S_b are
    those of (R_a R_b.T)(R_a R_b.T).T.  That product is k_a x k_b, so two
    Gaussians estimated from n <= d rows each cost one n x n SVD and no
    d x d array.  The result is clamped to be non-negative.
    """
    if a.mean.shape != b.mean.shape or a.root.shape[1:] != b.root.shape[1:]:
        raise ValueError("Gaussian summaries have mismatched dimensions")
    parts = (a.mean, a.root, b.mean, b.root)
    if not all(np.isfinite(p).all() for p in parts):
        raise ValueError("non-finite values in Gaussian summaries")
    diff = a.mean - b.mean
    trace_sqrt = np.linalg.svd(a.root @ b.root.T, compute_uv=False).sum()
    value = (diff @ diff + np.vdot(a.root, a.root) + np.vdot(b.root, b.root)
             - 2.0 * trace_sqrt)
    return max(float(value), 0.0)


def fid(embedding: Embedding, real_samples: np.ndarray, fake_samples: np.ndarray,
        n: int) -> float:
    """Frechet distance between embedded real and fake sample Gaussians;
    inf when a fake sample is not finite, so a diverged generator ranks
    last."""
    real_samples = np.asarray(real_samples)
    fake_samples = np.asarray(fake_samples)
    if real_samples.shape[0] < n or fake_samples.shape[0] < n:
        raise ValueError(
            f"need {n} samples per side, got {real_samples.shape[0]} real "
            f"and {fake_samples.shape[0]} fake"
        )
    if not np.isfinite(fake_samples[:n]).all():
        return math.inf
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

    Both are values to minimise, and one that is not finite becomes inf, so
    a diverged individual ranks last.  A discriminator with no pairings is
    an error (its fitness would be undefined).
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
    return {i: value if math.isfinite(value) else math.inf for i, value in fitness.items()}
