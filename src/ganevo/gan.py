"""Adversarial objectives and the per-pair training bout.

The discriminator loss is -E[log D(x)] - E[log(1 - D(G(z)))]; the generator
trains on the non-saturating form -E[log D(G(z))].  Probabilities are clamped
to [1e-7, 1] inside the logs so losses stay finite; gradients vanish where the
clamp binds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import PROB_CLIP, NetworkInstance, adam_step


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.clip(p, PROB_CLIP, 1.0))


def d_loss(d_real: np.ndarray, d_fake: np.ndarray) -> float:
    """Discriminator loss over two probability batches (clamped logs)."""
    d_real = np.asarray(d_real, dtype=np.float64).ravel()
    d_fake = np.asarray(d_fake, dtype=np.float64).ravel()
    if d_real.size == 0 or d_fake.size == 0:
        raise ValueError("d_loss requires non-empty probability batches")
    return float(-_clamped_log(d_real).mean() - _clamped_log(1.0 - d_fake).mean())


def g_loss(d_fake: np.ndarray) -> float:
    """Non-saturating generator loss over discriminator outputs on fakes."""
    d_fake = np.asarray(d_fake, dtype=np.float64).ravel()
    if d_fake.size == 0:
        raise ValueError("g_loss requires a non-empty probability batch")
    return float(-_clamped_log(d_fake).mean())


def _neg_log_grad(p: np.ndarray) -> np.ndarray:
    """d/dp of -mean(log clamp(p)); zero where the clamp binds."""
    p = np.asarray(p, dtype=np.float64).ravel()
    return np.where(p > PROB_CLIP, -1.0 / (p.size * np.maximum(p, PROB_CLIP)), 0.0)


def d_loss_grads(d_real: np.ndarray, d_fake: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of d_loss w.r.t. each probability batch."""
    d_fake = np.asarray(d_fake, dtype=np.float64).ravel()
    return _neg_log_grad(d_real), -_neg_log_grad(1.0 - d_fake)


def g_loss_grad(d_fake: np.ndarray) -> np.ndarray:
    """Gradient of g_loss w.r.t. the probabilities; zero where clamped."""
    return _neg_log_grad(d_fake)


class NoiseSource:
    """Standard normal latent vectors of a fixed dimension."""

    def __init__(self, dimension: int, rng):
        if dimension < 1:
            raise ValueError("noise dimension must be >= 1")
        self.dimension = dimension
        self.rng = rng

    def sample(self, n: int) -> np.ndarray:
        return self.rng.standard_normal((n, self.dimension)).astype(np.float32)


@dataclass(frozen=True)
class PairingOutcome:
    """Record of one generator/discriminator training bout."""

    generator_id: int
    discriminator_id: int
    d_loss_mean: float
    g_loss_mean: float
    batches: int


def train_pair(d_individual, g_individual, data_source, config,
               noise: NoiseSource) -> PairingOutcome:
    """Train one (discriminator, generator) pair for a RunConfig's
    `batches_per_pair` batches of `batch_size` at its `learning_rate`.

    Per batch: one Adam step on the discriminator against a fresh real batch
    and a fresh fake batch, then one Adam step on the generator through a
    fresh fake batch.  Both individuals' parameter stores mutate in place.
    Recorded losses are evaluated before each update.
    """
    d_net: NetworkInstance = d_individual.network
    g_net: NetworkInstance = g_individual.network
    if d_net is None or g_net is None:
        raise ValueError("both networks must be built before training")
    d_losses = []
    g_losses = []
    for _ in range(config.batches_per_pair):
        real = data_source.next_batch(config.batch_size)

        # discriminator step: accumulate gradients from the real and the
        # fake batch, then one Adam update
        fake = g_net.forward(noise.sample(config.batch_size), train=False)
        d_net.zero_grads()
        p_real = d_net.forward(real, train=True)
        d_net.backward(_neg_log_grad(p_real).astype(d_net.dtype))
        p_fake = d_net.forward(fake, train=True)
        d_net.backward((-_neg_log_grad(1.0 - p_fake)).astype(d_net.dtype))
        d_losses.append(d_loss(p_real, p_fake))
        adam_step(d_net.store, config.learning_rate)

        # generator step: backprop through the (frozen) discriminator; the D
        # weight gradients it adds are zeroed, unread, by D's next step
        fake = g_net.forward(noise.sample(config.batch_size), train=True)
        p = d_net.forward(fake, train=True)
        g_losses.append(g_loss(p))
        d_fake_grad = d_net.backward(g_loss_grad(p).astype(d_net.dtype))
        g_net.zero_grads()
        g_net.backward(d_fake_grad)
        adam_step(g_net.store, config.learning_rate)

    return PairingOutcome(
        generator_id=g_individual.id,
        discriminator_id=d_individual.id,
        d_loss_mean=float(np.mean(d_losses)),
        g_loss_mean=float(np.mean(g_losses)),
        batches=config.batches_per_pair,
    )


def generate_samples(network: NetworkInstance, noise: NoiseSource, n: int,
                     chunk: int = 256) -> np.ndarray:
    """Draw n generator samples, `chunk` per forward pass, without caching
    intermediates."""
    chunks = []
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        chunks.append(network.forward(noise.sample(take), train=False))
        remaining -= take
    return np.concatenate(chunks, axis=0)
