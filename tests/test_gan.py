import math

import numpy as np
import pytest

from conftest import build_individual, make_genome
from ganevo import backend as B
from ganevo import experiment as E
from ganevo import gan
from ganevo import genome as G


class TestLossValues:
    def test_perfect_discriminator(self):
        assert gan.d_loss(np.ones(4), np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_coin_flip_discriminator(self):
        assert gan.d_loss(np.full(3, 0.5), np.full(3, 0.5)) == \
            pytest.approx(2 * math.log(2), abs=1e-9)

    def test_clamp_at_zero_real(self):
        assert gan.d_loss(np.zeros(1), np.zeros(1)) == \
            pytest.approx(-math.log(1e-7), abs=1e-6)

    def test_generator_fooling(self):
        assert gan.g_loss(np.ones(5)) == pytest.approx(0.0, abs=1e-12)

    def test_generator_coin_flip(self):
        assert gan.g_loss(np.full(7, 0.5)) == pytest.approx(math.log(2), abs=1e-9)

    def test_generator_clamp(self):
        assert gan.g_loss(np.zeros(2)) == pytest.approx(-math.log(1e-7), abs=1e-6)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            gan.d_loss(np.array([]), np.array([0.5]))
        with pytest.raises(ValueError):
            gan.d_loss(np.array([0.5]), np.array([]))
        with pytest.raises(ValueError):
            gan.g_loss(np.array([]))

    def test_losses_non_negative(self, rng):
        for _ in range(100):
            d_real = rng.random(8)
            d_fake = rng.random(8)
            assert gan.d_loss(d_real, d_fake) >= 0.0
            assert gan.g_loss(d_fake) >= 0.0

    def test_permutation_invariance(self, rng):
        d_real = rng.random(16)
        d_fake = rng.random(16)
        perm = rng.permutation(16)
        assert gan.d_loss(d_real, d_fake) == pytest.approx(
            gan.d_loss(d_real[perm], d_fake[perm]), abs=1e-12)
        assert gan.g_loss(d_fake) == pytest.approx(gan.g_loss(d_fake[perm]), abs=1e-12)


class TestLossGradients:
    def _fd(self, fn, p, h=1e-7):
        grads = np.zeros_like(p)
        for i in range(p.size):
            orig = p[i]
            p[i] = orig + h
            lp = fn()
            p[i] = orig - h
            lm = fn()
            p[i] = orig
            grads[i] = (lp - lm) / (2 * h)
        return grads

    def test_d_loss_grads_match_finite_differences(self, rng):
        d_real = rng.random(6) * 0.8 + 0.1
        d_fake = rng.random(6) * 0.8 + 0.1
        g_real, g_fake = gan.d_loss_grads(d_real, d_fake)
        fd_real = self._fd(lambda: gan.d_loss(d_real, d_fake), d_real)
        fd_fake = self._fd(lambda: gan.d_loss(d_real, d_fake), d_fake)
        assert np.allclose(g_real, fd_real, rtol=1e-5)
        assert np.allclose(g_fake, fd_fake, rtol=1e-5)

    def test_g_loss_grad_matches_finite_differences(self, rng):
        d_fake = rng.random(6) * 0.8 + 0.1
        grads = gan.g_loss_grad(d_fake)
        fd = self._fd(lambda: gan.g_loss(d_fake), d_fake)
        assert np.allclose(grads, fd, rtol=1e-5)

    def test_clamped_region_has_zero_gradient(self):
        g_real, g_fake = gan.d_loss_grads(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
        assert g_real[0] == 0.0 and g_real[1] != 0.0
        assert g_fake[0] == 0.0 and g_fake[1] != 0.0
        assert gan.g_loss_grad(np.array([0.0]))[0] == 0.0


class TestNoiseSource:
    def test_shape_and_dtype(self, rng):
        noise = gan.NoiseSource(17, rng)
        z = noise.sample(5)
        assert z.shape == (5, 17)
        assert z.dtype == np.float32

    def test_state_restore_replays(self):
        # a checkpoint saves the noise streams' rng states and nothing else
        noise = gan.NoiseSource(4, np.random.default_rng(3))
        saved = noise.rng.bit_generator.state
        a = noise.sample(3)
        noise.rng.bit_generator.state = saved
        b = noise.sample(3)
        assert np.array_equal(a, b)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            gan.NoiseSource(0)


def _setup_pair(seed, data_shape=(1, 1, 2), noise_dim=8):
    rng = np.random.default_rng(seed)
    d_genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 16, "leaky_relu")])
    g_genome = make_genome(G.GENERATOR, [(1, G.LINEAR, 16, "relu")])
    d = build_individual(10, d_genome, data_shape, noise_dim, rng)
    g = build_individual(11, g_genome, data_shape, noise_dim, rng)
    source = E.Ring2dSource(4, 1.0, 0.05, np.random.default_rng(seed + 1), scale=1.1)
    noise = gan.NoiseSource(noise_dim, np.random.default_rng(seed + 2))
    return d, g, source, noise


class TestTrainPair:
    def test_single_batch_advances_each_step_counter_once(self):
        d, g, source, noise = _setup_pair(0)
        config = E.RunConfig(batches_per_pair=1, batch_size=8)
        outcome = gan.train_pair(d, g, source, config, noise)
        for store in (d.param_store, g.param_store):
            for entry in store.entries.values():
                assert entry.step == 1
        assert outcome.batches == 1
        assert outcome.generator_id == 11 and outcome.discriminator_id == 10

    def test_zero_learning_rate_is_pure_evaluation(self):
        d, g, source, noise = _setup_pair(1)
        data_state = source.rng.bit_generator.state
        noise_state = noise.rng.bit_generator.state
        weights_before = {k: e.weights.copy() for k, e in d.param_store.entries.items()}
        config = E.RunConfig(batches_per_pair=3, batch_size=8, learning_rate=0.0)
        outcome = gan.train_pair(d, g, source, config, noise)
        for key, before in weights_before.items():
            assert np.array_equal(d.param_store.get(key).weights, before)
        # replay the same stream and evaluate the losses directly
        source.rng.bit_generator.state = data_state
        noise.rng.bit_generator.state = noise_state
        d_losses, g_losses = [], []
        for _ in range(3):
            real = source.next_batch(8)
            fake = g.network.forward(noise.sample(8), train=False)
            p_real = d.network.forward(real, train=False)
            p_fake = d.network.forward(fake, train=False)
            d_losses.append(gan.d_loss(p_real, p_fake))
            fake2 = g.network.forward(noise.sample(8), train=False)
            g_losses.append(gan.g_loss(d.network.forward(fake2, train=False)))
        assert outcome.d_loss_mean == pytest.approx(np.mean(d_losses), abs=1e-12)
        assert outcome.g_loss_mean == pytest.approx(np.mean(g_losses), abs=1e-12)

    def test_deterministic_replay(self):
        outcomes = []
        for _ in range(2):
            d, g, source, noise = _setup_pair(42)
            config = E.RunConfig(batches_per_pair=2, batch_size=8)
            outcomes.append(gan.train_pair(d, g, source, config, noise))
        assert outcomes[0] == outcomes[1]

    def test_training_changes_parameters(self):
        d, g, source, noise = _setup_pair(7)
        g_before = {k: e.weights.copy() for k, e in g.param_store.entries.items()}
        config = E.RunConfig(batches_per_pair=2, batch_size=8)
        gan.train_pair(d, g, source, config, noise)
        changed = any(not np.array_equal(g.param_store.get(k).weights, w)
                      for k, w in g_before.items())
        assert changed

    def test_unbuilt_network_rejected(self):
        d, g, source, noise = _setup_pair(3)
        d.network = None
        with pytest.raises(ValueError):
            gan.train_pair(d, g, source, E.RunConfig(batches_per_pair=1, batch_size=4), noise)


class TestGenerateSamples:
    def test_batched_generation_counts(self):
        _, g, _, noise = _setup_pair(5)
        samples = gan.generate_samples(g.network, noise, 25, chunk=8)
        assert samples.shape == (25, 1, 1, 2)

    def test_outputs_within_tanh_range(self):
        _, g, _, noise = _setup_pair(6)
        samples = gan.generate_samples(g.network, noise, 50)
        assert np.all(samples >= -1.0) and np.all(samples <= 1.0)


class TestEndToEndGradient:
    def test_d_loss_gradient_through_network(self):
        # finite differences through the full d_loss(real, fake) objective
        rng = np.random.default_rng(9)
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 6, "elu")])
        plan = G.infer_shapes(genome, (1, 2, 2), 4)
        net, _ = B.build_network(genome, plan, rng=rng, dtype=np.float64)
        real = rng.standard_normal((3, 1, 2, 2))
        fake = rng.standard_normal((3, 1, 2, 2))

        def loss():
            return gan.d_loss(net.forward(real, train=False),
                              net.forward(fake, train=False))

        p_real = net.forward(real, train=True)
        net.zero_grads()
        g_real, _ = gan.d_loss_grads(p_real, np.full(3, 0.5))
        net.backward(g_real)
        p_fake = net.forward(fake, train=True)
        _, g_fake = gan.d_loss_grads(np.full(3, 0.5), p_fake)
        net.backward(g_fake)

        h = 1e-6
        worst = 0.0
        for layer in net.trainable():
            for arr, grad in ((layer.entry.weights, layer.grad_w),
                              (layer.entry.bias, layer.grad_b)):
                flat, gflat = arr.ravel(), grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = loss()
                    flat[i] = orig - h
                    lm = loss()
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(gflat[i] - fd) / max(abs(gflat[i]) + abs(fd), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4
