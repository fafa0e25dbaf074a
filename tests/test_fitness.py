import tracemalloc

import numpy as np
import pytest

from ganevo import fitness as F
from ganevo import gan


def scalar_frechet(m1, s1, m2, s2):
    """1-d closed form: (m1-m2)^2 + s1 + s2 - 2 sqrt(s1 s2)."""
    return (m1 - m2) ** 2 + s1 + s2 - 2.0 * np.sqrt(s1 * s2)


def summary(mean, cov):
    return F.GaussianSummary(mean=np.atleast_1d(np.asarray(mean, dtype=np.float64)),
                             cov=np.atleast_2d(np.asarray(cov, dtype=np.float64)))


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + 0.1 * np.eye(dim)


class TestEstimateGaussian:
    def test_constant_rows(self):
        rows = np.tile([3.0, -1.0], (10, 1))
        g = F.estimate_gaussian(rows)
        assert np.allclose(g.mean, [3.0, -1.0])
        assert np.allclose(g.cov, 0.0)

    def test_unbiased_variance(self):
        g = F.estimate_gaussian(np.array([[-1.0], [1.0]]))
        assert g.mean[0] == pytest.approx(0.0)
        assert g.cov[0, 0] == pytest.approx(2.0)  # divisor n-1

    def test_independent_coordinates_decorrelate(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10_000, 2))
        g = F.estimate_gaussian(feats)
        rho = g.cov[0, 1] / np.sqrt(g.cov[0, 0] * g.cov[1, 1])
        assert abs(rho) < 0.05

    def test_symmetry(self, rng):
        g = F.estimate_gaussian(rng.standard_normal((50, 6)))
        assert np.array_equal(g.cov, g.cov.T)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            F.estimate_gaussian(np.ones((1, 3)))


class TestFrechetDistance:
    def test_identical_gaussians(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            g = summary(rng.standard_normal(dim), random_psd(rng, dim))
            assert F.frechet_distance(g, g) == pytest.approx(0.0, abs=1e-8)

    def test_scalar_mean_shift(self):
        a = summary(0.0, 1.0)
        b = summary(1.0, 1.0)
        assert F.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_variance_gap(self):
        a = summary(0.0, 1.0)
        b = summary(0.0, 4.0)
        assert F.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_one_dimensional_matches_closed_form(self, rng):
        for _ in range(100):
            m1, m2 = rng.standard_normal(2) * 3
            s1, s2 = rng.random(2) * 4 + 0.01
            got = F.frechet_distance(summary(m1, s1), summary(m2, s2))
            assert got == pytest.approx(scalar_frechet(m1, s1, m2, s2), abs=1e-8)

    def test_diagonal_matches_per_coordinate_sum(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            m1, m2 = rng.standard_normal((2, dim)) * 2
            v1 = rng.random(dim) * 3 + 0.01
            v2 = rng.random(dim) * 3 + 0.01
            got = F.frechet_distance(summary(m1, np.diag(v1)), summary(m2, np.diag(v2)))
            want = sum(scalar_frechet(m1[i], v1[i], m2[i], v2[i]) for i in range(dim))
            assert got == pytest.approx(want, abs=1e-8)

    def test_symmetry_on_random_psd_pairs(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            a = summary(rng.standard_normal(dim), random_psd(rng, dim))
            b = summary(rng.standard_normal(dim), random_psd(rng, dim))
            assert F.frechet_distance(a, b) == pytest.approx(
                F.frechet_distance(b, a), abs=1e-8)
            assert F.frechet_distance(a, b) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            F.frechet_distance(summary([0.0], [[1.0]]),
                               summary([0.0, 0.0], np.eye(2)))

    def test_non_finite_rejected(self):
        bad = summary([np.nan], [[1.0]])
        with pytest.raises(ValueError):
            F.frechet_distance(bad, summary([0.0], [[1.0]]))

    def test_summary_takes_exactly_one_of_cov_and_root(self):
        with pytest.raises(TypeError):
            F.GaussianSummary(np.zeros(2))
        with pytest.raises(TypeError):
            F.GaussianSummary(np.zeros(2), np.eye(2), root=np.eye(2))

    def test_rows_root_and_cov_root_agree_on_full_rank_data(self, rng):
        rows_a = rng.standard_normal((500, 6))
        rows_b = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6)) + 0.3
        from_rows = [F.estimate_gaussian(rows) for rows in (rows_a, rows_b)]
        from_cov = [F.GaussianSummary(g.mean, np.cov(rows, rowvar=False))
                    for g, rows in zip(from_rows, (rows_a, rows_b))]
        want = F.frechet_distance(*from_cov)
        assert F.frechet_distance(*from_rows) == pytest.approx(want, rel=1e-10)

    def test_symmetric_with_roots_of_different_heights(self, rng):
        a = F.estimate_gaussian(rng.standard_normal((64, 784)))
        b = F.estimate_gaussian(rng.random((256, 784)))
        assert a.root.shape == (64, 784) and b.root.shape == (256, 784)
        assert F.frechet_distance(a, b) == pytest.approx(F.frechet_distance(b, a))


class TestFid:
    def test_exact_copies_give_zero(self, rng):
        samples = rng.standard_normal((500, 1, 2, 2)).astype(np.float32)
        value = F.fid(F.identity_embedding(), samples, samples.copy(), n=500)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_same_source_small_and_shrinking_with_n(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((4000, 4))
        fake = rng.standard_normal((4000, 4))
        emb = F.identity_embedding()
        small_n = F.fid(emb, real, fake, n=100)
        large_n = F.fid(emb, real, fake, n=4000)
        assert large_n < small_n
        assert large_n < 0.05

    def test_unit_mean_shift_approaches_dimension(self):
        rng = np.random.default_rng(2)
        real = rng.standard_normal((4000, 4))
        fake = rng.standard_normal((4000, 4)) + 1.0
        value = F.fid(F.identity_embedding(), real, fake, n=4000)
        assert value == pytest.approx(4.0, rel=0.10)

    @pytest.mark.parametrize("n,d", [(64, 784), (256, 784), (1000, 784), (1000, 2)])
    def test_shifted_copy_gives_squared_shift(self, n, d):
        rng = np.random.default_rng([n, d])
        x = rng.standard_normal((n, d))
        s = rng.standard_normal(d)
        value = F.fid(F.identity_embedding(), x, x + s, n)
        assert abs(value - s @ s) <= 1e-10 * (1.0 + s @ s)

    def test_wide_samples_build_no_feature_square(self, rng):
        real = rng.standard_normal((64, 784))
        fake = rng.standard_normal((64, 784))
        tracemalloc.start()
        try:
            F.fid(F.identity_embedding(), real, fake, n=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 784 x 784 float64 array alone is 4.7 MiB
        assert peak < 4 * 2**20

    def test_insufficient_samples(self, rng):
        samples = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            F.fid(F.identity_embedding(), samples, samples, n=11)

    def test_non_finite_fake_sample_gives_inf(self, rng):
        real = rng.standard_normal((10, 3))
        fake = real.copy()
        fake[4, 1] = np.nan
        assert F.fid(F.identity_embedding(), real, fake, n=10) == np.inf


class TestEmbeddings:
    def test_identity_flattens(self, rng):
        feats = F.identity_embedding()(rng.standard_normal((5, 2, 3, 4)))
        assert feats.shape == (5, 24)

    def test_random_projection_fixed_dim_and_deterministic(self, rng):
        x = rng.standard_normal((6, 1, 5, 5))
        a = F.random_projection_embedding()(x)
        b = F.random_projection_embedding()(x)
        assert a.shape == (6, 64)
        assert np.array_equal(a, b)


class TestRmse:
    def test_identical_sets(self, rng):
        x = rng.standard_normal((20, 1, 4, 4))
        assert F.rmse_metric(x, x.copy(), 20) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset(self, rng):
        x = rng.standard_normal((20, 1, 4, 4))
        assert F.rmse_metric(x + 1.0, x, 20) == pytest.approx(1.0, abs=1e-9)

    def test_sign_flip_of_unit_entries(self, rng):
        x = rng.choice([-1.0, 1.0], size=(30, 2, 3, 3))
        assert F.rmse_metric(-x, x, 30) == pytest.approx(2.0, abs=1e-12)

    def test_insufficient_samples(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            F.rmse_metric(x, x, 6)


class TestClassifierScore:
    def test_constant_classifier_scores_one(self, rng):
        def classifier(batch):
            return np.tile([0.25, 0.25, 0.5], (len(batch), 1))
        samples = rng.standard_normal((10, 2))
        assert F.classifier_score(classifier, samples, 10) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_one_hot_coverage_scores_k(self, rng):
        k = 5
        def classifier(batch):
            out = np.zeros((len(batch), k))
            out[np.arange(len(batch)), np.arange(len(batch)) % k] = 1.0
            return out
        samples = rng.standard_normal((10, 2))
        assert F.classifier_score(classifier, samples, 10) == pytest.approx(float(k), abs=1e-9)

    def test_two_class_half_split(self, rng):
        def classifier(batch):
            out = np.zeros((len(batch), 2))
            half = len(batch) // 2
            out[:half, 0] = 1.0
            out[half:, 1] = 1.0
            return out
        samples = rng.standard_normal((8, 2))
        assert F.classifier_score(classifier, samples, 8) == pytest.approx(2.0, abs=1e-9)

    def test_score_within_one_and_k(self, rng):
        k = 4
        def classifier(batch):
            raw = rng.random((len(batch), k)) + 1e-3
            return raw / raw.sum(axis=1, keepdims=True)
        for _ in range(20):
            score = F.classifier_score(classifier, rng.standard_normal((12, 2)), 12)
            assert 1.0 - 1e-9 <= score <= k + 1e-9

    def test_unnormalized_rows_rejected(self, rng):
        def classifier(batch):
            return np.full((len(batch), 3), 0.5)
        with pytest.raises(ValueError):
            F.classifier_score(classifier, rng.standard_normal((4, 2)), 4)


def outcome(g_id, d_id, d_loss_mean, g_loss_mean=0.5):
    return gan.PairingOutcome(generator_id=g_id, discriminator_id=d_id,
                              d_loss_mean=d_loss_mean, g_loss_mean=g_loss_mean,
                              batches=1)


class TestAssignFitness:
    def test_single_pairing(self):
        records = F.assign_fitness([outcome(1, 2, 1.3)], {1: 10.0})
        assert records[2] == pytest.approx(1.3)

    def test_mean_over_pairings(self):
        outcomes = [outcome(1, 2, 1.0), outcome(3, 2, 2.0)]
        records = F.assign_fitness(outcomes, {1: 5.0, 3: 6.0})
        assert records[2] == pytest.approx(1.5)

    def test_generator_gets_its_fid(self):
        records = F.assign_fitness([outcome(1, 2, 1.0)], {1: 42.0})
        assert records[1] == pytest.approx(42.0)

    def test_order_invariance(self, rng):
        outcomes = [outcome(1, 10, 1.0), outcome(2, 10, 2.0), outcome(1, 11, 3.0),
                    outcome(2, 11, 4.0)]
        fid_map = {1: 7.0, 2: 8.0}
        base = F.assign_fitness(outcomes, fid_map)
        for _ in range(5):
            shuffled = [outcomes[i] for i in rng.permutation(len(outcomes))]
            assert F.assign_fitness(shuffled, fid_map) == base

    def test_non_finite_values_rank_last(self):
        outcomes = [outcome(1, 2, np.nan), outcome(1, 3, 1.0), outcome(4, 3, np.inf),
                    outcome(4, 5, 2.0)]
        records = F.assign_fitness(outcomes, {1: np.nan, 4: 3.0})
        assert records == {2: np.inf, 3: np.inf, 5: 2.0, 1: np.inf, 4: 3.0}

    def test_zero_pairing_discriminator_rejected(self):
        with pytest.raises(ValueError):
            F.assign_fitness([outcome(1, 2, 1.0)], {1: 5.0},
                             discriminator_ids=[2, 3])
