"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale evolution runs (criteria 8-10) share a module-scoped fixture;
everything in them is seeded, so the suite is deterministic end to end.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import make_genome
from ganevo import backend as B
from ganevo import coevolution as C
from ganevo import experiment as E
from ganevo import fitness as F
from ganevo import gan
from ganevo import genome as G
from ganevo import variation as V


def _report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {description}"
          + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {description} {detail}"


def scalar_frechet(m1, s1, m2, s2):
    return (m1 - m2) ** 2 + s1 + s2 - 2.0 * math.sqrt(s1 * s2)


class TestCriterion1FrechetOracle:
    def test_closed_form_cases(self):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for case in range(100):
            if case % 2 == 0:  # 1-d case
                m1, m2 = rng.standard_normal(2) * 3
                s1, s2 = rng.random(2) * 5 + 1e-3
                a = F.GaussianSummary(np.array([m1]), np.array([[s1]]))
                b = F.GaussianSummary(np.array([m2]), np.array([[s2]]))
                want = scalar_frechet(m1, s1, m2, s2)
            else:  # diagonal-covariance case
                dim = int(rng.integers(2, 9))
                mu1, mu2 = rng.standard_normal((2, dim)) * 2
                v1 = rng.random(dim) * 4 + 1e-3
                v2 = rng.random(dim) * 4 + 1e-3
                a = F.GaussianSummary(mu1, np.diag(v1))
                b = F.GaussianSummary(mu2, np.diag(v2))
                want = sum(scalar_frechet(mu1[i], v1[i], mu2[i], v2[i])
                           for i in range(dim))
            worst = max(worst, abs(F.frechet_distance(a, b) - want))
        identical = F.GaussianSummary(np.array([0.3, -0.2]),
                                      np.array([[2.0, 0.4], [0.4, 1.0]]))
        zero = F.frechet_distance(identical, identical)
        elapsed = time.perf_counter() - start
        _report(1, "Frechet distance matches the scalar closed form",
                worst < 1e-8 and zero < 1e-8 and elapsed < 1.0,
                f"worst err {worst:.2e}, identical {zero:.2e}, {elapsed:.2f}s")


class TestCriterion2GradientCorrectness:
    def test_every_layer_and_activation(self):
        start = time.perf_counter()
        worst = 0.0
        h = 1e-5
        for act_index, activation in enumerate(G.ACTIVATIONS):
            for kind_index, kind in enumerate((G.LINEAR, G.CONV, G.TRANSPOSE_CONV)):
                rng = np.random.default_rng(1000 + 100 * act_index + kind_index)
                for _ in range(20):
                    if kind == G.LINEAR:
                        units = int(rng.integers(2, 6))
                        genome = make_genome(G.DISCRIMINATOR,
                                             [(0, kind, units, activation)])
                        plan = G.infer_shapes(genome, (1, 3, 3), 4)
                        x = rng.standard_normal((2, 1, 3, 3))
                        upstream = rng.standard_normal(2)
                    elif kind == G.CONV:
                        units = int(rng.integers(2, 4))
                        genome = make_genome(G.DISCRIMINATOR,
                                             [(0, kind, units, activation)])
                        plan = G.infer_shapes(genome, (2, 5, 5), 4)
                        x = rng.standard_normal((2, 2, 5, 5))
                        upstream = rng.standard_normal(2)
                    else:
                        units = int(rng.integers(2, 4))
                        genome = make_genome(G.GENERATOR,
                                             [(0, kind, units, activation)])
                        plan = G.infer_shapes(genome, (1, 6, 6), 5)
                        x = rng.standard_normal((2, 5))
                        upstream = rng.standard_normal((2, 1, 6, 6))
                    net, _ = B.build_network(genome, plan, rng=rng, dtype=np.float64)
                    # nudge biases off zero: the zero-padded reshape tail
                    # otherwise lands pre-activations exactly on the relu
                    # kink, where central differences are not a valid oracle
                    for layer in net.trainable():
                        layer.entry.bias += rng.uniform(0.05, 0.15,
                                                        layer.entry.bias.shape)

                    def loss():
                        return float((net.forward(x, train=False) * upstream).sum())

                    net.forward(x, train=True)
                    net.zero_grads()
                    net.backward(upstream)
                    for layer in net.trainable():
                        for arr, grads in ((layer.entry.weights, layer.grad_w),
                                           (layer.entry.bias, layer.grad_b)):
                            flat, gflat = arr.ravel(), grads.ravel()
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
        elapsed = time.perf_counter() - start
        _report(2, "analytic gradients match finite differences for every "
                   "layer kind x activation",
                worst < 1e-4 and elapsed < 30.0,
                f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3LossValues:
    def test_exact_values_and_clamp(self):
        half_d = gan.d_loss(np.array([0.5]), np.array([0.5]))
        half_g = gan.g_loss(np.array([0.5]))
        clamp_d = gan.d_loss(np.array([0.0]), np.array([0.0]))
        clamp_g = gan.g_loss(np.array([0.0]))
        ok = (abs(half_d - 2 * math.log(2)) < 1e-9
              and abs(half_g - math.log(2)) < 1e-9
              and abs(clamp_d - (-math.log(1e-7))) < 1e-6
              and abs(clamp_g - (-math.log(1e-7))) < 1e-6)
        _report(3, "loss values match direct evaluation and the clamp rule", ok,
                f"d(0.5,0.5)={half_d!r}, g(0.5)={half_g!r}")


class TestCriterion4MutationStatistics:
    def test_rates_and_length_bounds(self):
        rng = np.random.default_rng(404)
        counter = G.InnovationCounter()
        config = E.RunConfig(add_layer_rate=0.20, remove_layer_rate=0.10,
                             change_layer_rate=0.10)
        counts = {"add_layer": 0, "remove_layer": 0, "change_layer": 0}
        trials = 10_000
        lengths_ok = True
        genome = G.new_minimal_genome(G.DISCRIMINATOR, rng, counter, config)
        for _ in range(trials):
            genome_fresh = G.new_minimal_genome(G.DISCRIMINATOR, rng, counter, config)
            _, events = V.mutate_with_events(genome_fresh, config, rng, counter)
            for name, fired in events.items():
                counts[name] += fired
            # also walk a single lineage to exercise the length bounds
            genome, _ = V.mutate_with_events(genome, config, rng, counter)
            lengths_ok = lengths_ok and 1 <= len(genome.genes) <= 6
        freqs = {k: v / trials for k, v in counts.items()}
        ok = (abs(freqs["add_layer"] - 0.20) <= 0.02
              and abs(freqs["remove_layer"] - 0.10) <= 0.02
              and abs(freqs["change_layer"] - 0.10) <= 0.02
              and lengths_ok)
        _report(4, "observed mutation frequencies within 0.02 of rates, "
                   "lengths within [1, 6]", ok,
                f"freqs {freqs}")


class TestCriterion5SpeciationControl:
    def test_cluster_recovery_and_adaptation(self):
        start = time.perf_counter()

        class Ind:
            def __init__(self, i, genome):
                self.id = i
                self.genome = genome

        def cluster_population(cluster_id_lists):
            inds = []
            for ids in cluster_id_lists:
                inds.append(Ind(len(inds), make_genome(
                    G.DISCRIMINATOR, [(i, G.LINEAR, 64, "relu") for i in ids])))
            return inds

        # one cluster: ten identical genomes
        one = cluster_population([[0, 1]] * 10)
        species, _ = V.speciate(one, 2.0, 3)
        recovered_one = len(species) == 1

        # three clusters, intra distance 0 and inter distance >= 4 > threshold
        three = cluster_population([[0, 1]] * 4 + [[10, 11]] * 3 + [[20, 21]] * 3)
        species, _ = V.speciate(three, 2.0, 3)
        recovered_three = len(species) == 3

        # ten singleton clusters with disjoint ids (pairwise distance >= 2)
        ten = cluster_population([[100 + 10 * i] for i in range(10)])
        species, _ = V.speciate(ten, 1.5, 3)
        recovered_ten = len(species) == 10

        # adaptive loop on heterogeneous sizes reaches [2, 4] or pins
        sizes = [1, 1, 2, 2, 3, 3, 4, 5, 6, 6]
        base = 0
        hetero_lists = []
        for size in sizes:
            hetero_lists.append(list(range(base, base + size)))
            base += size
        hetero = cluster_population(hetero_lists)
        threshold = 2.0
        adapted = False
        for _ in range(50):
            species, threshold = V.speciate(hetero, threshold, 3)
            if 2 <= len(species) <= 4 or threshold == V.MIN_THRESHOLD:
                adapted = True
                break

        # one-cluster population shrinks the threshold to the floor
        threshold = 2.0
        pinned = False
        for _ in range(50):
            _, threshold = V.speciate(one, threshold, 3)
            if threshold == V.MIN_THRESHOLD:
                pinned = True
                break

        elapsed = time.perf_counter() - start
        _report(5, "greedy speciation recovers cluster counts and the "
                   "threshold adapts into [2, 4] or pins",
                recovered_one and recovered_three and recovered_ten
                and adapted and pinned and elapsed < 5.0,
                f"{elapsed:.2f}s")


class TestCriterion6WeightTransfer:
    def test_hundred_random_mutations(self):
        rng = np.random.default_rng(606)
        counter = G.InnovationCounter()
        config = E.RunConfig(add_layer_rate=0.5, remove_layer_rate=0.3, change_layer_rate=0.5,
                             feature_range=(8, 24), channel_range=(4, 16))
        checked_copies = 0
        checked_fresh = 0
        ok = True
        for trial in range(100):
            role = G.DISCRIMINATOR if trial % 2 == 0 else G.GENERATOR
            genome = G.new_minimal_genome(role, rng, counter, config)
            plan = G.infer_shapes(genome, (1, 8, 8), 8)
            _, store = B.build_network(genome, plan, rng=rng)
            # make the parent's training state distinctive
            for entry in store.entries.values():
                entry.m_w += np.float32(0.5)
                entry.v_b += np.float32(0.25)
                entry.step = 17
            child, _ = V.mutate_with_events(genome, config, rng, counter)
            child_plan = G.infer_shapes(child, (1, 8, 8), 8)
            child_net, child_store = B.build_network(child, child_plan,
                                                     parent_store=store, rng=rng)
            shared_keys = set(child_store.entries) & set(store.entries)
            expected_copied = {gid for gid, _ in shared_keys if gid >= 0}
            ok = ok and child_net.copied_gene_ids == expected_copied
            for key in shared_keys:
                parent_entry = store.get(key)
                child_entry = child_store.get(key)
                ok = ok and np.array_equal(parent_entry.weights, child_entry.weights)
                ok = ok and np.array_equal(parent_entry.bias, child_entry.bias)
                ok = ok and np.array_equal(parent_entry.m_w, child_entry.m_w)
                ok = ok and np.array_equal(parent_entry.v_b, child_entry.v_b)
                ok = ok and parent_entry.step == child_entry.step == 17
                checked_copies += 1
            for key in set(child_store.entries) - set(store.entries):
                fresh = child_store.get(key)
                ok = (ok and fresh.step == 0 and np.all(fresh.m_w == 0)
                      and np.all(fresh.v_w == 0))
                checked_fresh += 1
        _report(6, "unchanged genes copy parameters and optimizer state "
                   "bit-exactly; changed/added genes start fresh",
                ok and checked_copies > 50 and checked_fresh > 20,
                f"{checked_copies} copies, {checked_fresh} fresh entries")


class TestCriterion7BoutAccounting:
    def test_ten_by_ten_all_vs_all(self, tmp_path):
        config = E.load_config(overrides=dict(
            dataset="ring2d", ring_modes=4, ring_radius=1.0,
            generations=1, generator_population=10, discriminator_population=10,
            batches_per_pair=20, batch_size=4, fid_samples=32, rmse_samples=32,
            noise_dim=8, feature_range=(8, 16), channel_range=(4, 8),
            pairing="all", seed=7, out_dir=str(tmp_path / "bouts")))
        state = E.init_state(config)
        pairs = C.make_pairs(config.pairing, state.generators,
                             state.discriminators, (None, None),
                             state.rng["pairing"])
        bouts = len(pairs)
        state, _ = C.run_generation(state, config)
        trained = state.last_best_generator
        steps_ok = all(e.step == 200 for e in trained.param_store.entries.values())
        # the returned state holds next-generation individuals; check the
        # trained parents through the elites' inherited stores as well
        parent_steps = {e.step for ind in state.generators + state.discriminators
                        if ind.param_store is not None
                        for e in ind.param_store.entries.values()}
        _report(7, "10+10 all-vs-all executes 100 bouts and 200 batches "
                   "per individual",
                bouts == 100 and steps_ok and parent_steps == {200},
                f"bouts={bouts}, steps={sorted(parent_steps)}")


DESK_SEEDS = (0, 1, 2, 3, 4)
# capture radius for the 8-mode/radius-2 ring: a third of the inter-mode gap,
# so a sample within it is unambiguously closest to that mode
CAPTURE_RADIUS = 0.5


def desk_config(out_dir, seed, generations=30):
    return E.load_config(overrides=dict(
        dataset="ring2d", ring_modes=8, ring_radius=2.0, ring_sigma=0.05,
        generations=generations, generator_population=5,
        discriminator_population=5, batches_per_pair=10,
        embedding="identity", pairing="all", seed=seed, out_dir=str(out_dir)))


def best_generator_coverage(state):
    noise = gan.NoiseSource(100, np.random.default_rng(12345))
    fakes = gan.generate_samples(state.last_best_generator.network, noise, 1000)
    points = fakes.reshape(-1, 2) * state.data_source.scale
    centers = E.ring_mode_centers(8, 2.0)
    return E.mode_coverage(points, centers, CAPTURE_RADIUS)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    runs = {}
    start = time.perf_counter()
    for seed in DESK_SEEDS:
        config = desk_config(root / f"seed{seed}", seed)
        history, state = E.run_evolution(config)
        runs[seed] = {
            "config": config,
            "history": history,
            "coverage": best_generator_coverage(state),
            "metrics": open(E.metrics_path(config.out_dir)).read(),
        }
    runs["elapsed"] = time.perf_counter() - start
    runs["root"] = root
    return runs


@pytest.mark.slow
class TestCriterion8DeskScaleEvolution:
    def test_fid_halves_and_modes_survive(self, desk_runs):
        ratios = []
        coverages = []
        for seed in DESK_SEEDS:
            history = desk_runs[seed]["history"]
            ratios.append(history[-1].best_fid / history[0].best_fid)
            coverages.append(desk_runs[seed]["coverage"])
        median_ratio = float(np.median(ratios))
        covered = sum(1 for c in coverages if c >= 6)
        elapsed = desk_runs["elapsed"]
        _report(8, "median per-seed FID at generation 30 is half its "
                   "generation-1 value and >= 6 of 8 modes survive in >= 3 of "
                   "5 seeds",
                median_ratio <= 0.5 and covered >= 3 and elapsed < 900.0,
                f"median ratio {median_ratio:.3f}, coverages {coverages}, "
                f"{elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion9LayerGrowthTrend:
    def test_spearman_positive_for_a_subpopulation(self, desk_runs):
        best_rhos = []
        for seed in DESK_SEEDS:
            history = desk_runs[seed]["history"]
            gens = [r.generation for r in history]
            rho_d = spearmanr(gens, [r.d_mean_layers for r in history]).statistic
            rho_g = spearmanr(gens, [r.g_mean_layers for r in history]).statistic
            best_rhos.append(max(rho_d, rho_g))
        median_rho = float(np.median(best_rhos))
        _report(9, "Spearman(generation, mean layers) > 0.5 for at least one "
                   "subpopulation, median over seeds",
                median_rho > 0.5, f"median rho {median_rho:.3f}")


@pytest.mark.slow
class TestCriterion10DeterminismAndResume:
    def test_equal_seeds_bit_identical(self, desk_runs):
        rerun_dir = desk_runs["root"] / "rerun1"
        config = desk_config(rerun_dir, seed=1)
        E.run_evolution(config)
        rerun_metrics = open(E.metrics_path(config.out_dir)).read()
        identical = rerun_metrics == desk_runs[1]["metrics"]
        _report("10a", "two equal-seed runs produce bit-identical metrics",
                identical, f"{len(rerun_metrics.splitlines())} lines compared")

    def test_interrupt_and_resume_matches(self, desk_runs):
        half_dir = desk_runs["root"] / "half1"
        config = desk_config(half_dir, seed=1, generations=15)
        E.run_evolution(config)
        E.resume_evolution(str(half_dir / "checkpoint"), generations=30)
        resumed_metrics = open(E.metrics_path(str(half_dir))).read()
        identical = resumed_metrics == desk_runs[1]["metrics"]
        _report("10b", "a run interrupted at generation 15 and resumed matches "
                       "the uninterrupted run exactly", identical,
                f"{len(resumed_metrics.splitlines())} lines compared")


class TestCriterion11RmseAndScoreOracles:
    def test_oracle_values(self):
        rng = np.random.default_rng(1111)
        x = rng.standard_normal((50, 1, 3, 3))
        rmse_same = F.rmse_metric(x, x.copy(), 50)
        rmse_offset = F.rmse_metric(x + 1.0, x, 50)

        def constant_classifier(batch):
            return np.tile([0.2, 0.3, 0.5], (len(batch), 1))

        k = 4
        def one_hot_classifier(batch):
            out = np.zeros((len(batch), k))
            out[np.arange(len(batch)), np.arange(len(batch)) % k] = 1.0
            return out

        samples = rng.standard_normal((12, 2))
        score_const = F.classifier_score(constant_classifier, samples, 12)
        score_onehot = F.classifier_score(one_hot_classifier, samples, 12)
        ok = (abs(rmse_same) < 1e-9 and abs(rmse_offset - 1.0) < 1e-9
              and abs(score_const - 1.0) < 1e-9 and abs(score_onehot - k) < 1e-9)
        _report(11, "RMSE and classifier-score oracles match exact values", ok,
                f"rmse {rmse_same!r}/{rmse_offset!r}, scores "
                f"{score_const!r}/{score_onehot!r}")
