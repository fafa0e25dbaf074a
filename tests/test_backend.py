import numpy as np
import pytest

from conftest import finite_diff_max_rel_err, make_genome
from ganevo import backend as B
from ganevo import genome as G
from ganevo import variation as V


def entry_of(shape_w, shape_b, value=0.0, dtype=np.float64):
    w = np.full(shape_w, value, dtype=dtype)
    b = np.zeros(shape_b, dtype=dtype)
    return B.ParamEntry(weights=w, bias=b, m_w=np.zeros_like(w), v_w=np.zeros_like(w),
                        m_b=np.zeros_like(b), v_b=np.zeros_like(b))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        entry = entry_of((3, 2), (3,), value=0.5)
        before = entry.weights.copy()
        B.adam_step(entry, np.zeros((3, 2)), np.zeros(3), B.AdamConfig())
        assert np.array_equal(entry.weights, before)
        assert np.array_equal(entry.bias, np.zeros(3))
        assert entry.step == 1

    def test_first_step_magnitude(self):
        # m_hat = 1, v_hat = 1 after bias correction, so the update is
        # -lr / (1 + eps); evaluate the closed form independently
        entry = entry_of((1,), (1,), value=0.0)
        B.adam_step(entry, np.ones(1), np.zeros(1), B.AdamConfig())
        expected = -0.001 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert entry.weights[0] == pytest.approx(expected, abs=1e-15)
        assert entry.weights[0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_repeated_identical_gradients_shrink_steps(self):
        # independent recurrence evaluation
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        m = v = 0.0
        deltas = []
        for t in range(1, 6):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            deltas.append(-lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps))
        entry = entry_of((1,), (1,))
        prev = 0.0
        for t in range(5):
            before = entry.weights[0]
            B.adam_step(entry, np.ones(1), np.zeros(1), B.AdamConfig())
            delta = entry.weights[0] - before
            assert delta == pytest.approx(deltas[t], rel=1e-12)
            if t > 0:
                # identical gradients keep |delta| constant, so non-increasing
                # holds up to float noise
                assert abs(delta) <= abs(prev) * (1 + 1e-9)
            prev = delta

    def test_shape_mismatch_rejected(self):
        entry = entry_of((3, 2), (3,))
        with pytest.raises(ValueError):
            B.adam_step(entry, np.zeros((2, 3)), np.zeros(3), B.AdamConfig())


class TestInitialization:
    def test_uniform_bounds_and_zero_bias(self, rng):
        entry = B.fresh_entry((64, 100), (64,), fan_in=100, rng=rng)
        bound = np.sqrt(1.0 / 100)
        assert entry.weights.min() >= -bound
        assert entry.weights.max() <= bound
        assert np.all(entry.bias == 0)
        assert entry.weights.dtype == np.float32
        assert entry.step == 0


def build(genome, data_shape=(1, 8, 8), noise_dim=10, parent=None, rng=None,
          dtype=np.float32):
    plan = G.infer_shapes(genome, data_shape, noise_dim)
    return B.build_network(genome, plan, parent_store=parent, rng=rng, dtype=dtype)


class TestBuildNetwork:
    def test_unchanged_gene_copies_verbatim(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 4, "relu"),
                                               (1, G.LINEAR, 8, "relu")])
        net1, store1 = build(genome, rng=rng)
        # mutate the store so we can see the copy
        key = next(iter(store1.entries))
        store1.entries[key].weights += 1.0
        store1.entries[key].m_w += 0.25
        store1.entries[key].step = 7
        net2, store2 = build(genome, parent=store1, rng=rng)
        for k, entry in store1.entries.items():
            copied = store2.get(k)
            assert np.array_equal(copied.weights, entry.weights)
            assert np.array_equal(copied.bias, entry.bias)
            assert np.array_equal(copied.m_w, entry.m_w)
            assert np.array_equal(copied.v_w, entry.v_w)
            assert copied.step == entry.step
            assert copied is not entry  # deep copy, not aliasing
        assert net2.copied_gene_ids == {0, 1}

    def test_changed_units_reinitializes(self, rng):
        before = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        after = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 9, "relu")])
        _, store1 = build(before, rng=rng)
        net2, store2 = build(after, parent=store1, rng=rng)
        assert 0 not in net2.copied_gene_ids
        key = B.ParamStore.key(0, (9, 64), (9,))
        assert store2.get(key) is not None

    def test_added_gene_fresh_others_copied(self, rng):
        base = make_genome(G.GENERATOR, [(0, G.LINEAR, 8, "relu")])
        grown = make_genome(G.GENERATOR, [(0, G.LINEAR, 8, "relu"),
                                          (1, G.LINEAR, 6, "elu")])
        _, store1 = build(base, rng=rng)
        net2, _ = build(grown, parent=store1, rng=rng)
        assert net2.copied_gene_ids == {0}

    def test_activation_only_change_still_copies(self, rng):
        before = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        after = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "tanh")])
        _, store1 = build(before, rng=rng)
        net2, _ = build(after, parent=store1, rng=rng)
        assert net2.copied_gene_ids == {0}

    def test_plan_genome_mismatch_rejected(self, rng):
        a = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        b = make_genome(G.DISCRIMINATOR, [(1, G.LINEAR, 8, "relu")])
        plan = G.infer_shapes(a, (1, 8, 8), 10)
        with pytest.raises(ValueError):
            B.build_network(b, plan, rng=rng)


class TestForwardExactness:
    def test_identity_linear_layer(self):
        entry = entry_of((4, 4), (4,))
        entry.weights[...] = np.eye(4)
        layer = B.LinearLayer(entry, in_shape=(4,))
        x = np.abs(np.random.default_rng(0).standard_normal((3, 4))) + 0.1
        act = B.ActivationOp("relu")
        out = act.forward(layer.forward(x, train=False), train=False)
        assert np.allclose(out, x)

    def test_sigmoid_head_at_zero(self):
        head = B.SigmoidHead()
        out = head.forward(np.zeros((5, 1)), train=False)
        assert np.allclose(out, 0.5)

    def test_zero_conv_kernels_give_zero(self, rng):
        entry = entry_of((3, 2, 3, 3), (3,))
        layer = B.ConvLayer(entry, kernel=3, stride=1, padding=1)
        x = rng.standard_normal((2, 2, 5, 5))
        assert np.all(layer.forward(x, train=False) == 0)

    def test_discriminator_output_strictly_inside_unit_interval(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        net, _ = build(genome, data_shape=(1, 4, 4), rng=rng)
        x = np.concatenate([
            np.full((2, 1, 4, 4), 1e6, dtype=np.float32),
            np.full((2, 1, 4, 4), -1e6, dtype=np.float32),
        ])
        p = net.forward(x, train=False)
        assert np.all(np.isfinite(p))
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_forward_deterministic(self, rng):
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 12, "elu"),
                                           (1, G.TRANSPOSE_CONV, 3, "tanh")])
        net, store = build(genome, data_shape=(1, 8, 8), noise_dim=6,
                           rng=np.random.default_rng(3))
        z = rng.standard_normal((4, 6)).astype(np.float32)
        assert np.array_equal(net.forward(z, train=False), net.forward(z, train=False))

    def test_forward_shape_mismatch(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        net, _ = build(genome, data_shape=(1, 4, 4), rng=rng)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 1, 5, 5), dtype=np.float32))


class TestBackward:
    def test_backward_without_forward_rejected(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 8, "relu")])
        net, _ = build(genome, data_shape=(1, 4, 4), rng=rng)
        with pytest.raises(RuntimeError):
            net.backward(np.ones(2, dtype=np.float32))
        net.forward(np.zeros((2, 1, 4, 4), dtype=np.float32), train=False)
        with pytest.raises(RuntimeError):
            net.backward(np.ones(2, dtype=np.float32))

    def test_zero_upstream_zero_gradients(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 3, "relu"),
                                               (1, G.LINEAR, 5, "sigmoid")])
        net, _ = build(genome, data_shape=(1, 6, 6), rng=rng, dtype=np.float64)
        net.forward(np.random.default_rng(0).standard_normal((2, 1, 6, 6)), train=True)
        net.zero_grads()
        net.backward(np.zeros(2))
        for layer in net.trainable():
            assert np.all(layer.grad_w == 0)
            assert np.all(layer.grad_b == 0)

    def test_linear_bias_gradient_equals_upstream(self, rng):
        entry = entry_of((3, 4), (3,))
        entry.weights[...] = rng.standard_normal((3, 4))
        layer = B.LinearLayer(entry, in_shape=(4,))
        x = rng.standard_normal((1, 4))
        layer.forward(x, train=True)
        upstream = rng.standard_normal((1, 3))
        layer.backward(upstream)
        assert np.allclose(layer.grad_b, upstream[0])

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "elu", "sigmoid", "tanh"])
    def test_conv_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(hash(activation) % 2 ** 31)
        genome = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 3, activation)])
        net, _ = build(genome, data_shape=(2, 6, 6), rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 6, 6))
        upstream = rng.standard_normal(2)
        assert finite_diff_max_rel_err(net, x, upstream, input_stride=7) < 1e-4

    def test_transpose_conv_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 9, "leaky_relu"),
                                           (1, G.TRANSPOSE_CONV, 2, "elu")])
        net, _ = build(genome, data_shape=(1, 8, 8), noise_dim=5, rng=rng,
                       dtype=np.float64)
        z = rng.standard_normal((2, 5))
        upstream = rng.standard_normal((2, 1, 8, 8))
        assert finite_diff_max_rel_err(net, z, upstream) < 1e-4

    def test_gradients_accumulate_across_backward_calls(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 4, "relu")])
        net, _ = build(genome, data_shape=(1, 3, 3), rng=rng, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 1, 3, 3))
        net.forward(x, train=True)
        net.zero_grads()
        net.backward(np.ones(2))
        once = [l.grad_w.copy() for l in net.trainable()]
        net.forward(x, train=True)
        net.backward(np.ones(2))
        for layer, g1 in zip(net.trainable(), once):
            assert np.allclose(layer.grad_w, 2 * g1)


class TestWeightTransferProperty:
    def test_copied_set_matches_unchanged_keys(self, rng):
        # after random mutations, exactly the genes with unchanged
        # (innovation id, shape signature) keep their parameters
        counter = G.InnovationCounter()
        rates = V.MutationRates(0.5, 0.3, 0.5)
        for trial in range(40):
            role = G.DISCRIMINATOR if trial % 2 == 0 else G.GENERATOR
            genome = G.new_minimal_genome(role, rng, counter, feature_range=(8, 32))
            plan = G.infer_shapes(genome, (1, 8, 8), 10)
            net, store = B.build_network(genome, plan, rng=rng)
            child, _ = V.mutate_with_events(genome, rates, rng, counter,
                                            feature_range=(8, 32), channel_range=(4, 16))
            child_plan = G.infer_shapes(child, (1, 8, 8), 10)
            child_net, child_store = B.build_network(child, child_plan,
                                                     parent_store=store, rng=rng)
            parent_keys = set(store.entries)
            expected = {gid for (gid, sig) in (set(child_store.entries) & parent_keys)
                        if gid >= 0}
            assert child_net.copied_gene_ids == expected
            for key in set(child_store.entries) & parent_keys:
                assert np.array_equal(child_store.get(key).weights,
                                      store.get(key).weights)
            genome = child
