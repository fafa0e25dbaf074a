import hashlib
import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from conftest import finite_diff_max_rel_err, make_genome
from ganevo import backend as B
from ganevo import experiment as E
from ganevo import genome as G
from ganevo import variation as V


def store_of(*shapes, dtype=np.float64):
    """A store with one entry per (weight shape, bias shape), gene ids 0, 1, ..."""
    keys = [B.ParamStore.key(i, w, b) for i, (w, b) in enumerate(shapes)]
    return B.ParamStore(keys, dtype)


def entry_of(shape_w, shape_b, value=0.0, dtype=np.float64):
    (entry,) = store_of((shape_w, shape_b), dtype=dtype).entries.values()
    entry.weights[...] = value
    return entry


def adam_deltas(grads, m=0.0, v=0.0, step=0, lr=0.001, b1=B.ADAM_BETA1, b2=0.999, eps=1e-8):
    """Independent evaluation of the Adam recurrence: the parameter change of
    each successive update."""
    deltas = []
    for g in grads:
        step += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        deltas.append(-lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps))
    return deltas


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        store = store_of(((3, 2), (3,)))
        (entry,) = store.entries.values()
        entry.weights[...] = 0.5
        B.adam_step(store, 0.001)
        assert np.all(entry.weights == 0.5)
        assert np.array_equal(entry.bias, np.zeros(3))
        assert entry.step == 1

    def test_first_step_magnitude(self):
        # m_hat = 1, v_hat = 1 after bias correction, so the update is
        # -lr / (1 + eps); evaluate the closed form independently
        store = store_of(((1,), (1,)))
        (entry,) = store.entries.values()
        entry.grad_w[...] = 1.0
        B.adam_step(store, 0.001)
        expected = -0.001 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert entry.weights[0] == pytest.approx(expected, abs=1e-15)
        assert entry.weights[0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_repeated_identical_gradients_shrink_steps(self):
        deltas = adam_deltas([1.0] * 5)
        store = store_of(((1,), (1,)))
        (entry,) = store.entries.values()
        entry.grad_w[...] = 1.0
        prev = 0.0
        for t in range(5):
            before = entry.weights[0]
            B.adam_step(store, 0.001)
            delta = entry.weights[0] - before
            assert delta == pytest.approx(deltas[t], rel=1e-12)
            if t > 0:
                # identical gradients keep |delta| constant, so non-increasing
                # holds up to float noise
                assert abs(delta) <= abs(prev) * (1 + 1e-9)
            prev = delta

    def test_fused_update_keeps_each_entry_step(self, rng):
        # one store, a fresh entry (step 0) next to an inherited one (step 17,
        # non-zero moments): each follows its own closed-form recurrence
        store = store_of(((2, 3), (2,)), ((4,), (1,)))
        fresh, inherited = store.entries.values()
        inherited.step = 17
        inherited.m_w[...] = 0.3
        inherited.v_w[...] = 0.2
        fresh_grads = rng.standard_normal((3, 2, 3))
        inherited_grads = rng.standard_normal((3, 4))
        expected_fresh = adam_deltas(fresh_grads)
        expected_inherited = adam_deltas(inherited_grads, m=0.3, v=0.2, step=17)
        for t in range(3):
            fresh.grad_w[...] = fresh_grads[t]
            inherited.grad_w[...] = inherited_grads[t]
            w_fresh, w_inherited = fresh.weights.copy(), inherited.weights.copy()
            B.adam_step(store, 0.001)
            np.testing.assert_allclose(fresh.weights - w_fresh, expected_fresh[t], rtol=1e-12)
            np.testing.assert_allclose(inherited.weights - w_inherited,
                                       expected_inherited[t], rtol=1e-12)
        assert (fresh.step, inherited.step) == (3, 20)
        # zero gradients and zero moments leave the biases where they were
        assert np.all(fresh.bias == 0) and np.all(inherited.bias == 0)

    def test_runs_of_shared_steps(self, rng):
        # entries at steps 0, 0, 17, 17, 3: three runs of contiguous entries,
        # each entry on its own closed-form recurrence
        shapes = [((2, 3), (2,)), ((4,), (1,)), ((3, 1), (3,)), ((5,), (2,)), ((2, 2), (2,))]
        store = store_of(*shapes)
        entries = list(store.entries.values())
        starts = [0, 0, 17, 17, 3]
        expected = []
        for entry, step in zip(entries, starts):
            entry.step = step
            m, v = (0.3, 0.2) if step else (0.0, 0.0)
            entry.m_w[...], entry.v_w[...] = m, v
            grads = rng.standard_normal((3,) + entry.grad_w.shape)
            expected.append((grads, adam_deltas(grads, m=m, v=v, step=step)))
        for t in range(3):
            before = [entry.weights.copy() for entry in entries]
            for entry, (grads, _) in zip(entries, expected):
                entry.grad_w[...] = grads[t]
            B.adam_step(store, 0.001)
            for entry, w, (_, deltas) in zip(entries, before, expected):
                np.testing.assert_allclose(entry.weights - w, deltas[t], rtol=1e-12)
        assert [entry.step for entry in entries] == [3, 3, 20, 20, 6]
        assert not store.data[0, [e.span.stop - 1 for e in entries]].any()  # biases


class TestInitialization:
    def test_uniform_bounds_and_zero_bias(self, rng):
        genome = make_genome(G.DISCRIMINATOR, [(0, G.LINEAR, 64, "relu")])
        _, store = build(genome, data_shape=(1, 10, 10), rng=rng)
        entry = store.get(B.ParamStore.key(0, (64, 100), (64,)))
        bound = np.sqrt(1.0 / 100)
        assert entry.weights.min() >= -bound
        assert entry.weights.max() <= bound
        assert np.all(entry.bias == 0)
        assert entry.weights.dtype == np.float32
        assert entry.step == 0
        assert not store.data[1:].any()  # moments and gradients start at zero


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
            assert not np.shares_memory(copied.weights, entry.weights)
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


def op_signature(op) -> tuple:
    """An op's class and the attributes that fix what it computes."""
    attrs = {
        B.ActivationOp: ("name",),
        B.LinearLayer: ("in_shape",),
        B.ConvLayer: ("kernel", "stride", "padding"),
        B.ConvTransposeLayer: ("kernel", "stride", "padding"),
        B.ReshapePadOp: ("target",),
        B.CropOp: ("target_h", "target_w"),
    }.get(type(op), ())
    return (type(op).__name__,) + tuple(getattr(op, a) for a in attrs)


def build_digest(net, store) -> str:
    """sha256 over the store's keys in order, each entry's step, the op
    sequence, the copied gene ids and every byte of the store's buffer."""
    h = hashlib.sha256()
    h.update(repr(list(store.entries)).encode())
    h.update(repr([e.step for e in store.entries.values()]).encode())
    h.update(repr([op_signature(op) for op in net.ops]).encode())
    h.update(repr(sorted(net.copied_gene_ids)).encode())
    h.update(store.data.tobytes())
    return h.hexdigest()


# (role, data shape, parent genome, child genome built over the parent's store)
GOLDEN_CASES = {
    "d-linear-sigmoid-head": (
        G.DISCRIMINATOR, (1, 8, 8),
        [(0, G.LINEAR, 16, "relu")],
        [(0, G.LINEAR, 16, "tanh"), (1, G.LINEAR, 8, "elu")]),
    "d-conv-halving-and-floor": (
        G.DISCRIMINATOR, (1, 8, 8),
        [(0, G.CONV, 4, "leaky_relu"), (1, G.CONV, 6, "elu"), (2, G.LINEAR, 12, "sigmoid")],
        [(0, G.CONV, 4, "relu"), (1, G.CONV, 5, "elu"), (2, G.LINEAR, 12, "sigmoid")]),
    "d-conv-ring-shape": (
        G.DISCRIMINATOR, (1, 1, 2),
        [(0, G.CONV, 3, "tanh"), (1, G.LINEAR, 7, "leaky_relu")],
        [(3, G.CONV, 2, "relu"), (0, G.CONV, 3, "tanh"), (1, G.LINEAR, 7, "leaky_relu")]),
    "d-rgb-conv-linear": (
        G.DISCRIMINATOR, (3, 9, 13),
        [(0, G.CONV, 5, "sigmoid"), (1, G.LINEAR, 9, "relu"), (2, G.LINEAR, 4, "tanh")],
        [(0, G.CONV, 5, "sigmoid"), (2, G.LINEAR, 4, "tanh")]),
    "g-linear-reshape": (
        G.GENERATOR, (1, 8, 8),
        [(0, G.LINEAR, 20, "elu")],
        [(0, G.LINEAR, 20, "sigmoid"), (1, G.LINEAR, 30, "relu")]),
    "g-linear-reshape-ring": (
        G.GENERATOR, (1, 1, 2),
        [(0, G.LINEAR, 6, "leaky_relu"), (1, G.LINEAR, 5, "tanh")],
        [(0, G.LINEAR, 6, "leaky_relu"), (1, G.LINEAR, 4, "tanh")]),
    "g-tconv-crop": (
        G.GENERATOR, (3, 9, 13),
        [(0, G.LINEAR, 40, "relu"), (1, G.TRANSPOSE_CONV, 6, "leaky_relu"),
         (2, G.TRANSPOSE_CONV, 4, "elu")],
        [(0, G.LINEAR, 40, "relu"), (1, G.TRANSPOSE_CONV, 6, "leaky_relu"),
         (2, G.TRANSPOSE_CONV, 4, "elu"), (3, G.TRANSPOSE_CONV, 2, "tanh")]),
    "g-tconv-from-noise": (
        G.GENERATOR, (1, 7, 7),
        [(0, G.TRANSPOSE_CONV, 3, "sigmoid")],
        [(5, G.LINEAR, 11, "relu"), (0, G.TRANSPOSE_CONV, 3, "sigmoid")]),
}

GOLDEN_DIGESTS = {
    "d-conv-halving-and-floor": (
        "712c8c584be76e28adbab1fc4671fe62efa454e59b0f08b3b99aafdd1f20572d",
        "eec14200e780118436df1caad621769bcf7b86a9bb4d1bb6b70326f650789e1c"),
    "d-conv-ring-shape": (
        "b69a4a6dfaee55fc149c994ea09bf192eb091d28a462fe2cc3d11771b95cd0e7",
        "1d45248cf06c9b797504117ce34b7047551180a30b897c260d53d89898a3168b"),
    "d-linear-sigmoid-head": (
        "108cb189cb41f2f4cdc7f27b03a8674be69afe961f4bdc1693ffa8bf87035191",
        "3a7b9017206a8c7522496fa89dec04b84856fc2d3c89e4ae5c054fd2e4e86c78"),
    "d-rgb-conv-linear": (
        "ec2f8d8852b17e6abf94e66ccea8efcd59ed19ffbd67202e337c6c1a8867a8e3",
        "ed038f72af5225e456c7827ffe3b52a1ce20ef0c5c0a311d2c30b7cb6c4ba475"),
    "g-linear-reshape": (
        "55d7e66c4bb50febf4ce60256d12fe9c0328d9006c5d8e53b384ef5543b830b9",
        "39638befdbeb2278c7d7b704c36df7825ff3abf0910f335dcef403db3e8d53da"),
    "g-linear-reshape-ring": (
        "3932e50e3e7c35b4daeda295247240f230e48f849a8cb414259149133a882cba",
        "fe3c692f195290fc4f876c8fb8085a0cae595dc5fcd4da1f34a95a5f412c4997"),
    "g-tconv-crop": (
        "b51504a8129dccb86de09dbbd1933311f26837bf0598229bac4ee975a3d286f9",
        "243654bfbfa25ba5212a88d94f743e115921e7c1d1b701a3c8f5bae5ecea7f6a"),
    "g-tconv-from-noise": (
        "c024386774dae42acccc029f0b0a9836bc86cef6914dc2c7800ad1c5645335fd",
        "9b67cf0a28e58c9520f63cc06460308414a0320fe5a56d731b2eba324dcb3d43"),
}


class TestConstructionGolden:
    """build_network's keys, ops and initial bytes for fixed genomes, with and
    without a parent store, are pinned to digests of a reference build."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_digest(self, name):
        role, data_shape, parent_specs, child_specs = GOLDEN_CASES[name]
        rng = np.random.default_rng(2024)
        net, store = build(make_genome(role, parent_specs), data_shape, 10, rng=rng)
        parent_digest = build_digest(net, store)
        # distinct moments and step counts make every copied value visible
        store.data[1:3] = np.linspace(-1.0, 1.0, store.data[1:3].size).reshape(2, -1)
        for step, entry in enumerate(store.entries.values(), start=3):
            entry.step = step
        child_net, child_store = build(make_genome(role, child_specs), data_shape, 10,
                                       parent=store, rng=rng)
        assert (parent_digest, build_digest(child_net, child_store)) == GOLDEN_DIGESTS[name]


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
        # one training forward allows one backward: the ops dropped their
        # caches in the first
        net.forward(np.zeros((2, 1, 4, 4), dtype=np.float32), train=True)
        net.backward(np.ones(2, dtype=np.float32))
        with pytest.raises(RuntimeError):
            net.backward(np.ones(2, dtype=np.float32))

    @pytest.mark.parametrize("role, specs", [
        (G.GENERATOR, [(0, G.LINEAR, 512, "relu"), (1, G.TRANSPOSE_CONV, 128, "relu"),
                       (2, G.TRANSPOSE_CONV, 64, "leaky_relu")]),
        (G.DISCRIMINATOR, [(0, G.CONV, 64, "leaky_relu"), (1, G.CONV, 128, "leaky_relu"),
                           (2, G.LINEAR, 256, "elu")]),
    ], ids=["generator", "discriminator"])
    def test_backward_holds_nothing(self, role, specs):
        # the bench's mnist pair: once backward returns, every op has dropped
        # its forward cache, so only the input gradient is left allocated
        rng = np.random.default_rng(5)
        net, _ = build(make_genome(role, specs), data_shape=(1, 28, 28), noise_dim=100,
                       rng=rng)
        x = rng.standard_normal((8,) + net.input_shape).astype(np.float32)
        tracemalloc.start()
        try:
            dy = np.ones_like(net.forward(x, train=True))
            dx = net.backward(dy)
            held = tracemalloc.get_traced_memory()[0] - dx.nbytes - dy.nbytes
        finally:
            tracemalloc.stop()
        assert held < 64 << 10, held

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

    def test_layer_gradients_alias_the_store(self, rng):
        d = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 3, "relu"), (1, G.LINEAR, 5, "elu")])
        g = make_genome(G.GENERATOR, [(2, G.LINEAR, 9, "relu"),
                                      (3, G.TRANSPOSE_CONV, 2, "tanh")])
        for genome in (d, g):
            net, _ = build(genome, rng=rng)
            assert len(net.trainable()) == 3
            for layer in net.trainable():
                assert np.shares_memory(layer.grad_w, net.store.data)
                assert np.shares_memory(layer.grad_b, net.store.data)

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
        rng = np.random.default_rng(zlib.crc32(activation.encode()))
        genome = make_genome(G.DISCRIMINATOR, [(0, G.CONV, 3, activation)])
        net, _ = build(genome, data_shape=(2, 6, 6), rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 6, 6))
        if activation in ("relu", "leaky_relu"):
            # a central difference across the kink at 0 is no derivative:
            # redraw x until every conv pre-activation is 1e-3 or more from it
            conv = next(op for op in net.ops if isinstance(op, B.ConvLayer))
            while np.abs(conv.forward(x, train=False)).min() < 1e-3:
                x = rng.standard_normal(x.shape)
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
        config = E.RunConfig(add_layer_rate=0.5, remove_layer_rate=0.3, change_layer_rate=0.5,
                             feature_range=(8, 32), channel_range=(4, 16))
        for trial in range(40):
            role = G.DISCRIMINATOR if trial % 2 == 0 else G.GENERATOR
            genome = G.new_minimal_genome(role, rng, counter, config)
            plan = G.infer_shapes(genome, (1, 8, 8), 10)
            net, store = B.build_network(genome, plan, rng=rng)
            child, _ = V.mutate_with_events(genome, config, rng, counter)
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


def col2im_nchw(cols, x_shape, kernel, stride, padding):
    """The NCHW scatter-add over (N, C*k*k, out_h*out_w) columns, the
    reference for `B._conv_transpose`."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w]


def assert_close(got, want, what):
    """Equal up to float32 rounding: within 1e-5 of the reference's largest
    magnitude."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * float(np.abs(want).max()),
                               err_msg=str(what))


SPATIAL = [(1, 1), (1, 2), (2, 2), (7, 7), (14, 14)]


def random_layer_case(rng, shape_w, shape_b, x_shape):
    entry = entry_of(shape_w, shape_b, dtype=np.float32)
    entry.weights[...] = rng.standard_normal(shape_w)
    entry.bias[...] = rng.standard_normal(shape_b)
    return entry, rng.standard_normal(x_shape).astype(np.float32)


def images_per_block(positions, row):
    """Images in a full `_conv_transpose` block of `positions` column rows of
    `row` float32 entries per image."""
    return max(1, B.COL2IM_BLOCK_BYTES // (positions * row * 4))


def transpose_conv_outputs(hw):
    """Yields ((n, in_c, out_c), layer output, NCHW-scatter reference) for
    random transpose convs on hw inputs, with out_c up to 300.  On 1x1 and
    2x2 inputs in_c also runs up to 600 at batch 1-8, the wide, short GEMMs a
    generator grown from a 1x1 input runs; batch 1 on a 1x1 input is a
    one-row product.  At 7x7 and 14x14 one batch spans three
    `_conv_transpose` blocks, the last of two images, and on 1x1 inputs one
    spans three full blocks and a block of one image."""
    rng = np.random.default_rng(hw[0] * 100 + hw[1])
    cases = [(rng.integers(1, 71), rng.integers(1, 40), rng.integers(1, 40)) for _ in range(6)]
    max_n = max(2, 3000 // (hw[0] * hw[1]))  # keeps the reference's columns small
    cases += [(rng.integers(1, min(max_n, 71)), rng.integers(1, 300), rng.integers(40, 301))
              for _ in range(3)]
    if hw[0] * hw[1] <= 4:
        cases += [(n, rng.integers(33, 601), rng.integers(1, 301))
                  for n in (1, 1, 1, 1, rng.integers(2, 9), rng.integers(2, 9))]
    if hw[0] >= 7:  # three blocks, the last of two images
        out_c = rng.integers(16, 65)
        cases.append((2 * images_per_block(hw[0] * hw[1], 16 * out_c) + 2,
                      rng.integers(1, 130), out_c))
    if hw == (1, 1):  # three full blocks and one image
        out_c = rng.integers(200, 301)
        cases.append((3 * images_per_block(1, 16 * out_c) + 1, rng.integers(33, 601), out_c))
    for n, in_c, out_c in cases:
        entry, x = random_layer_case(rng, (in_c, out_c, 4, 4), (out_c,), (n, in_c) + hw)
        y = B.ConvTransposeLayer(entry, 4, 2, 1).forward(x, train=False)
        cols = np.einsum("if,nil->nfl", entry.weights.reshape(in_c, -1),
                         x.reshape(n, in_c, -1), optimize=True)
        expected = col2im_nchw(cols, (n, out_c, 2 * hw[0], 2 * hw[1]), 4, 2, 1)
        expected += entry.bias[None, :, None, None]
        yield (int(n), int(in_c), int(out_c)), y, expected


def im2col(x, kernel, stride, padding):
    """The C-contiguous (N, C*k*k, out_h*out_w) column buffer of `x`, over
    which einsums give the references for the layers' GEMMs."""
    n, c, h, w = x.shape
    oh, ow = B._conv_out_hw(h, w, kernel, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kernel * kernel, oh * ow)


GATHER_SETTINGS = [(B.ConvLayer, 3, 2, 1), (B.ConvLayer, 3, 1, 1), (B.ConvLayer, 1, 1, 0),
                   (B.ConvTransposeLayer, 4, 2, 1)]


def gathered_layer_cases():
    """(layer class, kernel, stride, padding, n, in_c, out_c, hw) for random
    convs and transpose convs at the genome's settings on every SPATIAL input,
    batch 1 among them, and for pointwise convs from and to one channel:
    batch 1, 1x1 outputs (every setting on 1x1 inputs, the stride-2 conv on
    1x2 and 2x2 ones) and a contraction of length 1 give degenerate GEMMs."""
    rng = np.random.default_rng(18)
    for hw in SPATIAL:
        for setting in GATHER_SETTINGS:
            wide = 300 if hw[0] * hw[1] <= 4 else 60
            for n in (1, rng.integers(2, 71), rng.integers(2, 71), rng.integers(2, 71)):
                yield setting + (int(n), int(rng.integers(1, wide)), int(rng.integers(1, wide)), hw)
    for n in (1, 2, rng.integers(3, 71)):
        for in_c, out_c in ((1, rng.integers(2, 60)), (rng.integers(2, 60), 1), (1, 1)):
            yield (B.ConvLayer, 1, 1, 0, int(n), int(in_c), int(out_c), (7, 7))


def gathered_layer_outputs(case):
    """The layer's forward output (conv only), weight, bias and input
    gradients for one `gathered_layer_cases` case, each paired with its
    einsum-over-`im2col` reference."""
    layer_cls, kernel, stride, padding, n, in_c, out_c, hw = case
    rng = np.random.default_rng(zlib.crc32(repr(case[1:]).encode()))
    conv = layer_cls is B.ConvLayer
    w_shape = (out_c, in_c, kernel, kernel) if conv else (in_c, out_c, kernel, kernel)
    entry, x = random_layer_case(rng, w_shape, (out_c,), (n, in_c) + hw)
    x[x < -1] = 0  # zeros, as a relu leaves them: some products are -0
    layer = layer_cls(entry, kernel, stride, padding)
    y = layer.forward(x, train=True)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    dx = layer.backward(dy)
    grad_w, grad_b = np.zeros_like(entry.grad_w), np.zeros_like(entry.grad_b)
    grad_b += dy.sum(axis=(0, 2, 3))
    if conv:
        cols = im2col(x, kernel, stride, padding)
        w_mat, dy_mat = entry.weights.reshape(out_c, -1), dy.reshape(n, out_c, -1)
        expected_y = (np.einsum("of,nfl->nol", w_mat, cols, optimize=True).reshape(y.shape)
                      + entry.bias[None, :, None, None])
        grad_w += np.einsum("nol,nfl->of", dy_mat, cols, optimize=True).reshape(w_shape)
        dcols = np.einsum("of,nol->nfl", w_mat, dy_mat, optimize=True)
        expected_dx = col2im_nchw(dcols, x.shape, kernel, stride, padding)
        pairs = {"y": (y, expected_y)}
    else:
        cols = im2col(dy, kernel, stride, padding)
        w_mat, x_mat = entry.weights.reshape(in_c, -1), x.reshape(n, in_c, -1)
        grad_w += np.einsum("nil,nfl->if", x_mat, cols, optimize=True).reshape(w_shape)
        expected_dx = np.einsum("if,nfl->nil", w_mat, cols, optimize=True).reshape(x.shape)
        pairs = {}
    pairs.update(grad_w=(entry.grad_w, grad_w), grad_b=(entry.grad_b, grad_b),
                 dx=(dx, expected_dx))
    return pairs


class TestConvLayout:
    """The convolution layers match einsum formulations up to float32
    rounding: the transpose-conv forward and the conv input gradient that of
    einsum plus an NCHW scatter, and the GEMMs over gathered columns that of
    einsum over an im2col buffer.  Every image they make is C-contiguous
    NCHW."""

    @pytest.mark.parametrize("hw", SPATIAL)
    def test_transpose_conv_forward(self, hw):
        for case, y, expected in transpose_conv_outputs(hw):
            assert y.flags.c_contiguous, case
            assert_close(y, expected, f"(n, in_c, out_c) = {case} on {hw} inputs")

    @pytest.mark.parametrize("hw", SPATIAL)
    @pytest.mark.parametrize("kernel, stride, padding", [(3, 2, 1), (3, 1, 1), (1, 1, 0)])
    def test_conv_backward(self, hw, kernel, stride, padding):
        rng = np.random.default_rng(hw[0] * 100 + hw[1] + 10 * kernel + stride)
        cases = [(rng.integers(1, 71), rng.integers(1, 40), rng.integers(1, 81))
                 for _ in range(4)]
        if hw == (14, 14):  # three blocks, the last of two images
            in_c = rng.integers(16, 40)
            positions = math.prod(B._conv_out_hw(*hw, kernel, stride, padding))
            cases.append((2 * images_per_block(positions, kernel * kernel * in_c) + 2,
                          in_c, rng.integers(1, 81)))
        for n, in_c, out_c in cases:
            entry, x = random_layer_case(rng, (out_c, in_c, kernel, kernel), (out_c,),
                                         (n, in_c) + hw)
            layer = B.ConvLayer(entry, kernel, stride, padding)
            y = layer.forward(x, train=True)
            dy = rng.standard_normal(y.shape).astype(np.float32)
            dx = layer.backward(dy)
            dcols = np.einsum("of,nol->nfl", entry.weights.reshape(out_c, -1),
                              dy.reshape(n, out_c, -1), optimize=True)
            assert dx.flags.c_contiguous
            assert_close(dx, col2im_nchw(dcols, x.shape, kernel, stride, padding),
                         (n, in_c, out_c))

    def test_gathered_operands_match_einsum(self):
        """The conv forward, the conv weight gradient and both transpose-conv
        backward products multiply gathered columns; they match the einsums
        over a C-contiguous column buffer, and the conv forward's output and
        both layers' input gradients are C-contiguous."""
        for case in gathered_layer_cases():
            what = (case[0].__name__,) + case[1:]
            pairs = gathered_layer_outputs(case)
            for name, (got, want) in pairs.items():
                assert_close(got, want, what + (name,))
            for name in ("y", "dx"):
                if name in pairs:
                    assert pairs[name][0].flags.c_contiguous, what + (name,)

    @pytest.mark.parametrize("hw", SPATIAL)
    @pytest.mark.parametrize("setting", GATHER_SETTINGS,
                             ids=lambda s: f"{s[0].__name__}-k{s[1]}s{s[2]}p{s[3]}")
    def test_columns_same_bytes_as_im2col(self, setting, hw):
        """`_columns` gathers from the unpadded input the bytes of the padded
        im2col buffer, in (C*k*k, N*L) order: one image, one channel and
        several channel blocks among the cases, -0.0 among the values."""
        layer_cls, kernel, stride, padding = setting
        if layer_cls is B.ConvTransposeLayer:  # it gathers its output gradient
            hw = (stride * hw[0], stride * hw[1])
        rng = np.random.default_rng(hw[0] * 100 + hw[1] + 10 * kernel + stride)
        blocks = 2 * B.GATHER_BLOCK_BYTES // (64 * hw[0] * hw[1] * 4) + 3
        cases = [(1, 1), (1, rng.integers(2, 40)), (rng.integers(2, 71), 1),
                 (rng.integers(2, 71), rng.integers(2, 40)), (64, min(blocks, 300))]
        for n, c in cases:
            x = rng.standard_normal((n, c) + hw).astype(np.float32)
            x.reshape(-1)[::7] = -0.0
            expected = im2col(x, kernel, stride, padding).transpose(1, 0, 2).reshape(
                c * kernel * kernel, -1)
            got = B._columns(x, kernel, stride, padding)
            assert got.shape == expected.shape and got.flags.c_contiguous, (n, c)
            assert got.tobytes() == expected.tobytes(), (n, c)

    def test_transpose_conv_backward_holds_one_column_buffer(self):
        # mnist-train's second transpose conv: one (F, N*L) column buffer
        # feeds both the weight gradient and the input gradient
        rng = np.random.default_rng(7)
        entry, x = random_layer_case(rng, (128, 64, 4, 4), (64,), (64, 128, 14, 14))
        layer = B.ConvTransposeLayer(entry, 4, 2, 1)
        dy = layer.forward(x, train=True)
        columns = 64 * 14 * 14 * 64 * 16 * 4
        padded = 64 * 64 * 30 * 30 * 4
        tracemalloc.start()
        try:
            dx = layer.backward(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns + padded + 2 * dx.nbytes, (peak, columns)

    def test_transpose_conv_forward_holds_no_whole_column_buffer(self):
        # at the eval chunk of mnist-eval's second transpose conv the whole
        # batch's columns would be 205 MB against a 51 MB output
        rng = np.random.default_rng(7)
        entry, x = random_layer_case(rng, (128, 64, 4, 4), (64,), (256, 128, 14, 14))
        layer = B.ConvTransposeLayer(entry, 4, 2, 1)
        tracemalloc.start()
        try:
            y = layer.forward(x, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + 4 * B.COL2IM_BLOCK_BYTES, (peak, y.nbytes)


SPECIAL_VALUES = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45, 1e-40, -1e-40,
              1.2e-38, -1.2e-38, 101.0, -101.0, 150.0, -150.0, 1e30, -1e30], np.float32),
    # NaNs with payloads, quiet and signalling
    np.array([0x7FC00001, 0xFFC00001, 0x7F800001, 0xFF800123], np.uint32).view(np.float32),
])


def leaky_relu_where(x):
    return np.where(x > 0, x, B.LEAKY_SLOPE * x)


def sigmoid_masked(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestActivationBytes:
    """The activations give the same bytes as the forms they replaced (masked
    forms, and elu's select over a scaled copy of expm1), special values
    included."""

    @pytest.mark.parametrize("shape", [(64,), (64, 128), (64, 64, 28, 28)])
    def test_same_bytes_as_masked_forms(self, shape):
        rng = np.random.default_rng(len(shape))
        x = (rng.standard_normal(shape) * 50).astype(np.float32)
        flat = x.reshape(-1)
        flat[:SPECIAL_VALUES.size] = SPECIAL_VALUES
        flat[-SPECIAL_VALUES.size:] = SPECIAL_VALUES[::-1]
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = [
                (B.ActivationOp("leaky_relu").forward(x, train=False), leaky_relu_where(x)),
                (B.ActivationOp("elu").forward(x, train=False),
                 np.where(x > 0, x, B.ELU_ALPHA * np.expm1(x))),
                (B.ActivationOp("sigmoid").forward(x, train=False), sigmoid_masked(x)),
                (B.SigmoidHead().forward(x, train=False),
                 np.clip(sigmoid_masked(x), B.PROB_CLIP, 1.0 - B.PROB_CLIP)),
            ]
        for got, expected in pairs:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_elu_forward_raises_no_warning(self):
        """Large positive inputs do not overflow expm1, and -0.0 stays -0.0."""
        x = np.array([100, 1e30, -0.0], np.float32)
        with np.errstate(over="ignore"):
            expected = np.where(x > 0, x, B.ELU_ALPHA * np.expm1(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = B.ActivationOp("elu").forward(x, train=False)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(64,), (64, 128), (64, 64, 28, 28)])
    def test_leaky_relu_backward_same_bytes_as_cast_mask(self, shape):
        rng = np.random.default_rng(len(shape))
        x, dy = (rng.standard_normal((2,) + shape) * 50).astype(np.float32)
        x.reshape(-1)[:SPECIAL_VALUES.size] = SPECIAL_VALUES
        dy.reshape(-1)[-SPECIAL_VALUES.size:] = SPECIAL_VALUES
        op = B.ActivationOp("leaky_relu")
        with np.errstate(invalid="ignore", over="ignore"):
            op.forward(x, train=True)
            got = op.backward(dy)
            expected = dy * np.where(x > 0, 1.0, B.LEAKY_SLOPE).astype(dy.dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64,), (64, 128), (64, 64, 28, 28)])
    def test_elu_backward_same_bytes_as_cast_form(self, shape, dtype):
        rng = np.random.default_rng(len(shape))
        x, dy = (rng.standard_normal((2,) + shape) * 50).astype(dtype)
        op = B.ActivationOp("elu")
        # the float64 case casts the signalling NaNs in too
        with np.errstate(invalid="ignore", over="ignore"):
            x.reshape(-1)[:SPECIAL_VALUES.size] = SPECIAL_VALUES
            dy.reshape(-1)[-SPECIAL_VALUES.size:] = SPECIAL_VALUES
            y = op.forward(x, train=True)
            got = op.backward(dy)
            expected = dy * np.where(x > 0, 1.0, y + B.ELU_ALPHA).astype(dy.dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
