"""Shared test helpers: genome builders and a finite-difference harness."""

import struct

import numpy as np
import pytest

from ganevo import backend as B
from ganevo import coevolution as C
from ganevo import experiment as E
from ganevo import genome as G


def make_genome(role, specs, max_len=6):
    """specs: list of (innovation_id, kind, units, activation) tuples."""
    genes = tuple(G.Gene(*spec) for spec in specs)
    return G.Genome(role=role, genes=genes, max_len=max_len)


def linear_genome(role, ids, units=64, activation="relu"):
    """All-linear genome with the given innovation ids (for distance tests)."""
    return make_genome(role, [(i, G.LINEAR, units, activation) for i in ids])


def write_idx_images(path, images):
    """An IDX image file holding `images`, a (count, rows, cols) array."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", E.IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def build_individual(ind_id, genome, data_shape, noise_dim, rng,
                     parent_store=None, dtype=np.float32):
    plan = G.infer_shapes(genome, data_shape, noise_dim)
    net, store = B.build_network(genome, plan, parent_store=parent_store,
                                 rng=rng, dtype=dtype)
    return C.Individual(id=ind_id, genome=genome, param_store=store, network=net)


def finite_diff_max_rel_err(net, x, upstream, h=1e-5, input_stride=1):
    """Compare analytic gradients of loss = sum(net(x) * upstream) against
    central finite differences over every parameter and the input.

    Returns the worst relative error.  The network must be float64.
    """
    assert net.dtype == np.float64, "gradient checks need float64 networks"
    upstream = np.asarray(upstream, dtype=np.float64)

    def loss():
        return float((net.forward(x, train=False) * upstream).sum())

    net.forward(x, train=True)
    net.zero_grads()
    dx = net.backward(upstream)

    worst = 0.0

    def check(array, grads):
        nonlocal worst
        flat = array.ravel()
        gflat = grads.ravel()
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

    for layer in net.trainable():
        check(layer.entry.weights, layer.grad_w)
        check(layer.entry.bias, layer.grad_b)
    flat_x = x.ravel()
    flat_dx = dx.ravel()
    for i in range(0, flat_x.size, input_stride):
        orig = flat_x[i]
        flat_x[i] = orig + h
        lp = loss()
        flat_x[i] = orig - h
        lm = loss()
        flat_x[i] = orig
        fd = (lp - lm) / (2 * h)
        rel = abs(flat_dx[i] - fd) / max(abs(flat_dx[i]) + abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
