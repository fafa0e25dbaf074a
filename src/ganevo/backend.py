"""Phenotype construction and neural execution.

Dense, convolution and transpose-convolution layers with explicit numpy
forward and backward passes (convolutions as GEMMs over image columns, so
gradients are exact and checkable against finite differences), Adam updates,
and parameter transfer between generations.

Three routines serve both convolution layers, since a transpose conv is a
conv run backwards: `_conv` (the conv forward and the transpose-conv input
gradient), `_conv_weight_grad` (both weight gradients) and `_conv_transpose`
(the transpose-conv forward and the conv input gradient).  Each is one GEMM
over one column buffer, and the two that make images, `_conv` and
`_conv_transpose`, return them C-contiguous NCHW.  `_conv` and
`_conv_weight_grad` share the (C*k*k, N*L) columns `_columns` gathers: each
tap's in-range window is copied straight from the unpadded image, and only
the entries over the padding are zeroed, so no padded copy is made.  The conv
caches its input, not its columns, and the transpose-conv backward gathers
once for both its products.
`_conv_transpose` splits its GEMM and the scatter of its columns back onto an
image into blocks of images only to bound memory: no call holds the whole
batch's column buffer.  Activations avoid boolean-mask indexing, and Adam
applies one bias-corrected update per run of entries that share a step count.

An op keeps what its backward reads from `forward(train=True)` until that
backward runs, and then drops it, so a network holds no activations once its
backward returns; one training forward allows one backward.

Trained state lives in a ParamStore, one array per network, keyed by
(innovation id, shape signature).  Building a network against a parent store
copies every entry whose key is unchanged, which is the mechanism that
carries training information across generations; shape-changing mutations
miss the lookup and re-initialize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .genome import ADAPTER_ID, CONV, LINEAR, TRANSPOSE_CONV, Genome, ShapePlan

LEAKY_SLOPE = 0.2
ELU_ALPHA = 1.0

# Discriminator probabilities are kept strictly inside (0, 1); gradients are
# masked where the clip binds, consistent with the clamped-log losses.
PROB_CLIP = 1e-7

# About one core's L2: `_conv_transpose` multiplies and scatters this many
# bytes of float32 columns per block of images.
COL2IM_BLOCK_BYTES = 2 << 20

# `_columns` copies every tap of a block of input channels of about this many
# bytes before the next block, so the taps re-read the block from cache.
GATHER_BLOCK_BYTES = 1 << 19

ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ParamEntry:
    """One trainable layer's views into columns `span` of its ParamStore's
    buffer: weights and bias, their Adam moments (m_*, v_*) and gradients
    (grad_*), plus the entry's own Adam step count."""

    def __init__(self, data: np.ndarray, start: int, weight_shape, bias_shape):
        mid = start + math.prod(weight_shape)
        self.span = slice(start, mid + math.prod(bias_shape))
        self.weights, self.m_w, self.v_w, self.grad_w = (
            row[start:mid].reshape(weight_shape) for row in data)
        self.bias, self.m_b, self.v_b, self.grad_b = (
            row[mid:self.span.stop].reshape(bias_shape) for row in data)
        self.step = 0


class ParamStore:
    """A network's trained state in one (4, n) array whose rows hold the
    parameters, Adam's first and second moments, and the gradients; `entries`
    maps (innovation id, shape signature) to each layer's views into it."""

    def __init__(self, keys, dtype=np.float32):
        sizes = [math.prod(w) + math.prod(b) for _, (w, b) in keys]
        self.data = np.zeros((4, sum(sizes)), dtype=dtype)
        self.entries = {key: ParamEntry(self.data, start, *key[1])
                        for key, start in zip(keys, itertools.accumulate(sizes, initial=0))}

    @staticmethod
    def key(gene_id: int, weight_shape, bias_shape) -> tuple:
        return (gene_id, (tuple(weight_shape), tuple(bias_shape)))

    def get(self, key):
        return self.entries.get(key)


def adam_step(store: ParamStore, learning_rate: float) -> None:
    """One Adam update of every entry, in place: both moment rows in one pass
    over the buffer, then one bias-corrected update per run of contiguous
    entries that share a step count (inherited and fresh entries of one
    network differ in it)."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    params, m, v, g = store.data
    tmp = np.multiply(g, 1.0 - b1)
    m *= b1
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v *= b2
    v += tmp
    for entry in store.entries.values():
        entry.step += 1
    v_hat = np.empty_like(tmp)
    # entries are in column order, so a run of equal steps is one column range
    for step, run in itertools.groupby(store.entries.values(), lambda e: e.step):
        run = list(run)
        start, stop = run[0].span.start, run[-1].span.stop
        m_hat, v_hat_run = tmp[start:stop], v_hat[start:stop]
        np.divide(m[start:stop], 1.0 - b1 ** step, out=m_hat)
        np.divide(v[start:stop], 1.0 - b2 ** step, out=v_hat_run)
        np.sqrt(v_hat_run, out=v_hat_run)
        v_hat_run += ADAM_EPSILON
        m_hat *= learning_rate
        m_hat /= v_hat_run
        params[start:stop] -= m_hat


# -- convolution plumbing -------------------------------------------------

def _tap_slices(size: int, out: int, kernel: int, stride: int, padding: int):
    """Along one axis, per tap offset i: (i, the output positions lo:hi whose
    input index position * stride + i - padding lies in 0:size, the input
    indices they read)."""
    for i in range(kernel):
        lo = min(out, max(0, -((i - padding) // stride)))
        hi = max(lo, min(out, (size - 1 + padding - i) // stride + 1))
        first = lo * stride + i - padding
        yield i, slice(lo, hi), slice(first, first + stride * (hi - lo), stride)


def _columns(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """The (C*k*k, N*L) column buffer of the k x k windows of (N, C, H, W) `x`
    zero-padded by `padding`, L = out_h*out_w.

    Each tap's in-range window is copied straight from `x`, a block of about
    GATHER_BLOCK_BYTES of input channels at a time so that every tap reads
    the block from cache, and only the entries no tap writes, those over the
    padding, are zeroed."""
    n, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
    cols = np.empty((c, kernel, kernel, n, oh, ow), dtype=x.dtype)
    taps = [(i, j, out_r, out_c, in_r, in_c)
            for i, out_r, in_r in _tap_slices(h, oh, kernel, stride, padding)
            for j, out_c, in_c in _tap_slices(w, ow, kernel, stride, padding)]
    for i, j, out_r, out_c, _, _ in taps:
        tap = cols[:, i, j]
        tap[:, :, :out_r.start] = 0
        tap[:, :, out_r.stop:] = 0
        tap[:, :, out_r, :out_c.start] = 0
        tap[:, :, out_r, out_c.stop:] = 0
    xt = x.transpose(1, 0, 2, 3)
    block = max(1, GATHER_BLOCK_BYTES // (n * h * w * x.itemsize))
    for a in range(0, c, block):
        for i, j, out_r, out_c, in_r, in_c in taps:
            cols[a:a + block, i, j, :, out_r, out_c] = xt[a:a + block, :, in_r, in_c]
    return cols.reshape(c * kernel * kernel, -1)


def _conv(cols: np.ndarray, weights: np.ndarray, out_shape) -> np.ndarray:
    """The convolution of a column buffer by (O, C, k, k) weights: the (O, N*L)
    product `weights @ cols` as a C-contiguous (N, O, out_h, out_w) array."""
    n, o, oh, ow = out_shape
    y = weights.reshape(o, -1) @ cols
    return np.ascontiguousarray(y.reshape(o, n, oh, ow).transpose(1, 0, 2, 3))


def _conv_weight_grad(cols: np.ndarray, dy: np.ndarray, weight_shape) -> np.ndarray:
    """The gradient of `_conv`'s weights for its (N, O, out_h, out_w) output
    gradient `dy`: the (O, C*k*k) product `dy_mat @ cols.T`."""
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(dy.shape[1], -1)
    return (dy_mat @ cols.T).reshape(weight_shape)


def _conv_transpose(x: np.ndarray, weights: np.ndarray, out_shape, kernel: int, stride: int,
                    padding: int, bias: np.ndarray | None) -> np.ndarray:
    """The transpose of `_conv` by (I, O, k, k) weights: (N, I, h, w) input,
    whose h x w are the out_h x out_w of a conv of `out_shape` (N, O, H, W),
    multiplied into columns and scattered onto a C-contiguous output, plus
    `bias` (O,) when given.

    It runs a block of images at a time, about COL2IM_BLOCK_BYTES of columns,
    so no call holds the whole batch's.  A block's (N*L, I) input rows times a
    (I, k, k, O) copy of the weights give its columns tap-major, and the taps
    are added into a channels-last canvas one at a time, each add over whole
    contiguous channel rows.
    """
    n, c, h, w = out_shape
    oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
    i_c = weights.shape[0]
    w_mat = weights.transpose(0, 2, 3, 1).reshape(i_c, -1)
    per_image = oh * ow * kernel * kernel * c * 4  # float32 bytes
    block = max(1, COL2IM_BLOCK_BYTES // per_image)
    out = np.empty(out_shape, dtype=np.result_type(x, weights))
    canvas = np.empty((min(block, n), h + 2 * padding, w + 2 * padding, c), dtype=out.dtype)
    for a in range(0, n, block):
        b = min(a + block, n)
        rows = x[a:b].reshape(b - a, i_c, oh * ow).transpose(0, 2, 1).reshape(-1, i_c)
        cols = (rows @ w_mat).reshape(b - a, oh, ow, kernel, kernel, c)
        xp = canvas[:b - a]
        xp.fill(0)
        for i in range(kernel):
            for j in range(kernel):
                xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, :, i, j]
        image = xp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)
        if bias is None:
            out[a:b] = image
        else:
            np.add(image, bias[:, None, None], out=out[a:b])
    return out


def _conv_out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


# -- layer and op objects --------------------------------------------------

class LinearLayer:
    """y = x W^T + b; flattens spatial input if needed."""

    def __init__(self, entry: ParamEntry, in_shape: tuple[int, ...]):
        self.entry = entry
        self.in_shape = tuple(in_shape)
        self.grad_w, self.grad_b = entry.grad_w, entry.grad_b
        self._x = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        xf = x.reshape(x.shape[0], -1)
        if train:
            self._x = xf
        return xf @ self.entry.weights.T + self.entry.bias

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.grad_w += dy.T @ self._x
        self._x = None
        self.grad_b += dy.sum(axis=0)
        dx = dy @ self.entry.weights
        return dx.reshape((dy.shape[0],) + self.in_shape)


class ConvLayer:
    """Standard 2-d convolution; weights shaped (out_c, in_c, k, k)."""

    def __init__(self, entry: ParamEntry, kernel: int, stride: int, padding: int):
        self.entry = entry
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.grad_w, self.grad_b = entry.grad_w, entry.grad_b
        self._x = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, _, h, w = x.shape
        weights = self.entry.weights
        out_shape = (n, weights.shape[0]) + _conv_out_hw(h, w, self.kernel, self.stride,
                                                          self.padding)
        y = _conv(_columns(x, self.kernel, self.stride, self.padding), weights, out_shape)
        y += self.entry.bias[None, :, None, None]
        if train:
            self._x = x
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.grad_w += _conv_weight_grad(
            _columns(self._x, self.kernel, self.stride, self.padding), dy, self.grad_w.shape)
        x_shape, self._x = self._x.shape, None
        self.grad_b += dy.sum(axis=(0, 2, 3))
        return _conv_transpose(dy, self.entry.weights, x_shape, self.kernel,
                               self.stride, self.padding, None)


class ConvTransposeLayer:
    """Transpose convolution; weights shaped (in_c, out_c, k, k).

    Forward is the input-gradient of the dual convolution mapping output back
    to input, so shapes follow out = (in - 1) * stride - 2 * padding + kernel,
    and backward is that convolution's forward and weight gradient.
    """

    def __init__(self, entry: ParamEntry, kernel: int, stride: int, padding: int):
        self.entry = entry
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.grad_w, self.grad_b = entry.grad_w, entry.grad_b
        self._x = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, _, h, w = x.shape
        out_shape = (n, self.entry.weights.shape[1],
                     (h - 1) * self.stride - 2 * self.padding + self.kernel,
                     (w - 1) * self.stride - 2 * self.padding + self.kernel)
        y = _conv_transpose(x, self.entry.weights, out_shape, self.kernel, self.stride,
                            self.padding, self.entry.bias)
        if train:
            self._x = x
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # one column buffer feeds both products
        cols = _columns(dy, self.kernel, self.stride, self.padding)
        self.grad_w += _conv_weight_grad(cols, self._x, self.grad_w.shape)
        x_shape, self._x = self._x.shape, None
        self.grad_b += dy.sum(axis=(0, 2, 3))
        return _conv(cols, self.entry.weights, x_shape)


class ActivationOp:
    def __init__(self, name: str):
        self.name = name
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if self.name == "relu":
            y = np.maximum(x, 0)
            cache = x
        elif self.name == "leaky_relu":
            # slope-scaled operand first: a NaN input comes back quieted,
            # exactly as from np.where(x > 0, x, LEAKY_SLOPE * x)
            y = LEAKY_SLOPE * x
            np.maximum(y, x, out=y)
            cache = x
        elif self.name == "elu":
            # zero first: a -0.0 input stays -0.0, and no positive input
            # overflows expm1
            y = np.expm1(np.minimum(0, x))
            y *= ELU_ALPHA
            y = np.where(x > 0, x, y)
            cache = (x, y)
        elif self.name == "sigmoid":
            y = _sigmoid(x)
            cache = y
        elif self.name == "tanh":
            y = np.tanh(x)
            cache = y
        else:
            raise ValueError(f"unknown activation {self.name!r}")
        if train:
            self._cache = cache
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if self.name == "relu":
            return dy * (cache > 0)
        if self.name == "leaky_relu":
            one, slope = dy.dtype.type(1), dy.dtype.type(LEAKY_SLOPE)
            return dy * np.where(cache > 0, one, slope)
        if self.name == "elu":
            x, y = cache
            return dy * np.where(x > 0, 1.0, y + ELU_ALPHA)
        if self.name == "sigmoid":
            return dy * cache * (1.0 - cache)
        return dy * (1.0 - cache * cache)  # tanh


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    overflow and without boolean-mask indexing."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class SigmoidHead:
    """Sigmoid clipped into [PROB_CLIP, 1 - PROB_CLIP]; the clip masks the
    gradient where it binds so saturated outputs stop propagating."""

    def __init__(self):
        self._s = None
        self._mask = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        s = _sigmoid(x)
        clipped = np.clip(s, PROB_CLIP, 1.0 - PROB_CLIP)
        if train:
            self._s = s
            self._mask = (s > PROB_CLIP) & (s < 1.0 - PROB_CLIP)
        return clipped

    def backward(self, dy: np.ndarray) -> np.ndarray:
        s, self._s = self._s, None
        mask, self._mask = self._mask, None
        return dy * mask * s * (1.0 - s)


class ReshapePadOp:
    """(N, F) -> (N,) + target, zero-padding the tail when prod(target) > F."""

    def __init__(self, target: tuple[int, ...]):
        self.target = tuple(target)
        self._in_features = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, f = x.shape
        need = 1
        for s in self.target:
            need *= s
        if train:
            self._in_features = f
        if need == f:
            return x.reshape((n,) + self.target)
        out = np.zeros((n, need), dtype=x.dtype)
        out[:, :f] = x
        return out.reshape((n,) + self.target)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(dy.shape[0], -1)[:, : self._in_features]


class CropOp:
    """Top-left spatial crop to (target_h, target_w)."""

    def __init__(self, target_h: int, target_w: int):
        self.target_h = target_h
        self.target_w = target_w
        self._in_shape = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._in_shape = x.shape
        return x[:, :, : self.target_h, : self.target_w]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._in_shape, dtype=dy.dtype)
        dx[:, :, : self.target_h, : self.target_w] = dy
        return dx


class SqueezeOp:
    """(N, 1) -> (N,) for the discriminator head."""

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        return x[:, 0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy[:, None]


@dataclass
class NetworkInstance:
    """Concrete network built from a shape plan over a ParamStore."""

    ops: list
    input_shape: tuple[int, ...]
    dtype: np.dtype
    store: ParamStore
    copied_gene_ids: frozenset[int] = field(default_factory=frozenset)
    _has_cache: bool = False

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"input shape {tuple(x.shape[1:])} does not match network "
                f"input {self.input_shape}"
            )
        for op in self.ops:
            x = op.forward(x, train)
        self._has_cache = train
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns gradient w.r.t. the input.

        Each op drops its forward cache as its backward runs, so one training
        forward allows one backward; another raises RuntimeError."""
        if not self._has_cache:
            raise RuntimeError("backward called without a cached forward pass")
        self._has_cache = False
        d = np.asarray(dout, dtype=self.dtype)
        for op in reversed(self.ops):
            d = op.backward(d)
        return d

    def trainable(self) -> list:
        return [op for op in self.ops if hasattr(op, "entry")]

    def zero_grads(self) -> None:
        self.store.data[3].fill(0)


def build_network(
    genome: Genome,
    plan: ShapePlan,
    parent_store: ParamStore | None = None,
    *,
    rng,
    dtype=np.float32,
) -> tuple[NetworkInstance, ParamStore]:
    """Materialize a network, inheriting parameters where keys match.

    An entry is copied verbatim (weights, bias, Adam moments and step) when
    the parent store holds the same (innovation id, shape signature);
    everything else gets Uniform(-a, a) weights with a = sqrt(1/fan_in) from
    `rng` and zero bias.
    """
    genome_ids = [g.innovation_id for g in genome.genes]
    if [lp.gene_id for lp in plan.layers] != genome_ids + [ADAPTER_ID]:
        raise ValueError("shape plan does not match genome gene sequence")
    keys = [ParamStore.key(lp.gene_id, lp.weight_shape, lp.bias_shape) for lp in plan.layers]
    store = ParamStore(keys, dtype)
    copied: set[int] = set()
    ops: list = []
    for key, lp in zip(keys, plan.layers):
        entry = store.entries[key]
        parent = parent_store.get(key) if parent_store is not None else None
        if parent is not None:
            store.data[:3, entry.span] = parent_store.data[:3, parent.span]
            entry.step = parent.step
            if lp.gene_id != ADAPTER_ID:
                copied.add(lp.gene_id)
        else:
            a = float(np.sqrt(1.0 / lp.fan_in))
            entry.weights[...] = rng.uniform(-a, a, size=lp.weight_shape)

        if lp.reshape_to is not None:
            ops.append(ReshapePadOp(lp.reshape_to))
        if lp.kind == LINEAR:
            ops.append(LinearLayer(entry, lp.in_shape))
        elif lp.kind == CONV:
            ops.append(ConvLayer(entry, lp.kernel, lp.stride, lp.padding))
        elif lp.kind == TRANSPOSE_CONV:
            ops.append(ConvTransposeLayer(entry, lp.kernel, lp.stride, lp.padding))
        else:
            raise ValueError(f"unknown layer kind {lp.kind!r}")
        if lp.head == "sigmoid":
            ops += [SigmoidHead(), SqueezeOp()]
        else:
            ops.append(ActivationOp(lp.activation))
        if lp.head == "crop":
            ops.append(CropOp(*lp.out_shape[1:]))
        elif lp.head == "reshape":
            ops.append(ReshapePadOp(lp.out_shape))

    net = NetworkInstance(
        ops=ops,
        input_shape=plan.input_shape,
        dtype=np.dtype(dtype),
        store=store,
        copied_gene_ids=frozenset(copied),
    )
    return net, store
