"""Phenotype construction and neural execution.

Dense, convolution and transpose-convolution layers with explicit numpy
forward and backward passes (convolutions via im2col, so gradients are exact
and checkable against finite differences), Adam updates, and parameter
transfer between generations.

Convolutions are one einsum GEMM each.  Where its output is scattered back
onto an image (the transpose-conv forward, the conv input gradient),
`_col2im` takes it in the (N, out_h*out_w, C*k*k) order the GEMM writes and
adds the taps into a channels-last canvas before one copy to C-contiguous
NCHW; the result is bit-identical to an NCHW scatter.  Activations avoid
boolean-mask indexing, and Adam applies one bias-corrected update per run of
entries that share a step count.

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


ADAM_BETA1 = 0.9
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

def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C*k*k, out_h*out_w) patch matrix."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    oh, ow = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kernel * kernel, oh * ow)
    return np.ascontiguousarray(cols)


def _col2im(cols: np.ndarray, x_shape, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Scatter-add inverse of _im2col: (N, out_h*out_w, C*k*k) columns, in
    the order the GEMM writes them, onto a C-contiguous (N, C, H, W) array.

    The taps are added into a channels-last canvas, so each add runs over
    whole channel rows; every pixel sums its taps in the same order as an
    NCHW canvas would, so the result is bit-identical to one.  The returned
    array is C-contiguous NCHW because a channels-last view would reorder
    later reductions (bias gradients, FID moments) and change their bits.
    """
    n, c, h, w = x_shape
    oh, ow = _conv_out_hw(h, w, kernel, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kernel, kernel)
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[..., i, j]
    del cols  # the caller holds no reference: free the columns before the copy
    return np.ascontiguousarray(
        xp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))


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
        self._cols = None
        self._x_shape = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n = x.shape[0]
        out_c = self.entry.weights.shape[0]
        oh, ow = _conv_out_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        cols = _im2col(x, self.kernel, self.stride, self.padding)
        w_mat = self.entry.weights.reshape(out_c, -1)
        y = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
        y = y.reshape(n, out_c, oh, ow) + self.entry.bias[None, :, None, None]
        if train:
            self._cols = cols
            self._x_shape = x.shape
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n, out_c = dy.shape[0], dy.shape[1]
        dy_mat = dy.reshape(n, out_c, -1)
        self.grad_w += np.einsum("nol,nfl->of", dy_mat, self._cols,
                                 optimize=True).reshape(self.entry.weights.shape)
        self.grad_b += dy.sum(axis=(0, 2, 3))
        w_mat = self.entry.weights.reshape(out_c, -1)
        return _col2im(np.einsum("of,nol->nlf", w_mat, dy_mat, optimize=True),
                       self._x_shape, self.kernel, self.stride, self.padding)


class ConvTransposeLayer:
    """Transpose convolution; weights shaped (in_c, out_c, k, k).

    Forward is the input-gradient of the dual convolution mapping output back
    to input, so shapes follow out = (in - 1) * stride - 2 * padding + kernel.
    """

    def __init__(self, entry: ParamEntry, kernel: int, stride: int, padding: int):
        self.entry = entry
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.grad_w, self.grad_b = entry.grad_w, entry.grad_b
        self._x_mat = None
        self._x_hw = None

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        return ((h - 1) * self.stride - 2 * self.padding + self.kernel,
                (w - 1) * self.stride - 2 * self.padding + self.kernel)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, in_c, h, w = x.shape
        out_c = self.entry.weights.shape[1]
        oh, ow = self._out_hw(h, w)
        x_mat = x.reshape(n, in_c, h * w)
        w_mat = self.entry.weights.reshape(in_c, -1)
        y = _col2im(np.einsum("if,nil->nlf", w_mat, x_mat, optimize=True),
                    (n, out_c, oh, ow), self.kernel, self.stride, self.padding)
        y += self.entry.bias[None, :, None, None]
        if train:
            self._x_mat = x_mat
            self._x_hw = (h, w)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n = dy.shape[0]
        in_c = self.entry.weights.shape[0]
        h, w = self._x_hw
        cols_dy = _im2col(dy, self.kernel, self.stride, self.padding)
        w_mat = self.entry.weights.reshape(in_c, -1)
        self.grad_w += np.einsum("nil,nfl->if", self._x_mat, cols_dy,
                                 optimize=True).reshape(self.entry.weights.shape)
        self.grad_b += dy.sum(axis=(0, 2, 3))
        dx_mat = np.einsum("if,nfl->nil", w_mat, cols_dy, optimize=True)
        return dx_mat.reshape(n, in_c, h, w)


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
            y = np.maximum(LEAKY_SLOPE * x, x)
            cache = x
        elif self.name == "elu":
            y = np.where(x > 0, x, ELU_ALPHA * np.expm1(x))
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
        if self.name == "relu":
            return dy * (self._cache > 0)
        if self.name == "leaky_relu":
            one, slope = dy.dtype.type(1), dy.dtype.type(LEAKY_SLOPE)
            return dy * np.where(self._cache > 0, one, slope)
        if self.name == "elu":
            x, y = self._cache
            return dy * np.where(x > 0, 1.0, y + ELU_ALPHA).astype(dy.dtype)
        if self.name == "sigmoid":
            s = self._cache
            return dy * s * (1.0 - s)
        s = self._cache  # tanh
        return dy * (1.0 - s * s)


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
        return dy * self._mask * self._s * (1.0 - self._s)


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
        """Accumulate parameter gradients; returns gradient w.r.t. the input."""
        if not self._has_cache:
            raise RuntimeError("backward called without a cached forward pass")
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
