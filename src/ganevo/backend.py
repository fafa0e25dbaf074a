"""Phenotype construction and neural execution.

Dense, convolution and transpose-convolution layers with explicit numpy
forward and backward passes (convolutions via im2col, so gradients are exact
and checkable against finite differences), Adam updates, and parameter
transfer between generations.

Trained state lives in a ParamStore keyed by (innovation id, shape signature).
Building a network against a parent store copies every entry whose key is
unchanged, which is the mechanism that carries training information across
generations; shape-changing mutations miss the lookup and re-initialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .genome import ADAPTER_ID, CONV, LINEAR, TRANSPOSE_CONV, Genome, ShapePlan

LEAKY_SLOPE = 0.2
ELU_ALPHA = 1.0

# Discriminator probabilities are kept strictly inside (0, 1); gradients are
# masked where the clip binds, consistent with the clamped-log losses.
PROB_CLIP = 1e-7


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class ParamEntry:
    """Weights, bias and Adam moments for one trainable layer."""

    weights: np.ndarray
    bias: np.ndarray
    m_w: np.ndarray
    v_w: np.ndarray
    m_b: np.ndarray
    v_b: np.ndarray
    step: int = 0

    def clone(self) -> "ParamEntry":
        return ParamEntry(
            weights=self.weights.copy(),
            bias=self.bias.copy(),
            m_w=self.m_w.copy(),
            v_w=self.v_w.copy(),
            m_b=self.m_b.copy(),
            v_b=self.v_b.copy(),
            step=self.step,
        )


def fresh_entry(weight_shape, bias_shape, fan_in, rng, dtype=np.float32) -> ParamEntry:
    """Uniform(-a, a) weights with a = sqrt(1/fan_in), zero bias."""
    a = float(np.sqrt(1.0 / fan_in))
    w = rng.uniform(-a, a, size=weight_shape).astype(dtype)
    b = np.zeros(bias_shape, dtype=dtype)
    return ParamEntry(
        weights=w,
        bias=b,
        m_w=np.zeros_like(w),
        v_w=np.zeros_like(w),
        m_b=np.zeros_like(b),
        v_b=np.zeros_like(b),
    )


class ParamStore:
    """Map from (innovation id, shape signature) to a ParamEntry."""

    def __init__(self):
        self.entries: dict[tuple, ParamEntry] = {}

    @staticmethod
    def key(gene_id: int, weight_shape, bias_shape) -> tuple:
        return (gene_id, (tuple(weight_shape), tuple(bias_shape)))

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, entry: ParamEntry) -> None:
        self.entries[key] = entry

    def __len__(self) -> int:
        return len(self.entries)


def adam_step(entry: ParamEntry, grad_w: np.ndarray, grad_b: np.ndarray,
              config: AdamConfig) -> None:
    """One Adam update with bias correction, in place."""
    if grad_w.shape != entry.weights.shape or grad_b.shape != entry.bias.shape:
        raise ValueError(
            f"gradient shapes {grad_w.shape}/{grad_b.shape} do not match "
            f"parameters {entry.weights.shape}/{entry.bias.shape}"
        )
    entry.step += 1
    t = entry.step
    b1, b2 = config.beta1, config.beta2
    for p, m, v, g in (
        (entry.weights, entry.m_w, entry.v_w, grad_w),
        (entry.bias, entry.m_b, entry.v_b, grad_b),
    ):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


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
    """Scatter-add inverse of _im2col back onto an (N, C, H, W) canvas."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w]


def _conv_out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


# -- layer and op objects --------------------------------------------------

class LinearLayer:
    """y = x W^T + b; flattens spatial input if needed."""

    def __init__(self, entry: ParamEntry, in_shape: tuple[int, ...]):
        self.entry = entry
        self.in_shape = tuple(in_shape)
        self.grad_w = np.zeros_like(entry.weights)
        self.grad_b = np.zeros_like(entry.bias)
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
        self.grad_w = np.zeros_like(entry.weights)
        self.grad_b = np.zeros_like(entry.bias)
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
        dcols = np.einsum("of,nol->nfl", w_mat, dy_mat, optimize=True)
        return _col2im(dcols, self._x_shape, self.kernel, self.stride, self.padding)


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
        self.grad_w = np.zeros_like(entry.weights)
        self.grad_b = np.zeros_like(entry.bias)
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
        cols = np.einsum("if,nil->nfl", w_mat, x_mat, optimize=True)
        y = _col2im(cols, (n, out_c, oh, ow), self.kernel, self.stride, self.padding)
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
            y = np.where(x > 0, x, LEAKY_SLOPE * x)
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
            return dy * np.where(self._cache > 0, 1.0, LEAKY_SLOPE).astype(dy.dtype)
        if self.name == "elu":
            x, y = self._cache
            return dy * np.where(x > 0, 1.0, y + ELU_ALPHA).astype(dy.dtype)
        if self.name == "sigmoid":
            s = self._cache
            return dy * s * (1.0 - s)
        s = self._cache  # tanh
        return dy * (1.0 - s * s)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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

    role: str
    ops: list
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    dtype: np.dtype
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
        for layer in self.trainable():
            layer.grad_w[...] = 0
            layer.grad_b[...] = 0

    def adam_step_all(self, config: AdamConfig) -> None:
        for layer in self.trainable():
            adam_step(layer.entry, layer.grad_w, layer.grad_b, config)


def build_network(
    genome: Genome,
    plan: ShapePlan,
    parent_store: ParamStore | None = None,
    rng=None,
    dtype=np.float32,
) -> tuple[NetworkInstance, ParamStore]:
    """Materialize a network, inheriting parameters where keys match.

    An entry is copied verbatim (weights, bias and Adam state) when the parent
    store holds the same (innovation id, shape signature); everything else is
    freshly initialized from `rng`.
    """
    plan_ids = [lp.gene_id for lp in plan.layers]
    genome_ids = [g.innovation_id for g in genome.genes]
    if plan_ids != genome_ids:
        raise ValueError("shape plan does not match genome gene sequence")
    if rng is None:
        rng = np.random.default_rng(0)
    store = ParamStore()
    copied: set[int] = set()

    def obtain(gene_id, weight_shape, bias_shape, fan_in) -> ParamEntry:
        key = ParamStore.key(gene_id, weight_shape, bias_shape)
        parent = parent_store.get(key) if parent_store is not None else None
        if parent is not None:
            entry = parent.clone()
            if gene_id >= 0:
                copied.add(gene_id)
        else:
            entry = fresh_entry(weight_shape, bias_shape, fan_in, rng, dtype)
        store.put(key, entry)
        return entry

    ops: list = []
    for lp in plan.layers:
        entry = obtain(lp.gene_id, lp.weight_shape, lp.bias_shape, lp.fan_in)
        if lp.kind == LINEAR:
            ops.append(LinearLayer(entry, lp.in_shape))
        elif lp.kind == CONV:
            ops.append(ConvLayer(entry, lp.kernel, lp.stride, lp.padding))
        elif lp.kind == TRANSPOSE_CONV:
            if lp.reshape_to is not None:
                ops.append(ReshapePadOp(lp.reshape_to))
            ops.append(ConvTransposeLayer(entry, lp.kernel, lp.stride, lp.padding))
        else:
            raise ValueError(f"unknown layer kind {lp.kind!r}")
        ops.append(ActivationOp(lp.activation))

    ad = plan.adapter
    entry = obtain(ADAPTER_ID, ad.weight_shape, ad.bias_shape, ad.fan_in)
    if ad.kind == "linear":
        ops.append(LinearLayer(entry, ad.in_shape))
    else:
        ops.append(ConvLayer(entry, kernel=1, stride=1, padding=0))
    if ad.post == "sigmoid":
        ops.append(SigmoidHead())
        ops.append(SqueezeOp())
    else:
        ops.append(ActivationOp("tanh"))
        if ad.crop is not None:
            ops.append(CropOp(*ad.crop))
        if ad.reshape is not None:
            ops.append(ReshapePadOp(ad.reshape))

    net = NetworkInstance(
        role=genome.role,
        ops=ops,
        input_shape=plan.input_shape,
        output_shape=plan.output_shape,
        dtype=np.dtype(dtype),
        copied_gene_ids=frozenset(copied),
    )
    return net, store
