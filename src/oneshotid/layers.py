"""Differentiable CNN building blocks and the two concrete towers.

Feature maps are laid out [N, C, H, W].  Builder functions take the image
shape in (height, width, channels) order, matching how datasets report it,
and convert once at the boundary.

Convolution is cross-correlation (no kernel flip) without padding unless
asked for; pooling is max with gradient routed to the first occurrence of
the window maximum.

``conv2d`` runs its forward and weight gradient on one column layout: the
im2col matrix is [C*kh*kw, N*oh*ow], its rows ordered (channel, tap) like
the flattened weights, so each is a single matrix product.  The input
gradient never builds the matching column-gradient matrix.  It is one small
product per kernel tap, added into the stride phase of the padded input that
the tap lands in, where the add is a dense block; one interleave of the
phases then gives the input layout.  The input gradient is computed only for
inputs that require one; the first convolution of a tower, which sees raw
images, skips it.

A parameter layer draws its initial weights from the ``rng`` it is given;
the builders give each layer its own stream derived from their seed.  A
layer built without one holds zeros for its caller to set, as a checkpoint
load does, so nothing here falls back to a fixed stream.

``maxpool2d`` loops over the window taps, one strided slice of the input
each: the forward is a running maximum of the slices, and the backward
finds the winning tap of each output cell again by comparing the slices
with the output in the same tap order, so no index array is ever built.
"""

import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import derive_rng


def _whole(name, v, least):
    """``v`` as an int; a ConfigError naming ``name`` unless it is a whole
    number (a Python or numpy int; a bool or a float is not one) of at
    least ``least``."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise ConfigError(f"{name} must be a whole number, got {v!r}")
    if v < least:
        raise ConfigError(f"{name} must be at least {least}, got {v}")
    return int(v)


def _pair(name, v):
    """``v``, one size or a (rows, cols) pair, as two ints of at least 1."""
    if not isinstance(v, (tuple, list)):
        v = (v, v)
    elif len(v) != 2:
        raise ShapeError(f"expected a pair, got {v!r}")
    return _whole(name, v[0], 1), _whole(name, v[1], 1)


def _window_extent(op, h, w, window, stride, pad=0):
    """Output (oh, ow) of sliding a window over an h x w input padded by
    ``pad`` on each side; a ShapeError names ``op`` when it does not fit."""
    (kh, kw), (sh, sw) = window, stride
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"{op} window {kh}x{kw} does not fit input {h}x{w} (padding {pad})")
    return (h + 2 * pad - kh) // sh + 1, (w + 2 * pad - kw) // sw + 1


def conv2d(x, weights, bias, stride=1, padding=0):
    """Batched 2-D cross-correlation with bias, recorded on the tape.

    x: [N, C, H, W]; weights: [O, C, kh, kw]; bias: [O].
    Forward is ``weights [O, C*kh*kw] @ cols [C*kh*kw, N*oh*ow]``, returned
    as an [N, O, oh, ow] view of the [O, N, oh, ow] product plus the bias.
    Backward takes the upstream gradient as [O, N*oh*ow] once: the weight
    gradient is one product with the saved columns.  The input gradient
    splits the padded input into sh*sw stride phases, one per (row mod sh,
    column mod sw), each a dense [C, N, ceil(Hp/sh), ceil(Wp/sw)] grid.
    Kernel tap (i, j) always lands in phase (i % sh, j % sw) at offset
    (i // sh, j // sw), so each tap's ``weights[:, :, i, j].T @ g`` goes
    into one reused [C, N*oh*ow] buffer and then into its phase as one
    dense block; the phases are interleaved once at the end.  Each input cell
    sums the same products in the same tap order as a column-gradient
    scatter would.  When ``x`` does not require a gradient, its gradient is
    None and none of this runs.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be [N,C,H,W], got {x.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"conv2d weights must be [O,C,kh,kw], got {weights.shape}")
    n, c, h, w = x.shape
    o, cw, kh, kw = weights.shape
    if c != cw:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, weights expect {cw}")
    sh, sw = _pair("conv stride", stride)
    pad = _whole("conv padding", padding, 0)
    oh, ow = _window_extent("conv", h, w, (kh, kw), (sh, sw), pad)

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * oh * ow)
    w2 = weights.data.reshape(o, -1)
    out = (w2 @ cols).reshape(o, n, oh, ow).transpose(1, 0, 2, 3) + bias.data[:, None, None]
    need_dx = x.requires_grad

    def bwd(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, n * oh * ow)
        dw = (g2 @ cols.T).reshape(o, c, kh, kw)
        db = g2.sum(axis=1)
        if not need_dx:
            return None, dw, db
        ph, pw = -(-xp.shape[2] // sh), -(-xp.shape[3] // sw)
        phases = np.zeros((sh, sw, c, n, ph, pw), dtype=xp.dtype)
        tap = np.empty((c, n * oh * ow), dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                np.matmul(weights.data[:, :, i, j].T, g2, out=tap)
                phases[i % sh, j % sw, :, :, i // sh : i // sh + oh, j // sw : j // sw + ow] += (
                    tap.reshape(c, n, oh, ow)
                )
        dxp = phases.transpose(2, 3, 4, 0, 5, 1).reshape(c, n, ph * sh, pw * sw)
        return dxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3), dw, db

    return T.from_op("conv2d", out, (x, weights, bias), bwd)


def maxpool2d(x, window, stride=None):
    """Max pooling over [N, C, H, W]; ties go to the first window element.

    Each of the ph*pw window taps is one strided slice of ``x`` holding
    that tap for every output cell.  The forward is a running
    ``np.maximum`` over the taps in row-major order, and keeps no index
    of the winners.  The backward finds them again from ``x`` and the
    output: walking the taps in the same order, a tap wins the cells
    where it equals the output and no earlier tap has won, and adds the
    upstream gradient into its slice of ``dx`` there.  Within one tap the
    output cells map to distinct input cells, so any window and stride
    works, overlapping windows included.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d input must be [N,C,H,W], got {x.shape}")
    ph, pw = _pair("pool window", window)
    sh, sw = _pair("pool stride", stride if stride is not None else (ph, pw))
    oh, ow = _window_extent("pool", *x.shape[2:], (ph, pw), (sh, sw))

    xd = x.data
    taps = [(slice(None), slice(None),
             slice(i, i + sh * (oh - 1) + 1, sh), slice(j, j + sw * (ow - 1) + 1, sw))
            for i in range(ph) for j in range(pw)]
    out = xd[taps[0]].copy()
    for tap in taps[1:]:
        # On a tie np.maximum returns its second argument, the earlier tap.
        np.maximum(xd[tap], out, out=out)

    def bwd(g):
        dx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)
        for tap in taps:
            won = xd[tap] == out
            won &= free
            free ^= won
            dx[tap] += g * won
        return (dx,)

    return T.from_op("maxpool2d", out, (x,), bwd)


class Layer:
    """What a LayerStack needs of each layer.

    ``forward(x)`` maps a batch; ``out_shape(in_shape)`` gives the output
    shape of one example (no batch axis) and raises for an input the layer
    cannot take; ``params()`` lists (name, tensor) pairs.  A checkpoint
    stores ``kind`` and the attributes named in ``spec_fields``, each of
    which is also a constructor argument.
    """

    spec_fields = ()

    def params(self):
        return []

    def __call__(self, x):
        return self.forward(x)


def _he_uniform(rng, fan_in, shape):
    """Initial parameters of ``shape``: uniform on +-sqrt(6 / fan_in) drawn
    from ``rng``, or zeros when ``rng`` is None, for a caller that sets the
    parameters itself (a checkpoint load, say)."""
    if rng is None:
        return np.zeros(shape)
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Conv2d(Layer):
    kind = "conv"
    spec_fields = ("in_channels", "out_channels", "kernel", "stride", "padding")

    def __init__(self, in_channels, out_channels, kernel=3, stride=1, padding=0, rng=None):
        kh, kw = _pair("conv kernel", kernel)
        self.in_channels = _whole("conv in_channels", in_channels, 1)
        self.out_channels = _whole("conv out_channels", out_channels, 1)
        self.kernel = (kh, kw)
        self.stride = _pair("conv stride", stride)
        self.padding = _whole("conv padding", padding, 0)
        self.weights = T.Tensor(
            _he_uniform(rng, in_channels * kh * kw, (out_channels, in_channels, kh, kw)),
            requires_grad=True,
        )
        self.bias = T.Tensor(np.zeros(out_channels), requires_grad=True)

    def params(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"conv expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        if c != self.in_channels:
            raise ShapeError(f"conv expects {self.in_channels} channels, got {c}")
        return (self.out_channels,
                *_window_extent("conv", h, w, self.kernel, self.stride, self.padding))

    def forward(self, x):
        return conv2d(x, self.weights, self.bias, self.stride, self.padding)


class MaxPool2d(Layer):
    kind = "maxpool"
    spec_fields = ("window", "stride")

    def __init__(self, window=2, stride=None):
        self.window = _pair("pool window", window)
        self.stride = _pair("pool stride", stride if stride is not None else self.window)

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"pool expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        return (c, *_window_extent("pool", h, w, self.window, self.stride))

    def forward(self, x):
        return maxpool2d(x, self.window, self.stride)


class Dense(Layer):
    kind = "dense"
    spec_fields = ("in_features", "out_features")

    def __init__(self, in_features, out_features, rng=None):
        self.in_features = _whole("dense in_features", in_features, 1)
        self.out_features = _whole("dense out_features", out_features, 1)
        self.weights = T.Tensor(
            _he_uniform(rng, in_features, (in_features, out_features)), requires_grad=True
        )
        self.bias = T.Tensor(np.zeros(out_features), requires_grad=True)

    def params(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"dense expects ({self.in_features},) input, got {in_shape}")
        return (self.out_features,)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects [N,{self.in_features}], got {x.shape}")
        return T.add(T.matmul(x, self.weights), self.bias)


class Activation(Layer):
    kind = "act"
    spec_fields = ("name", "alpha")

    _names = ("relu", "leaky_relu", "sigmoid")

    def __init__(self, name, alpha=0.01):
        if name not in self._names:
            raise ShapeError(f"unknown activation {name!r}")
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise ConfigError(f"activation alpha must be a real number, got {alpha!r}")
        self.name = name
        self.alpha = alpha

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        if self.name == "relu":
            return T.relu(x)
        if self.name == "leaky_relu":
            return T.leaky_relu(x, self.alpha)
        return T.sigmoid(x)


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return T.reshape(x, (x.shape[0], -1))


class LayerStack:
    """Sequential layers validated against a declared input shape.

    ``input_shape`` excludes the batch axis.  Construction propagates
    shapes through every layer, so incompatible configurations fail before
    any data is seen.
    """

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.out_shape(shape)
        self.output_shape = shape

    def forward(self, x):
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"stack expects trailing shape {self.input_shape}, got {tuple(x.shape[1:])}"
            )
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def named_params(self):
        out = []
        for i, layer in enumerate(self.layers):
            for pname, p in layer.params():
                out.append((f"{i}.{layer.kind}.{pname}", p))
        return out

    def params(self):
        return [p for _, p in self.named_params()]


def _hwc(input_shape):
    if len(input_shape) != 3:
        raise ShapeError(f"input shape must be (H, W, C), got {input_shape}")
    h, w, c = (int(v) for v in input_shape)
    if h < 1 or w < 1 or c < 1:
        raise ShapeError(f"input shape must be positive, got {input_shape}")
    return h, w, c


def _conv_tower(input_shape, channels, pool_after, dense_sizes, seed, scope):
    """Shared builder: 3x3 stride-1 ReLU convs with 2x2/2 pools after the
    conv indices in ``pool_after`` (1-based), then flatten and dense layers
    with ReLU between them and a linear final layer."""
    h, w, c = _hwc(input_shape)
    layers = []
    for i, (c_in, c_out) in enumerate(zip((c, *channels), channels), start=1):
        layers += [Conv2d(c_in, c_out, kernel=3, rng=derive_rng(seed, scope, "conv", i)),
                   Activation("relu")]
        if i in pool_after:
            layers.append(MaxPool2d(2, 2))
    layers.append(Flatten())
    feat, = LayerStack(layers, (c, h, w)).output_shape
    for j, size in enumerate(dense_sizes, start=1):
        layers.append(Dense(feat, size, rng=derive_rng(seed, scope, "dense", j)))
        if j < len(dense_sizes):
            layers.append(Activation("relu"))
        feat = size
    return LayerStack(layers, (c, h, w))


def build_merged_cnn(input_shape, seed):
    """Classifier tower for merged image pairs.

    Four 3x3 stride-1 ReLU convolutions with 32, 32, 64, 64 feature maps,
    max pooling after the second and fourth, then dense
    layers of 128 and 2; the final two units are same/different logits.
    ``input_shape`` is (H, W, C) of the merged image; weights are
    initialised from ``seed``.
    """
    return _conv_tower(input_shape, (32, 32, 64, 64), (2, 4), (128, 2),
                       seed, "merged_cnn")


def build_siamese_tower(input_shape, seed):
    """Embedding tower shared by both branches of the distance network.

    Three 3x3 stride-1 ReLU convolutions with 4, 8, 8 feature maps, max
    pooling after the first and second, then dense layers of 500, 500 and
    5; the 5-unit output is the embedding and has no activation so the
    distance lives in an unconstrained space.  ``input_shape`` is
    (H, W, C) with a single channel in normal use; weights are initialised
    from ``seed``.
    """
    return _conv_tower(input_shape, (4, 8, 8), (1, 2), (500, 500, 5),
                       seed, "siamese_tower")
