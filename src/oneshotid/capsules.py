"""Capsule network pieces: squashing, dynamic routing, capsule layers and
the reconstruction decoder.

A capsule is a small vector whose length encodes confidence and whose
direction encodes pose.  Primary capsules are carved out of conv feature
maps; high-level capsules are computed by routing-by-agreement over
per-capsule linear predictions.  Routing state is rebuilt from zeros on
every forward pass.  Squash is one tape op with a closed-form gradient;
routing is one tape op whose hand-written backward runs through the
unrolled iterations.  Both call the same two numpy squash helpers, and
routing applies the network's softmax op to untracked tensors.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, StateError
from .layers import (Activation, Conv2d, Dense, Layer, LayerStack, _he_uniform, _hwc,
                     _whole)
from .rng import derive_rng


def _squash(s, axis):
    """squash(s) along ``axis`` and the norm n = ||s|| (kept as an axis)."""
    n = np.sqrt((s * s).sum(axis=axis, keepdims=True))
    return s * (n / (1 + n * n)), n


def _squash_grad(g, s, n, axis):
    """The gradient of squash(s) for upstream g; dn/ds divides by n + eps."""
    q = 1.0 + n * n
    df = (1.0 - n * n) / (q * q)
    return g * (n / q) + s * ((g * s).sum(axis=axis, keepdims=True) * df / (n + T._EPS))


def squash(g, axis):
    """Shrink vector g along ``axis`` to length ||g||^2/(1+||g||^2) < 1.

    Equals g * ||g|| / (1 + ||g||^2), which is 0 at g = 0.  One tape op
    whose closed-form gradient is finite at the origin, because it
    divides by ||g|| + eps; routing calls the same two helpers.
    """
    v, n = _squash(g.data, axis)
    return T.from_op("squash", v, (g,), lambda grad: (_squash_grad(grad, g.data, n, axis),))


class RoutingState:
    """Diagnostics from one routing run.

    ``coupling_history`` holds a [..., N_p, J] array of c_ij per iteration
    so tests can watch agreement evolve.  Each is a view of the couplings
    the routing op keeps for its backward, so nothing may write to it.
    """

    def __init__(self, coupling_history):
        self.coupling_history = coupling_history


def dynamic_route(u_hat, iterations=3):
    """Routing-by-agreement over prediction vectors, as one tape op.

    u_hat: [..., N_p, J, d].  Logits b start at zero; each iteration takes
    c = softmax over the J axis, forms weighted sums s_j = sum_i c_ij
    u_hat_ij, squashes to v_j, and adds the agreement u_hat_ij . v_j back
    onto b (skipped after the final iteration).  Returns (v, state) with
    v: [..., J, d].

    Internally the leading dims are flattened to B and u_hat is copied once
    to [B, J, N_p, d], so that s = c @ u and the agreement u @ v are batched
    matrix products.  The op records one tape entry; its backward runs the
    unrolled iterations in reverse from the c, s, ||s|| and v kept for each.
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least 1 iteration, got {iterations}")
    if u_hat.ndim < 3:
        raise ConfigError(f"u_hat must be [..., N_p, J, d], got shape {u_hat.shape}")

    lead = u_hat.shape[:-3]
    n_p, n_j, d = u_hat.shape[-3:]
    u = np.ascontiguousarray(u_hat.data.reshape(-1, n_p, n_j, d).transpose(0, 2, 1, 3))
    b = np.zeros(u.shape[:-1], dtype=u.dtype)
    saved = []
    history = []
    for it in range(iterations):
        c = T.softmax(T.Tensor(b), axis=1).data
        history.append(c.swapaxes(1, 2).reshape(lead + (n_p, n_j)))
        s = (c[:, :, None, :] @ u)[:, :, 0]
        v, n = _squash(s, -1)
        saved.append((c, s, n, v))
        if it < iterations - 1:
            b += (u @ v[..., None])[..., 0]

    def bwd(g):
        # d loss / d u_hat_ij = sum over iterations of c_ij gs_j (through
        # s) and gb_ij v_j (through the agreement), gathered as the columns
        # and rows of one matrix product.
        gv = g.reshape(v.shape)
        gb = np.zeros_like(b)
        cols, rows = [], []
        for it in reversed(range(iterations)):
            c, s, n, v_it = saved[it]
            if it < iterations - 1:
                # v_it reached the loss only through the agreement onto b
                gv = (gb[:, :, None, :] @ u)[:, :, 0]
                cols.append(gb)
                rows.append(v_it)
            gs = _squash_grad(gv, s, n, -1)
            cols.append(c)
            rows.append(gs)
            if it:
                gc = (u @ gs[..., None])[..., 0]
                gb = gb + (gc - (gc * c).sum(axis=1, keepdims=True)) * c
        gu = np.stack(cols, -1) @ np.stack(rows, -2)
        return (gu.transpose(0, 2, 1, 3).reshape(u_hat.shape),)

    out = T.from_op("dynamic_route", v.reshape(lead + (n_j, d)), (u_hat,), bwd)
    return out, RoutingState(history)


def capsule_predict(u, w):
    """Per-pair linear predictions u_hat[..., i, j, :] = W[i, j] @ u[..., i, :].

    u: [B, N_p, n_p]; w: [N_p, J, d, n_p] -> [B, N_p, J, d].
    """
    data = np.einsum("ijdp,bip->bijd", w.data, u.data, optimize=True)

    def bwd(g):
        du = np.einsum("ijdp,bijd->bip", w.data, g, optimize=True)
        dw = np.einsum("bijd,bip->ijdp", g, u.data, optimize=True)
        return du, dw

    return T.from_op("capsule_predict", data, (u, w), bwd)


class PrimaryCapsuleLayer(Layer):
    """Regroups conv maps [B, n_m, h, w] into squashed capsule vectors.

    Each capsule takes n_p consecutive channels at one spatial location,
    giving N_p = h * w * n_m / n_p capsules of length n_p.
    """

    kind = "primary_caps"
    spec_fields = ("n_p",)

    def __init__(self, n_p):
        self.n_p = _whole("capsule length n_p", n_p, 1)

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ConfigError(f"primary capsules expect (C,H,W) input, got {in_shape}")
        n_m, h, w = in_shape
        if n_m % self.n_p != 0:
            raise ConfigError(
                f"capsule length {self.n_p} must divide the {n_m} feature maps"
            )
        return (h * w * n_m // self.n_p, self.n_p)

    def forward(self, x):
        b, n_m, h, w = x.shape
        groups = n_m // self.n_p
        u = T.reshape(x, (b, groups, self.n_p, h, w))
        u = T.transpose(u, (0, 1, 3, 4, 2))
        u = T.reshape(u, (b, groups * h * w, self.n_p))
        return squash(u, axis=-1)


class HighLevelCapsuleLayer(Layer):
    """Routes N_p input capsules to J output capsules of length d_out.

    The only parameters are the prediction matrices W: [N_p, J, d_out, n_p];
    there is no bias.
    """

    kind = "high_caps"
    spec_fields = ("n_in", "n_p", "n_out", "d_out", "routing_iters")

    def __init__(self, n_in, n_p, n_out, d_out, routing_iters=3, rng=None):
        self.n_in = _whole("high-level capsules n_in", n_in, 1)
        self.n_p = _whole("high-level capsules n_p", n_p, 1)
        self.n_out = _whole("high-level capsules n_out", n_out, 1)
        self.d_out = _whole("high-level capsules d_out", d_out, 1)
        self.routing_iters = _whole("high-level capsules routing_iters", routing_iters, 1)
        self.weights = T.Tensor(_he_uniform(rng, n_p, (n_in, n_out, d_out, n_p)),
                                requires_grad=True)

    def params(self):
        return [("weights", self.weights)]

    def out_shape(self, in_shape):
        if tuple(in_shape) != (self.n_in, self.n_p):
            raise ConfigError(
                f"high-level capsules expect ({self.n_in}, {self.n_p}) input, got {in_shape}"
            )
        return (self.n_out, self.d_out)

    def forward(self, u):
        u_hat = capsule_predict(u, self.weights)
        v, _ = dynamic_route(u_hat, self.routing_iters)
        return v


def capsule_scores(v):
    """Per-class confidence: the norm of each output capsule."""
    return T.l2norm(v, axis=-1)


def build_capsnet(input_shape, n_classes, d_out, routing_iters=3,
                  conv_channels=(256, 256), kernels=(9, 9), strides=(1, 2),
                  n_p=8, *, seed):
    """Capsule classifier: two leaky-ReLU convs (slope 0.01), primary
    capsules, routed high-level capsules, initialised from ``seed``.

    ``input_shape`` is (H, W, C).  Output is [n_classes, d_out] capsule
    vectors (a recipe's ``caps_d_out``, 16 by default); class score for j
    is the norm of capsule j.  The flattened output doubles as an
    embedding for pairwise comparison.
    """
    h, w, c = _hwc(input_shape)
    c1, c2 = conv_channels
    layers = [
        Conv2d(c, c1, kernel=kernels[0], stride=strides[0],
               rng=derive_rng(seed, "capsnet", "conv", 1)),
        Activation("leaky_relu"),
        Conv2d(c1, c2, kernel=kernels[1], stride=strides[1],
               rng=derive_rng(seed, "capsnet", "conv", 2)),
        Activation("leaky_relu"),
        PrimaryCapsuleLayer(n_p),
    ]
    n_caps, _ = LayerStack(layers, (c, h, w)).output_shape
    layers.append(
        HighLevelCapsuleLayer(n_caps, n_p, n_classes, d_out, routing_iters,
                              rng=derive_rng(seed, "capsnet", "caps"))
    )
    return LayerStack(layers, (c, h, w))


class Decoder:
    """Dense stack reconstructing an image from one masked capsule vector.

    ``sizes`` are the hidden layer widths, (512, 1024) in the CapsNet
    decoder; hidden layers use leaky ReLU with slope 0.01, the output a
    sigmoid.  Weights are initialised from ``seed``.
    """

    def __init__(self, n_classes, d_out, image_shape, sizes, seed):
        self.n_classes = int(n_classes)
        self.d_out = int(d_out)
        self.image_shape = tuple(int(v) for v in image_shape)
        pixels = int(np.prod(self.image_shape))
        feat = n_classes * d_out
        layers = []
        for j, size in enumerate(sizes, start=1):
            layers += [Dense(feat, size, rng=derive_rng(seed, "decoder", j)),
                       Activation("leaky_relu")]
            feat = size
        layers += [Dense(feat, pixels, rng=derive_rng(seed, "decoder", "out")),
                   Activation("sigmoid")]
        self.stack = LayerStack(layers, (n_classes * d_out,))

    def params(self):
        return self.stack.params()

    def decode(self, v, mask):
        """Zero every capsule except ``mask``, then reconstruct.

        v: [B, n_classes, d_out]; ``mask`` is one capsule index, or one per
        example.  Returns [B, *image_shape] with values in [0, 1].
        """
        if v.ndim != 3:
            raise ShapeError(f"decode expects v of shape [B, n_classes, d_out], got {v.shape}")
        b = v.shape[0]
        idx = np.asarray(mask)
        if idx.ndim == 0:
            idx = np.full(b, idx)
        if idx.shape != (b,):
            raise IndexError(f"mask must be one index or one per example, got shape {idx.shape}")
        if np.any((idx < 0) | (idx >= self.n_classes)):
            raise IndexError(f"mask {mask} out of range [0, {self.n_classes})")
        keep = np.zeros((b, self.n_classes, 1), dtype=v.dtype)
        keep[np.arange(b), idx, 0] = 1.0
        masked = T.mul(v, T.Tensor(keep))
        out = self.stack(T.reshape(masked, (b, self.n_classes * self.d_out)))
        return T.reshape(out, (b,) + self.image_shape)


class CapsNet:
    """Capsule encoder plus decoder, with a trained-enough gate for
    generation.

    ``recon_loss`` is set by reconstruction training; generation refuses to
    run until it is at or below ``recon_threshold``.
    """

    def __init__(self, encoder, decoder, recon_threshold):
        self.encoder = encoder
        self.decoder = decoder
        self.recon_threshold = float(recon_threshold)
        self.recon_loss = None

    def params(self):
        return self.encoder.params() + self.decoder.params()

    def reconstruct(self, x):
        """Encode then decode through the capsule strongest on average
        over the batch."""
        v = self.encoder(x)
        mask = int(np.argmax(capsule_scores(v).data.mean(axis=0)))
        return self.decoder.decode(v, mask)


def generate_images(model, seed_images, count, scale, seed):
    """Decode perturbed capsule codes of seed images into new images.

    Each output encodes one seed image (cycled), adds seeded uniform noise
    of half-width ``scale`` to the strongest capsule's vector, and decodes.
    Requires reconstruction training to have reached the model's
    threshold.  Deterministic for a fixed seed.
    """
    if model.recon_loss is None or model.recon_loss > model.recon_threshold:
        raise StateError(
            "generation needs reconstruction training to reach "
            f"loss <= {model.recon_threshold} (current: {model.recon_loss})"
        )
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    images = []
    for k in range(count):
        img = seed_images[k % len(seed_images)]
        x = T.Tensor(np.asarray(img)[None, ...])
        v = model.encoder(x)
        scores = capsule_scores(v).data[0]
        mask = int(np.argmax(scores))
        noise = np.zeros(v.shape, dtype=v.dtype)
        rng = derive_rng(seed, "generate", k)
        noise[0, mask, :] = rng.uniform(-scale, scale, size=v.shape[-1])
        v = T.add(v, T.Tensor(noise))
        out = model.decoder.decode(v, mask)
        images.append(np.array(out.data[0], copy=True))
    return images
