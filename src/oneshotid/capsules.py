"""Capsule network pieces: squashing, dynamic routing, capsule layers and
the reconstruction decoder.

A capsule is a small vector whose length encodes confidence and whose
direction encodes pose.  Primary capsules are carved out of conv feature
maps; high-level capsules are computed by routing-by-agreement over
per-capsule linear predictions.  Routing state is rebuilt from zeros on
every forward pass and gradients flow through the unrolled iterations.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError, StateError
from .layers import Activation, Conv2d, Dense, LayerStack
from .rng import derive_rng


def squash(g, axis=-1):
    """Shrink vector g along ``axis`` to length ||g||^2/(1+||g||^2) < 1.

    Equals g * ||g|| / (1 + ||g||^2), which is 0 at g = 0; the gradient at
    the origin is finite because the norm's backward is eps-stabilized.
    """
    n = T.l2norm(g, axis=axis, keepdims=True)
    factor = T.div(n, T.add(1.0, T.square(n)))
    return T.mul(g, factor)


class RoutingState:
    """Diagnostics from one routing run.

    ``couplings`` is the final c_ij; ``coupling_history`` holds a plain
    array snapshot per iteration so tests can watch agreement evolve.
    """

    def __init__(self, couplings, iterations, coupling_history):
        self.couplings = couplings
        self.iterations = iterations
        self.coupling_history = coupling_history


def dynamic_route(u_hat, iterations=3):
    """Routing-by-agreement over prediction vectors.

    u_hat: [..., N_p, J, d].  Logits b start at zero; each iteration takes
    c = softmax over the J axis, forms weighted sums s_j = sum_i c_ij
    u_hat_ij, squashes to v_j, and adds the agreement u_hat_ij . v_j back
    onto b (skipped after the final iteration).  Returns (v, state) with
    v: [..., J, d].
    """
    if iterations < 1:
        raise ConfigError(f"routing needs at least 1 iteration, got {iterations}")
    if u_hat.ndim < 3:
        raise ConfigError(f"u_hat must be [..., N_p, J, d], got shape {u_hat.shape}")

    b = T.Tensor(np.zeros(u_hat.shape[:-1], dtype=u_hat.dtype))
    history = []
    v = None
    c = None
    for it in range(iterations):
        c = T.softmax(b, axis=-1)
        history.append(np.array(c.data, copy=True))
        cx = T.reshape(c, c.shape + (1,))
        s = T.tsum(T.mul(cx, u_hat), axis=-3)
        v = squash(s, axis=-1)
        if it < iterations - 1:
            vx = T.reshape(v, v.shape[:-2] + (1,) + v.shape[-2:])
            agreement = T.tsum(T.mul(u_hat, vx), axis=-1)
            b = T.add(b, agreement)
    return v, RoutingState(c, iterations, history)


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


class PrimaryCapsuleLayer:
    """Regroups conv maps [B, n_m, h, w] into squashed capsule vectors.

    Each capsule takes n_p consecutive channels at one spatial location,
    giving N_p = h * w * n_m / n_p capsules of length n_p.
    """

    kind = "primary_caps"

    def __init__(self, n_p):
        self.n_p = int(n_p)
        if self.n_p < 1:
            raise ConfigError(f"capsule length must be positive, got {n_p}")

    def params(self):
        return []

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

    __call__ = forward


class HighLevelCapsuleLayer:
    """Routes N_p input capsules to J output capsules of length d_out.

    The only parameters are the prediction matrices W: [N_p, J, d_out, n_p];
    there is no bias.
    """

    kind = "high_caps"

    def __init__(self, n_in, n_p, n_out, d_out, routing_iters=3, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        if routing_iters < 1:
            raise ConfigError(f"routing needs at least 1 iteration, got {routing_iters}")
        self.n_in = int(n_in)
        self.n_p = int(n_p)
        self.n_out = int(n_out)
        self.d_out = int(d_out)
        self.routing_iters = int(routing_iters)
        limit = np.sqrt(6.0 / n_p)
        self.weights = T.Tensor(
            rng.uniform(-limit, limit, size=(n_in, n_out, d_out, n_p)), requires_grad=True
        )

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

    __call__ = forward


def capsule_scores(v):
    """Per-class confidence: the norm of each output capsule."""
    return T.l2norm(v, axis=-1)


def build_capsnet(input_shape, n_classes, d_out=16, routing_iters=3,
                  conv_channels=(256, 256), kernels=(9, 9), strides=(1, 2),
                  n_p=8, leak=0.01, seed=0):
    """Capsule classifier: two leaky-ReLU convs, primary capsules, routed
    high-level capsules.

    ``input_shape`` is (H, W, C).  Output is [n_classes, d_out] capsule
    vectors; class score for j is the norm of capsule j.  The flattened
    output doubles as an embedding for pairwise comparison.
    """
    h, w, c = (int(v) for v in input_shape)
    c1, c2 = conv_channels
    if c2 % n_p != 0:
        raise ConfigError(f"capsule length {n_p} must divide the {c2} feature maps")
    layers = []
    shape = (c, h, w)
    conv1 = Conv2d(c, c1, kernel=kernels[0], stride=strides[0],
                   rng=derive_rng(seed, "capsnet", "conv", 1))
    layers += [conv1, Activation("leaky_relu", alpha=leak)]
    shape = conv1.out_shape(shape)
    conv2 = Conv2d(c1, c2, kernel=kernels[1], stride=strides[1],
                   rng=derive_rng(seed, "capsnet", "conv", 2))
    layers += [conv2, Activation("leaky_relu", alpha=leak)]
    shape = conv2.out_shape(shape)
    primary = PrimaryCapsuleLayer(n_p)
    layers.append(primary)
    n_caps, _ = primary.out_shape(shape)
    layers.append(
        HighLevelCapsuleLayer(n_caps, n_p, n_classes, d_out, routing_iters,
                              rng=derive_rng(seed, "capsnet", "caps"))
    )
    return LayerStack(layers, (c, h, w))


class Decoder:
    """Dense stack reconstructing an image from one masked capsule vector."""

    def __init__(self, n_classes, d_out, image_shape, sizes=(512, 1024),
                 leak=0.01, seed=0):
        self.n_classes = int(n_classes)
        self.d_out = int(d_out)
        self.image_shape = tuple(int(v) for v in image_shape)
        pixels = int(np.prod(self.image_shape))
        feat = n_classes * d_out
        layers = []
        for j, size in enumerate(sizes, start=1):
            layers += [Dense(feat, size, rng=derive_rng(seed, "decoder", j)),
                       Activation("leaky_relu", alpha=leak)]
            feat = size
        layers += [Dense(feat, pixels, rng=derive_rng(seed, "decoder", "out")),
                   Activation("sigmoid")]
        self.stack = LayerStack(layers, (n_classes * d_out,))
        self.sizes = tuple(sizes)

    def params(self):
        return self.stack.params()

    def named_params(self):
        return self.stack.named_params()

    def forward(self, flat):
        return self.stack(flat)

    def decode(self, v, mask):
        """Zero every capsule except ``mask``, then reconstruct.

        v: [n_classes, d_out] or [B, n_classes, d_out]; returns an
        image-shaped tensor (batch axis preserved) with values in [0, 1].
        ``mask`` is a capsule index, or one index per example for batched
        input.
        """
        batched = v.ndim == 3
        if not batched:
            v = T.reshape(v, (1,) + tuple(v.shape))
        if np.ndim(mask) == 0:
            if not 0 <= mask < self.n_classes:
                raise IndexError(f"mask {mask} out of range [0, {self.n_classes})")
            keep = np.zeros((self.n_classes, 1), dtype=v.dtype)
            keep[mask, 0] = 1.0
        else:
            idx = np.asarray(mask)
            if idx.shape != (v.shape[0],):
                raise IndexError(
                    f"mask array must have one entry per example, got {idx.shape}"
                )
            if idx.min() < 0 or idx.max() >= self.n_classes:
                raise IndexError(f"mask entries out of range [0, {self.n_classes})")
            keep = np.zeros((v.shape[0], self.n_classes, 1), dtype=v.dtype)
            keep[np.arange(v.shape[0]), idx, 0] = 1.0
        masked = T.mul(v, T.Tensor(keep))
        flat = T.reshape(masked, (v.shape[0], self.n_classes * self.d_out))
        out = self.stack(flat)
        shape = ((v.shape[0],) + self.image_shape) if batched else self.image_shape
        return T.reshape(out, shape)


class CapsNet:
    """Capsule encoder plus decoder, with a trained-enough gate for
    generation.

    ``recon_loss`` is set by reconstruction training; generation refuses to
    run until it is at or below ``recon_threshold``.
    """

    def __init__(self, encoder, decoder, recon_threshold=0.05):
        self.encoder = encoder
        self.decoder = decoder
        self.recon_threshold = float(recon_threshold)
        self.recon_loss = None

    def params(self):
        return self.encoder.params() + self.decoder.params()

    def named_params(self):
        enc = [("encoder." + n, p) for n, p in self.encoder.named_params()]
        dec = [("decoder." + n, p) for n, p in self.decoder.named_params()]
        return enc + dec

    def encode(self, x):
        return self.encoder(x)

    def reconstruct(self, x, mask=None):
        """Encode then decode through the strongest (or given) capsule."""
        v = self.encoder(x)
        if mask is None:
            scores = capsule_scores(v).data
            mask = int(np.argmax(scores.mean(axis=0)))
        return self.decoder.decode(v, mask)


def generate_images(model, seed_images, count, scale=0.1, seed=0):
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
