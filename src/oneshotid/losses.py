"""Loss functions: contrastive, center, cross-entropy, reconstruction.

Contrastive and cross-entropy average over the batch; center loss sums
over the batch (both of its terms), matching the additive form it is
usually written in.  All losses are scalar tensors differentiable with
respect to their tensor arguments; labels and centroids are plain arrays
the gradient does not flow into.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError


def _as_label_array(labels, n_classes, batch):
    arr = np.asarray(labels)
    if arr.shape != (batch,):
        raise ShapeError(f"expected {batch} labels, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise IndexError(
            f"label out of range [0, {n_classes}): {arr.min()}..{arr.max()}"
        )
    return arr.astype(np.intp)


def contrastive_loss(e1, e2, y, margin=1.0):
    """Pull same-label embeddings together, push different ones apart.

    For each pair, with D the Euclidean distance between embeddings:
    y * D^2 / 2 + (1 - y) * max(0, margin - D)^2 / 2.  Accepts a single
    pair ([d] with scalar y) or a batch ([B,d] with y of length B) and
    returns the batch mean.
    """
    if margin <= 0:
        raise ConfigError(f"margin must be positive, got {margin}")
    if e1.shape != e2.shape:
        raise ShapeError(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    if e1.ndim not in (1, 2) or e1.shape[-1] == 0:
        raise ShapeError(f"embeddings must be [d] or [B,d] with d > 0, got {e1.shape}")
    batched = e1.ndim == 2
    if not batched:
        e1 = T.reshape(e1, (1,) + tuple(e1.shape))
        e2 = T.reshape(e2, (1,) + tuple(e2.shape))
    yarr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if yarr.shape != (e1.shape[0],):
        raise ShapeError(f"expected {e1.shape[0]} pair labels, got shape {yarr.shape}")
    if not np.isin(yarr, (0.0, 1.0)).all():
        raise DataError("pair labels must be 0 (different) or 1 (same)")

    dist = T.l2norm(T.sub(e1, e2), axis=-1)
    same = T.mul(T.square(dist), 0.5)
    hinge = T.relu(T.sub(margin, dist))
    diff = T.mul(T.square(hinge), 0.5)
    yt = T.Tensor(yarr, dtype=e1.dtype)
    per_pair = T.add(T.mul(yt, same), T.mul(T.sub(1.0, yt), diff))
    return T.tmean(per_pair)


def _per_example_cross_entropy(logits, idx):
    """Per-example softmax cross-entropy [B] of logits [B,K] against the
    class indices ``idx``."""
    b, k = logits.shape
    onehot = np.zeros((b, k), dtype=logits.dtype)
    onehot[np.arange(b), idx] = 1.0
    picked = T.tsum(T.mul(logits, T.Tensor(onehot)), axis=1)
    return T.sub(T.logsumexp(logits, axis=1), picked)


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy; labels are class indices."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [B,K], got {logits.shape}")
    b, k = logits.shape
    return T.tmean(_per_example_cross_entropy(logits, _as_label_array(labels, k, b)))


# Share of the way each centroid moves toward its batch feature mean.
_CENTER_RATE = 0.5


class CenterState:
    """Per-class feature centroids plus the center-loss balance weight
    ``lam``.

    ``centroids`` is the [n_classes, feature_dim] starting array, copied
    as float64.  Centroids are ordinary arrays updated by an exponential
    moving average (rate ``_CENTER_RATE``) after each loss evaluation;
    gradients never flow into them.
    """

    def __init__(self, n_classes, feature_dim, lam, centroids):
        if lam < 0:
            raise ConfigError(f"balance weight must be >= 0, got {lam}")
        self.n_classes = int(n_classes)
        self.feature_dim = int(feature_dim)
        self.lam = float(lam)
        self.centroids = np.asarray(centroids, dtype=np.float64).copy()
        if self.centroids.shape != (n_classes, feature_dim):
            raise ShapeError(
                f"centroids must be [{n_classes},{feature_dim}], "
                f"got {self.centroids.shape}"
            )


def center_loss(features, logits_params, labels, state):
    """Batch-summed softmax cross-entropy plus weighted centroid pull.

    logits z_i = W^T x_i + b are formed from ``features`` [B,d] with
    W: [d,K], b: [K].  The loss is sum_i CE(z_i, y_i) + lam * sum_i
    ||x_i - c_{y_i}||^2, evaluated with the centroids as they were before
    the call; afterwards each class centroid present in the batch moves
    toward its batch feature mean by ``_CENTER_RATE``.
    """
    w, bias = logits_params
    if features.ndim != 2:
        raise ShapeError(f"features must be [B,d], got {features.shape}")
    b, d = features.shape
    if w.shape[0] != d:
        raise ShapeError(f"W must be [{d},K], got {w.shape}")
    k = w.shape[1]
    if state.feature_dim != d:
        raise ShapeError(f"state holds {state.feature_dim}-dim centroids, features are {d}-dim")
    idx = _as_label_array(labels, min(k, state.n_classes), b)

    ce = T.tsum(_per_example_cross_entropy(T.add(T.matmul(features, w), bias), idx))

    pulled = T.Tensor(state.centroids[idx].astype(features.dtype, copy=False))
    dist2 = T.tsum(T.square(T.sub(features, pulled)))
    loss = T.add(ce, T.mul(dist2, state.lam))

    feats = features.data
    for cls in np.unique(idx):
        batch_mean = feats[idx == cls].mean(axis=0)
        state.centroids[cls] += _CENTER_RATE * (batch_mean - state.centroids[cls])
    return loss


def reconstruction_loss(decoded, original, weight=0.0005):
    """Weighted sum of squared pixel differences."""
    if decoded.shape != original.shape:
        raise ShapeError(f"shape mismatch: {decoded.shape} vs {original.shape}")
    return T.mul(T.tsum(T.square(T.sub(decoded, original))), float(weight))
