"""Image-pair construction: grayscale conversion, merging, pair sampling.

Pairs drive both verification models: the merged-image classifier sees a
single merged tensor per pair, while the distance model sees the two
images separately.  Everything here works on plain channels-last arrays;
tensors enter the picture only when batches are built for training.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .rng import derive_rng

_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass
class PairSample:
    """One labeled pair; y is 1 for same class, 0 for different."""

    a: np.ndarray
    b: np.ndarray
    y: int
    index_a: int = -1
    index_b: int = -1


@dataclass
class MergedImage:
    data: np.ndarray
    mode: str


def to_grayscale(img):
    """Collapse an RGB image to luminance; grayscale passes through."""
    img = np.asarray(img)
    if img.ndim == 2:
        return img
    if img.ndim == 3 and img.shape[2] == 1:
        return img[:, :, 0]
    if img.ndim == 3 and img.shape[2] == 3:
        return img @ _LUMA
    raise ShapeError(f"expected [H,W], [H,W,1] or [H,W,3], got {img.shape}")


def merge(a, b, mode):
    """Combine two equal-shape images into one.

    stacked: channels-last stack, a first ([H,W] inputs give [H,W,2];
    [H,W,C] inputs give [H,W,2C]).  h-join: side by side, a on the left
    [H,2W].  v-join: a above b, [2H,W].
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"cannot merge shapes {a.shape} and {b.shape}")
    if mode == "stacked":
        if a.ndim == 2:
            data = np.stack([a, b], axis=-1)
        elif a.ndim == 3:
            data = np.concatenate([a, b], axis=-1)
        else:
            raise ShapeError(f"stacked merge needs [H,W] or [H,W,C] images, got {a.shape}")
    elif mode == "h-join":
        if a.ndim != 2:
            raise ShapeError(f"h-join needs [H,W] images, got {a.shape}")
        data = np.concatenate([a, b], axis=1)
    elif mode == "v-join":
        if a.ndim != 2:
            raise ShapeError(f"v-join needs [H,W] images, got {a.shape}")
        data = np.concatenate([a, b], axis=0)
    else:
        raise ConfigError(f"unknown merge mode {mode!r}")
    return MergedImage(data, mode)


def sample_pairs(dataset, n_pairs, balance=0.5, rng_seed=0):
    """Draw a balanced list of same/different pairs.

    Returns exactly ``n_pairs`` samples, round(balance * n_pairs) of them
    same-class; an image is never paired with itself.  Deterministic under
    ``rng_seed``.
    """
    if not 0.0 <= balance <= 1.0:
        raise ConfigError(f"balance must be in [0,1], got {balance}")
    if n_pairs < 0:
        raise ConfigError(f"n_pairs must be >= 0, got {n_pairs}")
    labels = np.asarray(dataset.class_ids)
    classes = np.unique(labels)
    members = {int(c): np.flatnonzero(labels == c) for c in classes}
    rich = [c for c in classes if len(members[int(c)]) >= 2]

    n_same = int(round(balance * n_pairs))
    n_diff = n_pairs - n_same
    if n_same > 0 and not rich:
        raise DataError("same-pairs need at least one class with 2+ images")
    if n_diff > 0 and len(classes) < 2:
        raise DataError("different-pairs need at least 2 classes")

    rng = derive_rng(rng_seed, "pairs")
    out = []

    def emit(ia, ib, y):
        out.append(PairSample(dataset.images[ia], dataset.images[ib], y, ia, ib))

    for _ in range(n_same):
        cls = int(rng.choice(rich))
        ia, ib = rng.choice(members[cls], size=2, replace=False)
        emit(int(ia), int(ib), 1)
    for _ in range(n_diff):
        ca, cb = rng.choice(classes, size=2, replace=False)
        ia = int(rng.choice(members[int(ca)]))
        ib = int(rng.choice(members[int(cb)]))
        emit(ia, ib, 0)
    return out


def holdout_split(dataset, held_out_classes, rng_seed=0):
    """Partition the class set; pairs for testing come only from the
    held-out classes, so evaluation sees entirely unseen identities."""
    classes = dataset.classes
    if held_out_classes >= len(classes):
        raise ConfigError(
            f"cannot hold out {held_out_classes} of {len(classes)} classes"
        )
    if held_out_classes < 0:
        raise ConfigError(f"held_out_classes must be >= 0, got {held_out_classes}")
    rng = derive_rng(rng_seed, "holdout")
    picked = rng.choice(classes, size=held_out_classes, replace=False)
    test = np.sort(picked)
    train = np.sort(np.setdiff1d(classes, test))
    return train, test


def class_subset(dataset, classes):
    """Rows of the dataset whose class id is in ``classes``."""
    mask = np.isin(dataset.class_ids, np.asarray(classes))
    return dataset.subset(np.flatnonzero(mask))


def write_pair_manifest(path, pairs, dataset):
    """Record sampled pairs as `<path_a>\\t<path_b>\\t<label>` lines."""
    if dataset.paths is None:
        raise DataError("dataset carries no source paths; nothing to reference")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for p in pairs:
            if p.index_a < 0 or p.index_b < 0:
                raise DataError("pair lacks source indices; cannot write manifest")
            f.write(f"{dataset.paths[p.index_a]}\t{dataset.paths[p.index_b]}\t{p.y}\n")


def read_pair_manifest(path):
    """Parse a pair manifest back to (path_a, path_b, label) tuples."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: bad manifest line {line!r}")
            out.append((parts[0], parts[1], int(parts[2])))
    return out
