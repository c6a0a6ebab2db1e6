"""Image-pair construction: merging, pair sampling and pair manifests.

Pairs drive both verification models: the merged-image classifier sees a
single merged tensor per pair, while the distance model sees the two
images separately.  Everything here works on plain channels-last arrays;
tensors enter the picture only when batches are built for training.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .rng import derive_rng


@dataclass
class PairSample:
    """One labeled pair; y is 1 for same class, 0 for different."""

    a: np.ndarray
    b: np.ndarray
    y: int


# How ``merge`` combines the two images of a pair.
MERGE_MODES = ("stacked", "h-join")


def merge(a, b, mode):
    """Combine two equal-shape images into one.

    stacked: channels-last stack, a first ([H,W] inputs give [H,W,2];
    [H,W,C] inputs give [H,W,2C]).  h-join: side by side, a on the left
    [H,2W].
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
    else:
        raise ConfigError(f"merge mode must be one of {MERGE_MODES}, got {mode!r}")
    return data


def sample_pairs(dataset, n_pairs, balance=0.5, *, rng_seed):
    """Draw a balanced list of same/different pairs.

    Returns exactly ``n_pairs`` samples, round(balance * n_pairs) of them
    same-class; an image is never paired with itself.  Each side is a view
    of its row of ``dataset.images``, not a copy.  Deterministic under
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
    for _ in range(n_same):
        cls = int(rng.choice(rich))
        ia, ib = rng.choice(members[cls], size=2, replace=False)
        out.append(PairSample(dataset.images[ia], dataset.images[ib], 1))
    for _ in range(n_diff):
        ca, cb = rng.choice(classes, size=2, replace=False)
        ia = rng.choice(members[int(ca)])
        ib = rng.choice(members[int(cb)])
        out.append(PairSample(dataset.images[ia], dataset.images[ib], 0))
    return out


def holdout_split(dataset, held_out_classes, rng_seed):
    """Partition the class set, drawing the held-out classes from
    ``rng_seed``; pairs for testing come only from the held-out classes,
    so evaluation sees entirely unseen identities."""
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


def read_pair_manifest(path):
    """Parse a UTF-8 manifest of `<path_a>\\t<path_b>\\t<label>` lines to
    (path_a, path_b, label) tuples."""
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3 or parts[2] not in ("0", "1"):
                    raise FormatError(f"{path}:{lineno}: bad manifest line {line!r}")
                out.append((parts[0], parts[1], int(parts[2])))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out
