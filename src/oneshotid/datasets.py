"""Dataset loading and generation.

Covers the stereo-image binary matrix container, binary PGM (P5) face
trees laid out as ``s<class>/<index>.pgm``, a procedural synthetic-anode
generator standing in for proprietary industrial data, and stratified
fold splitting.  All loaded pixel values are scaled to [0, 1]; images are
kept channels-last ([H, W] or [H, W, C]) until batches are assembled.
"""

import os

import numpy as np
from scipy.ndimage import gaussian_filter

from .atomic import atomic_open, read_array
from .errors import ConfigError, DataError, FormatError
from .rng import derive_rng


class Dataset:
    """Images plus class ids.

    ``images`` is one array indexed on the first axis, so every image
    shares a shape by construction.  ``class_ids`` are the identity labels
    pairing operates on; any extra per-example columns (e.g. category vs
    instance) live in ``metadata``.
    """

    def __init__(self, images, class_ids, source, metadata=None):
        self.images = images
        self.class_ids = np.asarray(class_ids)
        if len(self.images) != len(self.class_ids):
            raise DataError(
                f"{len(self.images)} images but {len(self.class_ids)} class ids"
            )
        self.source = source
        self.metadata = dict(metadata) if metadata else {}

    def __len__(self):
        return len(self.images)

    @property
    def image_shape(self):
        return tuple(self.images.shape[1:])

    @property
    def classes(self):
        return np.unique(self.class_ids)

    def subset(self, indices):
        indices = np.asarray(indices)
        meta = dict(self.metadata)
        for key in ("categories", "instances"):
            if key in meta:
                meta[key] = np.asarray(meta[key])[indices]
        return Dataset(
            self.images[indices],
            self.class_ids[indices],
            source=self.source,
            metadata=meta,
        )


# ---------------------------------------------------------------------------
# binary matrix container (little-endian, magic-tagged)
# ---------------------------------------------------------------------------

_MATRIX_MAGIC = {
    0x1E3D4C51: np.dtype("<f4"),
    0x1E3D4C53: np.dtype("<f8"),
    0x1E3D4C54: np.dtype("<i4"),
    0x1E3D4C55: np.dtype("u1"),
    0x1E3D4C56: np.dtype("<i2"),
}
_MATRIX_CODE = {v: k for k, v in _MATRIX_MAGIC.items()}


def read_matrix(path):
    """Decode one magic-tagged little-endian matrix file to an ndarray."""
    with open(path, "rb") as f:
        magic, ndim = read_array(f, "<i4", (2,), "header").tolist()
        if magic not in _MATRIX_MAGIC:
            raise FormatError(f"{path}: unknown magic 0x{magic:08X}")
        if not 0 < ndim <= 16:
            raise FormatError(f"{path}: implausible ndim {ndim}")
        extents = tuple(read_array(f, "<i4", (max(3, ndim),), "extent list").tolist())
        shape = extents[:ndim]
        if any(e < 0 for e in extents) or any(e != 1 for e in extents[ndim:]):
            raise FormatError(f"{path}: bad extents {extents}")
        payload = read_array(f, _MATRIX_MAGIC[magic], shape, "payload")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return payload


def write_matrix(path, array):
    """Encode an ndarray into the matrix container; inverse of read_matrix."""
    arr = np.ascontiguousarray(array)
    key = arr.dtype.newbyteorder("<")
    if key not in _MATRIX_CODE:
        raise FormatError(f"dtype {arr.dtype} has no matrix type code")
    arr = arr.astype(key, copy=False)
    extents = list(arr.shape) + [1] * max(0, 3 - arr.ndim)
    with atomic_open(path, "wb") as f:
        f.write(np.array([_MATRIX_CODE[key], arr.ndim, *extents], "<i4"))
        f.write(arr)


def _find_matrix_file(dir_, split, kind):
    hits = sorted(
        name for name in os.listdir(dir_)
        if split in name and f"-{kind}." in name
    )
    if not hits:
        raise DataError(f"{dir_}: no {split} {kind} matrix file found")
    if len(hits) > 1:
        raise DataError(f"{dir_}: ambiguous {split} {kind} files: {hits}")
    return os.path.join(dir_, hits[0])


def load_smallnorb_split(dir_, split, expected_examples):
    """Load one split ("training" or "testing") of the stereo toy dataset.

    Each example is a [96, 96, 2] camera pair in [0, 1] (float32: a full
    split is large).  Class ids label each physical toy (category and
    instance combined).  ``expected_examples`` (24300 for a full split) is
    checked; pass None to accept reduced fixture files.  An image block
    that is not uint8, or a category or info block that is not integer,
    is a DataError naming the split and the dtype.
    """
    dat = read_matrix(_find_matrix_file(dir_, split, "dat"))
    cat = read_matrix(_find_matrix_file(dir_, split, "cat"))
    info = read_matrix(_find_matrix_file(dir_, split, "info"))
    if dat.dtype != np.uint8:
        raise DataError(f"{split}: image block has dtype {dat.dtype}, expected uint8")
    for name, arr in (("category", cat), ("info", info)):
        if arr.dtype.kind not in "iu":
            raise DataError(f"{split}: {name} block has dtype {arr.dtype}, expected integer")
    if dat.ndim != 4 or dat.shape[1] != 2:
        raise DataError(f"{split}: expected [N,2,H,W] image block, got {dat.shape}")
    n = dat.shape[0]
    if cat.shape != (n,):
        raise DataError(f"{split}: {n} images but category shape {cat.shape}")
    if info.ndim != 2 or info.shape[0] != n:
        raise DataError(f"{split}: {n} images but info shape {info.shape}")
    if expected_examples is not None:
        if n != expected_examples:
            raise DataError(f"{split}: {n} examples, expected {expected_examples}")
        cats = np.unique(cat)
        if len(cats) != 5:
            raise DataError(f"{split}: {len(cats)} categories, expected 5")

    # channels-last float32 in [0,1] in one pass: the kept array is the only float32 one
    images = np.divide(dat.transpose(0, 2, 3, 1), np.float32(255), dtype=np.float32,
                       order="C")

    categories = cat.astype(np.int64)
    instances = info[:, 0].astype(np.int64)
    class_ids = categories * (int(instances.max(initial=0)) + 1) + instances
    return Dataset(
        images,
        class_ids,
        source=f"stereo-{split}",
        metadata={"categories": categories, "instances": instances},
    )


def load_smallnorb(dir_, expected_examples=24300):
    """Load the (training, testing) splits; see ``load_smallnorb_split``."""
    return (load_smallnorb_split(dir_, "training", expected_examples),
            load_smallnorb_split(dir_, "testing", expected_examples))


# ---------------------------------------------------------------------------
# binary PGM (P5)
# ---------------------------------------------------------------------------

def _read_pgm_token(f, path):
    # tokens are separated by whitespace; '#' starts a comment to EOL
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            if tok:
                return tok
            raise FormatError(f"{path}: header ended early")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_pgm(path):
    """Read a binary (P5) PGM to a float array in [0, 1]."""
    with open(path, "rb") as f:
        if f.read(2) != b"P5":
            raise FormatError(f"{path}: not a binary PGM (P5)")
        fields = []
        for _ in range(3):
            tok = _read_pgm_token(f, path)
            if not tok.isdigit():
                raise FormatError(f"{path}: non-numeric header token {tok!r}")
            fields.append(int(tok))
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise FormatError(f"{path}: bad dimensions {width}x{height}")
        if not 0 < maxval < 65536:
            raise FormatError(f"{path}: maxval {maxval} out of range")
        # exactly one whitespace byte separates header from raster
        raw = read_array(f, ">u2" if maxval > 255 else "u1", (height, width), "raster")
    if raw.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample value exceeds maxval {maxval}")
    return np.divide(raw, maxval, dtype=np.float64)


def write_pgm(path, image):
    """Write a [0,1] grayscale image as an 8-bit binary PGM; inverse of
    read_pgm up to the 1/255 quantisation."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise FormatError(f"PGM images are 2-D, got shape {img.shape}")
    q = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    with atomic_open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(q)


def load_pgm_faces(dir_):
    """Load a face tree laid out as ``s<class>/<index>.pgm``.

    Returns one Dataset with class ids taken from the directory numbers.
    All images must share dimensions.
    """
    class_dirs = []
    for name in os.listdir(dir_):
        full = os.path.join(dir_, name)
        if os.path.isdir(full) and name.startswith("s") and name[1:].isdigit():
            class_dirs.append((int(name[1:]), full))
    if not class_dirs:
        raise DataError(f"{dir_}: no s<class> directories found")
    class_dirs.sort()

    images, class_ids = [], []
    for cls, full in class_dirs:
        files = [n for n in os.listdir(full) if n.endswith(".pgm")]
        if not files:
            raise DataError(f"{full}: class directory holds no .pgm files")
        files.sort(key=lambda n: (len(n), n))
        for name in files:
            images.append(read_pgm(os.path.join(full, name)))
            class_ids.append(cls)
    shapes = {im.shape for im in images}
    if len(shapes) != 1:
        raise DataError(f"{dir_}: ragged image dimensions {sorted(shapes)}")
    return Dataset(np.stack(images), class_ids, source=dir_)


# ---------------------------------------------------------------------------
# synthetic anodes
# ---------------------------------------------------------------------------

# Every synthetic class draws this many surface stubs, with radii drawn
# from the range; every view scales the image by a gain drawn from the
# brightness range and adds pixel noise of this standard deviation.
_STUB_COUNT = 5
_STUB_RADIUS = (2.0, 5.0)
_TEXTURE = 0.08
_BRIGHTNESS = (0.7, 1.0)


class SyntheticAnodeSpec:
    """Image size (H, W) and seed of procedural anode images.

    Each class gets a fixed random set of surface stubs (its identity);
    each view re-renders the same stubs under a different brightness and
    texture draw, imitating the appearance change of a firing pass.
    """

    def __init__(self, size, seed):
        h, w = (int(v) for v in size)
        if h < 8 or w < 8:
            raise ConfigError(f"image size too small: {size}")
        self.size = (h, w)
        self.seed = int(seed)


def _render_anode(spec, stubs, rng):
    h, w = spec.size
    base = gaussian_filter(rng.normal(size=(h, w)), sigma=3.0)
    span = base.max() - base.min()
    base = (base - base.min()) / (span if span > 0 else 1.0)
    img = 0.35 + 0.3 * base
    yy, xx = np.mgrid[0:h, 0:w]
    for cy, cx, r in stubs:
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[mask] = 0.95
    gain = rng.uniform(*_BRIGHTNESS)
    img = img * gain + rng.normal(scale=_TEXTURE, size=(h, w))
    return np.clip(img, 0.0, 1.0)


def generate_synthetic_anodes(spec, n_classes, views_per_class):
    """Procedural identity dataset: one stub layout per class, re-rendered
    per view with fresh texture and brightness.  Deterministic under the
    spec seed."""
    if n_classes < 1 or views_per_class < 1:
        raise ConfigError("need at least one class and one view per class")
    h, w = spec.size
    lo, hi = _STUB_RADIUS
    images, class_ids = [], []
    for cls in range(n_classes):
        crng = derive_rng(spec.seed, "anode", cls)
        stubs = [
            (crng.uniform(hi, h - hi), crng.uniform(hi, w - hi), crng.uniform(lo, hi))
            for _ in range(_STUB_COUNT)
        ]
        for view in range(views_per_class):
            vrng = derive_rng(spec.seed, "anode", cls, "view", view)
            images.append(_render_anode(spec, stubs, vrng))
            class_ids.append(cls)
    return Dataset(np.stack(images), class_ids, source="synthetic-anodes")


# ---------------------------------------------------------------------------
# splitting and resizing
# ---------------------------------------------------------------------------

def kfold_split(dataset, k, fold_index, seed):
    """Class-stratified k-fold partition, shuffled within each class from
    ``seed``; returns (train, validation).

    Validation folds across fold_index values are disjoint and cover the
    dataset.  Requires every class to hold at least k examples.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if not 0 <= fold_index < k:
        raise ConfigError(f"fold index {fold_index} out of range for k={k}")
    val_idx = []
    for cls in dataset.classes:
        members = np.flatnonzero(dataset.class_ids == cls)
        if len(members) < k:
            raise ConfigError(
                f"class {cls} has {len(members)} examples, fewer than k={k}"
            )
        order = derive_rng(seed, "kfold", int(cls)).permutation(len(members))
        chunks = np.array_split(members[order], k)
        val_idx.append(chunks[fold_index])
    val_idx = np.sort(np.concatenate(val_idx))
    mask = np.ones(len(dataset), dtype=bool)
    mask[val_idx] = False
    return dataset.subset(np.flatnonzero(mask)), dataset.subset(val_idx)


def downscale(images, factor):
    """Block-mean downscale of [N,H,W] or [N,H,W,C] by an integer factor."""
    f = int(factor)
    if f < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if images.ndim not in (3, 4):
        raise ConfigError(f"expected [N,H,W] or [N,H,W,C], got shape {images.shape}")
    n, h, w = images.shape[:3]
    if h % f or w % f:
        raise ConfigError(f"dimensions {h}x{w} not divisible by {f}")
    out = images.reshape(n, h // f, f, w // f, f, *images.shape[3:]).mean(axis=(2, 4))
    return out.astype(images.dtype, copy=False)


def downscale_dataset(dataset, factor):
    out = Dataset(
        downscale(dataset.images, factor),
        dataset.class_ids,
        source=dataset.source,
        metadata=dataset.metadata,
    )
    return out


def export_pgm_tree(dataset, dir_):
    """Write a grayscale dataset as ``s<class>/<index>.pgm`` under dir_."""
    if dataset.images.ndim != 3:
        raise ConfigError(f"PGM export needs grayscale [N,H,W], got {dataset.image_shape}")
    os.makedirs(dir_, exist_ok=True)
    counters = {}
    paths = []
    for img, cls in zip(dataset.images, dataset.class_ids):
        sub = os.path.join(dir_, f"s{int(cls)}")
        os.makedirs(sub, exist_ok=True)
        counters[cls] = counters.get(cls, 0) + 1
        p = os.path.join(sub, f"{counters[cls]}.pgm")
        write_pgm(p, img)
        paths.append(p)
    return paths
