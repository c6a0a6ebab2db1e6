"""Digest every artifact of a fixed end-to-end run of the oneshotid CLI.

Usage: PYTHONPATH=src python tools/artifact_digests.py OUT [float32]

Runs, in this process and inside the new directory OUT:

- ``gen-synthetic`` of 4 classes x 4 views at 24 px;
- ``train`` of each approach on synthetic anodes of the same size, once
  with hold-out and once with 2-fold k-fold;
- ``eval`` of every checkpoint on one pair manifest over the generated
  tree, with and without ``--identify``;
- ``augment`` of the generated tree, two copies per image, and of its
  first class under ``--seed 6``;
- ``train`` of the merged approach with hold-out and an ``[augment]``
  section of the same settings, two augmented copies per training image,
  and again with no ``multiplier`` (one copy per image);
- ``compare-merging`` of the merged approach on synthetic anodes;
- ``train`` of the merged approach with hold-out on a stereo fixture of
  5 categories x 2 instances x 3 views at 96 px, written with
  ``write_matrix`` and read at ``downscale = 4`` (24 px);
- ``crossval --seed 4`` of the merged hold-out recipe (2-fold k-fold);
- ``train`` of the siamese CNN with hold-out on the generated tree read
  as ``att-faces``;
- ``train`` of the merged approach with hold-out for up to 3 epochs,
  with ``patience = 1`` and a ``min_delta`` no epoch beats, so early
  stopping ends it after the second.

With ``float32``, every recipe's ``[train]`` also sets ``precision =
float32``; without it, training runs in the default float64.

Prints each command with its exit code, stdout and stderr, then one
``sha256 path`` line per file under OUT, in sorted order; a
``summary.txt`` is hashed without its ``wall_time`` line.  Paths are
relative to OUT and BLAS runs on one thread, so the outputs for two
source trees (chosen by PYTHONPATH) can be compared with ``diff``:

    PYTHONPATH=src python tools/artifact_digests.py /tmp/new > new.txt
    PYTHONPATH=../old/src python tools/artifact_digests.py /tmp/old > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from oneshotid import cli  # noqa: E402  (after the BLAS thread setting)
from oneshotid.datasets import write_matrix  # noqa: E402
from oneshotid.recipes import APPROACHES, PROTOCOLS  # noqa: E402
from oneshotid.rng import derive_rng  # noqa: E402

CLASSES, VIEWS, SIZE = 4, 4, 24
CATEGORIES, INSTANCES, STEREO_VIEWS, STEREO_SIZE = 5, 2, 3, 96

RECIPE = f"""[experiment]
approach = {{approach}}
dataset = synthetic-anodes
protocol = {{protocol}}
folds = 2
held_out_classes = 2
n_pairs = 8
n_val_pairs = 6
synthetic_classes = {CLASSES}
synthetic_views = {VIEWS}
image_size = {SIZE}
caps_classes = 3
caps_d_out = 4
routing_iters = 2
seed = 3

[train]
batch_size = 8
epochs = 2
"""

AUGMENT = """[augment]
multiplier = 2
rotation = -20 20
brightness = -0.1 0.1
burn_count = 0 2
contour_amplitude = 0.01
"""


def run(*argv):
    """Run one CLI command and print it with its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    print(f"$ oneshotid {' '.join(argv)}\nexit {code}")
    print(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}", end="")


def write_pair_manifest(path):
    """The first view of each class against every other generated image."""
    with open(path, "w", encoding="utf-8") as f:
        for c in range(CLASSES):
            query = f"synth/s{c}/1.pgm"
            for d in range(CLASSES):
                for view in range(1, VIEWS + 1):
                    other = f"synth/s{d}/{view}.pgm"
                    if other != query:
                        f.write(f"{query}\t{other}\t{int(c == d)}\n")


def write_stereo_fixture(dir_):
    """A smallNORB-format training split: uint8 camera pairs, category
    ids and an info matrix whose first column is the instance."""
    os.makedirs(dir_)
    n = CATEGORIES * INSTANCES * STEREO_VIEWS
    dat = derive_rng(0, "stereo").integers(0, 256, size=(n, 2, STEREO_SIZE, STEREO_SIZE))
    write_matrix(f"{dir_}/fixture-training-dat.mat", dat.astype(np.uint8))
    write_matrix(f"{dir_}/fixture-training-cat.mat",
                 np.repeat(np.arange(CATEGORIES), INSTANCES * STEREO_VIEWS).astype(np.int32))
    info = np.zeros((n, 4), dtype=np.int32)
    info[:, 0] = np.arange(n) // STEREO_VIEWS % INSTANCES
    write_matrix(f"{dir_}/fixture-training-info.mat", info)


def digest(path):
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time="))
    return hashlib.sha256(data).hexdigest()


def main(out, precision=None):
    recipe = RECIPE + (f"precision = {precision}\n" if precision else "")
    os.makedirs(out)
    os.chdir(out)
    run("gen-synthetic", "--out", "synth", "--classes", str(CLASSES),
        "--views", str(VIEWS), "--size", str(SIZE))
    write_pair_manifest("pairs.tsv")
    for approach in APPROACHES:
        for protocol in PROTOCOLS:
            name = f"{approach}-{protocol}"
            with open(f"{name}.cfg", "w", encoding="utf-8") as f:
                f.write(recipe.format(approach=approach, protocol=protocol))
            run("train", "--recipe", f"{name}.cfg", "--out", name)
            ckpt = f"{name}/model.ckpt" if protocol == "holdout" else f"{name}/fold-0/model.ckpt"
            run("eval", "--checkpoint", ckpt, "--pairs", "pairs.tsv")
            run("eval", "--checkpoint", ckpt, "--pairs", "pairs.tsv", "--identify")
    with open("augment.cfg", "w", encoding="utf-8") as f:
        f.write(AUGMENT + "seed = 5\n")
    run("augment", "--in", "synth", "--recipe", "augment.cfg", "--out", "augmented")
    run("augment", "--in", "synth/s0", "--recipe", "augment.cfg", "--seed", "6",
        "--out", "augmented-seed6")
    with open("augmented.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="merged", protocol="holdout") + "\n" + AUGMENT)
    run("train", "--recipe", "augmented.cfg", "--out", "augmented-holdout")
    with open("augmented-once.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="merged", protocol="holdout") + "\n"
                + AUGMENT.replace("multiplier = 2\n", ""))
    run("train", "--recipe", "augmented-once.cfg", "--out", "augmented-once-holdout")
    with open("compare.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="merged", protocol="kfold"))
    run("compare-merging", "--recipe", "compare.cfg", "--out", "compare")
    write_stereo_fixture("stereo")
    with open("stereo.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="merged", protocol="holdout")
                .replace("dataset = synthetic-anodes", "dataset = smallnorb\ndownscale = 4"))
    run("train", "--recipe", "stereo.cfg", "--data-dir", "stereo", "--out", "stereo-holdout")
    run("crossval", "--recipe", "merged-holdout.cfg", "--seed", "4", "--out", "crossval")
    with open("faces.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="siamese-cnn", protocol="holdout")
                .replace("dataset = synthetic-anodes", "dataset = att-faces"))
    run("train", "--recipe", "faces.cfg", "--data-dir", "synth", "--out", "faces-holdout")
    with open("early-stop.cfg", "w", encoding="utf-8") as f:
        f.write(recipe.format(approach="merged", protocol="holdout")
                .replace("epochs = 2", "epochs = 3\npatience = 1\nmin_delta = 1000"))
    run("train", "--recipe", "early-stop.cfg", "--out", "early-stop-holdout")
    for root, dirs, files in os.walk("."):
        dirs.sort()
        for name in sorted(files):
            path = os.path.relpath(os.path.join(root, name))
            print(f"{digest(path)}  {path}")


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["float32"]):
        sys.exit(__doc__)
    main(*sys.argv[1:])
