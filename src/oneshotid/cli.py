"""Command-line frontend.

Subcommands: train, crossval, eval, augment, compare-merging,
gen-synthetic.  Exit codes are a stable contract: 0 success, 1 runtime
failure, 2 recipe/dataset/protocol validation failure.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .atomic import write_key_values
from .augment import apply_params, draw_params
from .checkpoint import pair_model_from_checkpoint, read_checkpoint
from .datasets import (SyntheticAnodeSpec, export_pgm_tree,
                       generate_synthetic_anodes, read_pgm, write_pgm)
from .errors import ConfigError, DataError, FormatError
from .pairing import PairSample, read_pair_manifest
from .recipes import (read_augment_config, read_recipe, run_experiment,
                      run_merge_comparison)
from .rng import derive_seed
from .trainer import choose_threshold, score_pairs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oneshotid",
        description="One-shot pairwise identification experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    data_dir = argparse.ArgumentParser(add_help=False)
    data_dir.add_argument("--data-dir", default=os.environ.get("ONESHOT_DATA_DIR"),
                          help="dataset directory (fallback: ONESHOT_DATA_DIR)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the recipe seed")
    recipe_run = argparse.ArgumentParser(add_help=False, parents=[data_dir, seed])
    recipe_run.add_argument("--recipe", required=True)
    recipe_run.add_argument("--out", required=True)

    sp = sub.add_parser("train", parents=[recipe_run], help="run a recipe end to end")
    sp.set_defaults(run=cmd_train)
    sp = sub.add_parser("crossval", parents=[recipe_run],
                        help="run a recipe under k-fold cross-validation")
    sp.set_defaults(run=cmd_train)

    sp = sub.add_parser("eval", parents=[data_dir],
                        help="score a pair manifest with a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--pairs", required=True, help="TSV pair manifest")
    sp.add_argument("--identify", action="store_true",
                    help="rank candidates per query instead of scoring pairs")
    sp.set_defaults(run=cmd_eval)

    sp = sub.add_parser("augment", parents=[seed], help="write augmented copies of a PGM tree")
    sp.add_argument("--in", dest="in_dir", required=True)
    sp.add_argument("--recipe", required=True,
                    help="INI file with an [augment] section")
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=cmd_augment)

    sp = sub.add_parser("compare-merging", parents=[recipe_run],
                        help="train the merged CNN per merge mode and tabulate")
    sp.set_defaults(run=cmd_compare_merging)

    sp = sub.add_parser("gen-synthetic", parents=[seed],
                        help="generate a synthetic anode PGM tree")
    sp.add_argument("--out", required=True)
    sp.add_argument("--classes", type=int, default=12)
    sp.add_argument("--views", type=int, default=6)
    sp.add_argument("--size", type=int, default=64)
    sp.set_defaults(run=cmd_gen_synthetic)

    return parser


def _load_recipe(args):
    recipe = read_recipe(args.recipe)
    if args.seed is not None:
        recipe = recipe.with_seed(args.seed)
    return recipe


def cmd_train(args):
    recipe = _load_recipe(args)
    if args.command == "crossval":
        recipe = dataclasses.replace(recipe, protocol="kfold")
    result = run_experiment(recipe, args.data_dir, args.out, command=args.command)
    summary = result["summary"]
    if recipe.protocol == "kfold":
        print(f"folds={len(result['reports'])} "
              f"mean_accuracy={summary['mean']:.6g} std={summary['std']:.6g}")
    else:
        print(f"test_accuracy={summary['mean']:.6g}")
    print(f"artifacts: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _resolve(path, data_dir):
    if data_dir and not os.path.isabs(path):
        return os.path.join(data_dir, path)
    return path


def _load_manifest_pairs(manifest_path, data_dir):
    """(path a, path b, PairSample) per manifest row.  Each distinct
    resolved path is read once, and every row naming it shares that array."""
    rows = read_pair_manifest(manifest_path)
    if not rows:
        raise DataError(f"pair manifest {manifest_path} is empty")
    images = {}

    def image(path):
        path = _resolve(path, data_dir)
        if path not in images:
            images[path] = read_pgm(path)
        return images[path]

    return [(pa, pb, PairSample(image(pa), image(pb), y)) for pa, pb, y in rows]


def _check_images_fit(model, samples):
    """Raise DataError naming the first image the model cannot take.

    Whether an image fits depends only on its shape, so the first image
    of each shape in manifest order is the one checked.
    """
    first_of_shape = {}
    for pa, pb, s in samples:
        first_of_shape.setdefault(s.a.shape, (pa, s.a))
        first_of_shape.setdefault(s.b.shape, (pb, s.b))
    for path, img in first_of_shape.values():
        got, want = model.input_shapes(img)
        if got != want:
            raise DataError(f"{path}: image of shape {img.shape} gives input {got}; "
                            f"the checkpoint takes {want}")


def _same_probability(margin):
    """Softmax p(same) of two logits, from the margin z_diff - z_same."""
    e = np.exp(-np.abs(margin))
    return np.where(margin <= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def cmd_eval(args):
    model = pair_model_from_checkpoint(*read_checkpoint(args.checkpoint))
    samples = _load_manifest_pairs(args.pairs, args.data_dir)
    _check_images_fit(model, samples)
    _, distances, labels = score_pairs(model, [s for _, _, s in samples])
    # Higher score = more confident the two views show the same object.
    if model.kind == "merged":
        scores = _same_probability(distances)
    else:
        scores = -distances

    if args.identify:
        return _identify(samples, scores)

    if model.threshold is None:
        model.threshold, _ = choose_threshold(distances, labels)
    preds = (distances < model.threshold).astype(int)
    for (pa, pb, _), score, pred, y in zip(samples, scores, preds, labels):
        print(f"{pa}\t{pb}\t{score:.6g}\t{pred}\t{y}")
    acc = float((preds == labels).mean())
    print(f"accuracy={acc:.6g}")
    return 0


def _identify(samples, scores):
    """Rank candidates per query; report the top match per query."""
    groups = {}
    for (pa, pb, s), score in zip(samples, scores):
        groups.setdefault(pa, []).append((pb, float(score), s.y))
    hits = 0
    scored = 0
    for q, cands in groups.items():
        ranked = sorted(cands, key=lambda r: -r[1])
        top_path = ranked[0][0]
        true_rank = next((i + 1 for i, r in enumerate(ranked) if r[2] == 1), None)
        if true_rank is not None:
            scored += 1
            hits += true_rank == 1
        rank_text = "" if true_rank is None else str(true_rank)
        print(f"query={q}\ttop={top_path}\trank_of_true={rank_text}")
    if scored == 0:
        raise DataError("identify mode needs at least one true partner in the manifest")
    print(f"top1={hits / scored:.6g}")
    return 0


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def _pgm_tree(in_dir):
    if not os.path.isdir(in_dir):
        raise OSError(f"input directory {in_dir} is not readable")
    found = []
    for root, dirs, files in os.walk(in_dir):
        dirs.sort()
        for name in sorted(files):
            if name.lower().endswith(".pgm"):
                found.append(os.path.join(root, name))
    return found


def cmd_augment(args):
    config, multiplier = read_augment_config(args.recipe)
    files = _pgm_tree(args.in_dir)
    if not files:
        raise DataError(f"no PGM images under {args.in_dir}")
    seed = args.seed if args.seed is not None else config.seed
    written = 0
    for idx, path in enumerate(files):
        img = read_pgm(path)
        rel = os.path.relpath(path, args.in_dir)
        stem, _ = os.path.splitext(rel)
        for copy in range(multiplier):
            params = draw_params(config, seed=derive_seed(seed, "image", idx, copy))
            out = apply_params(img, params, config)
            out_path = os.path.join(args.out, f"{stem}-aug{copy}.pgm")
            os.makedirs(os.path.dirname(out_path), exist_ok=True)
            write_pgm(out_path, out)
            write_key_values(out_path + ".txt", sorted(params.items()))
            written += 1
    print(f"wrote {written} augmented images ({len(files)} inputs x {multiplier}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# comparison / synthesis
# ---------------------------------------------------------------------------

def cmd_compare_merging(args):
    recipe = _load_recipe(args)
    rows = run_merge_comparison(recipe, args.data_dir, args.out)
    print("mode\taccuracy")
    for mode, acc in rows:
        print(f"{mode}\t{acc:.6g}")
    return 0


def cmd_gen_synthetic(args):
    seed = args.seed if args.seed is not None else 0
    spec = SyntheticAnodeSpec(size=(args.size, args.size),
                              seed=derive_seed(seed, "data"))
    ds = generate_synthetic_anodes(spec, args.classes, args.views)
    paths = export_pgm_tree(ds, args.out)
    print(f"wrote {len(paths)} images to {args.out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", *getattr(exc, "__notes__", ()),
              sep="\n", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DataError, FormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
