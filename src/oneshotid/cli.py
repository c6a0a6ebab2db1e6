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
from .augment import apply_params, draw_params, write_sidecar
from .checkpoint import load_model, read_checkpoint
from .datasets import (SyntheticAnodeSpec, export_pgm_tree,
                       generate_synthetic_anodes, read_pgm, write_pgm)
from .errors import ConfigError, DataError, FormatError
from .pairing import PairSample, read_pair_manifest
from .recipes import (read_augment_config, read_recipe, run_experiment,
                      run_merge_comparison)
from .rng import derive_seed
from .trainer import DistancePairModel, MergedPairModel, choose_threshold, score_pairs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oneshotid",
        description="One-shot pairwise identification experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--data-dir", default=os.environ.get("ONESHOT_DATA_DIR"),
                        help="dataset directory (fallback: ONESHOT_DATA_DIR)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the recipe seed")

    sp = sub.add_parser("train", help="run a recipe end to end")
    sp.add_argument("--recipe", required=True)
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser("crossval", help="run a recipe under k-fold cross-validation")
    sp.add_argument("--recipe", required=True)
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser("eval", help="score a pair manifest with a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--pairs", required=True, help="TSV pair manifest")
    sp.add_argument("--identify", action="store_true",
                    help="rank candidates per query instead of scoring pairs")
    common(sp)

    sp = sub.add_parser("augment", help="write augmented copies of a PGM tree")
    sp.add_argument("--in", dest="in_dir", required=True)
    sp.add_argument("--recipe", required=True,
                    help="INI file with an [augment] section")
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser("compare-merging",
                        help="train the merged CNN per merge mode and tabulate")
    sp.add_argument("--recipe", required=True)
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser("gen-synthetic", help="generate a synthetic anode PGM tree")
    sp.add_argument("--out", required=True)
    sp.add_argument("--classes", type=int, default=12)
    sp.add_argument("--views", type=int, default=6)
    sp.add_argument("--size", type=int, default=64)
    common(sp)

    return parser


def _load_recipe(args, force_kfold=False):
    recipe = read_recipe(args.recipe)
    if args.seed is not None:
        recipe = recipe.with_seed(args.seed)
    if force_kfold and recipe.protocol != "kfold":
        recipe = dataclasses.replace(recipe, protocol="kfold")
    return recipe


def cmd_train(args, force_kfold=False):
    recipe = _load_recipe(args, force_kfold=force_kfold)
    command = "crossval" if force_kfold else "train"
    result = run_experiment(recipe, args.data_dir, args.out, command=command)
    summary = result["summary"]
    if "std" in summary:
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
    rows = read_pair_manifest(manifest_path)
    if not rows:
        raise DataError(f"pair manifest {manifest_path} is empty")
    samples = []
    for pa, pb, y in rows:
        a = read_pgm(_resolve(pa, data_dir))
        b = read_pgm(_resolve(pb, data_dir))
        samples.append((pa, pb, PairSample(a, b, y)))
    return samples


def _load_wrapped_model(path):
    manifest, _ = read_checkpoint(path)
    extra = manifest.get("extra", {})
    approach = extra.get("approach")
    if approach is None:
        raise ConfigError(
            f"{path}: checkpoint carries no experiment metadata; "
            "expected one written by the train command"
        )
    inner = load_model(path)
    if approach == "merged":
        return MergedPairModel(inner, merge_mode=extra.get("merge_mode", "stacked")), extra
    return DistancePairModel(inner, margin=extra.get("margin", 1.0)), extra


def _same_probability(margin):
    """Softmax p(same) of two logits, from the margin z_diff - z_same."""
    e = np.exp(-np.abs(margin))
    return np.where(margin <= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def cmd_eval(args):
    model, extra = _load_wrapped_model(args.checkpoint)
    samples = _load_manifest_pairs(args.pairs, args.data_dir)
    _, distances, labels = score_pairs(model, [s for _, _, s in samples])
    # Higher score = more confident the two views show the same object.
    if model.kind == "merged":
        scores = _same_probability(distances)
    else:
        scores = -distances

    if args.identify:
        return _identify(samples, scores)

    tau = model.threshold
    if tau is None:
        tau = extra.get("threshold")
    if tau is None:
        tau, _ = choose_threshold(distances, labels)
    preds = (distances < tau).astype(int)
    for (pa, pb, _), score, pred, y in zip(samples, scores, preds, labels):
        print(f"{pa}\t{pb}\t{score:.6g}\t{pred}\t{y}")
    acc = float((preds == labels).mean())
    print(f"accuracy={acc:.6g}")
    return 0


def _identify(samples, scores):
    """Rank candidates per query; report the top match per query."""
    queries = []
    groups = {}
    for (pa, pb, s), score in zip(samples, scores):
        if pa not in groups:
            groups[pa] = []
            queries.append(pa)
        groups[pa].append((pb, float(score), s.y))
    hits = 0
    scored = 0
    for q in queries:
        ranked = sorted(groups[q], key=lambda r: -r[1])
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
            write_sidecar(out_path + ".txt", params)
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
        if args.command == "train":
            return cmd_train(args)
        if args.command == "crossval":
            return cmd_train(args, force_kfold=True)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "augment":
            return cmd_augment(args)
        if args.command == "compare-merging":
            return cmd_compare_merging(args)
        return cmd_gen_synthetic(args)
    except (ConfigError, DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
