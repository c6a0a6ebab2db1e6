"""Experiment recipes: parse, validate, and run end-to-end experiments.

A recipe is diff-friendly INI text with an [experiment] section plus
optional [train] and [augment] sections.  Every random decision in a run
derives from the single recipe seed, so a recipe file plus a seed is the
whole reproducibility story.
"""

import configparser
import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .augment import AugmentConfig, apply_params, draw_params
from .capsules import build_capsnet
from .datasets import (Dataset, SyntheticAnodeSpec, downscale_dataset,
                       generate_synthetic_anodes, kfold_split, load_pgm_faces,
                       load_smallnorb)
from .errors import ConfigError, DataError
from .layers import build_merged_cnn, build_siamese_tower
from .pairing import class_subset, holdout_split, merge, sample_pairs
from .rng import derive_seed
from .trainer import (DistancePairModel, MergedPairModel, TrainConfig,
                      choose_threshold, crossvalidate, evaluate_pairs, score_pairs,
                      train)

APPROACHES = ("merged", "siamese-cnn", "siamese-capsnet")
DATASETS = ("smallnorb", "att-faces", "synthetic-anodes")
PROTOCOLS = ("kfold", "holdout")
MERGE_MODES = ("stacked", "h-join", "v-join")


@dataclass
class ExperimentRecipe:
    approach: str
    dataset: str
    merge_mode: str = "stacked"
    protocol: str = "kfold"
    folds: int = 10
    held_out_classes: int = 5
    n_pairs: int = 200
    n_val_pairs: int = 50
    balance: float = 0.5
    margin: float = 1.0
    downscale: int = 1
    seed: int = 0
    synthetic_classes: int = 12
    synthetic_views: int = 6
    image_size: int = 32
    caps_classes: int = 5
    caps_d_out: int = 16
    routing_iters: int = 3
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = None
    augment_multiplier: int = 0

    def __post_init__(self):
        if self.approach not in APPROACHES:
            raise ConfigError(f"approach must be one of {APPROACHES}, got {self.approach!r}")
        if self.dataset not in DATASETS:
            raise ConfigError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.merge_mode not in MERGE_MODES:
            raise ConfigError(f"merge_mode must be one of {MERGE_MODES}, got {self.merge_mode!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.held_out_classes < 1:
            raise ConfigError(f"held_out_classes must be >= 1, got {self.held_out_classes}")
        if self.n_pairs < 2 or self.n_val_pairs < 2:
            raise ConfigError("n_pairs and n_val_pairs must be >= 2")
        if not 0.0 < self.balance < 1.0:
            raise ConfigError(f"balance must be in (0, 1), got {self.balance}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.downscale < 1:
            raise ConfigError(f"downscale must be >= 1, got {self.downscale}")
        if self.augment_multiplier < 0:
            raise ConfigError(f"augment multiplier must be >= 0, got {self.augment_multiplier}")
        # one seed to rule the run: the trainer inherits the recipe seed
        self.train = dataclasses.replace(self.train, seed=self.seed)

    @property
    def loss_kind(self):
        return "cross_entropy" if self.approach == "merged" else "contrastive"

    def with_seed(self, seed):
        return dataclasses.replace(self, seed=int(seed))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "approach": str,
    "dataset": str,
    "merge_mode": str,
    "protocol": str,
    "folds": int,
    "held_out_classes": int,
    "n_pairs": int,
    "n_val_pairs": int,
    "balance": float,
    "margin": float,
    "downscale": int,
    "seed": int,
    "synthetic_classes": int,
    "synthetic_views": int,
    "image_size": int,
    "caps_classes": int,
    "caps_d_out": int,
    "routing_iters": int,
}

_TRAIN_KEYS = {
    "batch_size": int,
    "epochs": int,
    "lr": float,
    "rho": float,
    "eps": float,
    "patience": int,
    "min_delta": float,
    "monitor": str,
    "precision": str,
}

_AUGMENT_RANGE_KEYS = ("rotation", "brightness", "burn_count", "burn_radius",
                       "burn_intensity")
_AUGMENT_SCALAR_KEYS = ("blur_sigma", "contour_amplitude", "contour_sigma",
                        "background")


def _parse_section(section, items, key_types):
    out = {}
    for key, raw in items:
        if key not in key_types:
            raise ConfigError(f"[{section}] has no key {key!r}")
        typ = key_types[key]
        try:
            out[key] = typ(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return out


def _parse_range(section, key, raw):
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(f"[{section}] {key} must be two numbers, got {raw!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_recipe_text(text, name="<recipe>"):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    known = {"experiment", "train", "augment"}
    extra = set(parser.sections()) - known
    if extra:
        raise ConfigError(f"{name}: unknown sections {sorted(extra)}")
    if "experiment" not in parser:
        raise ConfigError(f"{name}: missing [experiment] section")

    exp = _parse_section("experiment", parser.items("experiment"), _EXPERIMENT_KEYS)
    if "approach" not in exp or "dataset" not in exp:
        raise ConfigError(f"{name}: [experiment] needs approach and dataset")

    train_kwargs = {}
    if "train" in parser:
        train_kwargs = _parse_section("train", parser.items("train"), _TRAIN_KEYS)
    train_config = TrainConfig(**train_kwargs)

    augment = None
    multiplier = 0
    if "augment" in parser:
        augment, multiplier = _parse_augment_items(parser.items("augment"),
                                                   default_multiplier=0)

    return ExperimentRecipe(train=train_config, augment=augment,
                            augment_multiplier=multiplier, **exp)


def _parse_augment_items(items, default_multiplier):
    aug_kwargs = {}
    multiplier = default_multiplier
    for key, raw in items:
        if key == "multiplier":
            multiplier = int(raw)
        elif key == "seed":
            aug_kwargs[key] = int(raw)
        elif key in _AUGMENT_RANGE_KEYS:
            aug_kwargs[key] = _parse_range("augment", key, raw)
        elif key in _AUGMENT_SCALAR_KEYS:
            aug_kwargs[key] = float(raw)
        else:
            raise ConfigError(f"[augment] has no key {key!r}")
    if multiplier < 0:
        raise ConfigError(f"[augment] multiplier must be >= 0, got {multiplier}")
    return AugmentConfig(**aug_kwargs), multiplier


def read_augment_config(path):
    """Parse a standalone augmentation config: an INI file whose [augment]
    section uses the same keys as a recipe's; multiplier defaults to 1."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if "augment" not in parser:
        raise ConfigError(f"{path}: missing [augment] section")
    return _parse_augment_items(parser.items("augment"), default_multiplier=1)


def read_recipe(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read recipe {path}: {exc}") from exc
    return parse_recipe_text(text, name=str(path))


def recipe_items(recipe):
    """Flatten a recipe to sorted (key, value) pairs for manifests."""
    items = []
    for f in dataclasses.fields(recipe):
        value = getattr(recipe, f.name)
        if f.name == "train":
            items += [(f"train.{k}", v) for k, v in sorted(value.snapshot().items())]
        elif f.name == "augment":
            if value is not None:
                for k in (*_AUGMENT_RANGE_KEYS, *_AUGMENT_SCALAR_KEYS):
                    items.append((f"augment.{k}", getattr(value, k)))
        else:
            items.append((f.name, value))
    return sorted(items)


# ---------------------------------------------------------------------------
# dataset / model assembly
# ---------------------------------------------------------------------------

def load_recipe_dataset(recipe, data_dir):
    if recipe.dataset == "synthetic-anodes":
        spec = SyntheticAnodeSpec(size=(recipe.image_size, recipe.image_size),
                                  seed=derive_seed(recipe.seed, "data"))
        ds = generate_synthetic_anodes(spec, recipe.synthetic_classes,
                                       recipe.synthetic_views)
    elif recipe.dataset == "att-faces":
        if not data_dir:
            raise ConfigError("dataset att-faces needs --data-dir (or ONESHOT_DATA_DIR)")
        ds = load_pgm_faces(data_dir)
    else:
        if not data_dir:
            raise ConfigError("dataset smallnorb needs --data-dir (or ONESHOT_DATA_DIR)")
        # expected_examples=None so reduced fixture files load too; strict
        # full-size checking stays available on the loader itself.
        train_ds, _ = load_smallnorb(data_dir, expected_examples=None)
        ds = train_ds
    if recipe.downscale > 1:
        ds = downscale_dataset(ds, recipe.downscale)
    return ds


def _tower_input_shape(images):
    shape = images.shape[1:]
    return (shape[0], shape[1], 1) if len(shape) == 2 else tuple(shape)


def _merged_input_shape(recipe, dataset):
    a = dataset.images[0]
    m = merge(a, a, recipe.merge_mode).data
    return (m.shape[0], m.shape[1], 1) if m.ndim == 2 else tuple(m.shape)


def build_model(recipe, dataset, seed):
    init = derive_seed(seed, "init")
    if recipe.approach == "merged":
        stack = build_merged_cnn(_merged_input_shape(recipe, dataset), seed=init)
        return MergedPairModel(stack, merge_mode=recipe.merge_mode)
    shape = _tower_input_shape(dataset.images)
    if recipe.approach == "siamese-cnn":
        tower = build_siamese_tower(shape, seed=init)
    else:
        tower = build_capsnet(shape, n_classes=recipe.caps_classes,
                              d_out=recipe.caps_d_out,
                              routing_iters=recipe.routing_iters, seed=init)
    return DistancePairModel(tower, margin=recipe.margin)


def augment_dataset(dataset, config, multiplier, seed):
    """Extend a grayscale dataset with ``multiplier`` augmented copies per
    image, each drawn from a seed derived per (image, copy)."""
    if multiplier < 1:
        return dataset
    if dataset.images.ndim != 3:
        raise ConfigError(
            f"augmentation needs grayscale [N,H,W] images, got {dataset.images.shape}"
        )
    extra_imgs = []
    extra_ids = []
    for idx in range(len(dataset.images)):
        for copy in range(multiplier):
            params = draw_params(config, seed=derive_seed(seed, "image", idx, copy))
            extra_imgs.append(apply_params(dataset.images[idx], params, config))
            extra_ids.append(dataset.class_ids[idx])
    images = np.concatenate([dataset.images, np.stack(extra_imgs)])
    ids = np.concatenate([dataset.class_ids, np.array(extra_ids)])
    return Dataset(images, ids, source=dataset.source, metadata=dataset.metadata)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _run_single(recipe, train_ds, eval_ds, config, out_dir=None, tag=""):
    """Train one model; test accuracy comes from eval_ds pairs with the
    threshold (if any) chosen on training pairs."""
    if recipe.augment is not None and recipe.augment_multiplier >= 1:
        train_ds = augment_dataset(train_ds, recipe.augment,
                                   recipe.augment_multiplier,
                                   derive_seed(config.seed, "augment"))
    train_pairs = sample_pairs(train_ds, recipe.n_pairs, balance=recipe.balance,
                               rng_seed=derive_seed(config.seed, "pairs", "train"))
    val_pairs = sample_pairs(eval_ds, recipe.n_val_pairs, balance=recipe.balance,
                             rng_seed=derive_seed(config.seed, "pairs", "val"))
    model = build_model(recipe, train_ds, config.seed)
    report = train(model, train_pairs, recipe.loss_kind, config, val_pairs=val_pairs)
    tau = model.threshold
    if tau is None:
        _, d, y = score_pairs(model, train_pairs)
        tau, _ = choose_threshold(d, y)
    report.test_accuracy = evaluate_pairs(model, val_pairs, threshold_rule=tau)

    if recipe.approach == "merged":
        extra = {"approach": recipe.approach, "merge_mode": recipe.merge_mode}
        inner = model.stack
    else:
        extra = {"approach": recipe.approach, "margin": recipe.margin, "threshold": tau}
        inner = model.tower
    if out_dir is not None:
        run_dir = os.path.join(out_dir, tag) if tag else out_dir
        os.makedirs(run_dir, exist_ok=True)
        report.write_csv(os.path.join(run_dir, "epochs.csv"))
        report.write_summary(os.path.join(run_dir, "summary.txt"))
        checkpoint.save_model(os.path.join(run_dir, "model.ckpt"), inner, extra=extra)
    return report, model


def make_fold_runner(recipe, out_dir=None):
    def runner(fold, train_ds, val_ds, config):
        report, _ = _run_single(recipe, train_ds, val_ds, config,
                                out_dir=out_dir, tag=f"fold-{fold}")
        return report

    return runner


def dataset_hash(dataset):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.images).tobytes())
    h.update(np.ascontiguousarray(dataset.class_ids).tobytes())
    return h.hexdigest()


def write_manifest(path, entries):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, value in entries:
            f.write(f"{key}={value}\n")


def run_experiment(recipe, data_dir, out_dir, command="train"):
    """Execute a recipe end to end; returns a result dict and writes run
    artifacts (reports, checkpoints, manifest) under out_dir."""
    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    dataset = load_recipe_dataset(recipe, data_dir)
    entries = [("command", command), ("package_version", __version__),
               ("dataset_sha256", dataset_hash(dataset))]
    entries += recipe_items(recipe)

    if recipe.protocol == "kfold":
        reports, summary = crossvalidate(make_fold_runner(recipe, out_dir),
                                         dataset, recipe.folds, recipe.train)
        for fold in range(recipe.folds):
            entries.append((f"fold.{fold}.seed", derive_seed(recipe.seed, "fold", fold)))
            entries.append((f"fold.{fold}.accuracy", summary["per_fold"][fold]))
        entries.append(("summary.mean", summary["mean"]))
        entries.append(("summary.std", summary["std"]))
        result = {"reports": reports, "summary": summary}
    else:
        seen_classes, held_classes = holdout_split(
            dataset, recipe.held_out_classes,
            rng_seed=derive_seed(recipe.seed, "holdout"))
        seen = class_subset(dataset, seen_classes)
        held = class_subset(dataset, held_classes)
        report, _ = _run_single(recipe, seen, held, recipe.train, out_dir=out_dir)
        entries.append(("holdout.seen_classes", ",".join(str(c) for c in seen_classes)))
        entries.append(("holdout.held_classes", ",".join(str(c) for c in held_classes)))
        entries.append(("test_accuracy", report.test_accuracy))
        result = {"reports": [report], "summary": {"mean": report.test_accuracy}}

    write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    return result


def run_merge_comparison(recipe, data_dir, out_dir):
    """Train the merged CNN once per merge mode under identical seeds.

    Returns [(mode, accuracy)] for stacked and h-join, in that order.
    """
    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    dataset = load_recipe_dataset(recipe, data_dir)
    train_ds, val_ds = kfold_split(dataset, recipe.folds, 0, seed=recipe.seed)
    rows = []
    entries = [("command", "compare-merging"), ("package_version", __version__),
               ("dataset_sha256", dataset_hash(dataset))]
    for mode in ("stacked", "h-join"):
        variant = dataclasses.replace(recipe, approach="merged", merge_mode=mode)
        report, _ = _run_single(variant, train_ds, val_ds, variant.train,
                                out_dir=out_dir, tag=mode)
        rows.append((mode, report.test_accuracy))
        entries.append((f"{mode}.seed", variant.seed))
        entries.append((f"{mode}.accuracy", report.test_accuracy))
    write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    return rows
