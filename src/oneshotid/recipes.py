"""Experiment recipes: parse, validate, and run end-to-end experiments.

A recipe is diff-friendly INI text with an [experiment] section plus
optional [train] and [augment] sections.  Every random decision in a run
derives from the single recipe seed, so a recipe file plus a seed is the
whole reproducibility story.
"""

import configparser
import dataclasses
import hashlib
import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_key_values
from .augment import AugmentConfig, apply_params, draw_params
from .capsules import build_capsnet
from .checkpoint import APPROACHES, save_pair_model
from .datasets import (Dataset, SyntheticAnodeSpec, downscale_dataset,
                       generate_synthetic_anodes, kfold_split, load_pgm_faces,
                       load_smallnorb_split)
from .errors import ConfigError, ShapeError
from .layers import build_merged_cnn, build_siamese_tower
from .pairing import MERGE_MODES, class_subset, holdout_split, merge, sample_pairs
from .rng import derive_seed
from .trainer import (DistancePairModel, MergedPairModel, TrainConfig,
                      choose_threshold, evaluate_pairs, score_pairs, train)

DATASETS = ("smallnorb", "att-faces", "synthetic-anodes")
PROTOCOLS = ("kfold", "holdout")


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
        for key in ("caps_classes", "caps_d_out", "routing_iters"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
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

def _scalar_keys(cls, exclude):
    """INI keys of a dataclass: its str, int and float fields, minus ``exclude``."""
    return {f.name: f.type for f in dataclasses.fields(cls)
            if f.type in (str, int, float) and f.name not in exclude}


# augment_multiplier is spelled ``multiplier`` in [augment], and the train
# seed is always the recipe seed.
_EXPERIMENT_KEYS = _scalar_keys(ExperimentRecipe, exclude=("augment_multiplier",))
_TRAIN_KEYS = _scalar_keys(TrainConfig, exclude=("seed",))


def _number_pair(raw):
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two numbers")
    return float(parts[0]), float(parts[1])


# [augment] keys: ``multiplier`` and AugmentConfig's parameters, a tuple default
# marking a range of two numbers.  A run derives its augment seed from the
# recipe seed, so a recipe's section takes no seed; a standalone config does.
_AUGMENT_KEYS = {name: _number_pair if isinstance(p.default, tuple) else type(p.default)
                 for name, p in inspect.signature(AugmentConfig).parameters.items()}
_RECIPE_AUGMENT_KEYS = {k: typ for k, typ in _AUGMENT_KEYS.items() if k != "seed"}


def _parse_section(section, items, key_types):
    out = {}
    for key, raw in items:
        if key not in key_types:
            raise ConfigError(f"[{section}] has no key {key!r}")
        typ = key_types[key]
        try:
            value = typ(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        # NaN passes every later range check and none looks for infinity.
        if isinstance(value, (float, tuple)) and not np.isfinite(value).all():
            raise ConfigError(f"[{section}] {key} = {raw!r}: not a finite number")
        out[key] = value
    return out


def _read_ini(text, name, required):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if required not in parser:
        raise ConfigError(f"{name}: missing [{required}] section")
    return parser


def _parse_augment(items, key_types, default_multiplier):
    kwargs = _parse_section("augment", items, {**key_types, "multiplier": int})
    multiplier = kwargs.pop("multiplier", default_multiplier)
    if multiplier < 0:
        raise ConfigError(f"[augment] multiplier must be >= 0, got {multiplier}")
    return AugmentConfig(**kwargs), multiplier


def parse_recipe_text(text, name):
    parser = _read_ini(text, name, "experiment")
    extra = set(parser.sections()) - {"experiment", "train", "augment"}
    if extra:
        raise ConfigError(f"{name}: unknown sections {sorted(extra)}")

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
        augment, multiplier = _parse_augment(parser.items("augment"), _RECIPE_AUGMENT_KEYS,
                                             default_multiplier=0)

    return ExperimentRecipe(train=train_config, augment=augment,
                            augment_multiplier=multiplier, **exp)


def _read_config_text(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_augment_config(path):
    """Parse a standalone augmentation config: an INI file whose [augment]
    section uses a recipe's keys plus ``seed``; multiplier defaults to 1."""
    parser = _read_ini(_read_config_text(path, "augment config"), str(path), "augment")
    return _parse_augment(parser.items("augment"), _AUGMENT_KEYS, default_multiplier=1)


def read_recipe(path):
    return parse_recipe_text(_read_config_text(path, "recipe"), name=str(path))


def recipe_items(recipe):
    """Flatten a recipe to sorted (key, value) pairs for manifests."""
    items = []
    for f in dataclasses.fields(recipe):
        value = getattr(recipe, f.name)
        if f.name == "train":
            items += [(f"train.{k}", v) for k, v in sorted(value.snapshot().items())]
        elif f.name == "augment":
            if value is not None:
                for k in _RECIPE_AUGMENT_KEYS:
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
        ds = load_smallnorb_split(data_dir, "training", expected_examples=None)
    if recipe.downscale > 1:
        ds = downscale_dataset(ds, recipe.downscale)
    return ds


def build_model(recipe, dataset, seed):
    """The recipe's untrained pair model for the dataset's image shape.

    An architecture that cannot take that shape is a ConfigError naming
    the approach and the (H, W, C) input shape.
    """
    init = derive_seed(seed, "init")
    image = dataset.images[0]
    shape = image.shape
    try:
        if recipe.approach == "merged":
            image = merge(image, image, recipe.merge_mode)
        shape = image.shape + (1,) if image.ndim == 2 else image.shape
        if recipe.approach == "merged":
            return MergedPairModel(build_merged_cnn(shape, seed=init),
                                   merge_mode=recipe.merge_mode)
        if recipe.approach == "siamese-cnn":
            tower = build_siamese_tower(shape, seed=init)
        else:
            tower = build_capsnet(shape, n_classes=recipe.caps_classes,
                                  d_out=recipe.caps_d_out,
                                  routing_iters=recipe.routing_iters, seed=init)
    except ShapeError as exc:
        raise ConfigError(f"approach {recipe.approach} cannot take input shape "
                          f"{shape}: {exc}") from exc
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

def _run_single(recipe, train_ds, eval_ds, config, out_dir, tag=""):
    """Train one model, write its artifacts under ``out_dir`` (in ``tag``
    when given) and return its RunReport; test accuracy comes from eval_ds
    pairs, a siamese model's threshold from training pairs."""
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
    if model.threshold is None:
        _, d, y = score_pairs(model, train_pairs)
        model.threshold, _ = choose_threshold(d, y)
    report.test_accuracy = evaluate_pairs(model, val_pairs)
    run_dir = os.path.join(out_dir, tag) if tag else out_dir
    os.makedirs(run_dir, exist_ok=True)
    report.write_csv(os.path.join(run_dir, "epochs.csv"))
    report.write_summary(os.path.join(run_dir, "summary.txt"))
    save_pair_model(os.path.join(run_dir, "model.ckpt"), model, recipe.approach)
    return report


def dataset_hash(dataset):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.images))
    h.update(np.ascontiguousarray(dataset.class_ids))
    return h.hexdigest()


def _start_run(recipe, data_dir, out_dir, command):
    """Make ``out_dir`` and load the recipe's dataset; returns the dataset
    and the manifest entries every run starts with."""
    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    dataset = load_recipe_dataset(recipe, data_dir)
    return dataset, [("command", command), ("package_version", __version__),
                     ("dataset_sha256", dataset_hash(dataset))]


def run_experiment(recipe, data_dir, out_dir, command):
    """Execute a recipe end to end; returns a result dict and writes run
    artifacts (reports, checkpoints, manifest) under out_dir.  ``command``
    is the CLI command recorded in the manifest.

    Under k-fold each fold trains with a seed derived from (recipe seed,
    fold), so a fold's results do not depend on the folds run before it.
    A fold's failure keeps its type: the fold index is prefixed to a
    single-string message, or else added as a note.
    """
    dataset, entries = _start_run(recipe, data_dir, out_dir, command)
    entries += recipe_items(recipe)

    if recipe.protocol == "kfold":
        reports = []
        for fold in range(recipe.folds):
            train_ds, val_ds = kfold_split(dataset, recipe.folds, fold, seed=recipe.seed)
            config = dataclasses.replace(recipe.train,
                                         seed=derive_seed(recipe.seed, "fold", fold))
            try:
                report = _run_single(recipe, train_ds, val_ds, config,
                                     out_dir=out_dir, tag=f"fold-{fold}")
            except Exception as exc:
                if len(exc.args) == 1 and isinstance(exc.args[0], str):
                    exc.args = (f"fold {fold}: {exc.args[0]}",)
                else:
                    exc.add_note(f"in fold {fold}")
                raise
            reports.append(report)
            entries.append((f"fold.{fold}.seed", report.config["seed"]))
            entries.append((f"fold.{fold}.accuracy", report.test_accuracy))
        accs = [report.test_accuracy for report in reports]
        summary = {"mean": float(np.mean(accs)), "std": float(np.std(accs))}
        entries.append(("summary.mean", summary["mean"]))
        entries.append(("summary.std", summary["std"]))
        result = {"reports": reports, "summary": summary}
    else:
        seen_classes, held_classes = holdout_split(
            dataset, recipe.held_out_classes,
            rng_seed=derive_seed(recipe.seed, "holdout"))
        seen = class_subset(dataset, seen_classes)
        held = class_subset(dataset, held_classes)
        report = _run_single(recipe, seen, held, recipe.train, out_dir=out_dir)
        entries.append(("holdout.seen_classes", ",".join(str(c) for c in seen_classes)))
        entries.append(("holdout.held_classes", ",".join(str(c) for c in held_classes)))
        entries.append(("test_accuracy", report.test_accuracy))
        result = {"reports": [report], "summary": {"mean": report.test_accuracy}}

    write_key_values(os.path.join(out_dir, "manifest.txt"), entries)
    return result


def run_merge_comparison(recipe, data_dir, out_dir):
    """Train the merged CNN once per merge mode under identical seeds.

    Returns [(mode, accuracy)] for each of MERGE_MODES, in that order.
    """
    dataset, entries = _start_run(recipe, data_dir, out_dir, "compare-merging")
    train_ds, val_ds = kfold_split(dataset, recipe.folds, 0, seed=recipe.seed)
    variants = [dataclasses.replace(recipe, approach="merged", merge_mode=mode)
                for mode in MERGE_MODES]
    for variant in variants:  # a mode the images cannot take fails before any trains
        build_model(variant, train_ds, variant.seed)
    rows = []
    for mode, variant in zip(MERGE_MODES, variants):
        report = _run_single(variant, train_ds, val_ds, variant.train,
                             out_dir=out_dir, tag=mode)
        rows.append((mode, report.test_accuracy))
        entries.append((f"{mode}.seed", variant.seed))
        entries.append((f"{mode}.accuracy", report.test_accuracy))
    write_key_values(os.path.join(out_dir, "manifest.txt"), entries)
    return rows
