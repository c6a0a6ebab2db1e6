import dataclasses
import hashlib
import pathlib
import tracemalloc

import numpy as np
import pytest

from oneshotid import recipes as rc
from oneshotid.datasets import Dataset, write_matrix
from oneshotid.errors import ConfigError, DataError
from oneshotid.rng import derive_rng, derive_seed
from oneshotid.trainer import DistancePairModel, MergedPairModel, RunReport

FULL_RECIPE = """
[experiment]
approach = merged
dataset = synthetic-anodes
merge_mode = h-join
protocol = kfold
folds = 4
n_pairs = 20
n_val_pairs = 10
balance = 0.4
seed = 7
synthetic_classes = 5
synthetic_views = 4
image_size = 24

[train]
batch_size = 8
epochs = 3
lr = 0.001
patience = 2

[augment]
multiplier = 2
rotation = -15 15
brightness = -0.05 0.05
burn_count = 0 1
contour_amplitude = 0.01
"""


def small_recipe(**overrides):
    base = dict(approach="merged", dataset="synthetic-anodes", folds=2,
                n_pairs=8, n_val_pairs=6, synthetic_classes=4,
                synthetic_views=4, image_size=24, seed=3)
    base.update(overrides)
    return rc.ExperimentRecipe(**base)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_full_recipe():
    recipe = rc.parse_recipe_text(FULL_RECIPE, name="<recipe>")
    assert recipe.approach == "merged"
    assert recipe.merge_mode == "h-join"
    assert recipe.folds == 4
    assert recipe.balance == 0.4
    assert recipe.train.batch_size == 8
    assert recipe.train.epochs == 3
    assert recipe.train.lr == 0.001
    assert recipe.augment is not None
    assert recipe.augment.rotation == (-15.0, 15.0)
    assert recipe.augment_multiplier == 2


def test_parse_minimal_recipe_uses_defaults():
    recipe = rc.parse_recipe_text(
        "[experiment]\napproach = siamese-cnn\ndataset = att-faces\n", name="<recipe>"
    )
    assert recipe.protocol == "kfold"
    assert recipe.folds == 3
    assert recipe.train.batch_size == 32
    assert recipe.train.epochs == 20
    assert recipe.augment is None


def test_single_seed_flows_into_train_config():
    recipe = rc.parse_recipe_text(FULL_RECIPE, name="<recipe>")
    assert recipe.seed == 7
    assert recipe.train.seed == 7
    reseeded = dataclasses.replace(recipe, seed=21)
    assert reseeded.seed == 21
    assert reseeded.train.seed == 21


@pytest.mark.parametrize("text,needle", [
    ("[experiment]\ndataset = att-faces\n", "approach"),
    ("[experiment]\napproach = merged\n", "dataset"),
    ("[experiment]\napproach = lstm\ndataset = att-faces\n", "approach"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nbogus = 1\n", "bogus"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[extra]\nx = 1\n", "extra"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nprotocol = loocv\n", "protocol"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nmerge_mode = blend\n", "merge_mode"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nfolds = 1\n", "folds"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nbalance = 1.5\n", "balance"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[train]\nseed = 1\n", "seed"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nvolume = 1\n", "volume"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nseed = 4\n", "seed"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nmultiplier = x\n",
     "multiplier"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nburn_count = 0.5 2.9\n",
     "burn count"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nbrightness = -1.2 0.5\n",
     "brightness"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nrotation = nan nan\n",
     r"\[augment\] rotation = 'nan nan': not a finite number"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\n"
     "burn_intensity = nan 0.1\n", r"\[augment\] burn_intensity"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nblur_sigma = nan\n",
     r"\[augment\] blur_sigma"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[train]\nlr = nan\n",
     r"\[train\] lr"),
    ("[experiment]\napproach = merged\ndataset = att-faces\nmargin = inf\n",
     r"\[experiment\] margin = 'inf': not a finite number"),
    ("[experiment]\napproach = merged\ndataset = att-faces\n[augment]\nrotation = -inf 5\n",
     r"\[augment\] rotation"),
    ("[experiment]\napproach = siamese-capsnet\ndataset = att-faces\nrouting_iters = 0\n",
     "routing_iters must be >= 1, got 0"),
], ids=["no-approach", "no-dataset", "bad-approach", "unknown-key",
        "unknown-section", "bad-protocol", "bad-merge", "bad-folds",
        "bad-balance", "train-seed-rejected", "bad-augment-key",
        "augment-seed-rejected", "bad-augment-multiplier",
        "fractional-burn-count", "brightness-beyond-one", "nan-rotation",
        "nan-burn-intensity", "nan-blur-sigma", "nan-lr", "infinite-margin",
        "infinite-rotation", "routing-iters-zero"])
def test_parse_rejects_invalid_recipes(text, needle):
    with pytest.raises(ConfigError, match=needle):
        rc.parse_recipe_text(text, name="<recipe>")


def test_readme_example_recipe_parses():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    text = readme.split("\n## CLI\n", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    recipe = rc.parse_recipe_text(text, name="README.md")
    assert (recipe.approach, recipe.dataset, recipe.folds) == ("merged", "synthetic-anodes", 3)
    assert recipe.train.batch_size == 32
    assert recipe.augment.rotation == (-15.0, 15.0) and recipe.augment_multiplier == 2


def test_read_recipe_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        rc.read_recipe(tmp_path / "absent.cfg")


def test_recipe_items_flatten(tmp_path):
    recipe = rc.parse_recipe_text(FULL_RECIPE, name="<recipe>")
    items = dict(rc.recipe_items(recipe))
    assert items["approach"] == "merged"
    assert items["train.batch_size"] == 8
    assert items["augment.rotation"] == (-15.0, 15.0)


def test_read_augment_config_defaults_multiplier(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("[augment]\nrotation = -5 5\n")
    config, multiplier, seed = rc.read_augment_config(path)
    assert multiplier == 1
    assert seed == 0
    assert config.rotation == (-5.0, 5.0)
    path.write_text("[other]\nx = 1\n")
    with pytest.raises(ConfigError):
        rc.read_augment_config(path)


# ---------------------------------------------------------------------------
# dataset and model assembly
# ---------------------------------------------------------------------------

def test_synthetic_dataset_is_seed_deterministic():
    recipe = small_recipe()
    d1 = rc.load_recipe_dataset(recipe, None)
    d2 = rc.load_recipe_dataset(recipe, None)
    assert np.array_equal(d1.images, d2.images)
    assert len(d1.images) == 16
    d3 = rc.load_recipe_dataset(small_recipe(seed=4), None)
    assert not np.array_equal(d1.images, d3.images)


def test_file_datasets_require_data_dir():
    with pytest.raises(ConfigError, match="data-dir"):
        rc.load_recipe_dataset(small_recipe(dataset="att-faces"), None)
    with pytest.raises(ConfigError, match="data-dir"):
        rc.load_recipe_dataset(small_recipe(dataset="smallnorb"), None)


def test_smallnorb_recipe_loads_only_the_training_split(tmp_path):
    # no testing-split files: the recipe path must not need them
    rng = np.random.default_rng(0)
    write_matrix(tmp_path / "fixture-training-dat.mat",
                 rng.integers(0, 256, size=(6, 2, 8, 8)).astype(np.uint8))
    write_matrix(tmp_path / "fixture-training-cat.mat", np.repeat([0, 1], 3).astype(np.int32))
    info = np.zeros((6, 4), dtype=np.int32)
    info[:, 0] = [0, 1, 2, 0, 1, 2]
    write_matrix(tmp_path / "fixture-training-info.mat", info)
    ds = rc.load_recipe_dataset(small_recipe(dataset="smallnorb"), str(tmp_path))
    assert ds.source == "stereo-training"
    assert ds.image_shape == (8, 8, 2)
    assert len(ds.classes) == 6


def test_dataset_hash_reads_the_arrays_in_place():
    # 20 MB of float32 images: hashing them must not copy them
    images = derive_rng(0, "images").random((1250, 64, 64), dtype=np.float32)
    class_ids = np.arange(1250) % 10
    ds = Dataset(images, class_ids, source="")
    tracemalloc.start()
    try:
        digest = rc.dataset_hash(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert digest == hashlib.sha256(
        f"{images.dtype.str} {images.shape}\n".encode() + images.tobytes()
        + f"{class_ids.dtype.str} {class_ids.shape}\n".encode() + class_ids.tobytes()
    ).hexdigest()


def test_dataset_hash_tells_reshapes_apart():
    images = np.zeros((4, 6, 6))
    digests = {rc.dataset_hash(Dataset(images.reshape(shape), np.arange(4), source=""))
               for shape in ((4, 6, 6), (4, 36), (4, 4, 9))}
    assert len(digests) == 3


def test_downscale_applies():
    recipe = small_recipe(downscale=2)
    ds = rc.load_recipe_dataset(recipe, None)
    assert ds.images.shape[1:] == (12, 12)


def test_build_model_merge_mode_the_images_cannot_take_is_config_error():
    ds = Dataset(np.zeros((4, 24, 24, 2)), np.array([0, 0, 1, 1]), source="")
    with pytest.raises(ConfigError, match=r"approach merged cannot take input shape "
                                          r"\(24, 24, 2\): h-join needs \[H,W\] images"):
        rc.build_model(small_recipe(merge_mode="h-join"), ds, seed=0)


def test_build_model_merged_shapes():
    recipe = small_recipe(merge_mode="h-join")
    ds = rc.load_recipe_dataset(recipe, None)
    model = rc.build_model(recipe, ds, seed=recipe.seed)
    assert isinstance(model, MergedPairModel)
    assert model.merge_mode == "h-join"
    assert model.stack.input_shape == (1, 24, 48)

    stacked = rc.build_model(small_recipe(), ds, seed=3)
    assert stacked.stack.input_shape == (2, 24, 24)


def test_build_model_siamese_variants():
    ds = rc.load_recipe_dataset(small_recipe(), None)
    cnn = rc.build_model(small_recipe(approach="siamese-cnn"), ds, seed=3)
    assert isinstance(cnn, DistancePairModel)
    assert cnn.tower.input_shape == (1, 24, 24)

    caps = rc.build_model(
        small_recipe(approach="siamese-capsnet", caps_classes=3, caps_d_out=4),
        ds, seed=3)
    assert isinstance(caps, DistancePairModel)
    assert caps.tower.layers[-1].n_out == 3
    assert caps.tower.layers[-1].d_out == 4


def test_build_model_init_is_seeded():
    recipe = small_recipe()
    ds = rc.load_recipe_dataset(recipe, None)
    m1 = rc.build_model(recipe, ds, seed=5)
    m2 = rc.build_model(recipe, ds, seed=5)
    m3 = rc.build_model(recipe, ds, seed=6)
    assert np.array_equal(m1.params()[0].data, m2.params()[0].data)
    assert not np.array_equal(m1.params()[0].data, m3.params()[0].data)


# ---------------------------------------------------------------------------
# augmentation of training folds
# ---------------------------------------------------------------------------

def gray_dataset(n_classes=3, per_class=4, size=16):
    rng = derive_rng(1, "gray")
    images = rng.uniform(0.2, 0.8, size=(n_classes * per_class, size, size))
    ids = np.repeat(np.arange(n_classes), per_class)
    return Dataset(images, ids, source="mem")


def test_augment_dataset_multiplies_and_keeps_labels():
    from oneshotid.augment import AugmentConfig

    ds = gray_dataset()
    config = AugmentConfig(rotation=(-10, 10), brightness=(-0.1, 0.1),
                           burn_count=(0, 1), contour_amplitude=0.01)
    out = rc.augment_dataset(ds, config, multiplier=2, seed=9)
    assert len(out.images) == len(ds.images) * 3
    assert np.array_equal(out.class_ids[:len(ds.class_ids)], ds.class_ids)
    counts = {c: int((out.class_ids == c).sum()) for c in range(3)}
    assert counts == {0: 12, 1: 12, 2: 12}

    again = rc.augment_dataset(ds, config, multiplier=2, seed=9)
    assert np.array_equal(out.images, again.images)
    other = rc.augment_dataset(ds, config, multiplier=2, seed=10)
    assert not np.array_equal(out.images, other.images)


def test_augment_dataset_rejects_multichannel():
    from oneshotid.augment import AugmentConfig

    ds = Dataset(np.zeros((4, 8, 8, 2)), np.array([0, 0, 1, 1]), source="mem")
    with pytest.raises(ConfigError):
        rc.augment_dataset(ds, AugmentConfig(), multiplier=1, seed=0)


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def fast_train():
    from oneshotid.trainer import TrainConfig

    return TrainConfig(batch_size=8, epochs=1, lr=1e-3)


def test_run_experiment_kfold_writes_artifacts(tmp_path):
    recipe = small_recipe(train=fast_train())
    result = rc.run_experiment(recipe, None, tmp_path / "run", "train")
    assert len(result["reports"]) == 2
    assert 0.0 <= result["summary"]["mean"] <= 1.0
    for fold in range(2):
        assert (tmp_path / "run" / f"fold-{fold}" / "epochs.csv").exists()
        assert (tmp_path / "run" / f"fold-{fold}" / "summary.txt").exists()
        assert (tmp_path / "run" / f"fold-{fold}" / "model.ckpt").exists()
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    assert entries["command"] == "train"
    assert "dataset_sha256" in entries
    assert "fold.0.seed" in entries
    assert "summary.mean" in entries


def stub_folds(monkeypatch, accs, failures=None):
    """Replace ``_run_single`` with a stub that gives fold i the test
    accuracy ``accs[i]``, or raises ``failures[i]``.  Returns the list of
    (tag, seed, train hash, validation hash) per call."""
    calls = []

    def run(recipe, train_ds, eval_ds, config, out_dir=None, tag=""):
        fold = len(calls)
        calls.append((tag, config.seed, rc.dataset_hash(train_ds), rc.dataset_hash(eval_ds)))
        if failures and fold in failures:
            raise failures[fold]
        report = RunReport(train_loss=[0.1], train_acc=[1.0], val_loss=[0.2],
                           val_acc=[accs[fold]], wall_time=0.0, config=dataclasses.asdict(config))
        report.test_accuracy = accs[fold]
        return report

    monkeypatch.setattr(rc, "_run_single", run)
    return calls


def manifest_entries(run_dir):
    text = (run_dir / "manifest.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines())


def test_run_experiment_kfold_runs_each_fold(tmp_path, monkeypatch):
    accs = [0.5, 0.75, 1.0]
    calls = stub_folds(monkeypatch, accs)
    recipe = small_recipe(folds=3)
    result = rc.run_experiment(recipe, None, tmp_path / "run", "train")
    assert [tag for tag, *_ in calls] == ["fold-0", "fold-1", "fold-2"]
    assert [r.test_accuracy for r in result["reports"]] == accs
    entries = manifest_entries(tmp_path / "run")
    for fold, acc in enumerate(accs):
        assert entries[f"fold.{fold}.seed"] == str(derive_seed(recipe.seed, "fold", fold))
        assert entries[f"fold.{fold}.accuracy"] == str(acc)


def test_run_experiment_kfold_summary_is_mean_and_std(tmp_path, monkeypatch):
    accs = [0.5, 0.75, 1.0]
    stub_folds(monkeypatch, accs)
    summary = rc.run_experiment(small_recipe(folds=3), None, tmp_path / "run",
                                "train")["summary"]
    assert abs(summary["mean"] - np.mean(accs)) <= 1e-12
    assert abs(summary["std"] - np.std(accs)) <= 1e-12
    entries = manifest_entries(tmp_path / "run")
    assert entries["summary.mean"] == str(summary["mean"])
    assert entries["summary.std"] == str(summary["std"])


def test_run_experiment_fold_seeds_are_order_independent(tmp_path, monkeypatch):
    recipe = small_recipe(folds=4, seed=21)
    first = stub_folds(monkeypatch, [0.5] * 4)
    rc.run_experiment(recipe, None, tmp_path / "a", "train")
    again = stub_folds(monkeypatch, [0.5] * 4)
    rc.run_experiment(recipe, None, tmp_path / "b", "train")
    assert again == first
    # a fold's seed and split depend on (recipe seed, fold) alone
    assert [seed for _, seed, _, _ in first] == [derive_seed(21, "fold", f) for f in range(4)]
    assert len({seed for _, seed, _, _ in first}) == 4
    assert len({val for *_, val in first}) == 4


def test_run_experiment_tags_fold_errors_with_fold(tmp_path, monkeypatch):
    stub_folds(monkeypatch, [0.5] * 4, failures={2: DataError("synthetic failure")})
    with pytest.raises(DataError, match=r"^fold 2: synthetic failure$"):
        rc.run_experiment(small_recipe(folds=4), None, tmp_path / "run", "train")


def test_run_experiment_fold_error_keeps_type_and_adds_fold(tmp_path, monkeypatch):
    stub_folds(monkeypatch, [0.5] * 4, failures={1: KeyError("monitor")})
    with pytest.raises(KeyError) as info:
        rc.run_experiment(small_recipe(folds=4), None, tmp_path / "a", "train")
    assert str(info.value) == "'fold 1: monitor'"

    bad_bytes = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    stub_folds(monkeypatch, [0.5] * 4, failures={1: bad_bytes})
    with pytest.raises(UnicodeDecodeError) as info:
        rc.run_experiment(small_recipe(folds=4), None, tmp_path / "b", "train")
    assert info.value.reason == "invalid start byte"
    assert "in fold 1" in info.value.__notes__


def test_run_experiment_holdout(tmp_path):
    recipe = small_recipe(protocol="holdout", held_out_classes=2,
                          train=fast_train())
    result = rc.run_experiment(recipe, None, tmp_path / "run", "train")
    assert len(result["reports"]) == 1
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    seen = set(entries["holdout.seen_classes"].split(","))
    held = set(entries["holdout.held_classes"].split(","))
    assert seen.isdisjoint(held)
    assert len(held) == 2
    assert (tmp_path / "run" / "epochs.csv").exists()
    assert (tmp_path / "run" / "model.ckpt").exists()


def test_recipe_augment_section_without_multiplier_trains_augmented(tmp_path, monkeypatch):
    text = ("[experiment]\napproach = merged\ndataset = synthetic-anodes\n"
            "[augment]\nrotation = -15 15\n")
    recipe = rc.parse_recipe_text(text, name="<recipe>")
    assert recipe.augment_multiplier == 1

    sampled = []
    sample_pairs = rc.sample_pairs

    def recording_sample_pairs(dataset, *args, **kwargs):
        sampled.append(len(dataset))
        return sample_pairs(dataset, *args, **kwargs)

    monkeypatch.setattr(rc, "sample_pairs", recording_sample_pairs)
    recipe = dataclasses.replace(recipe, protocol="holdout", held_out_classes=2, n_pairs=8,
                                 n_val_pairs=6, synthetic_classes=4, synthetic_views=4,
                                 image_size=24, train=fast_train())
    rc.run_experiment(recipe, None, tmp_path / "run", "train")
    # training pairs come from 2 seen classes x 4 views plus one copy of
    # each; validation pairs from 2 held-out classes x 4 views
    assert sampled == [16, 8]


def test_run_experiment_is_deterministic(tmp_path):
    recipe = small_recipe(train=fast_train())
    rc.run_experiment(recipe, None, tmp_path / "a", "train")
    rc.run_experiment(recipe, None, tmp_path / "b", "train")
    a = (tmp_path / "a" / "manifest.txt").read_bytes()
    b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert a == b
    a_csv = (tmp_path / "a" / "fold-0" / "epochs.csv").read_bytes()
    b_csv = (tmp_path / "b" / "fold-0" / "epochs.csv").read_bytes()
    assert a_csv == b_csv


def test_run_experiment_siamese_records_threshold(tmp_path):
    recipe = small_recipe(approach="siamese-cnn", protocol="holdout",
                          held_out_classes=2, train=fast_train())
    rc.run_experiment(recipe, None, tmp_path / "run", "train")
    from oneshotid.checkpoint import read_checkpoint

    manifest, _ = read_checkpoint(tmp_path / "run" / "model.ckpt")
    extra = manifest["extra"]
    assert extra["approach"] == "siamese-cnn"
    assert "threshold" in extra
    assert extra["margin"] == 1.0


def test_run_merge_comparison_rows_and_seeds(tmp_path):
    recipe = small_recipe(train=fast_train())
    rows = rc.run_merge_comparison(recipe, None, tmp_path / "cmp")
    assert [mode for mode, _ in rows] == ["stacked", "h-join"]
    for _, acc in rows:
        assert 0.0 <= acc <= 1.0
    manifest = (tmp_path / "cmp" / "manifest.txt").read_text()
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    assert entries["stacked.seed"] == entries["h-join.seed"]
