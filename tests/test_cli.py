import filecmp
import subprocess
import sys

import numpy as np
import pytest

from oneshotid import cli
from oneshotid import layers as L
from oneshotid.checkpoint import read_checkpoint, save_model, write_checkpoint
from oneshotid.datasets import load_pgm_faces, read_pgm, write_matrix, write_pgm
from oneshotid.errors import DataError
from oneshotid.pairing import PairSample, read_pair_manifest
from oneshotid.recipes import load_recipe_dataset, parse_recipe_text
from oneshotid.tensor import Tensor, sigmoid

RECIPE = """
[experiment]
approach = merged
dataset = synthetic-anodes
protocol = kfold
folds = 2
n_pairs = 8
n_val_pairs = 6
synthetic_classes = 4
synthetic_views = 4
image_size = 24
seed = 3

[train]
batch_size = 8
epochs = 1
lr = 0.001
"""


def write_recipe(tmp_path, text=RECIPE, name="r.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def identity_checkpoint(path, size, threshold):
    tower = L.LayerStack(
        [L.Flatten(), L.Dense(size * size, size * size)], (1, size, size)
    )
    dense = tower.layers[1]
    dense.weights.data = np.eye(size * size)
    dense.bias.data = np.zeros(size * size)
    save_model(str(path), tower,
               extra={"approach": "siamese-cnn", "margin": 1.0,
                      "threshold": threshold})
    return tower


def flat_images(tmp_path, size=6):
    """Two constant-valued classes; identity embeddings separate them."""
    paths = {}
    for name, level in [("a0", 0.2), ("a1", 0.2), ("b0", 0.8), ("b1", 0.8)]:
        p = tmp_path / f"{name}.pgm"
        write_pgm(str(p), np.full((size, size), level))
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# train / crossval
# ---------------------------------------------------------------------------

def test_train_writes_report_and_exits_zero(tmp_path, capsys):
    recipe = write_recipe(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--recipe", recipe, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "folds=2 mean_accuracy=" in printed
    assert f"artifacts: {out}" in printed
    assert (out / "manifest.txt").exists()
    csv = (out / "fold-0" / "epochs.csv").read_text()
    assert csv.splitlines()[0] == "epoch,train_loss,train_acc,val_loss,val_acc"


def test_train_same_recipe_same_seed_is_byte_identical(tmp_path):
    recipe = write_recipe(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--recipe", recipe, "--out", str(a)]) == 0
    assert cli.main(["train", "--recipe", recipe, "--out", str(b)]) == 0
    for rel in ("manifest.txt", "fold-0/epochs.csv", "fold-1/epochs.csv",
                "fold-0/model.ckpt"):
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel


def test_train_seed_flag_overrides_recipe(tmp_path):
    recipe = write_recipe(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--recipe", recipe, "--out", str(a),
                     "--seed", "11"]) == 0
    assert cli.main(["train", "--recipe", recipe, "--out", str(b)]) == 0
    entries = dict(
        line.split("=", 1)
        for line in (a / "manifest.txt").read_text().splitlines())
    assert entries["seed"] == "11"
    assert not filecmp.cmp(a / "fold-0" / "epochs.csv",
                           b / "fold-0" / "epochs.csv", shallow=False)


def test_train_k_larger_than_class_size_exits_two(tmp_path, capsys):
    recipe = write_recipe(tmp_path, RECIPE.replace("folds = 2", "folds = 10"))
    rcode = cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "o")])
    assert rcode == 2
    err = capsys.readouterr().err
    assert "fewer than k=10" in err


def test_crossval_forces_kfold(tmp_path, capsys):
    text = RECIPE.replace("protocol = kfold", "protocol = holdout")
    recipe = write_recipe(tmp_path, text)
    out = tmp_path / "run"
    assert cli.main(["crossval", "--recipe", recipe, "--out", str(out)]) == 0
    assert "folds=2 mean_accuracy=" in capsys.readouterr().out
    assert (out / "fold-1" / "summary.txt").exists()


def test_train_fold_data_error_exits_two_with_fold(tmp_path, capsys, monkeypatch):
    from oneshotid import recipes

    def failing_run(recipe, train_ds, eval_ds, config, out_dir=None, tag=""):
        raise DataError("no usable pairs")

    monkeypatch.setattr(recipes, "_run_single", failing_run)
    recipe = write_recipe(tmp_path)
    assert cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "run")]) == 2
    assert "error: fold 0: no usable pairs" in capsys.readouterr().err


def test_train_fold_error_without_message_names_fold_and_type(tmp_path, capsys,
                                                              monkeypatch):
    from oneshotid import recipes

    run_single = recipes._run_single

    def fail_in_fold_one(*args, **kwargs):
        if kwargs["tag"] == "fold-1":
            raise MemoryError()
        return run_single(*args, **kwargs)

    monkeypatch.setattr(recipes, "_run_single", fail_in_fold_one)
    recipe = write_recipe(tmp_path)
    assert cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "run")]) == 1
    assert "error: MemoryError\nin fold 1\n" in capsys.readouterr().err


HOLDOUT_RECIPE = """
[experiment]
approach = {approach}
dataset = synthetic-anodes
protocol = holdout
held_out_classes = 2
n_pairs = 8
n_val_pairs = 6
synthetic_classes = 4
synthetic_views = 3
image_size = {size}
seed = 3
{extra}
"""

# (approach, image_size, extra [experiment] line, expected text in the error)
UNFIT_RECIPES = {
    "merged-too-small": ("merged", 10, "", "approach merged cannot take input shape (10, 10, 2)"),
    "capsnet-too-small": ("siamese-capsnet", 10, "",
                          "approach siamese-capsnet cannot take input shape (10, 10, 1)"),
    "capsnet-zero-d-out": ("siamese-capsnet", 24, "caps_d_out = 0", "caps_d_out"),
    "capsnet-zero-classes": ("siamese-capsnet", 24, "caps_classes = 0", "caps_classes"),
}


@pytest.mark.parametrize("case", list(UNFIT_RECIPES))
def test_train_recipe_the_architecture_cannot_take_exits_two(tmp_path, capsys, case):
    approach, size, extra, needle = UNFIT_RECIPES[case]
    recipe = write_recipe(tmp_path, HOLDOUT_RECIPE.format(approach=approach, size=size,
                                                          extra=extra))
    assert cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


NORB_HJOIN_RECIPE = """
[experiment]
approach = merged
merge_mode = h-join
dataset = smallnorb
protocol = kfold
folds = 2
n_pairs = 8
n_val_pairs = 6
seed = 3

[train]
batch_size = 8
epochs = 1
"""


def write_norb_fixture(directory, n=40, size=24):
    """A smallNORB-format training split of n random [size, size, 2]
    examples: 5 categories x 2 instances, so 10 toys."""
    directory.mkdir()
    rng = np.random.default_rng(0)
    write_matrix(directory / "fixture-training-dat.mat",
                 rng.integers(0, 256, size=(n, 2, size, size)).astype(np.uint8))
    write_matrix(directory / "fixture-training-cat.mat", (np.arange(n) % 5).astype(np.int32))
    info = np.zeros((n, 4), dtype=np.int32)
    info[:, 0] = np.arange(n) // 5 % 2
    write_matrix(directory / "fixture-training-info.mat", info)
    return directory


@pytest.mark.parametrize("command", ["train", "compare-merging"])
def test_merge_mode_the_images_cannot_take_exits_two_before_training(tmp_path, capsys,
                                                                    command):
    data = write_norb_fixture(tmp_path / "norb")
    recipe = write_recipe(tmp_path, NORB_HJOIN_RECIPE)
    out = tmp_path / "o"
    assert cli.main([command, "--recipe", recipe, "--data-dir", str(data),
                     "--out", str(out)]) == 2
    assert ("approach merged cannot take input shape (24, 24, 2): "
            "h-join needs [H,W] images") in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_train_on_a_float_image_block_exits_two_before_writing(tmp_path, capsys):
    data = write_norb_fixture(tmp_path / "norb")
    write_matrix(data / "fixture-training-dat.mat", np.full((40, 2, 24, 24), 1000.0, np.float32))
    recipe = write_recipe(tmp_path, NORB_HJOIN_RECIPE.replace("h-join", "stacked"))
    out = tmp_path / "o"
    assert cli.main(["train", "--recipe", recipe, "--data-dir", str(data),
                     "--out", str(out)]) == 2
    assert ("training: image block has dtype float32, expected uint8"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_train_non_finite_augment_range_exits_two_before_writing(tmp_path, capsys):
    recipe = write_recipe(tmp_path, RECIPE + "\n[augment]\nmultiplier = 1\nrotation = nan nan\n")
    assert cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "o")]) == 2
    assert "[augment] rotation = 'nan nan': not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_recipe_with_default_folds_exits_zero(tmp_path, capsys):
    # protocol and folds at their defaults, on synthetic-anodes' default
    # 6 views per class
    recipe = write_recipe(tmp_path, "[experiment]\napproach = merged\n"
                          "dataset = synthetic-anodes\nn_pairs = 8\nn_val_pairs = 6\n"
                          "[train]\nbatch_size = 8\nepochs = 1\n")
    assert cli.main(["train", "--recipe", recipe, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.startswith("folds=3 mean_accuracy=")


def test_train_missing_recipe_exits_two(tmp_path, capsys):
    rcode = cli.main(["train", "--recipe", str(tmp_path / "absent.cfg"),
                      "--out", str(tmp_path / "o")])
    assert rcode == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def oracle_setup(tmp_path, threshold=1.8):
    images = flat_images(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    identity_checkpoint(ckpt, size=6, threshold=threshold)
    return images, str(ckpt)


def test_eval_prints_line_per_pair_and_summary(tmp_path, capsys):
    images, ckpt = oracle_setup(tmp_path)
    manifest = tmp_path / "pairs.tsv"
    rows = [(images["a0"], images["a1"], 1), (images["a0"], images["b0"], 0),
            (images["b0"], images["b1"], 1), (images["a1"], images["b1"], 0)]
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))

    assert cli.main(["eval", "--checkpoint", ckpt,
                     "--pairs", str(manifest)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1] == "accuracy=1"
    for line, (a, b, y) in zip(lines, rows):
        fields = line.split("\t")
        assert fields[0] == a and fields[1] == b
        assert fields[3] == str(y)  # oracle predicts every label
        assert fields[4] == str(y)


def test_eval_identify_ranks_true_partner_first(tmp_path, capsys):
    images, ckpt = oracle_setup(tmp_path)
    manifest = tmp_path / "pairs.tsv"
    rows = [
        (images["a0"], images["a1"], 1),
        (images["a0"], images["b0"], 0),
        (images["a0"], images["b1"], 0),
        (images["b0"], images["b1"], 1),
        (images["b0"], images["a1"], 0),
    ]
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))

    assert cli.main(["eval", "--checkpoint", ckpt, "--pairs", str(manifest),
                     "--identify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == (f"query={images['a0']}\ttop={images['a1']}"
                        "\trank_of_true=1")
    assert lines[1] == (f"query={images['b0']}\ttop={images['b1']}"
                        "\trank_of_true=1")
    assert lines[2] == "top1=1"


def test_eval_empty_manifest_exits_two(tmp_path, capsys):
    _, ckpt = oracle_setup(tmp_path)
    manifest = tmp_path / "empty.tsv"
    manifest.write_text("")
    assert cli.main(["eval", "--checkpoint", ckpt,
                     "--pairs", str(manifest)]) == 2
    assert "empty" in capsys.readouterr().err


def test_eval_non_utf8_manifest_exits_two_naming_the_file(tmp_path, capsys):
    images, ckpt = oracle_setup(tmp_path)
    manifest = tmp_path / "bad.tsv"
    manifest.write_bytes(f"{images['a0']}\t{images['a1']}\t1\n".encode() + b"\xff\t\xfe\t0\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--pairs", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "UTF-8" in err


def test_eval_pgm_claiming_more_than_the_file_holds_exits_two(tmp_path, capsys):
    images, ckpt = oracle_setup(tmp_path)
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"P5\n2097152 2097152\n255\n\x00")  # claims 4 TiB
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text(f"{images['a0']}\t{huge}\t1\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--pairs", str(manifest)]) == 2
    assert f"error: {huge}: truncated raster" in capsys.readouterr().err


def test_eval_checkpoint_without_metadata_exits_two(tmp_path, capsys):
    images = flat_images(tmp_path)
    ckpt = tmp_path / "bare.ckpt"
    tower = L.LayerStack([L.Flatten(), L.Dense(36, 4)], (1, 6, 6))
    save_model(str(ckpt), tower, extra={})
    manifest, arrays = read_checkpoint(ckpt)
    del manifest["extra"]
    write_checkpoint(ckpt, manifest, arrays)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{images['a0']}\t{images['a1']}\t1\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt),
                     "--pairs", str(pairs)]) == 2
    assert "metadata" in capsys.readouterr().err


def test_eval_checkpoint_with_bad_layer_spec_exits_two(tmp_path, capsys):
    images = flat_images(tmp_path)
    ckpt = tmp_path / "conv.ckpt"
    tower = L.LayerStack([L.Conv2d(1, 2, kernel=3), L.Flatten(), L.Dense(32, 4)], (1, 6, 6))
    save_model(str(ckpt), tower, extra={"approach": "siamese-cnn", "margin": 1.0})
    manifest, arrays = read_checkpoint(ckpt)
    del manifest["stack"]["layers"][0]["padding"]
    write_checkpoint(ckpt, manifest, arrays)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{images['a0']}\t{images['a1']}\t1\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs)]) == 2
    assert "padding" in capsys.readouterr().err


def _unfit_siamese_smaller(tmp_path, images):
    return [(images["a0"], images["a1"], 1)], images["a0"], "(1, 6, 6)"


def _unfit_merged_h_join(tmp_path, images):
    # a stacked merged model for 3x3 images, saved as if it were h-join
    stack = L.LayerStack([L.Flatten(), L.Dense(18, 2)], (2, 3, 3))
    save_model(str(tmp_path / "model.ckpt"), stack,
               extra={"approach": "merged", "merge_mode": "h-join"})
    return [(images["a0"], images["b0"], 0)], images["a0"], "(2, 3, 3)"


def _unfit_mixed_sizes(tmp_path, images):
    (tmp_path / "six").mkdir()
    fit = flat_images(tmp_path / "six", size=6)
    return ([(fit["a0"], fit["a1"], 1), (fit["b0"], images["b1"], 0)],
            images["b1"], "(1, 6, 6)")


# Each gets 3x3 images and a siamese checkpoint for 6x6 ones (which it may
# overwrite), and returns the manifest rows, the first path that does not
# fit and the checkpoint's input shape.
UNFIT_EVALS = {
    "siamese-smaller-images": _unfit_siamese_smaller,
    "merged-rewritten-to-h-join": _unfit_merged_h_join,
    "mixed-image-sizes": _unfit_mixed_sizes,
}


@pytest.mark.parametrize("case", list(UNFIT_EVALS))
def test_eval_images_the_checkpoint_cannot_take_exit_two(tmp_path, capsys, case):
    images = flat_images(tmp_path, size=3)
    identity_checkpoint(tmp_path / "model.ckpt", size=6, threshold=1.0)
    rows, bad_path, input_shape = UNFIT_EVALS[case](tmp_path, images)
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--pairs", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {bad_path}: image of shape (3, 3)" in captured.err
    assert f"takes {input_shape}" in captured.err


def test_eval_relative_paths_use_data_dir_env(tmp_path, capsys, monkeypatch):
    images, ckpt = oracle_setup(tmp_path)
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("a0.pgm\ta1.pgm\t1\na0.pgm\tb0.pgm\t0\n")
    monkeypatch.setenv("ONESHOT_DATA_DIR", str(tmp_path))
    assert cli.main(["eval", "--checkpoint", ckpt,
                     "--pairs", str(manifest)]) == 0
    assert "accuracy=1" in capsys.readouterr().out


def _eval_rows(capsys):
    lines = capsys.readouterr().out.splitlines()
    return [line.split("\t") for line in lines[:-1]], lines[-1]


def test_eval_merged_checkpoint_prints_softmax_same_probability(tmp_path, capsys):
    rng = np.random.default_rng(21)
    paths = []
    for i in range(4):
        p = tmp_path / f"m{i}.pgm"
        write_pgm(str(p), rng.uniform(0.1, 0.9, size=(6, 6)))
        paths.append(str(p))
    stack = L.LayerStack([L.Flatten(), L.Dense(72, 2, rng=rng)], (2, 6, 6))
    ckpt = tmp_path / "merged.ckpt"
    save_model(str(ckpt), stack, extra={"approach": "merged", "merge_mode": "stacked"})
    rows = [(paths[0], paths[1], 1), (paths[0], paths[2], 0),
            (paths[1], paths[3], 0), (paths[2], paths[3], 1)]
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))

    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest)]) == 0
    fields, summary = _eval_rows(capsys)
    x = np.stack([np.stack([read_pgm(a), read_pgm(b)]) for a, b, _ in rows])
    logits = stack(Tensor(x)).data
    p_same = np.exp(logits[:, 1]) / np.exp(logits).sum(axis=1)
    preds = (p_same > 0.5).astype(int)
    assert len({int(v) for v in preds}) == 2  # both decisions are exercised
    for f, p, pred, (a, b, y) in zip(fields, p_same, preds, rows):
        assert (f[0], f[1], f[4]) == (a, b, str(y))
        assert float(f[2]) == pytest.approx(p, rel=1e-5)
        assert f[3] == str(pred)
    labels = np.array([y for _, _, y in rows])
    assert summary == f"accuracy={float((preds == labels).mean()):.6g}"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_merged_score_is_the_stable_two_branch_softmax(dtype):
    # eval prints a merged pair's p(same) as sigmoid(-margin); bit for bit,
    # that is the softmax of two logits from their margin m = z_diff - z_same
    # in the form that is stable in both tails.
    grid = [0.0, -0.0, 37.0, -37.0, 745.0, -745.0, *np.linspace(-800, 800, 16001)]
    margin = np.array(grid, dtype=dtype)
    e = np.exp(-np.abs(margin))
    reference = np.where(margin <= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    printed = sigmoid(Tensor(-margin)).data
    assert printed.dtype == reference.dtype == dtype
    assert np.array_equal(printed, reference)


def test_eval_identify_ranks_merged_candidates_past_saturation(tmp_path, capsys):
    # p(same) is exactly 1.0 in float64 for every margin <= -37, so ranking
    # by it ties these two candidates and manifest order would pick the
    # wrong one listed first.  The margins are -40 (wrong) and -50 (true).
    size = 6
    paths = {}
    for name, level in [("query", 0.0), ("wrong", 0.4), ("true", 0.5)]:
        paths[name] = str(tmp_path / f"{name}.pgm")
        write_pgm(paths[name], np.full((size, size), level))
    # z_diff = 0 and z_same = 100 * the mean pixel of the pair
    stack = L.LayerStack([L.Flatten(), L.Dense(2 * size * size, 2)], (2, size, size))
    stack.layers[1].weights.data = np.zeros((2 * size * size, 2))
    stack.layers[1].weights.data[:, 1] = 100.0 / (size * size)
    stack.layers[1].bias.data = np.zeros(2)
    ckpt = tmp_path / "merged.ckpt"
    save_model(str(ckpt), stack, extra={"approach": "merged", "merge_mode": "stacked"})
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text(f"{paths['query']}\t{paths['wrong']}\t0\n"
                        f"{paths['query']}\t{paths['true']}\t1\n")

    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest)]) == 0
    fields, _ = _eval_rows(capsys)
    assert [f[2] for f in fields] == ["1", "1"]  # both print a saturated p(same)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest),
                     "--identify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"query={paths['query']}\ttop={paths['true']}\trank_of_true=1", "top1=1"]


def test_eval_siamese_checkpoint_without_threshold_sweeps_manifest(tmp_path, capsys):
    size = 6
    levels = {"a0": 0.2, "a1": 0.3, "b0": 0.5, "b1": 0.9}
    images = {}
    for name, level in levels.items():
        p = tmp_path / f"{name}.pgm"
        write_pgm(str(p), np.full((size, size), level))
        images[name] = str(p)
    tower = L.LayerStack([L.Flatten(), L.Dense(size * size, size * size)], (1, size, size))
    tower.layers[1].weights.data = np.eye(size * size)
    tower.layers[1].bias.data = np.zeros(size * size)
    ckpt = tmp_path / "tower.ckpt"
    save_model(str(ckpt), tower, extra={"approach": "siamese-cnn", "margin": 1.0})
    # b0-b1 is a same pair farther apart than the different pair a1-b0, so
    # no threshold gets every row right and the sweep decides.
    rows = [("a0", "a1", 1), ("a1", "b0", 0), ("b0", "b1", 1),
            ("a0", "b1", 0), ("a0", "b0", 0)]
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(f"{images[a]}\t{images[b]}\t{y}\n" for a, b, y in rows))

    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest)]) == 0
    fields, summary = _eval_rows(capsys)
    d = np.array([np.linalg.norm(read_pgm(images[a]) - read_pgm(images[b]))
                  for a, b, _ in rows])
    labels = np.array([y for _, _, y in rows])
    cand = np.concatenate(([d.min() - 1.0], np.sort(d) + 1e-9))
    accs = [float(((d < t) == (labels == 1)).mean()) for t in cand]
    best = max(accs)
    assert best < 1.0
    tau = cand[accs.index(best)]
    for f, dist, y in zip(fields, d, labels):
        assert float(f[2]) == pytest.approx(-dist, rel=1e-5)
        assert f[3] == str(int(dist < tau))
        assert f[4] == str(y)
    assert summary == f"accuracy={best:.6g}"


def _read_per_row(manifest_path, data_dir):
    """The manifest loader with a fresh read of both images of every row."""
    return [(pa, pb, PairSample(cli.read_pgm(cli._resolve(pa, data_dir)),
                                cli.read_pgm(cli._resolve(pb, data_dir)), y))
            for pa, pb, y in read_pair_manifest(manifest_path)]


@pytest.mark.parametrize("identify", [False, True], ids=["pairs", "identify"])
def test_eval_reads_each_manifest_path_once(tmp_path, capsys, monkeypatch, identify):
    rng = np.random.default_rng(8)
    names = [f"g{i}.pgm" for i in range(5)]
    for name in names:
        write_pgm(str(tmp_path / name), rng.uniform(0.1, 0.9, size=(6, 6)))
    tower = L.LayerStack([L.Flatten(), L.Dense(36, 4, rng=rng)], (1, 6, 6))
    ckpt = tmp_path / "tower.ckpt"
    save_model(str(ckpt), tower, extra={"approach": "siamese-cnn", "margin": 1.0})
    # Two queries against every gallery image, a self pair among them.
    rows = [(q, g, int(q == g)) for q in names[:2] for g in names]
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))
    argv = ["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest),
            "--data-dir", str(tmp_path)] + (["--identify"] if identify else [])

    reads = []
    read = cli.read_pgm

    def spy(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "read_pgm", spy)
    assert cli.main(argv) == 0
    shared = capsys.readouterr().out
    assert sorted(reads) == sorted(str(tmp_path / name) for name in names)

    monkeypatch.setattr(cli, "_load_manifest_pairs", _read_per_row)
    assert cli.main(argv) == 0
    assert len(reads) == len(names) + 2 * len(rows)
    assert capsys.readouterr().out == shared


ROUND_TRIP_RECIPE = """
[experiment]
approach = {approach}
dataset = att-faces
protocol = holdout
held_out_classes = 2
n_pairs = 16
n_val_pairs = 8
caps_classes = 3
caps_d_out = 4
routing_iters = 2
seed = 5

[train]
batch_size = 8
epochs = 2
lr = 0.001
"""


@pytest.mark.parametrize("approach", ["merged", "siamese-cnn", "siamese-capsnet"])
def test_train_then_eval_round_trip(tmp_path, capsys, approach):
    tree = tmp_path / "tree"
    assert cli.main(["gen-synthetic", "--out", str(tree), "--classes", "5",
                     "--views", "3", "--size", "20", "--seed", "2"]) == 0
    recipe = write_recipe(tmp_path, ROUND_TRIP_RECIPE.format(approach=approach))
    run = tmp_path / "run"
    assert cli.main(["train", "--recipe", recipe, "--out", str(run),
                     "--data-dir", str(tree)]) == 0
    images = [f"s{c}/{v}.pgm" for c in range(5) for v in (1, 2)]
    rows = [(a, b, int(a[:2] == b[:2])) for i, a in enumerate(images) for b in images[i + 1:]]
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(f"{a}\t{b}\t{y}\n" for a, b, y in rows))
    ckpt = run / "model.ckpt"
    capsys.readouterr()

    assert cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(manifest),
                     "--data-dir", str(tree)]) == 0
    fields, summary = _eval_rows(capsys)
    assert [(f[0], f[1], int(f[4])) for f in fields] == rows
    preds = np.array([int(f[3]) for f in fields])
    labels = np.array([y for _, _, y in rows])
    assert summary == f"accuracy={float((preds == labels).mean()):.6g}"
    if approach != "merged":
        tau = read_checkpoint(ckpt)[0]["extra"]["threshold"]
        # The score is -distance to 6 significant digits; a row that close
        # to tau cannot be checked from it.
        distances = [-float(f[2]) for f in fields]
        checked = [(p, d) for p, d in zip(preds, distances) if abs(d - tau) > 1e-5 * tau]
        assert len(checked) > len(rows) // 2
        assert all(p == int(d < tau) for p, d in checked)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

IDENTITY_AUG = """
[augment]
multiplier = 1
rotation = 0 0
brightness = 0 0
burn_count = 0 0
contour_amplitude = 0
"""

REAL_AUG = """
[augment]
multiplier = 3
rotation = -20 20
brightness = -0.1 0.1
burn_count = 0 2
contour_amplitude = 0.01
seed = 5
"""


def pgm_tree(tmp_path, n=2):
    in_dir = tmp_path / "faces"
    rng = np.random.default_rng(0)
    for i in range(n):
        sub = in_dir / f"s{i + 1}"
        sub.mkdir(parents=True)
        write_pgm(str(sub / "1.pgm"), rng.uniform(0.1, 0.9, size=(12, 12)))
    return in_dir


def test_augment_writes_copies_and_sidecars(tmp_path, capsys):
    in_dir = pgm_tree(tmp_path, n=2)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text(REAL_AUG)
    out = tmp_path / "aug-out"
    assert cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                     "--out", str(out)]) == 0
    assert "wrote 6 augmented images (2 inputs x 3)" in capsys.readouterr().out
    pgms = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.pgm"))
    assert pgms == ["s1/1-aug0.pgm", "s1/1-aug1.pgm", "s1/1-aug2.pgm",
                    "s2/1-aug0.pgm", "s2/1-aug1.pgm", "s2/1-aug2.pgm"]
    for p in pgms:
        sidecar = out / (p + ".txt")
        assert sidecar.exists()
        text = sidecar.read_text()
        assert "angle=" in text and "brightness=" in text


def test_augment_identity_config_copies_input_bitwise(tmp_path):
    in_dir = pgm_tree(tmp_path, n=1)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text(IDENTITY_AUG)
    out = tmp_path / "aug-out"
    assert cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                     "--out", str(out)]) == 0
    assert filecmp.cmp(in_dir / "s1" / "1.pgm", out / "s1" / "1-aug0.pgm",
                       shallow=False)


def test_augment_fixed_seed_reproduces_tree(tmp_path):
    in_dir = pgm_tree(tmp_path, n=2)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text(REAL_AUG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                         "--out", str(out), "--seed", "7"]) == 0
    for p in sorted(out1.rglob("*")):
        if p.is_file():
            rel = p.relative_to(out1)
            assert filecmp.cmp(p, out2 / rel, shallow=False), rel


def test_augment_seed_changes_output(tmp_path):
    in_dir = pgm_tree(tmp_path, n=1)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text(REAL_AUG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                     "--out", str(out1), "--seed", "7"]) == 0
    assert cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                     "--out", str(out2), "--seed", "8"]) == 0
    assert not filecmp.cmp(out1 / "s1" / "1-aug0.pgm",
                           out2 / "s1" / "1-aug0.pgm", shallow=False)


def test_augment_unreadable_input_exits_one(tmp_path, capsys):
    cfg = tmp_path / "aug.cfg"
    cfg.write_text(IDENTITY_AUG)
    rcode = cli.main(["augment", "--in", str(tmp_path / "nope"),
                      "--recipe", str(cfg), "--out", str(tmp_path / "o")])
    assert rcode == 1
    assert "not readable" in capsys.readouterr().err


def test_augment_bad_config_key_exits_two(tmp_path, capsys):
    in_dir = pgm_tree(tmp_path, n=1)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text("[augment]\nvolume = 11\n")
    rcode = cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                      "--out", str(tmp_path / "o")])
    assert rcode == 2
    assert "volume" in capsys.readouterr().err


def test_augment_unhonourable_config_exits_two_before_writing(tmp_path, capsys):
    in_dir = pgm_tree(tmp_path, n=1)
    cfg = tmp_path / "aug.cfg"
    cfg.write_text("[augment]\nbrightness = -1.2 0.5\n")
    rcode = cli.main(["augment", "--in", str(in_dir), "--recipe", str(cfg),
                      "--out", str(tmp_path / "o")])
    assert rcode == 2
    assert "brightness range must lie within [-1, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


NON_UTF8_CONFIG = b"[augment]\nmultiplier = 1\n# caf\xe9\n"


@pytest.mark.parametrize("command", ["train", "augment"])
@pytest.mark.parametrize("content", [None, NON_UTF8_CONFIG], ids=["missing", "non-utf8"])
def test_unreadable_config_exits_two(tmp_path, capsys, command, content):
    cfg = tmp_path / "bad.cfg"
    if content is not None:
        cfg.write_bytes(content)
    args = [command, "--recipe", str(cfg), "--out", str(tmp_path / "o")]
    if command == "augment":
        args += ["--in", str(pgm_tree(tmp_path, n=1))]
    assert cli.main(args) == 2
    assert "error: cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare-merging / gen-synthetic
# ---------------------------------------------------------------------------

def test_compare_merging_prints_mode_table(tmp_path, capsys):
    recipe = write_recipe(tmp_path)
    out = tmp_path / "cmp"
    assert cli.main(["compare-merging", "--recipe", recipe,
                     "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mode\taccuracy"
    modes = [line.split("\t")[0] for line in lines[1:]]
    assert modes == ["stacked", "h-join"]
    for line in lines[1:]:
        acc = float(line.split("\t")[1])
        assert 0.0 <= acc <= 1.0
    entries = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines())
    assert entries["stacked.seed"] == entries["h-join.seed"]


def test_gen_synthetic_writes_class_tree(tmp_path, capsys):
    out = tmp_path / "synth"
    assert cli.main(["gen-synthetic", "--out", str(out), "--classes", "3",
                     "--views", "2", "--size", "16", "--seed", "1"]) == 0
    assert "wrote 6 images" in capsys.readouterr().out
    pgms = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.pgm"))
    assert pgms == ["s0/1.pgm", "s0/2.pgm", "s1/1.pgm", "s1/2.pgm",
                    "s2/1.pgm", "s2/2.pgm"]
    img = read_pgm(str(out / "s0" / "1.pgm"))
    assert img.shape == (16, 16)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_gen_synthetic_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["gen-synthetic", "--out", str(out), "--classes", "2",
                         "--views", "2", "--size", "16", "--seed", "4"]) == 0
    for p in sorted(a.rglob("*.pgm")):
        assert filecmp.cmp(p, b / p.relative_to(a), shallow=False)


GEN_SYNTHETIC_RECIPE = """
[experiment]
approach = siamese-cnn
dataset = synthetic-anodes
protocol = kfold
n_pairs = 8
synthetic_classes = 3
synthetic_views = 4
image_size = 20
seed = 7
"""


def test_gen_synthetic_tree_holds_the_recipes_synthetic_data(tmp_path):
    # A checkpoint trained on a synthetic-anodes recipe is evaluated on the
    # tree gen-synthetic writes for the same seed and sizes.
    out = tmp_path / "synth"
    assert cli.main(["gen-synthetic", "--seed", "7", "--classes", "3", "--views", "4",
                     "--size", "20", "--out", str(out)]) == 0
    recipe = parse_recipe_text(GEN_SYNTHETIC_RECIPE, "<recipe>")
    expected = load_recipe_dataset(recipe, None)
    tree = load_pgm_faces(str(out))
    assert np.array_equal(tree.images, np.rint(np.clip(expected.images, 0, 1) * 255) / 255)
    assert np.array_equal(tree.class_ids, expected.class_ids)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_console_entry_reports_version():
    proc = subprocess.run([sys.executable, "-m", "oneshotid.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "oneshotid" in proc.stdout


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


UNREAD_FLAGS = {
    "eval-seed": ["eval", "--checkpoint", "m.ckpt", "--pairs", "p.tsv", "--seed", "1"],
    "augment-data-dir": ["augment", "--in", "in", "--recipe", "r.cfg", "--out", "aug",
                         "--data-dir", "d"],
    "gen-synthetic-data-dir": ["gen-synthetic", "--out", "synth", "--classes", "2",
                               "--views", "2", "--size", "16", "--data-dir", "d"],
}


@pytest.mark.parametrize("case", list(UNREAD_FLAGS))
def test_flag_the_subcommand_never_reads_exits_two(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(UNREAD_FLAGS[case])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
