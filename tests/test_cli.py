import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

from oneshotid import cli
from oneshotid import layers as L
from oneshotid.checkpoint import save_model
from oneshotid.datasets import read_pgm, write_pgm
from oneshotid.tensor import Tensor

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


def test_eval_checkpoint_without_metadata_exits_two(tmp_path, capsys):
    images = flat_images(tmp_path)
    ckpt = tmp_path / "bare.ckpt"
    tower = L.LayerStack([L.Flatten(), L.Dense(36, 4)], (1, 6, 6))
    save_model(str(ckpt), tower)
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text(f"{images['a0']}\t{images['a1']}\t1\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt),
                     "--pairs", str(manifest)]) == 2
    assert "metadata" in capsys.readouterr().err


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
