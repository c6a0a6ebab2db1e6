"""The three benchmark workloads: set-up, one measured round, and checks.

Every input is derived from the workload seed.  A round always starts from
the parameters the set-up built, so every round of a run does identical
arithmetic; the checks use that to demand bit-identical losses and
outputs across rounds.
"""

import contextlib
import io
import math
import os
import shutil
import time

import numpy as np

from oneshotid import (augment, capsules, checkpoint, cli, datasets, layers,
                       pairing, recipes, trainer)
from oneshotid.rng import derive_rng, derive_seed

_now = time.perf_counter
_cpu = time.process_time

# Full-size parameters; README.md explains each choice.
PARAMS = {
    "merged-anodes": {
        "classes": 40, "views": 4, "size": 32, "held_out": 5,
        "augment_multiplier": 1, "batch": 32, "epochs": 1,
        "n_train": 128, "n_val": 64, "n_eval": 256,
    },
    "capsnet-faces": {
        "classes": 40, "views": 10, "size": [112, 92], "downscale": 2,
        "conv_channels": [64, 64], "kernels": [9, 9], "strides": [1, 2],
        "n_p": 8, "caps": 5, "d_out": 16, "routing_iters": 3, "margin": 1.0,
        "held_out": 5, "batch": 8, "epochs": 1,
        "n_train": 16, "n_val": 16, "n_eval": 16,
    },
    "eval-gallery": {
        "classes": 40, "views": 10, "size": [56, 46], "margin": 1.0,
        "queries": 60, "gallery": 100, "batch": 32, "epochs": 1,
        "n_train": 512, "n_val": 64, "checked_rows": 16,
    },
}

# Smallest shapes that still run every code path: one training step each.
TINY = {
    "merged-anodes": {"classes": 6, "views": 3, "size": 16, "held_out": 2,
                      "batch": 8, "n_train": 8, "n_val": 4, "n_eval": 4},
    "capsnet-faces": {"classes": 6, "views": 3, "size": [28, 24],
                      "conv_channels": [8, 8], "kernels": [3, 3], "held_out": 2,
                      "batch": 4, "n_train": 4, "n_val": 4, "n_eval": 4},
    "eval-gallery": {"classes": 6, "views": 3, "size": [20, 20], "queries": 4,
                     "gallery": 6, "batch": 8, "n_train": 8, "n_val": 4,
                     "checked_rows": 4},
}

# What one per-layer sample is on each workload (see trace.Tracer).
UNIT_KIND = {"merged-anodes": "step", "capsnet-faces": "step", "eval-gallery": "eval"}


def params_for(name, tiny):
    p = dict(PARAMS[name])
    if tiny:
        p.update(TINY[name])
    return p


class Checks:
    """Counts attempted operations and failures; keeps the failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def add_work(self, n):
        self.attempted += int(n)


class GradientGate:
    """Checks every parameter gradient for finiteness before each update.

    Installed on ``trainer.RMSprop.step`` in traced and untraced runs
    alike; each update is one attempted operation.
    """

    def __init__(self, checks):
        self.checks = checks
        self.original = trainer.RMSprop.step

    def install(self):
        original, checks = self.original, self.checks

        def step(opt):
            finite = all(p.grad is None or np.isfinite(p.grad).all() for p in opt.params)
            checks.expect(finite, "non-finite parameter gradient")
            return original(opt)

        trainer.RMSprop.step = step

    def uninstall(self):
        trainer.RMSprop.step = self.original


class Trained:
    """State a training workload's rounds share."""

    def __init__(self, model, loss_kind, config, train_pairs, val_pairs, eval_pairs,
                 threshold_rule):
        self.model = model
        self.loss_kind = loss_kind
        self.config = config
        self.train_pairs = train_pairs
        self.val_pairs = val_pairs
        self.eval_pairs = eval_pairs
        self.threshold_rule = threshold_rule
        self.init = [np.array(p.data, copy=True) for p in model.params()]
        self.first = None

    def restore(self):
        for p, init in zip(self.model.params(), self.init):
            p.data = init.copy()
            p.grad = None


def _holdout(ds, p, seed):
    seen_ids, held_ids = pairing.holdout_split(
        ds, p["held_out"], rng_seed=derive_seed(seed, "holdout"))
    return pairing.class_subset(ds, seen_ids), pairing.class_subset(ds, held_ids)


def _pairs(ds, n, seed, tag):
    return pairing.sample_pairs(ds, n, rng_seed=derive_seed(seed, "pairs", tag))


def setup_merged(p, seed, work, span):
    recipe = recipes.ExperimentRecipe(
        approach="merged", dataset="synthetic-anodes", merge_mode="stacked",
        protocol="holdout", held_out_classes=p["held_out"], n_pairs=p["n_train"],
        n_val_pairs=p["n_val"], seed=seed, synthetic_classes=p["classes"],
        synthetic_views=p["views"], image_size=p["size"],
        train=trainer.TrainConfig(batch_size=p["batch"], epochs=p["epochs"]),
        augment=augment.AugmentConfig(rotation=(-15.0, 15.0), brightness=(-0.05, 0.05)),
        augment_multiplier=p["augment_multiplier"])
    with span("recipes.load_recipe_dataset"):
        ds = recipes.load_recipe_dataset(recipe, None)
    seen, held = _holdout(ds, p, seed)
    with span("recipes.augment_dataset"):
        seen = recipes.augment_dataset(seen, recipe.augment, recipe.augment_multiplier,
                                       derive_seed(seed, "augment"))
    with span("pairing.sample_pairs"):
        train_pairs = _pairs(seen, p["n_train"], seed, "train")
        val_pairs = _pairs(held, p["n_val"], seed, "val")
        eval_pairs = _pairs(held, p["n_eval"], seed, "eval")
    with span("recipes.build_model"):
        model = recipes.build_model(recipe, seen, seed)
    return Trained(model, recipe.loss_kind, recipe.train, train_pairs, val_pairs,
                   eval_pairs, threshold_rule=None)


def setup_capsnet(p, seed, work, span):
    spec = datasets.SyntheticAnodeSpec(size=tuple(p["size"]), seed=derive_seed(seed, "data"))
    with span("datasets.generate"):
        ds = datasets.generate_synthetic_anodes(spec, p["classes"], p["views"])
    with span("datasets.downscale"):
        ds = datasets.downscale_dataset(ds, p["downscale"])
    seen, held = _holdout(ds, p, seed)
    with span("pairing.sample_pairs"):
        train_pairs = _pairs(seen, p["n_train"], seed, "train")
        val_pairs = _pairs(held, p["n_val"], seed, "val")
        eval_pairs = _pairs(held, p["n_eval"], seed, "eval")
    h, w = ds.image_shape
    tower = capsules.build_capsnet(
        (h, w, 1), n_classes=p["caps"], d_out=p["d_out"], routing_iters=p["routing_iters"],
        conv_channels=tuple(p["conv_channels"]), kernels=tuple(p["kernels"]),
        strides=tuple(p["strides"]), n_p=p["n_p"], seed=derive_seed(seed, "init"))
    model = trainer.DistancePairModel(tower, margin=p["margin"])
    config = trainer.TrainConfig(batch_size=p["batch"], epochs=p["epochs"], seed=seed)
    # The threshold comes from the validation pairs.
    return Trained(model, "contrastive", config, train_pairs, val_pairs, eval_pairs,
                   threshold_rule=val_pairs)


def train_round(st, span, checks):
    """Train from the set-up parameters, then score the held-out pairs."""
    st.restore()
    t0, c0 = _now(), _cpu()
    with span("trainer.train"):
        report = trainer.train(st.model, st.train_pairs, st.loss_kind, st.config,
                               val_pairs=st.val_pairs)
    t1, c1 = _now(), _cpu()
    with span("trainer.evaluate_pairs"):
        acc = trainer.evaluate_pairs(st.model, st.eval_pairs, threshold_rule=st.threshold_rule)
    t2, c2 = _now(), _cpu()
    scored = len(st.eval_pairs) + (len(st.val_pairs) if st.threshold_rule is not None else 0)
    checks.add_work(scored)

    outcome = (report.train_loss, report.val_loss, acc)
    losses = report.train_loss + report.val_loss
    checks.expect(all(math.isfinite(v) for v in losses), "non-finite training or validation loss")
    checks.expect(0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]")
    if st.first is None:
        st.first = outcome
    checks.expect(outcome == st.first, "round differs from the first round of the run")
    return {"train_s": t1 - t0, "train_cpu_s": c1 - c0, "train_pairs": _trained(st, report),
            "eval_s": t2 - t1, "eval_cpu_s": c2 - c1, "eval_pairs": scored,
            "loss_end": report.train_loss[-1]}


def _trained(st, report):
    """Pairs trained on; the trainer drops a lone leftover pair per epoch."""
    n, batch = len(st.train_pairs), st.config.batch_size
    return report.epochs_run * (n - int(n > batch and n % batch == 1))


class Gallery:
    """State of the eval-gallery workload: a PGM tree, a manifest, a tower."""

    def __init__(self, p, seed, work, span):
        self.p = p
        spec = datasets.SyntheticAnodeSpec(size=tuple(p["size"]), seed=derive_seed(seed, "data"))
        with span("datasets.generate"):
            ds = datasets.generate_synthetic_anodes(spec, p["classes"], p["views"])
        self.tree = os.path.join(work, "tree")
        shutil.rmtree(self.tree, ignore_errors=True)
        with span("datasets.export_pgm"):
            paths = datasets.export_pgm_tree(ds, self.tree)
        rel = [os.path.relpath(q, self.tree) for q in paths]
        picked = derive_rng(seed, "gallery").permutation(len(rel))
        queries = picked[:p["queries"]]
        gallery = picked[p["queries"]:p["queries"] + p["gallery"]]
        self.rows = [(rel[q], rel[g], int(ds.class_ids[q] == ds.class_ids[g]))
                     for q in queries for g in gallery]
        self.manifest = os.path.join(work, "pairs.tsv")
        with open(self.manifest, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{a}\t{b}\t{y}\n" for a, b, y in self.rows)
        self.ckpt = os.path.join(work, "tower.ckpt")
        with span("pairing.sample_pairs"):
            train_pairs = _pairs(ds, p["n_train"], seed, "train")
            self.val_pairs = _pairs(ds, p["n_val"], seed, "val")
        with span("layers.build_siamese_tower"):
            tower = layers.build_siamese_tower(ds.image_shape + (1,), seed=derive_seed(seed, "init"))
        model = trainer.DistancePairModel(tower, margin=p["margin"])
        config = trainer.TrainConfig(batch_size=p["batch"], epochs=p["epochs"], seed=seed)
        self.st = Trained(model, "contrastive", config, train_pairs, self.val_pairs, None, None)
        self.check_rows = derive_rng(seed, "checked-rows").choice(
            len(self.rows), size=min(p["checked_rows"], len(self.rows)), replace=False)

    def round(self, span, checks, tracer):
        """Train the tower, checkpoint it with its threshold, run ``oneshotid eval``."""
        st = self.st
        st.restore()
        t0, c0 = _now(), _cpu()
        with span("trainer.train"):
            report = trainer.train(st.model, st.train_pairs, "contrastive", st.config,
                                   val_pairs=self.val_pairs)
        t1, c1 = _now(), _cpu()
        _, stats = st.model.batch_stats(self.val_pairs, np.float64)
        tau, _ = trainer.choose_threshold(stats["distances"], stats["labels"])
        checkpoint.save_model(self.ckpt, st.model.tower, extra={
            "approach": "siamese-cnn", "margin": self.p["margin"], "threshold": float(tau)})
        out = io.StringIO()
        unit = tracer.begin_unit("cli.eval") if tracer else None
        t2, c2 = _now(), _cpu()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--checkpoint", self.ckpt, "--pairs", self.manifest,
                             "--data-dir", self.tree])
        t3, c3 = _now(), _cpu()
        if tracer:
            tracer.end_unit(unit)
        checks.add_work(len(self.rows))
        self.check(code, out.getvalue(), report, tau, checks)
        return {"train_s": t1 - t0, "train_cpu_s": c1 - c0, "train_pairs": _trained(st, report),
                "eval_s": t3 - t2, "eval_cpu_s": c3 - c2, "eval_pairs": len(self.rows),
                "loss_end": report.train_loss[-1]}

    def check(self, code, text, report, tau, checks):
        checks.expect(code == 0, f"oneshotid eval exited with {code}")
        checks.expect(all(math.isfinite(v) for v in report.train_loss + report.val_loss),
                      "non-finite training or validation loss")
        lines = text.splitlines()
        if not checks.expect(len(lines) == len(self.rows) + 1 and lines[-1].startswith("accuracy="),
                             "eval printed an unexpected number of lines"):
            return
        parsed = [line.split("\t") for line in lines[:-1]]
        shape_ok = all(len(f) == 5 and (f[0], f[1], int(f[4])) == row
                       for f, row in zip(parsed, self.rows))
        if not checks.expect(shape_ok, "eval rows do not match the manifest"):
            return
        preds = np.array([int(f[3]) for f in parsed])
        labels = np.array([row[2] for row in self.rows])
        acc = float((preds == labels).mean())
        checks.expect(lines[-1] == f"accuracy={acc:.6g}",
                      f"printed {lines[-1]} but predictions give {acc:.6g}")
        if self.st.first is None:
            self.st.first = text
        checks.expect(text == self.st.first, "eval output differs from the first round")
        self._check_scores(parsed, tau, checks)

    def _check_scores(self, parsed, tau, checks):
        """Sampled rows: the printed score is -||embed(a) - embed(b)|| from
        ``DistancePairModel.embed``, and the reloaded checkpoint embeds the
        same to 1e-9 relative."""
        model = self.st.model
        loaded = trainer.DistancePairModel(checkpoint.load_model(self.ckpt), margin=model.margin)
        for i in self.check_rows:
            a, b, _ = self.rows[i]
            x = np.stack([datasets.read_pgm(os.path.join(self.tree, q))[None] for q in (a, b)])
            e = model.embed(x).data
            direct = -float(np.linalg.norm(e[0] - e[1]))
            reloaded = loaded.embed(x).data
            checks.expect(np.allclose(reloaded, e, rtol=1e-9, atol=0.0),
                          f"row {i}: reloaded checkpoint embeds differently")
            printed = float(parsed[i][2])
            # The CLI prints 6 significant digits: allow half a unit in the
            # sixth digit, widened by 1e-9 relative.
            half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(direct))) - 5) if direct else 0.0
            checks.expect(abs(printed - direct) <= half_unit * (1 + 1e-9) + 1e-9 * abs(direct),
                          f"row {i}: printed score {printed} but embed gives {direct}")
            checks.expect(int(parsed[i][3]) == int(-direct < tau),
                          f"row {i}: prediction disagrees with threshold {tau}")


def setup(name, p, seed, work, span):
    if name == "merged-anodes":
        return setup_merged(p, seed, work, span)
    if name == "capsnet-faces":
        return setup_capsnet(p, seed, work, span)
    return Gallery(p, seed, work, span)


def run_round(name, state, span, checks, tracer):
    if name == "eval-gallery":
        return state.round(span, checks, tracer)
    return train_round(state, span, checks)
