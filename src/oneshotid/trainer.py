"""Training loop and evaluation: RMSprop, early stopping, pair accuracy,
and k-fold orchestration.

Two model wrappers adapt the network zoo to a common batch interface:
MergedPairModel feeds merged two-view images to a 2-logit classifier and
trains with cross-entropy; DistancePairModel embeds each view through one
shared tower and trains with the contrastive loss.  ``train`` only needs
``params()``, ``batch_stats()`` and ``threshold`` from either.

Score contract: ``batch_stats(pairs, dtype)`` returns ``(loss, stats)``
with ``stats = {"distances", "labels"}``, and a pair is called "same" iff
its distance is below a threshold tau.  MergedPairModel's distance is the
logit margin z_diff - z_same with the fixed ``threshold = 0.0``, which is
the argmax decision.  DistancePairModel's distance is the euclidean
distance of the two embeddings; its ``threshold`` is None and tau is
chosen by ``choose_threshold``.  ``score_pairs`` is the one batched
scoring pass, used by validation, ``evaluate_pairs``, the recipes and the
``eval`` command alike.
"""

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .datasets import kfold_split
from .errors import ConfigError, DataError, NumericError, ShapeError
from .losses import contrastive_loss, cross_entropy, reconstruction_loss
from .pairing import merge
from .rng import derive_rng, derive_seed
from .tensor import Tape, Tensor, backward

_MONITORS = ("val_loss", "val_acc", "train_loss", "train_acc")

# Pairs per forward pass when scoring without gradients.
SCORE_CHUNK = 256


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 20
    lr: float = 1e-4
    rho: float = 0.9
    eps: float = 1e-8
    patience: int = 5
    min_delta: float = 1e-4
    monitor: str = "val_loss"
    seed: int = 0
    precision: str = "float64"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # lr == 0 is allowed: it freezes the optimizer, which is useful for
        # evaluation-only passes and is pinned by tests.
        if self.lr < 0:
            raise ConfigError(f"lr must be non-negative, got {self.lr}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise ConfigError(f"min_delta must be non-negative, got {self.min_delta}")
        if self.monitor not in _MONITORS:
            raise ConfigError(f"monitor must be one of {_MONITORS}, got {self.monitor!r}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64 or float32, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32

    def snapshot(self):
        return asdict(self)


@dataclass
class RunReport:
    train_loss: list
    train_acc: list
    val_loss: list
    val_acc: list
    wall_time: float
    seed: int
    config: dict
    stopped_early: bool = False
    test_accuracy: float = None

    @property
    def epochs_run(self):
        return len(self.train_loss)

    def csv_text(self):
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        rows = zip(self.train_loss, self.train_acc, self.val_loss, self.val_acc)
        for e, (tl, ta, vl, va) in enumerate(rows, start=1):
            lines.append(f"{e},{tl:.10g},{ta:.10g},{vl:.10g},{va:.10g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.csv_text())

    def summary_text(self):
        items = {
            "seed": self.seed,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
            "wall_time": f"{self.wall_time:.6f}",
            "final_train_loss": f"{self.train_loss[-1]:.10g}",
            "final_train_acc": f"{self.train_acc[-1]:.10g}",
            "final_val_loss": f"{self.val_loss[-1]:.10g}",
            "final_val_acc": f"{self.val_acc[-1]:.10g}",
            "test_accuracy": "" if self.test_accuracy is None else f"{self.test_accuracy:.10g}",
        }
        for key in sorted(self.config):
            items[f"config.{key}"] = self.config[key]
        return "".join(f"{k}={v}\n" for k, v in items.items())

    def write_summary(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.summary_text())


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def rmsprop_step(params, grads, state, lr, rho, eps):
    """One RMSprop update, in place.

    s <- rho*s + (1-rho)*g^2; p <- p - lr*g/(sqrt(s) + eps).  ``state`` is a
    list of accumulator arrays owned by the caller and updated in place.
    """
    if not (len(params) == len(grads) == len(state)):
        raise ShapeError(
            f"params/grads/state lengths differ: {len(params)}/{len(grads)}/{len(state)}"
        )
    for p, g, s in zip(params, grads, state):
        # Upstream mixing can promote gradients to float64; updates keep
        # each parameter's own precision.
        g = np.asarray(g, dtype=p.data.dtype)
        if g.shape != p.data.shape or s.shape != p.data.shape:
            raise ShapeError(
                f"rmsprop_step shape mismatch: param {p.data.shape}, "
                f"grad {g.shape}, state {s.shape}"
            )
        s *= rho
        s += (1.0 - rho) * g * g
        if lr != 0.0:
            p.data = p.data - lr * g / (np.sqrt(s) + eps)


class RMSprop:
    """Holds per-parameter accumulators for the lifetime of one run."""

    def __init__(self, params, lr=1e-4, rho=0.9, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.state = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        rmsprop_step(self.params, grads, self.state, self.lr, self.rho, self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# model wrappers
# ---------------------------------------------------------------------------

def _chw(img):
    a = np.asarray(img)
    if a.ndim == 2:
        return a[None, :, :]
    if a.ndim == 3:
        return np.transpose(a, (2, 0, 1))
    raise ShapeError(f"expected a 2-D or 3-D image, got shape {a.shape}")


class MergedPairModel:
    """A 2-logit classifier over merged pair images (class 1 = same)."""

    kind = "merged"
    loss_kind = "cross_entropy"
    # margin < 0 iff the "same" logit wins the argmax
    threshold = 0.0

    def __init__(self, stack, merge_mode="stacked"):
        self.stack = stack
        self.merge_mode = merge_mode

    def params(self):
        return self.stack.params()

    def batch_stats(self, pairs, dtype):
        imgs = [_chw(merge(p.a, p.b, self.merge_mode).data) for p in pairs]
        x = np.stack(imgs).astype(dtype, copy=False)
        y = np.array([p.y for p in pairs], dtype=np.int64)
        logits = self.stack(Tensor(x, requires_grad=False))
        loss = cross_entropy(logits, y)
        margin = logits.data[:, 0] - logits.data[:, 1]
        return loss, {"distances": margin, "labels": y}


class DistancePairModel:
    """One shared tower embeds both views; contrastive loss over distances.

    A tower that emits capsule vectors ([B, J, d]) is flattened to
    [B, J*d] so the euclidean pair distance is well defined.
    """

    kind = "distance"
    loss_kind = "contrastive"
    threshold = None

    def __init__(self, tower, margin=1.0):
        if margin <= 0:
            raise ConfigError(f"margin must be positive, got {margin}")
        self.tower = tower
        self.margin = float(margin)

    def params(self):
        return self.tower.params()

    def embed(self, images):
        out = self.tower(Tensor(np.asarray(images), requires_grad=False))
        if out.ndim == 3:
            out = T.reshape(out, (out.shape[0], out.shape[1] * out.shape[2]))
        return out

    def batch_stats(self, pairs, dtype):
        xa = np.stack([_chw(p.a) for p in pairs]).astype(dtype, copy=False)
        xb = np.stack([_chw(p.b) for p in pairs]).astype(dtype, copy=False)
        e1 = self.embed(xa)
        e2 = self.embed(xb)
        y = np.array([p.y for p in pairs], dtype=np.int64)
        loss = contrastive_loss(e1, e2, y, margin=self.margin)
        d = np.linalg.norm(e1.data - e2.data, axis=1)
        return loss, {"distances": d, "labels": y}


def _check_loss_kind(model, loss_kind):
    if loss_kind != model.loss_kind:
        raise ConfigError(
            f"loss {loss_kind!r} does not fit a {model.kind!r} model "
            f"(expects {model.loss_kind!r})"
        )


def _cast_params(model, dtype):
    for p in model.params():
        if p.data.dtype != dtype:
            p.data = p.data.astype(dtype)


def _batches(order, batch_size):
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks = chunks[:-1]
    return chunks


# ---------------------------------------------------------------------------
# thresholds and evaluation
# ---------------------------------------------------------------------------

def choose_threshold(distances, labels):
    """Best 'same iff D < tau' split: returns (tau, accuracy).

    Sweeps the midpoints of the sorted distances plus one sentinel on each
    side, and keeps the first tau reaching the best accuracy.  Each
    candidate's correct count comes from cumulative label counts over the
    sorted distances, so memory stays O(n).
    """
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels) == 1
    if d.size == 0:
        raise DataError("cannot choose a threshold from zero distances")
    order = np.argsort(d, kind="stable")
    ds = d[order]
    cand = np.concatenate(([ds[0] - 1.0], (ds[:-1] + ds[1:]) / 2.0, [ds[-1] + 1.0]))
    # Candidate i calls the below[i] smallest distances "same"; a midpoint
    # can round onto either neighbour, so count against the actual value.
    below = np.searchsorted(ds, cand, side="left")
    same_below = np.concatenate(([0], np.cumsum(y[order])))[below]
    correct = 2 * same_below + (d.size - below) - int(np.count_nonzero(y))
    i = int(np.argmax(correct))
    return float(cand[i]), float(correct[i] / d.size)


def _pair_accuracy(distances, labels, tau=None):
    """Share of pairs called right by 'same iff D < tau'; tau None sweeps
    for the best tau with ``choose_threshold``."""
    if tau is None:
        return choose_threshold(distances, labels)[1]
    return float(((distances < tau) == (labels == 1)).mean())


def score_pairs(model, pairs):
    """(mean loss, distances, labels) of ``pairs``, scored in chunks of
    SCORE_CHUNK without a tape in the model's parameter dtype."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("scoring needs at least one pair")
    ps = model.params()
    dtype = ps[0].data.dtype if ps else np.float64
    total, dists, labels = 0.0, [], []
    for i in range(0, len(pairs), SCORE_CHUNK):
        chunk = pairs[i:i + SCORE_CHUNK]
        loss, stats = model.batch_stats(chunk, dtype)
        total += float(loss.data) * len(chunk)
        dists.append(stats["distances"])
        labels.append(stats["labels"])
    return total / len(pairs), np.concatenate(dists), np.concatenate(labels)


def evaluate_pairs(model, pairs, threshold_rule=None):
    """Fraction of pairs classified correctly by 'same iff D < tau'.

    A model with a fixed ``threshold`` (merged) uses it and ignores
    ``threshold_rule``.  Otherwise tau comes from the rule: a number is used
    as-is; a list of PairSamples is swept for the best tau; None sweeps the
    evaluation pairs themselves.
    """
    _, d, y = score_pairs(model, pairs)
    tau = model.threshold
    if tau is None and threshold_rule is not None:
        if isinstance(threshold_rule, (int, float)):
            tau = float(threshold_rule)
        else:
            _, vd, vy = score_pairs(model, threshold_rule)
            tau, _ = choose_threshold(vd, vy)
    return _pair_accuracy(d, y, tau)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _improved(monitor, best, current, min_delta):
    if monitor.endswith("acc"):
        return current - best > min_delta
    return best - current > min_delta


def train(model, pairs, loss_kind, config, val_pairs=None):
    """Optimize ``model`` on labeled pairs and return a RunReport.

    Shuffling is derived from config.seed per epoch, so a fixed config
    reproduces the run exactly.  When ``val_pairs`` is None the validation
    columns are computed on the training pairs; early stopping then
    monitors those.
    """
    pairs = list(pairs)
    if not pairs:
        raise DataError("train needs a nonempty pair list")
    _check_loss_kind(model, loss_kind)
    dtype = config.dtype
    _cast_params(model, dtype)
    val = list(val_pairs) if val_pairs is not None else pairs

    opt = RMSprop(model.params(), lr=config.lr, rho=config.rho, eps=config.eps)
    hist = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}
    best = math.inf if config.monitor.endswith("loss") else -math.inf
    wait = 0
    stopped = False
    t0 = time.perf_counter()

    for epoch in range(config.epochs):
        order = derive_rng(config.seed, "train", "epoch", epoch).permutation(len(pairs))
        total, n_seen = 0.0, 0
        dists, labels = [], []
        for bi, idx in enumerate(_batches(order, config.batch_size)):
            chunk = [pairs[i] for i in idx]
            try:
                with Tape():
                    loss, stats = model.batch_stats(chunk, dtype)
                    backward(loss)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1}, batch {bi + 1}: {exc}"
                ) from exc
            opt.step()
            opt.zero_grad()
            total += float(loss.data) * len(chunk)
            n_seen += len(chunk)
            dists.append(stats["distances"])
            labels.append(stats["labels"])

        hist["train_loss"].append(total / n_seen)
        hist["train_acc"].append(_pair_accuracy(np.concatenate(dists),
                                               np.concatenate(labels), model.threshold))
        vl, vd, vy = score_pairs(model, val)
        hist["val_loss"].append(vl)
        hist["val_acc"].append(_pair_accuracy(vd, vy, model.threshold))

        current = hist[config.monitor][-1]
        if _improved(config.monitor, best, current, config.min_delta):
            best = current
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                stopped = True
                break

    return RunReport(
        train_loss=hist["train_loss"], train_acc=hist["train_acc"],
        val_loss=hist["val_loss"], val_acc=hist["val_acc"],
        wall_time=time.perf_counter() - t0, seed=config.seed,
        config=config.snapshot(), stopped_early=stopped,
    )


def train_reconstruction(model, images, config, weight=0.0005):
    """Train a capsule model's decoder (and encoder) to reconstruct inputs.

    Each example is decoded through its strongest capsule.  Returns the
    per-epoch mean per-image loss and stores the final value on
    ``model.recon_loss``, which gates generation.
    """
    from .capsules import capsule_scores

    imgs = np.asarray(images)
    if imgs.ndim != 3:
        raise ShapeError(f"expected [N, H, W] grayscale images, got {imgs.shape}")
    if imgs.shape[0] == 0:
        raise DataError("train_reconstruction needs at least one image")
    imgs = imgs.astype(config.dtype, copy=False)
    _cast_params(model, config.dtype)
    opt = RMSprop(model.params(), lr=config.lr, rho=config.rho, eps=config.eps)
    history = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, "recon", "epoch", epoch).permutation(len(imgs))
        total, n_seen = 0.0, 0
        for bi, idx in enumerate(_batches(order, config.batch_size)):
            x = imgs[idx][:, None, :, :]
            target = Tensor(imgs[idx], requires_grad=False)
            try:
                with Tape():
                    v = model.encode(Tensor(x, requires_grad=False))
                    scores = capsule_scores(v).data
                    mask = np.argmax(scores, axis=1)
                    decoded = model.decoder.decode(v, mask)
                    loss = T.mul(reconstruction_loss(decoded, target, weight=weight),
                                 1.0 / len(idx))
                    backward(loss)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1}, batch {bi + 1}: {exc}"
                ) from exc
            opt.step()
            opt.zero_grad()
            total += float(loss.data) * len(idx)
            n_seen += len(idx)
        history.append(total / n_seen)
    model.recon_loss = history[-1]
    return history


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def crossvalidate(fold_runner, dataset, k, config):
    """Run ``fold_runner(fold, train_ds, val_ds, fold_config)`` per fold.

    Each fold gets a seed derived from (config.seed, fold), so results do
    not depend on execution order.  The runner returns a RunReport whose
    ``test_accuracy`` feeds the mean/std summary.  Fold failures are
    re-raised with the fold index attached.
    """
    reports = []
    for fold in range(k):
        train_ds, val_ds = kfold_split(dataset, k, fold, seed=config.seed)
        fold_config = replace(config, seed=derive_seed(config.seed, "fold", fold))
        try:
            report = fold_runner(fold, train_ds, val_ds, fold_config)
        except Exception as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        reports.append(report)
    accs = []
    for fold, report in enumerate(reports):
        acc = report.test_accuracy
        if acc is None:
            acc = report.val_acc[-1]
        accs.append(float(acc))
    summary = {
        "mean": float(np.mean(accs)),
        "std": float(np.std(accs)),
        "per_fold": accs,
    }
    return reports, summary
