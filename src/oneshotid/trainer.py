"""Training and evaluation: one optimisation loop (``_epochs``) for pair
and reconstruction training, early stopping, and pair scoring and
accuracy.

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
distance of the two embeddings; its ``threshold`` is tau, None until it
is chosen by ``choose_threshold`` or loaded.  ``score_pairs`` is the one
batched scoring pass, used by validation, ``evaluate_pairs``, the recipes
and the ``eval`` command alike.

Without a tape, DistancePairModel embeds each distinct image of a scoring
chunk once and takes both sides of every pair from that table; no tower
call takes more images than the chunk has pairs.  Under a tape it embeds
all ``a`` views, then all ``b`` views, in two calls.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .atomic import atomic_open, write_key_values
from .capsules import capsule_scores
from .errors import ConfigError, DataError, NumericError, ShapeError
from .losses import contrastive_loss, cross_entropy, reconstruction_loss
from .pairing import merge
from .rng import derive_rng
from .tensor import Tape, Tensor, backward

_MONITORS = ("val_loss", "val_acc", "train_loss", "train_acc")

# Pairs per forward pass when scoring without gradients.  It sets the size
# of each conv layer's im2col matrix, which dominates peak memory while
# scoring: 32 pairs keep it near 60 MB on the benchmark's merged CNN.  A
# siamese chunk embeds its distinct images once, in tower calls of at most
# as many images as the chunk has pairs.
SCORE_CHUNK = 32


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


@dataclass
class RunReport:
    train_loss: list
    train_acc: list
    val_loss: list
    val_acc: list
    wall_time: float
    config: dict
    stopped_early: bool = False
    test_accuracy: float = None

    @property
    def epochs_run(self):
        return len(self.train_loss)

    def write_csv(self, path):
        rows = zip(self.train_loss, self.train_acc, self.val_loss, self.val_acc)
        with atomic_open(path, "w", encoding="utf-8", newline="") as f:
            f.write("epoch,train_loss,train_acc,val_loss,val_acc\n")
            for e, (tl, ta, vl, va) in enumerate(rows, start=1):
                f.write(f"{e},{tl:.10g},{ta:.10g},{vl:.10g},{va:.10g}\n")

    def write_summary(self, path):
        items = {
            "seed": self.config["seed"],
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
        write_key_values(path, items.items())


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class RMSprop:
    """Holds per-parameter accumulators for the lifetime of one run; ``lr``,
    ``rho`` and ``eps`` come from the run's TrainConfig."""

    def __init__(self, params, lr, rho, eps):
        self.params = list(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.state = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update in place: s <- rho*s + (1-rho)*g^2 and
        p <- p - lr*g/(sqrt(s) + eps), with g = 0 where ``p.grad`` is None."""
        for p, s in zip(self.params, self.state):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"RMSprop gradient shape {g.shape} differs from its "
                                 f"parameter's {p.data.shape}")
            s *= self.rho
            s += (1.0 - self.rho) * g * g
            if self.lr != 0.0:
                p.data = p.data - self.lr * g / (np.sqrt(s) + self.eps)

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


def _stack_chw(images, dtype):
    return np.stack([_chw(img) for img in images]).astype(dtype, copy=False)


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

    def input_shapes(self, image):
        """(input shape a pair of ``image``-shaped images gives the stack,
        input shape the stack takes)."""
        return _chw(merge(image, image, self.merge_mode)).shape, self.stack.input_shape

    def batch_stats(self, pairs, dtype):
        x = _stack_chw([merge(p.a, p.b, self.merge_mode) for p in pairs], dtype)
        y = np.array([p.y for p in pairs], dtype=np.int64)
        logits = self.stack(Tensor(x, requires_grad=False))
        loss = cross_entropy(logits, y)
        margin = logits.data[:, 0] - logits.data[:, 1]
        return loss, {"distances": margin, "labels": y}


class DistancePairModel:
    """One shared tower embeds both views; contrastive loss over distances.

    A tower that emits capsule vectors ([B, J, d]) is flattened to
    [B, J*d] so the euclidean pair distance is well defined.  ``threshold``
    is the verification tau, None until it is chosen or loaded.
    """

    kind = "distance"
    loss_kind = "contrastive"

    def __init__(self, tower, margin=1.0, threshold=None):
        if margin <= 0:
            raise ConfigError(f"margin must be positive, got {margin}")
        self.tower = tower
        self.margin = float(margin)
        self.threshold = threshold

    def params(self):
        return self.tower.params()

    def input_shapes(self, image):
        """(input shape an ``image``-shaped image gives the tower, input
        shape the tower takes)."""
        return _chw(image).shape, self.tower.input_shape

    def embed(self, images):
        out = self.tower(Tensor(np.asarray(images), requires_grad=False))
        if out.ndim == 3:
            out = T.reshape(out, (out.shape[0], out.shape[1] * out.shape[2]))
        return out

    def _embed_distinct(self, pairs, dtype):
        """(e1, e2) of ``pairs`` with each distinct image embedded once, in
        tower calls of at most ``len(pairs)`` images.

        An image is keyed by its data pointer, shape, strides and dtype.
        ``images`` keeps every array alive for the call, so equal keys
        mean equal bytes.
        """
        images = [np.asarray(p.a) for p in pairs] + [np.asarray(p.b) for p in pairs]
        slot, distinct, rows = {}, [], []
        for img in images:
            ai = img.__array_interface__
            key = (ai["data"][0], ai["shape"], ai["strides"], ai["typestr"])
            if key not in slot:
                slot[key] = len(distinct)
                distinct.append(img)
            rows.append(slot[key])
        n = len(pairs)
        table = np.concatenate([self.embed(_stack_chw(distinct[i:i + n], dtype)).data
                                for i in range(0, len(distinct), n)])
        rows = np.array(rows)
        return Tensor(table[rows[:n]]), Tensor(table[rows[n:]])

    def batch_stats(self, pairs, dtype):
        if T.active_tape() is None:
            e1, e2 = self._embed_distinct(pairs, dtype)
        else:
            e1 = self.embed(_stack_chw([p.a for p in pairs], dtype))
            e2 = self.embed(_stack_chw([p.b for p in pairs], dtype))
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


def _batches(order, batch_size):
    """Consecutive batches of ``order``; a lone leftover example after
    full batches of two or more is dropped."""
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if batch_size > 1 and len(chunks) > 1 and len(chunks[-1]) == 1:
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


def _pair_accuracy(distances, labels, tau):
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

    tau is the model's ``threshold`` when it is set (always, for a merged
    model), and ``threshold_rule`` is then ignored.  Otherwise tau comes
    from the rule: a list of PairSamples is swept for the best tau; None
    sweeps the evaluation pairs themselves.
    """
    _, d, y = score_pairs(model, pairs)
    tau = model.threshold
    if tau is None and threshold_rule is not None:
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


def _epochs(model, n, config, tag, step):
    """RMSprop over ``n`` examples; yields (mean loss, step outputs) per epoch.

    Casts the parameters to ``config.dtype`` first.  Each epoch shuffles
    with a permutation derived from (config.seed, tag, epoch), and
    ``step(idx)`` runs under a tape on each batch of indices, returning
    (loss, out).  A NumericError is re-raised with its epoch and batch.
    """
    for p in model.params():
        if p.data.dtype != config.dtype:
            p.data = p.data.astype(config.dtype)
    opt = RMSprop(model.params(), lr=config.lr, rho=config.rho, eps=config.eps)
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, tag, "epoch", epoch).permutation(n)
        total, n_seen, outs = 0.0, 0, []
        for bi, idx in enumerate(_batches(order, config.batch_size)):
            try:
                with Tape():
                    loss, out = step(idx)
                    backward(loss)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1}, batch {bi + 1}: {exc}"
                ) from exc
            opt.step()
            opt.zero_grad()
            total += float(loss.data) * len(idx)
            n_seen += len(idx)
            outs.append(out)
        yield total / n_seen, outs


def train(model, pairs, loss_kind, config, val_pairs=None):
    """Optimize ``model`` on labeled pairs and return a RunReport.

    Shuffling is derived from config.seed per epoch, so a fixed config
    reproduces the run exactly.  When ``val_pairs`` is None the validation
    columns are computed on the training pairs; early stopping then
    monitors those.  The accuracy columns use the model's ``threshold``,
    or each column's best tau while it is None.  ``model`` keeps the last
    epoch's parameters, not the best monitored epoch's: after an early
    stop they are ``config.patience`` epochs past the last improvement.
    """
    pairs = list(pairs)
    if not pairs:
        raise DataError("train needs a nonempty pair list")
    _check_loss_kind(model, loss_kind)
    val = list(val_pairs) if val_pairs is not None else pairs
    report = RunReport([], [], [], [], wall_time=0.0, config=asdict(config))
    best = math.inf if config.monitor.endswith("loss") else -math.inf
    wait = 0
    t0 = time.perf_counter()

    def step(idx):
        return model.batch_stats([pairs[i] for i in idx], config.dtype)

    for loss, stats in _epochs(model, len(pairs), config, "train", step):
        report.train_loss.append(loss)
        dists = np.concatenate([s["distances"] for s in stats])
        labels = np.concatenate([s["labels"] for s in stats])
        report.train_acc.append(_pair_accuracy(dists, labels, model.threshold))
        vl, vd, vy = score_pairs(model, val)
        report.val_loss.append(vl)
        report.val_acc.append(_pair_accuracy(vd, vy, model.threshold))

        current = getattr(report, config.monitor)[-1]
        if _improved(config.monitor, best, current, config.min_delta):
            best = current
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                report.stopped_early = True
                break

    report.wall_time = time.perf_counter() - t0
    return report


def train_reconstruction(model, images, config):
    """Train a capsule model's decoder (and encoder) to reconstruct inputs.

    Each example is decoded through its strongest capsule.  Returns the
    per-epoch mean per-image loss and stores the final value on
    ``model.recon_loss``, which gates generation.
    """
    imgs = np.asarray(images)
    if imgs.ndim != 3:
        raise ShapeError(f"expected [N, H, W] grayscale images, got {imgs.shape}")
    if imgs.shape[0] == 0:
        raise DataError("train_reconstruction needs at least one image")
    imgs = imgs.astype(config.dtype, copy=False)

    def step(idx):
        v = model.encoder(Tensor(imgs[idx][:, None, :, :], requires_grad=False))
        mask = np.argmax(capsule_scores(v).data, axis=1)
        decoded = model.decoder.decode(v, mask)
        target = Tensor(imgs[idx], requires_grad=False)
        return T.mul(reconstruction_loss(decoded, target), 1.0 / len(idx)), None

    history = [loss for loss, _ in _epochs(model, len(imgs), config, "recon", step)]
    model.recon_loss = history[-1]
    return history
