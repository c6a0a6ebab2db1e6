import dataclasses

import numpy as np
import pytest

from oneshotid import layers as L
from oneshotid import trainer as tr
from oneshotid.errors import ConfigError, DataError, NumericError, ShapeError
from oneshotid.losses import contrastive_loss
from oneshotid.pairing import PairSample
from oneshotid.rng import derive_rng
from oneshotid.tensor import Tape, Tensor


# ---------------------------------------------------------------------------
# fixtures: tiny separable pair problems
# ---------------------------------------------------------------------------

def toy_pairs(n=32, size=6, noise=0.01, seed=0):
    """Class 0 images sit near 0.2, class 1 near 0.8; labels are
    same/different."""
    rng = derive_rng(seed, "toy")
    pairs = []
    for i in range(n):
        ca, cb = (0, 0) if i % 4 == 0 else (1, 1) if i % 4 == 1 else (0, 1) if i % 4 == 2 else (1, 0)
        base = {0: 0.2, 1: 0.8}
        a = base[ca] + rng.normal(0, noise, size=(size, size))
        b = base[cb] + rng.normal(0, noise, size=(size, size))
        pairs.append(PairSample(a, b, 1 if ca == cb else 0))
    return pairs


def merged_toy_model(size=6, seed=5):
    stack = L.LayerStack(
        [
            L.Flatten(),
            L.Dense(2 * size * size, 16, rng=derive_rng(seed, "d1")),
            L.Activation("relu"),
            L.Dense(16, 2, rng=derive_rng(seed, "d2")),
        ],
        (2, size, size),
    )
    return tr.MergedPairModel(stack, merge_mode="stacked")


def siamese_toy_model(size=6, seed=9):
    tower = L.LayerStack(
        [
            L.Flatten(),
            L.Dense(size * size, 8, rng=derive_rng(seed, "t1")),
            L.Activation("relu"),
            L.Dense(8, 4, rng=derive_rng(seed, "t2")),
        ],
        (1, size, size),
    )
    return tr.DistancePairModel(tower, margin=1.0)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = tr.TrainConfig()
    assert cfg.batch_size == 32
    assert cfg.epochs == 20
    assert cfg.lr == 1e-4
    assert cfg.rho == 0.9
    assert cfg.eps == 1e-8
    assert cfg.patience == 5
    assert cfg.min_delta == 1e-4
    assert cfg.monitor == "val_loss"
    assert cfg.precision == "float64"


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0},
    {"epochs": 0},
    {"lr": -1e-4},
    {"rho": 1.0},
    {"eps": 0.0},
    {"patience": 0},
    {"min_delta": -1.0},
    {"monitor": "loss"},
    {"precision": "float16"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        tr.TrainConfig(**kwargs)


def test_config_snapshot_is_plain_dict():
    snap = tr.TrainConfig(seed=4).snapshot()
    assert snap["seed"] == 4
    assert snap["batch_size"] == 32


# ---------------------------------------------------------------------------
# rmsprop
# ---------------------------------------------------------------------------

def rmsprop_on(p, lr=0.01):
    return tr.RMSprop([p], lr=lr, rho=0.9, eps=1e-8)


def test_rmsprop_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    p.grad = np.zeros(3)
    rmsprop_on(p).step()
    assert np.array_equal(p.data, before)


def test_rmsprop_single_scalar_matches_update_rule():
    eps = 1e-8
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = rmsprop_on(p)
    p.grad = np.array([1.0])
    opt.step()
    assert opt.state[0][0] == pytest.approx(0.1, abs=1e-15)
    assert p.data[0] == pytest.approx(-0.01 / (np.sqrt(0.1) + eps), abs=1e-15)


def test_rmsprop_descends_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = rmsprop_on(p)
    prev = abs(p.data[0])
    for _ in range(100):
        p.grad = 2.0 * p.data
        opt.step()
        cur = abs(p.data[0])
        assert cur < prev
        prev = cur


def test_rmsprop_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    for grad in (np.zeros(4), np.zeros((3, 1))):
        p.grad = grad
        with pytest.raises(ShapeError):
            rmsprop_on(p).step()


def test_rmsprop_state_accumulates_across_steps():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = rmsprop_on(p, lr=0.0)
    p.grad = np.array([1.0])
    opt.step()
    opt.step()
    assert opt.state[0][0] == pytest.approx(0.9 * 0.1 + 0.1, abs=1e-15)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_lr_zero_freezes_params():
    pairs = toy_pairs()
    model = merged_toy_model()
    before = [p.data.copy() for p in model.params()]
    cfg = tr.TrainConfig(lr=0.0, epochs=3, batch_size=8, seed=1)
    report = tr.train(model, pairs, "cross_entropy", cfg)
    for b, p in zip(before, model.params()):
        assert np.array_equal(b, p.data)
    assert len(set(report.train_acc)) == 1
    assert len(set(report.val_acc)) == 1


def test_train_separable_toy_reaches_high_accuracy():
    pairs = toy_pairs(n=48)
    model = merged_toy_model()
    cfg = tr.TrainConfig(lr=1e-2, epochs=20, batch_size=8, seed=2, patience=20)
    report = tr.train(model, pairs, "cross_entropy", cfg)
    assert max(report.train_acc) >= 0.99


def test_train_deterministic_given_seed():
    pairs = toy_pairs()
    cfg = tr.TrainConfig(lr=1e-3, epochs=4, batch_size=8, seed=3)
    r1 = tr.train(merged_toy_model(), pairs, "cross_entropy", cfg)
    r2 = tr.train(merged_toy_model(), pairs, "cross_entropy", cfg)
    assert r1.train_loss == r2.train_loss
    assert r1.train_acc == r2.train_acc
    assert r1.val_loss == r2.val_loss
    assert r1.val_acc == r2.val_acc
    assert r1.config["seed"] == r2.config["seed"]


def test_train_series_lengths_equal_and_acc_in_range():
    pairs = toy_pairs()
    cfg = tr.TrainConfig(lr=1e-3, epochs=3, batch_size=8)
    report = tr.train(merged_toy_model(), pairs, "cross_entropy", cfg)
    n = report.epochs_run
    assert len(report.train_loss) == len(report.train_acc) == n
    assert len(report.val_loss) == len(report.val_acc) == n
    for a in report.train_acc + report.val_acc:
        assert 0.0 <= a <= 1.0


def test_early_stopping_waits_for_patience():
    pairs = toy_pairs()
    model = merged_toy_model()
    cfg = tr.TrainConfig(lr=0.0, epochs=20, batch_size=8, patience=4)
    report = tr.train(model, pairs, "cross_entropy", cfg)
    assert report.stopped_early
    assert report.epochs_run == cfg.patience + 1


def test_early_stopping_never_fires_while_improving():
    pairs = toy_pairs(n=48)
    cfg = tr.TrainConfig(lr=1e-2, epochs=6, batch_size=8, patience=2,
                         monitor="val_loss")
    report = tr.train(merged_toy_model(), pairs, "cross_entropy", cfg)
    assert report.epochs_run >= 3


def test_train_rejects_mismatched_loss_kind():
    pairs = toy_pairs()
    with pytest.raises(ConfigError):
        tr.train(merged_toy_model(), pairs, "contrastive", tr.TrainConfig())
    with pytest.raises(ConfigError):
        tr.train(siamese_toy_model(), pairs, "cross_entropy", tr.TrainConfig())


def test_train_rejects_empty_pairs():
    with pytest.raises(DataError):
        tr.train(merged_toy_model(), [], "cross_entropy", tr.TrainConfig())


def test_train_numeric_error_carries_epoch_and_batch():
    pairs = toy_pairs()
    model = merged_toy_model()
    model.params()[0].data = np.full_like(model.params()[0].data, np.nan)
    with pytest.raises(NumericError, match=r"epoch 1, batch 1"):
        tr.train(model, pairs, "cross_entropy",
                 tr.TrainConfig(lr=1e-3, epochs=1, batch_size=8))


def test_train_reconstruction_numeric_error_carries_epoch_and_batch():
    model = tiny_capsnet()
    model.decoder.params()[0].data = np.full_like(model.decoder.params()[0].data, np.nan)
    with pytest.raises(NumericError, match=r"epoch 1, batch 1"):
        tr.train_reconstruction(model, recon_images(),
                                tr.TrainConfig(lr=1e-3, epochs=1, batch_size=4))


def test_optimizer_state_resets_between_runs():
    pairs = toy_pairs()
    cfg2 = tr.TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=6)
    cfg1 = dataclasses.replace(cfg2, epochs=1)

    continuous = merged_toy_model()
    tr.train(continuous, pairs, "cross_entropy", cfg2)

    restarted = merged_toy_model()
    tr.train(restarted, pairs, "cross_entropy", cfg1)
    tr.train(restarted, pairs, "cross_entropy", cfg1)

    diffs = [np.max(np.abs(a.data - b.data))
             for a, b in zip(continuous.params(), restarted.params())]
    assert max(diffs) > 0


def test_siamese_training_separates_toy_pairs():
    pairs = toy_pairs(n=48)
    model = siamese_toy_model()
    cfg = tr.TrainConfig(lr=1e-2, epochs=15, batch_size=8, seed=7, patience=15)
    report = tr.train(model, pairs, "contrastive", cfg)
    assert max(report.train_acc) >= 0.95


def test_siamese_param_registry_has_no_duplicates():
    model = siamese_toy_model()
    ids = [id(p) for p in model.params()]
    assert len(ids) == len(set(ids))


def test_train_float32_precision_casts_params():
    pairs = toy_pairs()
    model = merged_toy_model()
    cfg = tr.TrainConfig(lr=1e-3, epochs=2, batch_size=8, precision="float32")
    report = tr.train(model, pairs, "cross_entropy", cfg)
    for p in model.params():
        assert p.data.dtype == np.float32
    assert all(np.isfinite(v) for v in report.train_loss)


@pytest.mark.parametrize("tower", ["merged", "siamese-cnn", "siamese-capsnet"])
def test_float32_training_stays_float32(tower, monkeypatch):
    from oneshotid import tensor as T
    from oneshotid.capsules import build_capsnet

    seen = []
    from_op = T.from_op
    optimizer_step = tr.RMSprop.step

    def spy_from_op(op_name, data, inputs, backward_fn):
        def checked_backward(g):
            grads = backward_fn(g)
            seen.extend((op_name + " backward", ig.dtype) for ig in grads if ig is not None)
            return grads

        seen.append((op_name, data.dtype))
        return from_op(op_name, data, inputs, checked_backward)

    def spy_optimizer_step(opt):
        seen.extend(("optimizer grad", p.grad.dtype) for p in opt.params if p.grad is not None)
        optimizer_step(opt)

    monkeypatch.setattr(T, "from_op", spy_from_op)
    monkeypatch.setattr(tr.RMSprop, "step", spy_optimizer_step)
    if tower == "merged":
        model = tr.MergedPairModel(L.build_merged_cnn((16, 16, 2), seed=1))
        size = 16
    elif tower == "siamese-cnn":
        model = tr.DistancePairModel(L.build_siamese_tower((20, 20, 1), seed=1))
        size = 20
    else:
        model = tr.DistancePairModel(build_capsnet(
            (12, 12, 1), n_classes=3, d_out=4, conv_channels=(8, 8), kernels=(3, 3),
            strides=(1, 2), n_p=4, routing_iters=2, seed=1))
        size = 12
    cfg = tr.TrainConfig(lr=1e-3, epochs=1, batch_size=4, precision="float32")
    tr.train(model, toy_pairs(n=8, size=size), model.loss_kind, cfg)
    assert any(name == "optimizer grad" for name, _ in seen)
    promoted = sorted({name for name, dtype in seen if dtype != np.float32})
    assert promoted == []


def test_train_with_explicit_validation_pairs():
    train_pairs = toy_pairs(n=32, seed=0)
    val_pairs = toy_pairs(n=16, seed=99)
    cfg = tr.TrainConfig(lr=1e-2, epochs=3, batch_size=8)
    report = tr.train(merged_toy_model(), train_pairs, "cross_entropy", cfg,
                      val_pairs=val_pairs)
    assert len(report.val_loss) == report.epochs_run


def test_ragged_final_batch_of_one_is_dropped():
    order = np.arange(9)
    chunks = tr._batches(order, 4)
    assert [len(c) for c in chunks] == [4, 4]
    chunks = tr._batches(np.arange(10), 4)
    assert [len(c) for c in chunks] == [4, 4, 2]
    chunks = tr._batches(np.arange(1), 4)
    assert [len(c) for c in chunks] == [1]
    # batches of one keep every example
    chunks = tr._batches(np.arange(5), 1)
    assert [c.tolist() for c in chunks] == [[0], [1], [2], [3], [4]]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def sample_report():
    cfg = tr.TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=11)
    return tr.train(merged_toy_model(), toy_pairs(), "cross_entropy", cfg)


def test_report_csv_layout(tmp_path):
    report = sample_report()
    path = tmp_path / "epochs.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + report.epochs_run
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(report.train_loss[0], rel=1e-9)


def test_report_summary_keys(tmp_path):
    report = sample_report()
    report.test_accuracy = 0.875
    path = tmp_path / "summary.txt"
    report.write_summary(path)
    text = path.read_text()
    entries = dict(line.split("=", 1) for line in text.splitlines())
    assert entries["seed"] == "11"
    assert entries["test_accuracy"] == "0.875"
    assert entries["config.batch_size"] == "8"
    assert entries["epochs_run"] == str(report.epochs_run)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_constant_classifier_scores_chance_on_balanced_pairs():
    model = merged_toy_model()
    for p in model.params():
        p.data = np.zeros_like(p.data)
    pairs = toy_pairs(n=40)
    assert tr.evaluate_pairs(model, pairs) == pytest.approx(0.5)


def identity_tower(size):
    tower = L.LayerStack(
        [L.Flatten(), L.Dense(size * size, size * size)], (1, size, size)
    )
    dense = tower.layers[1]
    dense.weights.data = np.eye(size * size)
    dense.bias.data = np.zeros(size * size)
    return tower


def test_oracle_embeddings_perfect_at_fixed_threshold():
    size = 4
    model = tr.DistancePairModel(identity_tower(size), threshold=5.0)
    zero = np.zeros((size, size))
    far = np.full((size, size), 10.0 / size)
    pairs = [PairSample(zero, zero.copy(), 1) for _ in range(5)]
    pairs += [PairSample(zero, far, 0) for _ in range(5)]
    assert tr.evaluate_pairs(model, pairs) == 1.0


def test_evaluate_invariant_to_pair_order():
    model = merged_toy_model()
    pairs = toy_pairs(n=24)
    acc = tr.evaluate_pairs(model, pairs)
    shuffled = [pairs[i] for i in derive_rng(0, "shuffle").permutation(len(pairs))]
    assert tr.evaluate_pairs(model, shuffled) == pytest.approx(acc)


def test_evaluate_empty_pairs_raises():
    with pytest.raises(DataError):
        tr.evaluate_pairs(merged_toy_model(), [])


def test_evaluate_threshold_from_validation_pairs():
    size = 4
    model = tr.DistancePairModel(identity_tower(size))
    zero = np.zeros((size, size))
    far = np.full((size, size), 10.0 / size)
    val = [PairSample(zero, zero.copy(), 1), PairSample(zero, far, 0)]
    test = [PairSample(zero, zero.copy(), 1) for _ in range(3)]
    test += [PairSample(zero, far, 0) for _ in range(3)]
    assert tr.evaluate_pairs(model, test, threshold_rule=val) == 1.0


def test_choose_threshold_separated():
    d = np.array([0.0, 0.1, 9.9, 10.0])
    y = np.array([1, 1, 0, 0])
    tau, acc = tr.choose_threshold(d, y)
    assert acc == 1.0
    assert 0.1 < tau < 9.9


def test_choose_threshold_handles_overlap():
    d = np.array([1.0, 2.0, 1.5, 3.0])
    y = np.array([1, 0, 0, 1])
    tau, acc = tr.choose_threshold(d, y)
    preds = d < tau
    assert acc == pytest.approx(float((preds == (y == 1)).mean()))
    assert acc >= 0.5


def test_choose_threshold_all_same_label():
    tau, acc = tr.choose_threshold(np.array([1.0, 2.0]), np.array([1, 1]))
    assert acc == 1.0
    assert tau > 2.0


def _choose_threshold_matrix(distances, labels):
    """Reference: score every candidate against every distance at once."""
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels) == 1
    ds = np.sort(d)
    cand = np.concatenate(([ds[0] - 1.0], (ds[:-1] + ds[1:]) / 2.0, [ds[-1] + 1.0]))
    preds = d[None, :] < cand[:, None]
    accs = (preds == y[None, :]).mean(axis=1)
    i = int(np.argmax(accs))
    return float(cand[i]), float(accs[i])


def test_choose_threshold_matches_matrix_reference():
    rng = derive_rng(0, "threshold-property")
    for case in range(3000):
        n = 1 if case % 10 == 0 else int(rng.integers(2, 60))
        kind = case % 4
        if kind == 0:  # heavy ties
            d = rng.integers(0, 4, size=n).astype(float) * 0.5
        elif kind == 1:  # adjacent floats: midpoints round onto a neighbour
            d = 1.0 + rng.integers(0, 3, size=n) * np.finfo(float).eps
        elif kind == 2:  # magnitudes where the +-1 sentinels vanish
            d = rng.choice([-1e17, 0.0, 1e17], size=n)
        else:
            d = rng.normal(size=n)
        if case % 5 == 0:
            y = np.full(n, int(rng.integers(0, 2)))  # one label only
        else:
            y = rng.integers(0, 2, size=n)
        assert tr.choose_threshold(d, y) == _choose_threshold_matrix(d, y), (case, d, y)


def test_score_pairs_chunks_match_one_batch():
    model = siamese_toy_model()
    pairs = toy_pairs(n=tr.SCORE_CHUNK + 44)
    loss, d, y = tr.score_pairs(model, pairs)
    whole_loss, stats = model.batch_stats(pairs, np.float64)
    np.testing.assert_allclose(d, stats["distances"], rtol=1e-12)
    assert np.array_equal(y, stats["labels"])
    assert loss == pytest.approx(float(whole_loss.data), rel=1e-12)


def scoring_tower(kind, dtype):
    """(model in ``dtype``, image side it takes)."""
    from oneshotid.capsules import build_capsnet

    if kind == "siamese-cnn":
        model, size = tr.DistancePairModel(L.build_siamese_tower((20, 20, 1), seed=4)), 20
    else:
        model, size = tr.DistancePairModel(build_capsnet(
            (12, 12, 1), n_classes=3, d_out=4, conv_channels=(8, 8), kernels=(3, 3),
            strides=(1, 2), n_p=4, routing_iters=2, seed=4)), 12
    for p in model.params():
        p.data = p.data.astype(dtype)
    return model, size


def pool_pairs(pool, picks, seed=0):
    """PairSamples over views of ``pool``: pool[i] is a new view of the same
    bytes on every call, and a pick (i, i) pairs one array with itself."""
    ys = derive_rng(seed, "pool-labels").integers(0, 2, size=len(picks))
    pairs = []
    for (i, j), y in zip(picks, ys):
        a = pool[i]
        pairs.append(PairSample(a, a if i == j else pool[j], int(y)))
    return pairs


def embed_each_side(model, pairs, dtype):
    """Reference scoring: per SCORE_CHUNK, one tower call over every pair's
    a and one over every pair's b, repeats and all."""
    total, dists = 0.0, []
    for i in range(0, len(pairs), tr.SCORE_CHUNK):
        chunk = pairs[i:i + tr.SCORE_CHUNK]
        e1 = model.embed(np.stack([p.a[None] for p in chunk]).astype(dtype))
        e2 = model.embed(np.stack([p.b[None] for p in chunk]).astype(dtype))
        y = np.array([p.y for p in chunk])
        total += float(contrastive_loss(e1, e2, y, margin=model.margin).data) * len(chunk)
        dists.append(np.linalg.norm(e1.data - e2.data, axis=1))
    return total / len(pairs), np.concatenate(dists)


SCORING_LISTS = {
    # 12 images in 45 pairs: repeats inside each chunk, several a-is-b pairs.
    "repeated": (12, [(i % 12, (i * 5 + i // 12) % 12) for i in range(45)]),
    # Every image appears once.
    "distinct": (90, [(2 * i, 2 * i + 1) for i in range(45)]),
}


@pytest.mark.parametrize("kind", ["siamese-cnn", "siamese-capsnet"])
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("case", list(SCORING_LISTS))
def test_score_pairs_matches_embedding_each_side(kind, dtype, rtol, case):
    n_images, picks = SCORING_LISTS[case]
    model, size = scoring_tower(kind, dtype)
    pool = derive_rng(1, "pool").uniform(0.0, 1.0, size=(n_images, size, size))
    pairs = pool_pairs(pool, picks)
    if case == "repeated":
        assert any(p.a is p.b for p in pairs)
    loss, d, y = tr.score_pairs(model, pairs)
    ref_loss, ref_d = embed_each_side(model, pairs, dtype)
    assert d.dtype == dtype
    np.testing.assert_allclose(d, ref_d, rtol=rtol, atol=0.0)
    assert loss == pytest.approx(ref_loss, rel=rtol)
    assert np.array_equal(y, [p.y for p in pairs])


def test_score_pairs_embeds_each_distinct_image_of_a_chunk_once(monkeypatch):
    sizes = []
    embed = tr.DistancePairModel.embed

    def spy(model, images):
        sizes.append(len(images))
        return embed(model, images)

    monkeypatch.setattr(tr.DistancePairModel, "embed", spy)
    model = siamese_toy_model()
    pool = derive_rng(2, "pool").uniform(0.0, 1.0, size=(80, 6, 6))
    # Chunk 1 holds 3 distinct images, chunk 2 holds 64, and the last chunk
    # of 5 pairs holds 7: no call takes more images than its chunk has pairs.
    picks = [(i % 3, (i + 1) % 3) for i in range(32)]
    picks += [(10 + 2 * i, 11 + 2 * i) for i in range(32)]
    picks += [(0, 0), (1, 2), (3, 4), (5, 6), (6, 5)]
    pairs = pool_pairs(pool, picks)
    tr.score_pairs(model, pairs)
    assert sizes == [3, 32, 32, 5, 2]

    sizes.clear()
    with Tape():
        model.batch_stats(pairs[:8], np.float64)
    assert sizes == [8, 8]


def test_merged_margin_threshold_matches_argmax():
    model = merged_toy_model()
    pairs = toy_pairs(n=40)
    x = np.stack([np.stack([p.a, p.b]) for p in pairs])
    y = np.array([p.y for p in pairs])
    logits = model.stack(Tensor(x)).data
    argmax_acc = int((np.argmax(logits, axis=1) == y).sum()) / len(pairs)
    assert tr.evaluate_pairs(model, pairs) == argmax_acc


# ---------------------------------------------------------------------------
# reconstruction training
# ---------------------------------------------------------------------------

def tiny_capsnet(seed=17):
    from oneshotid.capsules import CapsNet, Decoder, build_capsnet

    enc = build_capsnet((12, 12, 1), n_classes=3, d_out=4, conv_channels=(8, 8),
                        kernels=(3, 3), strides=(1, 2), n_p=4, seed=seed)
    dec = Decoder(3, 4, (12, 12), sizes=(16,), seed=seed)
    return CapsNet(enc, dec, recon_threshold=1e9)


def recon_images(n=8, size=12):
    rng = derive_rng(3, "recon-imgs")
    return rng.uniform(0.0, 1.0, size=(n, size, size))


def test_train_reconstruction_sets_gate_loss():
    model = tiny_capsnet()
    cfg = tr.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=5)
    history = tr.train_reconstruction(model, recon_images(), cfg)
    assert len(history) == 2
    assert model.recon_loss == history[-1]
    assert np.isfinite(model.recon_loss)


def test_train_reconstruction_deterministic():
    cfg = tr.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=5)
    h1 = tr.train_reconstruction(tiny_capsnet(), recon_images(), cfg)
    h2 = tr.train_reconstruction(tiny_capsnet(), recon_images(), cfg)
    assert h1 == h2


def test_train_reconstruction_rejects_bad_input():
    model = tiny_capsnet()
    cfg = tr.TrainConfig(epochs=1)
    with pytest.raises(ShapeError):
        tr.train_reconstruction(model, np.zeros((4, 12, 12, 1)), cfg)
    with pytest.raises(DataError):
        tr.train_reconstruction(model, np.zeros((0, 12, 12)), cfg)


def test_train_reconstruction_loss_decreases():
    model = tiny_capsnet()
    cfg = tr.TrainConfig(lr=5e-3, epochs=4, batch_size=4, seed=2)
    history = tr.train_reconstruction(model, recon_images(), cfg)
    assert history[-1] < history[0]
