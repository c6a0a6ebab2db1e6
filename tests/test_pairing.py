import numpy as np
import pytest

from oneshotid import pairing as P
from oneshotid.datasets import Dataset
from oneshotid.errors import ConfigError, DataError, FormatError, ShapeError


def test_grayscale_white_is_one():
    img = np.ones((2, 2, 3))
    np.testing.assert_allclose(P.to_grayscale(img), np.ones((2, 2)))


def test_grayscale_red_weight():
    img = np.zeros((1, 1, 3))
    img[0, 0, 0] = 1.0
    np.testing.assert_allclose(P.to_grayscale(img), [[0.299]])


def test_grayscale_passthrough():
    img = np.random.default_rng(0).uniform(size=(3, 4))
    out = P.to_grayscale(img)
    assert np.array_equal(out, img)


def test_grayscale_rejects_two_channels():
    with pytest.raises(ShapeError):
        P.to_grayscale(np.zeros((2, 2, 2)))


class TestMerge:
    def test_stacked_shape(self):
        a = np.zeros((96, 96))
        m = P.merge(a, a, "stacked")
        assert m.data.shape == (96, 96, 2)
        assert m.mode == "stacked"

    def test_stacked_is_lossless(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(2, 5, 7))
        m = P.merge(a, b, "stacked")
        assert np.array_equal(m.data[:, :, 0], a)
        assert np.array_equal(m.data[:, :, 1], b)

    def test_stacked_identity_pair(self):
        a = np.random.default_rng(2).uniform(size=(4, 4))
        m = P.merge(a, a, "stacked")
        assert np.array_equal(m.data[:, :, 0], m.data[:, :, 1])

    def test_stacked_multichannel_concatenates(self):
        a = np.zeros((4, 4, 2))
        b = np.ones((4, 4, 2))
        m = P.merge(a, b, "stacked")
        assert m.data.shape == (4, 4, 4)
        assert np.array_equal(m.data[:, :, :2], a)
        assert np.array_equal(m.data[:, :, 2:], b)

    def test_h_join_left_block(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=(2, 3, 5))
        m = P.merge(a, b, "h-join")
        assert m.data.shape == (3, 10)
        assert np.array_equal(m.data[:, :5], a)
        assert np.array_equal(m.data[:, 5:], b)

    def test_h_join_swap_is_block_swap(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(size=(2, 3, 5))
        ab = P.merge(a, b, "h-join").data
        ba = P.merge(b, a, "h-join").data
        assert np.array_equal(ab[:, :5], ba[:, 5:])
        assert np.array_equal(ab[:, 5:], ba[:, :5])

    def test_v_join(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(size=(2, 3, 5))
        m = P.merge(a, b, "v-join")
        assert m.data.shape == (6, 5)
        assert np.array_equal(m.data[:3], a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            P.merge(np.zeros((2, 2)), np.zeros((3, 2)), "stacked")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            P.merge(np.zeros((2, 2)), np.zeros((2, 2)), "diagonal")


def _dataset(n_classes=5, per_class=4, seed=0, with_paths=False):
    rng = np.random.default_rng(seed)
    n = n_classes * per_class
    paths = [f"img/{i}.pgm" for i in range(n)] if with_paths else None
    return Dataset(
        rng.uniform(size=(n, 6, 6)),
        np.repeat(np.arange(n_classes), per_class),
        paths=paths,
    )


class TestSamplePairs:
    def test_balanced_counts(self):
        pairs = P.sample_pairs(_dataset(), 100, balance=0.5, rng_seed=1)
        assert len(pairs) == 100
        same = sum(p.y for p in pairs)
        assert same == 50

    def test_uneven_balance_rounds(self):
        pairs = P.sample_pairs(_dataset(), 7, balance=0.5, rng_seed=2)
        same = sum(p.y for p in pairs)
        assert len(pairs) == 7
        assert abs(same - 3.5) <= 0.5

    def test_single_class_cannot_make_different_pairs(self):
        ds = _dataset(n_classes=1, per_class=6)
        with pytest.raises(DataError):
            P.sample_pairs(ds, 10, balance=0.5)

    def test_singleton_classes_cannot_make_same_pairs(self):
        ds = _dataset(n_classes=4, per_class=1)
        with pytest.raises(DataError):
            P.sample_pairs(ds, 10, balance=0.5)

    def test_deterministic(self):
        a = P.sample_pairs(_dataset(), 30, rng_seed=7)
        b = P.sample_pairs(_dataset(), 30, rng_seed=7)
        for pa, pb in zip(a, b):
            assert pa.index_a == pb.index_a
            assert pa.index_b == pb.index_b
            assert pa.y == pb.y

    def test_labels_and_no_self_pairs(self):
        ds = _dataset(n_classes=6, per_class=3, seed=3)
        pairs = P.sample_pairs(ds, 200, balance=0.4, rng_seed=4)
        for p in pairs:
            assert p.index_a != p.index_b
            same = ds.class_ids[p.index_a] == ds.class_ids[p.index_b]
            assert p.y == int(same)

    def test_zero_pairs(self):
        assert P.sample_pairs(_dataset(), 0) == []

    def test_images_attached(self):
        ds = _dataset()
        pairs = P.sample_pairs(ds, 5, rng_seed=6)
        for p in pairs:
            assert np.array_equal(p.a, ds.images[p.index_a])
            assert np.array_equal(p.b, ds.images[p.index_b])


class TestHoldout:
    def test_forty_hold_five(self):
        ds = _dataset(n_classes=40, per_class=2)
        train, test = P.holdout_split(ds, 5, rng_seed=1)
        assert len(train) == 35 and len(test) == 5

    def test_disjoint_partition(self):
        ds = _dataset(n_classes=10, per_class=2)
        train, test = P.holdout_split(ds, 3, rng_seed=2)
        assert set(train).isdisjoint(test)
        assert sorted(list(train) + list(test)) == list(range(10))

    def test_deterministic(self):
        ds = _dataset(n_classes=12, per_class=2)
        a = P.holdout_split(ds, 4, rng_seed=3)
        b = P.holdout_split(ds, 4, rng_seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_cannot_hold_out_everything(self):
        ds = _dataset(n_classes=5, per_class=2)
        with pytest.raises(ConfigError):
            P.holdout_split(ds, 5)

    def test_class_subset_filters(self):
        ds = _dataset(n_classes=6, per_class=3)
        sub = P.class_subset(ds, [1, 4])
        assert sorted(np.unique(sub.class_ids)) == [1, 4]
        assert len(sub) == 6


class TestManifest:
    def test_round_trip(self, tmp_path):
        ds = _dataset(with_paths=True)
        pairs = P.sample_pairs(ds, 12, rng_seed=8)
        path = tmp_path / "pairs.tsv"
        P.write_pair_manifest(path, pairs, ds)
        rows = P.read_pair_manifest(path)
        assert len(rows) == 12
        for p, (pa, pb, y) in zip(pairs, rows):
            assert pa == ds.paths[p.index_a]
            assert pb == ds.paths[p.index_b]
            assert y == p.y

    def test_lf_line_endings(self, tmp_path):
        ds = _dataset(with_paths=True)
        pairs = P.sample_pairs(ds, 3, rng_seed=9)
        path = tmp_path / "pairs.tsv"
        P.write_pair_manifest(path, pairs, ds)
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    def test_requires_paths(self, tmp_path):
        ds = _dataset(with_paths=False)
        pairs = P.sample_pairs(ds, 3, rng_seed=10)
        with pytest.raises(DataError):
            P.write_pair_manifest(tmp_path / "x.tsv", pairs, ds)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a.pgm\tb.pgm\t2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            P.read_pair_manifest(path)
