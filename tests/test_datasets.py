import struct

import numpy as np
import pytest

from oneshotid import datasets as D
from oneshotid.errors import ConfigError, DataError, FormatError


class TestMatrixCodec:
    def test_round_trip_all_dtypes(self, tmp_path):
        rng = np.random.default_rng(1)
        # (array, its type code): the header is the code, the rank, then the
        # extents padded with 1s to at least three.
        cases = [
            (rng.integers(0, 255, size=(4, 2, 3, 3)).astype(np.uint8), 0x1E3D4C55),
            (rng.integers(-9, 9, size=(5,)).astype(np.int32), 0x1E3D4C54),
            (rng.normal(size=(2, 6)).astype(np.float32), 0x1E3D4C51),
            (rng.normal(size=(3, 2, 2)).astype(np.float64), 0x1E3D4C53),
            (rng.integers(-100, 100, size=(7, 2)).astype(np.int16), 0x1E3D4C56),
        ]
        for i, (arr, code) in enumerate(cases):
            p = tmp_path / f"m{i}.mat"
            D.write_matrix(p, arr)
            extents = list(arr.shape) + [1] * max(0, 3 - arr.ndim)
            header = (struct.pack("<ii", code, arr.ndim)
                      + struct.pack(f"<{len(extents)}i", *extents))
            assert p.read_bytes()[:len(header)] == header
            back = D.read_matrix(p)
            assert back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_reencode_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 255, size=(6, 2, 4, 4)).astype(np.uint8)
        p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
        D.write_matrix(p1, arr)
        D.write_matrix(p2, D.read_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mat"
        p.write_bytes(b"\x00\x01\x02\x03" + b"\x00" * 20)
        with pytest.raises(FormatError):
            D.read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.mat"
        D.write_matrix(p, np.arange(10, dtype=np.int32))
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            D.read_matrix(p)

    def test_extents_claiming_more_than_the_file_holds(self, tmp_path):
        # 2**42 bytes of uint8: checked against the file before any read
        p = tmp_path / "huge.mat"
        p.write_bytes(struct.pack("<5i", 0x1E3D4C55, 3, 2**14, 2**14, 2**14) + b"\x00")
        with pytest.raises(FormatError, match="truncated payload"):
            D.read_matrix(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.mat"
        p.write_bytes(b"\x55\x4c\x3d\x1e\x02")
        with pytest.raises(FormatError):
            D.read_matrix(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "g.mat"
        D.write_matrix(p, np.zeros(3, dtype=np.uint8))
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError):
            D.read_matrix(p)

    def test_low_rank_extent_padding(self, tmp_path):
        # rank-1 arrays still carry three extents in the header
        p = tmp_path / "r1.mat"
        D.write_matrix(p, np.arange(4, dtype=np.int32))
        blob = p.read_bytes()
        assert len(blob) == 8 + 12 + 16
        back = D.read_matrix(p)
        assert back.shape == (4,)


def _write_stereo_fixture(dir_, split, n=12, h=8, w=8, n_cat=2, seed=0):
    rng = np.random.default_rng(seed)
    dat = rng.integers(0, 256, size=(n, 2, h, w)).astype(np.uint8)
    cat = np.repeat(np.arange(n_cat), n // n_cat).astype(np.int32)
    info = np.zeros((n, 4), dtype=np.int32)
    info[:, 0] = np.tile(np.arange(n // n_cat), n_cat) % 3  # instance ids
    D.write_matrix(dir_ / f"fixture-{split}-dat.mat", dat)
    D.write_matrix(dir_ / f"fixture-{split}-cat.mat", cat)
    D.write_matrix(dir_ / f"fixture-{split}-info.mat", info)
    return dat, cat, info


class TestStereoLoader:
    def test_loads_both_splits(self, tmp_path):
        _write_stereo_fixture(tmp_path, "training", seed=1)
        _write_stereo_fixture(tmp_path, "testing", seed=2)
        train, test = D.load_smallnorb(tmp_path, expected_examples=None)
        assert len(train) == 12 and len(test) == 12
        assert train.image_shape == (8, 8, 2)
        assert train.images.dtype == np.float32
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_channels_match_cameras(self, tmp_path):
        dat, _, _ = _write_stereo_fixture(tmp_path, "training", seed=3)
        _write_stereo_fixture(tmp_path, "testing", seed=4)
        train, _ = D.load_smallnorb(tmp_path, expected_examples=None)
        np.testing.assert_allclose(train.images[0, :, :, 0], dat[0, 0] / 255.0)
        np.testing.assert_allclose(train.images[0, :, :, 1], dat[0, 1] / 255.0)

    def test_instance_semantics_distinguish_same_category(self, tmp_path):
        _write_stereo_fixture(tmp_path, "training", seed=5)
        _write_stereo_fixture(tmp_path, "testing", seed=6)
        train, _ = D.load_smallnorb(tmp_path, expected_examples=None)
        cats = train.metadata["categories"]
        ids = train.class_ids
        same_cat = (cats[0] == cats[1])
        assert same_cat  # fixture packs categories contiguously
        # different instances within a category get different class ids
        inst = train.metadata["instances"]
        for i in range(1, len(train)):
            if cats[i] == cats[0] and inst[i] != inst[0]:
                assert ids[i] != ids[0]

    def test_count_mismatch_rejected(self, tmp_path):
        _write_stereo_fixture(tmp_path, "training", seed=9)
        _write_stereo_fixture(tmp_path, "testing", seed=10)
        with pytest.raises(DataError):
            D.load_smallnorb(tmp_path, expected_examples=24300)

    def test_missing_file_rejected(self, tmp_path):
        _write_stereo_fixture(tmp_path, "training", seed=11)
        with pytest.raises(DataError):
            D.load_smallnorb(tmp_path, expected_examples=None)

    @pytest.mark.parametrize("kind,dtype", [("dat", np.float32), ("dat", np.int32),
                                            ("cat", np.float64), ("info", np.float32)])
    def test_block_of_another_dtype_rejected(self, tmp_path, kind, dtype):
        blocks = dict(zip(("dat", "cat", "info"),
                          _write_stereo_fixture(tmp_path, "training", seed=14)))
        D.write_matrix(tmp_path / f"fixture-training-{kind}.mat", blocks[kind].astype(dtype))
        with pytest.raises(DataError, match=f"training: .* dtype {np.dtype(dtype)}, expected"):
            D.load_smallnorb_split(tmp_path, "training", expected_examples=None)

    def test_deterministic_reload(self, tmp_path):
        _write_stereo_fixture(tmp_path, "training", seed=12)
        _write_stereo_fixture(tmp_path, "testing", seed=13)
        a, _ = D.load_smallnorb(tmp_path, expected_examples=None)
        b, _ = D.load_smallnorb(tmp_path, expected_examples=None)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.class_ids, b.class_ids)


class TestPgm:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        img = rng.integers(0, 256, size=(6, 5)) / 255.0
        p = tmp_path / "x.pgm"
        D.write_pgm(p, img)
        back = D.read_pgm(p)
        np.testing.assert_allclose(back, img, atol=1e-9)

    def test_max_pixel_maps_to_one(self, tmp_path):
        p = tmp_path / "one.pgm"
        p.write_bytes(b"P5\n2 1\n255\n\xff\x00")
        img = D.read_pgm(p)
        np.testing.assert_allclose(img, [[1.0, 0.0]])

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 # trailing\n1\n# more\n255\n\x80\x40")
        img = D.read_pgm(p)
        assert img.shape == (1, 2)
        np.testing.assert_allclose(img, [[128 / 255, 64 / 255]])

    def test_sixteen_bit_big_endian(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x01\x00")
        np.testing.assert_allclose(D.read_pgm(p), [[256 / 65535]])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "p2.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            D.read_pgm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\nwide 1\n255\n\x00")
        with pytest.raises(FormatError):
            D.read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n3 3\n255\n\x00\x00")
        with pytest.raises(FormatError):
            D.read_pgm(p)


def _write_face_tree(root, n_classes=3, per_class=2, h=6, w=5, seed=0):
    rng = np.random.default_rng(seed)
    for cls in range(1, n_classes + 1):
        sub = root / f"s{cls}"
        sub.mkdir()
        for i in range(1, per_class + 1):
            D.write_pgm(sub / f"{i}.pgm", rng.uniform(size=(h, w)))


class TestFaceTree:
    def test_loads_classes_and_paths(self, tmp_path):
        _write_face_tree(tmp_path, n_classes=4, per_class=3)
        ds = D.load_pgm_faces(tmp_path)
        assert len(ds) == 12
        assert len(ds.classes) == 4
        counts = [np.sum(ds.class_ids == c) for c in ds.classes]
        assert counts == [3, 3, 3, 3]

    def test_ragged_dims_rejected(self, tmp_path):
        _write_face_tree(tmp_path, n_classes=2, per_class=1)
        D.write_pgm(tmp_path / "s1" / "2.pgm", np.zeros((3, 3)))
        with pytest.raises(DataError):
            D.load_pgm_faces(tmp_path)

    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(DataError):
            D.load_pgm_faces(tmp_path)

    def test_export_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        imgs = rng.uniform(size=(6, 8, 8))
        ds = D.Dataset(imgs, [0, 0, 1, 1, 2, 2], source="")
        out = tmp_path / "tree"
        D.export_pgm_tree(ds, out)
        back = D.load_pgm_faces(out)
        assert len(back) == 6
        np.testing.assert_allclose(back.images, np.rint(imgs * 255) / 255, atol=1e-9)


class TestSyntheticAnodes:
    def test_classes_pairwise_distinct(self):
        spec = D.SyntheticAnodeSpec(size=(32, 32), seed=3)
        ds = D.generate_synthetic_anodes(spec, n_classes=6, views_per_class=1)
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.array_equal(ds.images[i], ds.images[j])

    def test_views_share_stub_positions(self, monkeypatch):
        monkeypatch.setattr(D, "_TEXTURE", 0.0)
        spec = D.SyntheticAnodeSpec(size=(32, 32), seed=4)
        ds = D.generate_synthetic_anodes(spec, n_classes=3, views_per_class=3)
        # with no texture noise, stubs stay above 0.66 and background below
        for cls in range(3):
            views = ds.images[ds.class_ids == cls]
            masks = [v > 0.66 for v in views]
            for m in masks[1:]:
                assert np.array_equal(masks[0], m)
        m0 = ds.images[0] > 0.66
        m1 = ds.images[ds.class_ids == 1][0] > 0.66
        assert not np.array_equal(m0, m1)

    def test_deterministic(self):
        spec = D.SyntheticAnodeSpec(size=(24, 24), seed=5)
        a = D.generate_synthetic_anodes(spec, 2, 2)
        b = D.generate_synthetic_anodes(spec, 2, 2)
        assert np.array_equal(a.images, b.images)

    def test_values_in_unit_range(self, monkeypatch):
        # noise this strong pushes raw values past both ends of [0, 1]
        monkeypatch.setattr(D, "_TEXTURE", 0.3)
        spec = D.SyntheticAnodeSpec(size=(24, 24), seed=6)
        ds = D.generate_synthetic_anodes(spec, 2, 2)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            D.SyntheticAnodeSpec(size=(4, 64), seed=0)


class TestKfold:
    def _dataset(self, n_classes=4, per_class=10, seed=7):
        rng = np.random.default_rng(seed)
        n = n_classes * per_class
        return D.Dataset(
            rng.uniform(size=(n, 4, 4)), np.repeat(np.arange(n_classes), per_class),
            source="",
        )

    def test_fold_sizes(self):
        ds = self._dataset(n_classes=40, per_class=10)
        train, val = D.kfold_split(ds, 10, 0, seed=1)
        assert len(val) == 40
        assert len(train) == 360

    def test_folds_partition_dataset(self):
        ds = self._dataset()
        seen = []
        for i in range(5):
            _, val = D.kfold_split(ds, 5, i, seed=2)
            # recover original indices by matching images
            for img in val.images:
                matches = np.flatnonzero((ds.images == img).all(axis=(1, 2)))
                assert len(matches) == 1
                seen.append(matches[0])
        assert sorted(seen) == list(range(len(ds)))

    def test_stratified(self):
        ds = self._dataset(n_classes=3, per_class=6)
        _, val = D.kfold_split(ds, 3, 1, seed=3)
        counts = [np.sum(val.class_ids == c) for c in range(3)]
        assert counts == [2, 2, 2]

    def test_deterministic(self):
        ds = self._dataset()
        a = D.kfold_split(ds, 4, 2, seed=4)[1]
        b = D.kfold_split(ds, 4, 2, seed=4)[1]
        assert np.array_equal(a.images, b.images)

    def test_k_larger_than_smallest_class(self):
        ds = self._dataset(n_classes=2, per_class=3)
        with pytest.raises(ConfigError):
            D.kfold_split(ds, 4, 0, seed=0)

    def test_bad_fold_index(self):
        ds = self._dataset()
        with pytest.raises(ConfigError):
            D.kfold_split(ds, 4, 4, seed=0)


class TestDownscale:
    def test_block_mean(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        out = D.downscale(img, 2)
        np.testing.assert_allclose(out, [[[2.5, 4.5], [10.5, 12.5]]])

    def test_channels_preserved(self):
        img = np.random.default_rng(8).uniform(size=(2, 4, 6, 3))
        out = D.downscale(img, 2)
        assert out.shape == (2, 2, 3, 3)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            D.downscale(np.zeros((1, 5, 4)), 2)

    def test_dataset_wrapper(self):
        ds = D.Dataset(np.zeros((4, 8, 8)), [0, 0, 1, 1], source="")
        small = D.downscale_dataset(ds, 2)
        assert small.image_shape == (4, 4)
        assert np.array_equal(small.class_ids, ds.class_ids)
