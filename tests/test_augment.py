import numpy as np
import pytest

from oneshotid import augment as A
from oneshotid import cli
from oneshotid.datasets import write_pgm
from oneshotid.errors import ConfigError
from oneshotid.rng import derive_seed


def _img(seed=0, size=(12, 12)):
    return np.random.default_rng(seed).uniform(size=size)


class TestRotate:
    def test_zero_angle_identity(self):
        img = _img(1)
        out = A.rotate_center(img, 0.0)
        assert np.array_equal(out, img)

    def test_full_turn_identity(self):
        img = _img(2)
        out = A.rotate_center(img, 360.0)
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_quarter_turns_match_index_rotation(self):
        img = _img(3, size=(9, 9))
        for k, angle in ((1, 90.0), (2, 180.0), (3, 270.0)):
            out = A.rotate_center(img, angle)
            np.testing.assert_allclose(out, np.rot90(img, k), atol=1e-6)

    def test_out_of_frame_uses_background(self):
        img = np.ones((8, 8))
        out = A.rotate_center(img, 45.0, background=0.25)
        assert np.isclose(out[0, 0], 0.25)

    def test_shape_preserved(self):
        img = _img(4, size=(7, 11))
        assert A.rotate_center(img, 33.0).shape == (7, 11)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ConfigError):
            A.rotate_center(_img(5), np.nan)


class TestBrightness:
    def test_zero_delta_identity(self):
        img = _img(6)
        assert np.array_equal(A.adjust_brightness(img, 0.0), img)

    def test_full_delta_saturates(self):
        out = A.adjust_brightness(_img(7), 1.0)
        np.testing.assert_allclose(out, np.ones_like(out))

    def test_arithmetic(self):
        out = A.adjust_brightness(np.full((3, 3), 0.5), -0.3)
        np.testing.assert_allclose(out, np.full((3, 3), 0.2))

    def test_rejects_large_delta(self):
        with pytest.raises(ConfigError):
            A.adjust_brightness(_img(8), 1.5)


class TestCircles:
    def test_zero_count_identity(self):
        img = _img(9)
        out = A.overlay_blurred_circles(img, 0, (2, 4), (0.1, 0.3), 1.0, seed=1)
        assert np.array_equal(out, img)

    def test_positive_disc_brightens(self):
        img = np.full((16, 16), 0.3)
        out = A.overlay_blurred_circles(img, 1, (3, 3), (0.3, 0.3), 1.0, seed=2)
        assert out.max() > 0.3

    def test_negative_disc_darkens(self):
        img = np.full((16, 16), 0.7)
        out = A.overlay_blurred_circles(img, 1, (3, 3), (-0.3, -0.3), 1.0, seed=3)
        assert out.min() < 0.7

    def test_deterministic(self):
        img = _img(10, size=(16, 16))
        a = A.overlay_blurred_circles(img, 3, (2, 5), (-0.2, 0.4), 1.5, seed=4)
        b = A.overlay_blurred_circles(img, 3, (2, 5), (-0.2, 0.4), 1.5, seed=4)
        assert np.array_equal(a, b)

    def test_radius_floor(self):
        with pytest.raises(ConfigError):
            A.overlay_blurred_circles(_img(11), 1, (0.5, 2), (0.1, 0.2), 1.0)


def _identity_config(seed=0):
    return A.AugmentConfig(rotation=(0, 0), brightness=(0, 0), burn_count=(0, 0),
                           contour_amplitude=0.0, seed=seed)


class TestPipeline:
    def test_identity_config_is_exact_identity(self):
        img = _img(12)
        cfg = _identity_config()
        out = A.apply_params(img, A.draw_params(cfg, 11), cfg)
        assert np.array_equal(out, img)

    def test_range_preserved_many_draws(self):
        cfg = A.AugmentConfig(rotation=(-180, 180), brightness=(-0.5, 0.5),
                              burn_count=(0, 4), burn_intensity=(-0.6, 0.6),
                              contour_amplitude=0.1, seed=13)
        img = _img(13, size=(10, 10))
        for k in range(200):
            out = A.apply_params(img, A.draw_params(cfg, k), cfg)
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_under_seed(self):
        cfg = A.AugmentConfig(seed=14)
        img = _img(14)
        a = A.apply_params(img, A.draw_params(cfg, 14), cfg)
        b = A.apply_params(img, A.draw_params(cfg, 14), cfg)
        assert np.array_equal(a, b)

    def test_distinct_seeds_distinct_outputs(self):
        cfg = A.AugmentConfig(seed=15, contour_amplitude=0.05)
        img = _img(15, size=(10, 10))
        outs = [A.apply_params(img, A.draw_params(cfg, k), cfg).tobytes() for k in range(1000)]
        assert len(set(outs)) >= 999

    def test_drawn_params_within_ranges(self):
        cfg = A.AugmentConfig(rotation=(-30, 30), brightness=(-0.1, 0.1),
                              burn_count=(1, 3), seed=16)
        for k in range(100):
            p = A.draw_params(cfg, seed=k)
            assert -30 <= p["angle"] <= 30
            assert -0.1 <= p["brightness"] <= 0.1
            assert 1 <= p["burn_count"] <= 3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            A.AugmentConfig(rotation=(10, -10))
        with pytest.raises(ConfigError):
            A.AugmentConfig(burn_radius=(0.2, 3))
        with pytest.raises(ConfigError):
            A.AugmentConfig(burn_count=(-1, 2))
        with pytest.raises(ConfigError):
            A.AugmentConfig(blur_sigma=-1)
        # settings the chain cannot honour: fractional burn counts and
        # brightness deltas beyond adjust_brightness's |delta| <= 1
        with pytest.raises(ConfigError, match="whole numbers"):
            A.AugmentConfig(burn_count=(0.5, 2.9))
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            A.AugmentConfig(brightness=(-1.2, 0.5))
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            A.AugmentConfig(brightness=(0.0, 1.5))
        cfg = A.AugmentConfig(burn_count=(0, 3.0), brightness=(-1, 1))
        assert cfg.burn_count == (0, 3) and cfg.brightness == (-1.0, 1.0)


class TestSidecar:
    """The ``<image>.txt`` file ``oneshotid augment`` writes next to each
    augmented image: the drawn parameters as sorted key=value lines."""

    def _sidecar(self, tmp_path):
        (tmp_path / "in" / "s1").mkdir(parents=True)
        write_pgm(str(tmp_path / "in" / "s1" / "1.pgm"), _img(17, size=(8, 8)))
        cfg = tmp_path / "aug.cfg"
        cfg.write_text("[augment]\nmultiplier = 1\nseed = 7\n")
        assert cli.main(["augment", "--in", str(tmp_path / "in"), "--recipe", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        return tmp_path / "out" / "s1" / "1-aug0.pgm.txt"

    def test_round_trip(self, tmp_path):
        lines = self._sidecar(tmp_path).read_text(encoding="utf-8").splitlines()
        drawn = A.draw_params(A.AugmentConfig(), derive_seed(7, "image", 0, 0))
        assert dict(line.split("=", 1) for line in lines) == {
            key: str(value) for key, value in drawn.items()}

    def test_sorted_lines_lf(self, tmp_path):
        blob = self._sidecar(tmp_path).read_bytes()
        assert blob.endswith(b"\n") and b"\r" not in blob
        keys = [line.split(b"=")[0] for line in blob.splitlines()]
        assert keys == sorted(keys) and len(keys) == 6
