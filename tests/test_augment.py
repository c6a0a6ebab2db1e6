import numpy as np
import pytest

from oneshotid import augment as A
from oneshotid.errors import ConfigError


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
        out = A.apply_params(img, A.draw_params(cfg), cfg)
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
        a = A.apply_params(img, A.draw_params(cfg), cfg)
        b = A.apply_params(img, A.draw_params(cfg), cfg)
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


class TestSidecar:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "img.pgm.meta"
        A.write_sidecar(p, {"source": "a.pgm", "seed": 7, "angle": 12.5})
        back = A.read_sidecar(p)
        assert back == {"source": "a.pgm", "seed": "7", "angle": "12.5"}

    def test_sorted_lines_lf(self, tmp_path):
        p = tmp_path / "m.meta"
        A.write_sidecar(p, {"b": 1, "a": 2})
        blob = p.read_bytes()
        assert blob == b"a=2\nb=1\n"
