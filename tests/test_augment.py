import hashlib

import numpy as np
import pytest

from oneshotid import augment as A
from oneshotid import cli
from oneshotid.datasets import write_pgm
from oneshotid.errors import ConfigError
from oneshotid.rng import derive_seed


def _img(seed=0, size=(12, 12)):
    return np.random.default_rng(seed).uniform(size=size)


RANGE_KEYS = ("rotation", "brightness", "burn_count", "burn_radius", "burn_intensity")
SCALAR_KEYS = ("blur_sigma", "contour_amplitude", "contour_sigma", "background")

# AugmentConfig settings that leave every step at its identity value.
_STILL = dict(rotation=(0, 0), brightness=(0, 0), burn_count=(0, 0), contour_amplitude=0.0)


def _config(**changes):
    return A.AugmentConfig(**{**_STILL, **changes})


def _augment(img, seed=0, **changes):
    """``img`` through ``apply_params`` with only ``changes`` away from
    their identity values."""
    cfg = _config(**changes)
    return A.apply_params(img, A.draw_params(cfg, seed), cfg)


class TestRotate:
    def test_zero_angle_identity(self):
        img = _img(1)
        out = _augment(img, rotation=(0, 0), background=0.25)
        assert np.array_equal(out, img)

    def test_full_turn_identity(self):
        img = _img(2)
        for angle in (360.0, -720.0):
            assert np.array_equal(_augment(img, rotation=(angle, angle)), img)

    def test_quarter_turns_match_index_rotation(self):
        img = _img(3, size=(9, 9))
        for k, angle in ((1, 90.0), (2, 180.0), (3, 270.0)):
            out = _augment(img, rotation=(angle, angle))
            np.testing.assert_allclose(out, np.rot90(img, k), atol=1e-6)

    def test_out_of_frame_uses_background(self):
        out = _augment(np.ones((8, 8)), rotation=(45, 45), background=0.25)
        assert np.isclose(out[0, 0], 0.25)

    def test_shape_preserved(self):
        img = _img(4, size=(7, 11))
        assert _augment(img, rotation=(33, 33)).shape == (7, 11)

    def test_rejects_non_finite_angle(self):
        for bound in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="rotation range must be finite"):
                A.AugmentConfig(rotation=(0, bound))


class TestBrightness:
    def test_zero_delta_identity(self):
        img = _img(6).astype(np.float32)
        out = _augment(img, brightness=(0, 0))
        assert out.dtype == np.float64 and np.array_equal(out, img)

    def test_full_delta_saturates(self):
        out = _augment(_img(7), brightness=(1, 1))
        np.testing.assert_allclose(out, np.ones_like(out))

    def test_arithmetic(self):
        out = _augment(np.full((3, 3), 0.5), brightness=(-0.3, -0.3))
        np.testing.assert_allclose(out, np.full((3, 3), 0.2))

    def test_rejects_large_delta(self):
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            A.AugmentConfig(brightness=(1.5, 1.5))


class TestCircles:
    def test_zero_count_identity(self):
        img = _img(9)
        out = _augment(img, seed=1, burn_count=(0, 0), burn_radius=(2, 4),
                       burn_intensity=(0.1, 0.3), blur_sigma=1.0)
        assert np.array_equal(out, img)

    def test_positive_disc_brightens(self):
        out = _augment(np.full((16, 16), 0.3), seed=2, burn_count=(1, 1), burn_radius=(3, 3),
                       burn_intensity=(0.3, 0.3), blur_sigma=1.0)
        assert out.max() > 0.3

    def test_negative_disc_darkens(self):
        out = _augment(np.full((16, 16), 0.7), seed=3, burn_count=(1, 1), burn_radius=(3, 3),
                       burn_intensity=(-0.3, -0.3), blur_sigma=1.0)
        assert out.min() < 0.7

    def test_deterministic(self):
        img = _img(10, size=(16, 16))
        burns = dict(burn_count=(3, 3), burn_radius=(2, 5), burn_intensity=(-0.2, 0.4),
                     blur_sigma=1.5)
        a = _augment(img, seed=4, **burns)
        assert not np.array_equal(a, img)
        assert np.array_equal(a, _augment(img, seed=4, **burns))

    def test_radius_floor(self):
        with pytest.raises(ConfigError, match="burn radius range must be >= 1.0, got 0.5"):
            A.AugmentConfig(burn_radius=(0.5, 2))


class TestPipeline:
    def test_identity_config_is_exact_identity(self):
        img = _img(12)
        cfg = _config()
        out = A.apply_params(img, A.draw_params(cfg, 11), cfg)
        assert np.array_equal(out, img)

    def test_range_preserved_many_draws(self):
        cfg = A.AugmentConfig(rotation=(-180, 180), brightness=(-0.5, 0.5),
                              burn_count=(0, 4), burn_intensity=(-0.6, 0.6),
                              contour_amplitude=0.1)
        img = _img(13, size=(10, 10))
        for k in range(200):
            out = A.apply_params(img, A.draw_params(cfg, k), cfg)
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_under_seed(self):
        cfg = A.AugmentConfig()
        img = _img(14)
        a = A.apply_params(img, A.draw_params(cfg, 14), cfg)
        b = A.apply_params(img, A.draw_params(cfg, 14), cfg)
        assert np.array_equal(a, b)

    def test_distinct_seeds_distinct_outputs(self):
        cfg = A.AugmentConfig(contour_amplitude=0.05)
        img = _img(15, size=(10, 10))
        outs = [A.apply_params(img, A.draw_params(cfg, k), cfg).tobytes() for k in range(1000)]
        assert len(set(outs)) >= 999

    def test_drawn_params_within_ranges(self):
        cfg = A.AugmentConfig(rotation=(-30, 30), brightness=(-0.1, 0.1),
                              burn_count=(1, 3))
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
        with pytest.raises(ConfigError, match="contour sigma must be >= 0"):
            A.AugmentConfig(contour_sigma=-1)
        # settings the chain cannot honour: non-finite values, fractional
        # burn counts and brightness deltas beyond |delta| <= 1
        for bad in (np.nan, np.inf, -np.inf):
            for key in RANGE_KEYS:
                for pair in ((bad, 1), (1, bad)):
                    with pytest.raises(ConfigError, match="range must be finite"):
                        A.AugmentConfig(**{key: pair})
            for key in SCALAR_KEYS:
                with pytest.raises(ConfigError, match="must be finite"):
                    A.AugmentConfig(**{key: bad})
        with pytest.raises(ConfigError, match="whole numbers"):
            A.AugmentConfig(burn_count=(0.5, 2.9))
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            A.AugmentConfig(brightness=(-1.2, 0.5))
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            A.AugmentConfig(brightness=(0.0, 1.5))
        cfg = A.AugmentConfig(burn_count=(0, 3.0), brightness=(-1, 1))
        assert cfg.burn_count == (0, 3) and cfg.brightness == (-1.0, 1.0)

    def test_never_returns_its_input(self):
        img = _img(18)
        for changes in ({}, {"rotation": (360, 360)}, {"brightness": (0.1, 0.1)}):
            cfg = _config(**changes)
            out = A.apply_params(img, A.draw_params(cfg, 18), cfg)
            assert out is not img and not np.shares_memory(out, img)
        cfg = A.AugmentConfig()
        assert not np.shares_memory(A.apply_params(img, A.draw_params(cfg, 18), cfg), img)


# (AugmentConfig changes to _STILL, draw seed, image, SHA-256 of the bytes
# apply_params returns).  The digests were taken before the chain's steps
# became private helpers, so a changed digest means changed augmentation.
GOLDEN_AUGMENT = {
    "identity": ({}, 11, lambda: _img(20),
                 "a45709c86a202fd87925cc3f0a29f0d66079698ba673f31ff74f3e3a676cb594"),
    "quarter-turn": ({"rotation": (90, 90)}, 12, lambda: _img(21, size=(9, 11)),
                     "6202cb2752b99bfb82e8c85db75e26baf90843263bc77e924dbe2dea65864e6d"),
    "full-turn": ({"rotation": (360, 360)}, 13, lambda: _img(22),
                  "e0097d009959da9b9c1aadbce8ddfa2d4b6aad30e6fa7efa4d566dcddc94883b"),
    "rotation-background": (
        {"rotation": (-15, 15), "brightness": (-0.05, 0.05), "background": 0.3}, 14,
        lambda: _img(23, size=(10, 14)),
        "4ff4c42b44d5245777904f4714561e088ce6c869cffb2f7770ad4a0b78b87a8e"),
    "burn-only": ({"burn_count": (2, 4), "burn_intensity": (-0.6, 0.6)}, 15,
                  lambda: np.full((16, 16), 0.3),
                  "2333d842bbe8fd6c9d13df1db26a9f3944c8baa07e7d9151c31ec0ac970643cd"),
    "burn-no-blur": ({"burn_count": (3, 3), "blur_sigma": 0.0}, 16,
                     lambda: _img(24, size=(16, 16)),
                     "118a807f88f613e088f1b2647af7a764adfbf2c52756f51fa3be20fa644c9775"),
    "contour-only": ({"contour_amplitude": 0.1, "contour_sigma": 0.0}, 17, lambda: _img(25),
                     "982bff3e9484c17c1b7f732e69fa8e606e1f7b544fc94d44e1feafecb6c3b79d"),
    "default": (None, 18, lambda: _img(26, size=(16, 16)),
                "885fc492a7b782804abfe02030ea061f9cdde53639ef90576458962c30e4538f"),
    "default-float32": (None, 19, lambda: _img(26, size=(16, 16)).astype(np.float32),
                        "6a262642dbc04ebe3fca40eaf8d648c0514b69a20e705e84776c4b6ee357e287"),
}


@pytest.mark.parametrize("case", list(GOLDEN_AUGMENT))
def test_apply_params_bytes_match_golden_digest(case):
    changes, seed, image, digest = GOLDEN_AUGMENT[case]
    cfg = A.AugmentConfig() if changes is None else _config(**changes)
    out = A.apply_params(image(), A.draw_params(cfg, seed), cfg)
    assert out.dtype == np.float64
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


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
