"""Appearance augmentation simulating manufacturing-induced change.

The chain is: rotate about the image center, shift brightness, perturb
fine contours with band-limited noise, then composite blurred burn-off
circles.  Every step is seeded and preserves shape and the [0,1] range.
``AugmentConfig`` is the one place that checks the settings: every value
must be finite and within its bounds.  ``apply_params`` skips each step
whose drawn value is its identity, so with all parameters there the
pipeline returns a float64 copy of the input, bit-for-bit.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigError
from .rng import derive_rng


def _rotate(img, angle_deg, background):
    """Rotate a 2-D image about its center with bilinear resampling.

    Positive angles follow the row/col convention where 90 degrees equals
    np.rot90(img, 1).  Out-of-frame samples take the background value.
    """
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(angle_deg % 360.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rr, cc = np.mgrid[0:h, 0:w]
    y = rr - cy
    x = cc - cx
    # inverse map: where did this output pixel come from
    src_r = cos_t * y + sin_t * x + cy
    src_c = -sin_t * y + cos_t * x + cx

    # tolerate float fuzz at the frame edge (exact quarter turns land a
    # hair outside otherwise), then clamp for sampling
    eps = 1e-6
    valid = (src_r >= -eps) & (src_r <= h - 1 + eps) & (src_c >= -eps) & (src_c <= w - 1 + eps)
    src_r = np.clip(src_r, 0.0, h - 1.0)
    src_c = np.clip(src_c, 0.0, w - 1.0)
    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    dr = src_r - r0
    dc = src_c - c0
    top = img[r0, c0] * (1 - dc) + img[r0, c1] * dc
    bottom = img[r1, c0] * (1 - dc) + img[r1, c1] * dc
    out = top * (1 - dr) + bottom * dr
    return np.where(valid, out, background)


def _contour_noise(img, amplitude, sigma, seed):
    """Add band-limited noise: white noise blurred to ``sigma``, unit-scaled,
    times ``amplitude``."""
    rng = derive_rng(seed, "contour")
    noise = gaussian_filter(rng.normal(size=img.shape), sigma=sigma)
    std = noise.std()
    if std > 0:
        noise = noise / std
    return np.clip(img + amplitude * noise, 0.0, 1.0)


def _burn_circles(img, count, radii, intensities, sigma, seed):
    """Composite ``count`` Gaussian-blurred discs at seeded positions.

    Radii and intensities are (lo, hi) ranges; intensities may be negative
    to darken.  The overlay is blurred as a whole, added, then clamped.
    """
    rng = derive_rng(seed, "circles")
    h, w = img.shape
    overlay = np.zeros_like(img)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(count):
        cy = rng.uniform(0, h - 1)
        cx = rng.uniform(0, w - 1)
        r = rng.uniform(*radii)
        val = rng.uniform(*intensities)
        overlay[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] += val
    if sigma > 0:
        overlay = gaussian_filter(overlay, sigma=sigma)
    return np.clip(img + overlay, 0.0, 1.0)


def _number(name, value, lo_bound=None):
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if lo_bound is not None and value < lo_bound:
        raise ConfigError(f"{name} must be >= {lo_bound}, got {value}")
    return value


def _range(name, pair, lo_bound=None):
    lo, hi = pair
    lo, hi = _number(f"{name} range", lo, lo_bound), _number(f"{name} range", hi)
    if lo > hi:
        raise ConfigError(f"{name} range must be ordered, got {pair}")
    return lo, hi


class AugmentConfig:
    """Parameter ranges for the augmentation chain; one draw per image."""

    def __init__(self, rotation=(-180.0, 180.0), brightness=(-0.2, 0.2),
                 burn_count=(0, 3), burn_radius=(2.0, 6.0),
                 burn_intensity=(-0.4, 0.4), blur_sigma=1.5,
                 contour_amplitude=0.02, contour_sigma=1.0,
                 background=0.0, seed=0):
        self.rotation = _range("rotation", rotation)
        self.brightness = _range("brightness", brightness)
        if not (-1.0 <= self.brightness[0] and self.brightness[1] <= 1.0):
            raise ConfigError(f"brightness range must lie within [-1, 1], got {brightness}")
        lo, hi = _range("burn count", burn_count, lo_bound=0)
        if not (lo.is_integer() and hi.is_integer()):
            raise ConfigError(f"burn count bounds must be whole numbers, got {burn_count}")
        self.burn_count = (int(lo), int(hi))
        self.burn_radius = _range("burn radius", burn_radius, lo_bound=1.0)
        self.burn_intensity = _range("burn intensity", burn_intensity)
        self.blur_sigma = _number("blur sigma", blur_sigma, lo_bound=0.0)
        self.contour_amplitude = _number("contour amplitude", contour_amplitude, lo_bound=0.0)
        self.contour_sigma = _number("contour sigma", contour_sigma, lo_bound=0.0)
        self.background = _number("background", background)
        self.seed = int(seed)


def draw_params(config, seed):
    """Sample one set of concrete augmentation parameters from the config."""
    rng = derive_rng(seed, "augment-draw")
    return {
        "angle": float(rng.uniform(*config.rotation)),
        "brightness": float(rng.uniform(*config.brightness)),
        "contour_amplitude": config.contour_amplitude,
        "contour_seed": int(rng.integers(0, 2**32)),
        "burn_count": int(rng.integers(config.burn_count[0], config.burn_count[1] + 1)),
        "burn_seed": int(rng.integers(0, 2**32)),
    }


def apply_params(img, params, config):
    """Run the chain with concrete parameters (rotate, brightness, contour
    noise, circles), in that order, on a float64 copy of ``img``."""
    out = np.array(img, dtype=np.float64)
    if params["angle"] % 360.0 != 0.0:
        out = _rotate(out, params["angle"], config.background)
    if params["brightness"] != 0.0:
        out = np.clip(out + params["brightness"], 0.0, 1.0)
    if params["contour_amplitude"] > 0:
        out = _contour_noise(out, params["contour_amplitude"], config.contour_sigma,
                             params["contour_seed"])
    if params["burn_count"] > 0:
        out = _burn_circles(out, params["burn_count"], config.burn_radius,
                            config.burn_intensity, config.blur_sigma, params["burn_seed"])
    return out
