"""Appearance augmentation simulating manufacturing-induced change.

The chain is: rotate about the image center, shift brightness, perturb
fine contours with band-limited noise, then composite blurred burn-off
circles.  Every step is seeded and preserves shape and the [0,1] range;
with all parameters at their identity values the pipeline returns the
input bit-for-bit.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigError
from .rng import derive_rng


def rotate_center(img, angle_deg, background=0.0):
    """Rotate a 2-D image about its center with bilinear resampling.

    Positive angles follow the row/col convention where 90 degrees equals
    np.rot90(img, 1).  Out-of-frame samples take the background value.
    """
    if not np.isfinite(angle_deg):
        raise ConfigError(f"angle must be finite, got {angle_deg}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigError(f"rotation expects a 2-D image, got shape {img.shape}")
    angle = angle_deg % 360.0
    if angle == 0.0:
        return img.copy()
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(angle)
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


def adjust_brightness(img, delta):
    """Add a constant and clamp to [0,1]; |delta| is at most 1."""
    if abs(delta) > 1:
        raise ConfigError(f"brightness delta must satisfy |delta| <= 1, got {delta}")
    img = np.asarray(img)
    if delta == 0.0:
        return img.copy()
    return np.clip(img + delta, 0.0, 1.0)


def contour_noise(img, amplitude, sigma=1.0, seed=0):
    """Add band-limited noise: white noise blurred to ``sigma``, unit-scaled,
    times ``amplitude``."""
    if amplitude < 0:
        raise ConfigError(f"amplitude must be >= 0, got {amplitude}")
    img = np.asarray(img)
    if amplitude == 0.0:
        return img.copy()
    rng = derive_rng(seed, "contour")
    noise = gaussian_filter(rng.normal(size=img.shape), sigma=sigma)
    std = noise.std()
    if std > 0:
        noise = noise / std
    return np.clip(img + amplitude * noise, 0.0, 1.0)


def overlay_blurred_circles(img, count, radii, intensities, sigma, seed=0):
    """Composite ``count`` Gaussian-blurred discs at seeded positions.

    Radii and intensities are (lo, hi) ranges; intensities may be negative
    to darken.  The overlay is blurred as a whole, added, then clamped.
    """
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    img = np.asarray(img, dtype=np.float64)
    if count == 0:
        return img.copy()
    r_lo, r_hi = radii
    i_lo, i_hi = intensities
    if r_lo < 1 or r_lo > r_hi:
        raise ConfigError(f"radius range must satisfy 1 <= lo <= hi, got {radii}")
    rng = derive_rng(seed, "circles")
    h, w = img.shape
    overlay = np.zeros_like(img)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(count):
        cy = rng.uniform(0, h - 1)
        cx = rng.uniform(0, w - 1)
        r = rng.uniform(r_lo, r_hi)
        val = rng.uniform(i_lo, i_hi)
        overlay[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] += val
    if sigma > 0:
        overlay = gaussian_filter(overlay, sigma=sigma)
    return np.clip(img + overlay, 0.0, 1.0)


def _range(name, pair, lo_bound=None):
    lo, hi = (float(v) for v in pair)
    if lo > hi:
        raise ConfigError(f"{name} range must be ordered, got {pair}")
    if lo_bound is not None and lo < lo_bound:
        raise ConfigError(f"{name} range must start at >= {lo_bound}, got {pair}")
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
        lo, hi = (int(v) for v in burn_count)
        if lo < 0 or lo > hi:
            raise ConfigError(f"burn count range must satisfy 0 <= lo <= hi, got {burn_count}")
        self.burn_count = (lo, hi)
        self.burn_radius = _range("burn radius", burn_radius, lo_bound=1.0)
        self.burn_intensity = _range("burn intensity", burn_intensity)
        if blur_sigma < 0:
            raise ConfigError(f"blur sigma must be >= 0, got {blur_sigma}")
        self.blur_sigma = float(blur_sigma)
        if contour_amplitude < 0:
            raise ConfigError(f"contour amplitude must be >= 0, got {contour_amplitude}")
        self.contour_amplitude = float(contour_amplitude)
        self.contour_sigma = float(contour_sigma)
        self.background = float(background)
        self.seed = int(seed)


def draw_params(config, seed=None):
    """Sample one set of concrete augmentation parameters from the config."""
    root = config.seed if seed is None else seed
    rng = derive_rng(root, "augment-draw")
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
    noise, circles), in that order."""
    out = np.asarray(img, dtype=np.float64)
    if params["angle"] % 360.0 != 0.0:
        out = rotate_center(out, params["angle"], background=config.background)
    out = adjust_brightness(out, params["brightness"])
    if params["contour_amplitude"] > 0:
        out = contour_noise(out, params["contour_amplitude"],
                            sigma=config.contour_sigma, seed=params["contour_seed"])
    if params["burn_count"] > 0:
        out = overlay_blurred_circles(out, params["burn_count"], config.burn_radius,
                                      config.burn_intensity, config.blur_sigma,
                                      seed=params["burn_seed"])
    return out


def write_sidecar(path, mapping):
    """Record the drawn parameters as sorted key=value lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(mapping):
            f.write(f"{key}={mapping[key]}\n")


def read_sidecar(path):
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out
