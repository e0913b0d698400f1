"""Shared raster types, sampling primitives, and deterministic randomness.

Conventions used across the package:

* Images are 2-D numpy arrays in row-major (height, width) layout.
  ``GrayImage`` is float64, ``ByteImage`` is uint8 with values in [0, 255].
* All out-of-raster sampling clamps coordinates to the border pixel.
* The samplers ``bilinear_map`` and ``resize_bilinear`` keep float32 input
  in float32, weights and result, so that a float32 caller (the TV-L1
  solver) stays in single precision; any other input is computed in
  float64.
* Randomness flows through ``numpy.random.Generator`` instances backed by
  the published PCG64 generator, seeded via ``make_rng`` so that streams
  are reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Type aliases for the two raster carriers. A GrayImage holds real values
# (float64), a ByteImage holds 8-bit levels; both are (height, width).
GrayImage = np.ndarray
ByteImage = np.ndarray

Rng = np.random.Generator


@dataclass(frozen=True)
class RescaleBounds:
    """Closed interval [low, high] used for linear byte rescaling."""

    low: float
    high: float

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ValueError(f"rescale bounds must be finite, got ({self.low}, {self.high})")
        if not self.low < self.high:
            raise ValueError(f"rescale bounds require low < high, got ({self.low}, {self.high})")
        # The byte scale 255 * (value - low) / (high - low) must stay finite for in-range values.
        if not np.isfinite(255.0 * (self.high - self.low)):
            raise ValueError(f"rescale bounds ({self.low}, {self.high}) span too wide a range to scale to bytes")


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement field: u horizontal, v vertical, pixels/frame."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError(f"flow components must be matching 2-D arrays, got {u.shape} and {v.shape}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("flow field contains non-finite values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


def _float_image(img) -> np.ndarray:
    # float32 stays float32; anything else becomes float64.
    img = np.asarray(img)
    return img if img.dtype == np.float32 else img.astype(np.float64, copy=False)


def bilinear_map(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the last two axes of an (..., H, W) image
    at real coordinate arrays (xs, ys).

    The image's leading axes broadcast against the coordinates' axes before
    their last two, so one set of points samples every channel: an
    (N, C, H, W) image at (N, 1, h, w) points gives (N, C, h, w). Coordinates
    outside the raster clamp to the border pixel, so the result is always
    bounded by the min/max of the source pixels.
    """
    img = _float_image(img)
    *lead, h, w = img.shape
    xc = np.clip(np.asarray(xs, dtype=img.dtype), 0.0, float(w - 1))
    yc = np.clip(np.asarray(ys, dtype=img.dtype), 0.0, float(h - 1))
    # The weights come from the float floor: subtracting an integer index
    # would promote float32 to float64.
    xf = np.floor(xc)
    yf = np.floor(yc)
    fx = xc - xf
    fy = yc - yf
    x0 = xf.astype(np.intp)
    y0 = yf.astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # Flat offsets of the rows y0 and y1 in every image.
    base = (np.arange(math.prod(lead)) * (h * w)).reshape(*lead, 1, 1) if lead else 0
    row0 = base + y0 * w
    row1 = base + y1 * w
    flat = img.reshape(-1)
    gx = 1.0 - fx
    top = flat.take(row0 + x0) * gx + flat.take(row0 + x1) * fx
    bot = flat.take(row1 + x0) * gx + flat.take(row1 + x1) * fx
    return top * (1.0 - fy) + bot * fy


@functools.lru_cache(maxsize=256)
def _resize_axis(in_size: int, out_size: int, dtype: np.dtype):
    """Corner-aligned sample indices (i0, i1) and weights (f, 1 - f) of one
    resize axis, read-only so that every caller can share them. The
    weights are computed in float64 and rounded once to `dtype`."""
    pos = np.linspace(0.0, in_size - 1.0, out_size)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, in_size - 1)
    f = (pos - i0).astype(dtype, copy=False)
    g = 1.0 - f
    for a in (i0, i1, f, g):
        a.flags.writeable = False
    return i0, i1, f, g


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of the last two axes of (..., H, W):
    a horizontal pass, then a blend of rows, each output element getting the
    arithmetic of ``bilinear_map`` on the output grid."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"invalid output size {out_h}x{out_w}")
    img = _float_image(img)
    in_h, in_w = img.shape[-2:]
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    x0, x1, fx, gx = _resize_axis(in_w, out_w, img.dtype)
    y0, y1, fy, gy = _resize_axis(in_h, out_h, img.dtype)
    # rows = img[..., x0] * (1 - fx) + img[..., x1] * fx, and likewise down
    # the rows, each product and sum rounded as in that expression.
    rows = np.take(img, x0, axis=-1)
    rows *= gx
    part = np.take(img, x1, axis=-1)
    part *= fx
    rows += part
    out = np.take(rows, y0, axis=-2)
    out *= gy[:, None]
    part = np.take(rows, y1, axis=-2)
    part *= fy[:, None]
    out += part
    return out


def to_gray(rgb: np.ndarray) -> GrayImage:
    """RGB (H, W, 3) to luma using the 0.299/0.587/0.114 weights."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB array, got shape {rgb.shape}")
    return 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]


def make_rng(seed: int, stream: int = 0) -> Rng:
    """Deterministic PCG64 generator for (seed, stream).

    Distinct streams derived from one seed are statistically independent;
    the same (seed, stream) pair yields an identical sequence on every
    platform, which all reproducibility tests rely on.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(seq))


def rng_uniform(rng: Rng, n: int) -> int:
    """Uniform integer in [0, n), advancing the generator state."""
    if n < 1:
        raise ValueError(f"rng_uniform needs n >= 1, got {n}")
    return int(rng.integers(n))
