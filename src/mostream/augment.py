"""Crop/flip augmentation geometry and its application to input volumes.

Training draws a random multi-scale crop (side lengths are fractions of
the short frame side, positioned at one of the four corners or the
center, flipped with probability 1/2). Testing enumerates the fixed
ten-crop set: five positions plus their horizontal mirrors. Crops are
resized to a square network input with bilinear interpolation.

Flipping a volume mirrors raw pixels on every channel; orientation and
x-displacement values are deliberately not remapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import Rng, resize_bilinear, rng_uniform
from .volume import InputVolume

# {256, 224, 192, 168} / 256, expressed as fractions of the short side so
# the same geometry applies at any frame scale.
DEFAULT_SCALE_FRACTIONS = (1.0, 0.875, 0.75, 0.65625)


@dataclass(frozen=True)
class CropSpec:
    x: int
    y: int
    crop_w: int
    crop_h: int
    flip: bool
    out_side: int

    def __post_init__(self):
        if self.crop_w < 1 or self.crop_h < 1 or self.out_side < 1:
            raise ValueError("crop dimensions and out_side must be >= 1")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"crop origin must be non-negative, got ({self.x}, {self.y})")


def _five_origins(w: int, h: int, crop_w: int, crop_h: int) -> tuple[tuple[int, int], ...]:
    """(x, y) origins of the four corner crops and the centered crop."""
    if crop_w > w or crop_h > h:
        raise ValueError(f"crop {crop_w}x{crop_h} larger than source {w}x{h}")
    dx = w - crop_w
    dy = h - crop_h
    return (0, 0), (dx, 0), (0, dy), (dx, dy), (dx // 2, dy // 2)


def five_crops(w: int, h: int, crop_w: int, crop_h: int, out_side: int) -> list[CropSpec]:
    """Four corner crops plus the centered crop, unflipped."""
    return [CropSpec(x, y, crop_w, crop_h, False, out_side) for x, y in _five_origins(w, h, crop_w, crop_h)]


def ten_crops(w: int, h: int, crop_w: int, crop_h: int, out_side: int) -> list[CropSpec]:
    """five_crops followed by the same five with horizontal flip."""
    base = five_crops(w, h, crop_w, crop_h, out_side)
    flipped = [CropSpec(c.x, c.y, c.crop_w, c.crop_h, True, out_side) for c in base]
    return base + flipped


def random_multiscale_crop(w: int, h: int, rng: Rng, out_side: int) -> CropSpec:
    """Random crop: independent width/height fractions of the short side,
    position among the five canonical crops, flip with probability 1/2."""
    base = min(w, h)
    fractions = DEFAULT_SCALE_FRACTIONS
    crop_w = int(np.floor(fractions[rng_uniform(rng, len(fractions))] * base + 0.5))
    crop_h = int(np.floor(fractions[rng_uniform(rng, len(fractions))] * base + 0.5))
    crop_w = max(1, crop_w)
    crop_h = max(1, crop_h)
    x, y = _five_origins(w, h, crop_w, crop_h)[rng_uniform(rng, 5)]
    flip = rng_uniform(rng, 2) == 1
    return CropSpec(x, y, crop_w, crop_h, flip, out_side)


def apply_crop(volume: InputVolume, spec: CropSpec) -> InputVolume:
    """Crop, optionally mirror, and resize a volume to out_side x out_side."""
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ValueError(f"expected (C, H, W) volume, got shape {volume.shape}")
    _, h, w = volume.shape
    if spec.x + spec.crop_w > w or spec.y + spec.crop_h > h:
        raise ValueError(
            f"crop {spec.crop_w}x{spec.crop_h} at ({spec.x}, {spec.y}) exceeds {w}x{h} volume"
        )
    window = volume[:, spec.y : spec.y + spec.crop_h, spec.x : spec.x + spec.crop_w]
    if spec.flip:
        window = window[:, :, ::-1]
    return resize_bilinear(window, spec.out_side, spec.out_side)
