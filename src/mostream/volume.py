"""Stacked network input volumes and temporal sampling.

A volume stacks L consecutive byte-image pairs into a 2L-channel float
tensor: channels (2k, 2k+1) hold the k-th pair in order, e.g. magnitude
then orientation. Bytes map to reals via (b - 128) / 128 so that the
"no motion" byte level 128 sits at exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .raster import Rng, rng_uniform

DEFAULT_STACK_LENGTH = 10

# A volume is a (C, H, W) float64 tensor with C = 2 * stack_length.
InputVolume = np.ndarray


@dataclass(frozen=True)
class StackSpec:
    """Stack length for volume construction; channel interleave order and
    the (b - 128) / 128 normalization are fixed rules."""

    stack_length: int = DEFAULT_STACK_LENGTH

    def __post_init__(self):
        if self.stack_length < 1:
            raise ValueError(f"stack_length must be >= 1, got {self.stack_length}")


def normalize_byte(img: np.ndarray) -> np.ndarray:
    """Byte level -> real in [-1, 1], centered so 128 maps to 0.0."""
    return (np.asarray(img, dtype=np.float64) - 128.0) / 128.0


def stack_volume(pairs: Sequence, start: int = 0, spec: StackSpec = StackSpec()) -> InputVolume:
    """Stack spec.stack_length pairs from `start` into a (2L, H, W) volume."""
    length = spec.stack_length
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if start + length > len(pairs):
        raise ValueError(
            f"need {length} pairs from start {start}, have {len(pairs)} available"
        )
    stacked = np.asarray(pairs[start : start + length])  # (L, 2, H, W)
    return normalize_byte(stacked).reshape(2 * length, *stacked.shape[2:])


def sample_train_start(pair_count: int, stack_length: int, rng: Rng) -> int:
    """Uniform random stack start over [0, pair_count - stack_length]."""
    if pair_count < stack_length:
        raise ValueError(f"{pair_count} pairs cannot hold a stack of {stack_length}")
    return rng_uniform(rng, pair_count - stack_length + 1)


def sample_test_starts(pair_count: int, stack_length: int, k: int) -> list[int]:
    """k uniformly spaced stack starts covering [0, pair_count - stack_length].

    Spacing rounds half-up to the nearest integer; short videos repeat
    start indices rather than failing.
    """
    if pair_count < stack_length:
        raise ValueError(f"{pair_count} pairs cannot hold a stack of {stack_length}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    span = pair_count - stack_length
    if k == 1:
        return [0]
    return [int(math.floor(i * span / (k - 1) + 0.5)) for i in range(k)]
