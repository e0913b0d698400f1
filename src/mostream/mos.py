"""Flow-to-image transforms: byte rescaling, magnitude, orientation, filtering.

A flow field becomes either a magnitude/orientation byte pair or a raw
x/y-component byte pair; ``STREAMS`` is the one table of these stream
kinds. The magnitude image doubles as a noise gate for the orientation
image: pixels whose rescaled magnitude stays below the threshold have
their angle forced to zero degrees before quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .raster import ByteImage, FlowField, GrayImage, RescaleBounds

# Default byte-coding ranges: displacements and magnitudes saturate at
# +-15 px/frame, angles span a full turn, and the orientation noise gate
# sits at the byte level corresponding to zero raw magnitude.
MAG_BOUNDS = RescaleBounds(-15.0, 15.0)
ORI_BOUNDS = RescaleBounds(-180.0, 180.0)
DEFAULT_MAG_THRESHOLD = 128


@dataclass(frozen=True)
class MosParams:
    mag_bounds: RescaleBounds = MAG_BOUNDS
    ori_bounds: RescaleBounds = ORI_BOUNDS
    mag_threshold: int = DEFAULT_MAG_THRESHOLD

    def __post_init__(self):
        if not 0 <= self.mag_threshold <= 255:
            raise ValueError(f"mag_threshold must be a byte level, got {self.mag_threshold}")


class MosPair(NamedTuple):
    """Byte-coded magnitude and filtered orientation for one frame transition."""

    magnitude: ByteImage
    orientation: ByteImage


class XyPair(NamedTuple):
    """Byte-coded horizontal and vertical flow components."""

    flow_x: ByteImage
    flow_y: ByteImage


def rescale_to_byte(value: float, bounds: RescaleBounds) -> int:
    """Linear map of a real value onto [0, 255] with saturation.

    Values below the lower bound clamp to 0, above the upper bound to 255;
    in between the result is round-half-up of 255*(value-low)/(high-low).
    """
    if value < bounds.low:
        return 0
    if value > bounds.high:
        return 255
    scaled = 255.0 * (value - bounds.low) / (bounds.high - bounds.low)
    return int(math.floor(scaled + 0.5))


def rescale_image(values: np.ndarray, bounds: RescaleBounds) -> ByteImage:
    """Vector form of rescale_to_byte."""
    values = np.asarray(values, dtype=np.float64)
    scaled = 255.0 * (values - bounds.low) / (bounds.high - bounds.low)
    quantized = np.floor(scaled + 0.5)
    quantized = np.where(values < bounds.low, 0.0, quantized)
    quantized = np.where(values > bounds.high, 255.0, quantized)
    return quantized.astype(np.uint8)


def magnitude(flow: FlowField) -> GrayImage:
    """Per-pixel Euclidean length of the displacement vector."""
    return np.hypot(flow.u, flow.v)


def orientation(flow: FlowField) -> GrayImage:
    """Per-pixel four-quadrant flow angle in degrees, range (-180, 180].

    A pixel with zero displacement maps to 0 degrees by definition.
    """
    deg = np.degrees(np.arctan2(flow.v, flow.u))
    return np.where(deg <= -180.0, deg + 360.0, deg)


def mos_images(flow: FlowField, params: MosParams = MosParams()) -> MosPair:
    """Magnitude/orientation byte pair for one flow field.

    The threshold compares against the rescaled magnitude byte; gated
    pixels carry a zero-degree angle, which quantizes to byte 128 exactly
    like genuine zero-angle motion.
    """
    mag_byte = rescale_image(magnitude(flow), params.mag_bounds)
    theta = orientation(flow)
    theta = np.where(mag_byte < params.mag_threshold, 0.0, theta)
    return MosPair(mag_byte, rescale_image(theta, params.ori_bounds))


def xy_images(flow: FlowField, bounds: RescaleBounds = MAG_BOUNDS) -> XyPair:
    """Byte pair of the raw horizontal/vertical flow components."""
    return XyPair(rescale_image(flow.u, bounds), rescale_image(flow.v, bounds))


class Stream(NamedTuple):
    """A temporal stream kind: the file prefixes of its two byte images,
    its pair type, and its coder `(flow, MosParams) -> pair`."""

    prefixes: tuple[str, str]
    pair: type
    code: Callable


# The paper's stream, then the x/y baseline of classic two-stream networks.
# The coders look `mos_images`/`xy_images` up when called, so a wrapper
# installed on this module sees every call.
STREAMS = {
    "mos": Stream(("mag", "ori"), MosPair, lambda flow, params: mos_images(flow, params)),
    "xy": Stream(("x", "y"), XyPair, lambda flow, params: xy_images(flow, params.mag_bounds)),
}
DEFAULT_STREAM = "mos"


def stream_of(pairs) -> str:
    """Name of the stream kind whose pair type `pairs[0]` is."""
    return next(name for name, stream in STREAMS.items() if isinstance(pairs[0], stream.pair))
