"""Test-time prediction protocol, late score fusion, and accuracy reporting.

A video's prediction starts from its byte pairs and averages eval-mode
scores over k temporal samples times the ten-crop set (4 corners + center,
plus mirrors). A short video repeats sample starts; a repeated start is
forwarded once and its scores count once per sample, so the k x 10 average
is unchanged. Distinct starts run in ascending order, and each one stacks
and crops only the pairs the previous start's window did not hold; the
channels the two windows share are reused, with the same bits. Streams
fuse by a weighted sum of their per-class probability vectors,
renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .augment import apply_crop, ten_crops
from .mos import MosParams, mos_images
from .net import DEFAULT_INPUT_SIDE
from .tvl1 import Tvl1Params, video_flows
from .volume import StackSpec, sample_test_starts, stack_volume

DEFAULT_TEST_SAMPLES = 25

# Test crops take this fraction of the short frame side (224/256 at the
# full-scale geometry) before resizing to the network input.
DEFAULT_TEST_CROP_FRACTION = 0.875


@dataclass(frozen=True)
class PredictParams:
    """Settings of the test-time protocol besides the pairs and the network;
    `tvl1` and `mos` are read by nothing here."""

    tvl1: Tvl1Params = field(default_factory=Tvl1Params)
    mos: MosParams = field(default_factory=MosParams)
    stack: StackSpec = field(default_factory=StackSpec)
    k_samples: int = DEFAULT_TEST_SAMPLES
    out_side: int = DEFAULT_INPUT_SIDE

    def __post_init__(self):
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")


@dataclass(frozen=True)
class VideoPrediction:
    video_id: str
    scores: np.ndarray
    predicted: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: np.ndarray
    class_mean: float
    confusion: np.ndarray


def argmax_class(scores) -> int:
    """Index of the highest score; ties break to the lowest class index."""
    return int(np.argmax(scores))


def pairs_from_frames(frames, tvl1_params: Tvl1Params, mos_params: MosParams):
    """Frames -> per-transition magnitude/orientation byte pairs."""
    flows = video_flows(frames, tvl1_params)
    return [mos_images(f, mos_params) for f in flows]


def predict_from_pairs(net, pairs, params: PredictParams, video_id: str = "") -> VideoPrediction:
    """Run the sample-and-crop averaging protocol on precomputed pairs."""
    length = params.stack.stack_length
    if len(pairs) < length:
        raise ValueError(
            f"video too short: {len(pairs)} pairs cannot hold a stack of {length} "
            f"(needs at least {length + 1} frames)"
        )
    h, w = np.asarray(pairs[0][0]).shape
    crop_side = int(np.floor(DEFAULT_TEST_CROP_FRACTION * min(h, w) + 0.5))
    crops = ten_crops(w, h, crop_side, crop_side, params.out_side)
    starts = sample_test_starts(len(pairs), length, params.k_samples)

    # Each distinct start is forwarded once, as its own ten-crop batch; the
    # crop sums are then added in the order of `starts`, so the average is
    # bit for bit the one of forwarding every sample. Crops act channel by
    # channel, so a start keeps the channels of the previous start's batch
    # that its window shares and stacks and crops only its new pairs.
    crop_sums = {}
    batch, prev = None, None
    for start in sorted(set(starts)):
        first_new = start if prev is None else max(start, prev + length)
        vol = stack_volume(pairs, first_new, StackSpec(start + length - first_new))
        new = np.stack([apply_crop(vol, c) for c in crops])
        batch = new if first_new == start else np.concatenate([batch[:, 2 * (start - prev) :], new], axis=1)
        crop_sums[start] = net.forward(batch).sum(axis=0)
        prev = start
    total = crop_sums[starts[0]]
    for start in starts[1:]:
        total = total + crop_sums[start]
    scores = total / (len(starts) * len(crops))
    scores = scores / scores.sum()
    return VideoPrediction(video_id, scores, argmax_class(scores))


def fuse(stream_scores: Sequence, weights: Sequence[float]) -> np.ndarray:
    """Weighted sum of per-stream score vectors, renormalized to sum 1."""
    if len(stream_scores) != len(weights):
        raise ValueError(f"{len(stream_scores)} streams but {len(weights)} weights")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or not np.isfinite(weights).all() or (weights < 0).any() or not (weights > 0).any():
        raise ValueError(
            f"weights must be finite and non-negative with at least one positive entry, got {weights.tolist()}"
        )
    vectors = [np.asarray(s, dtype=np.float64) for s in stream_scores]
    k = vectors[0].shape
    for i, vec in enumerate(vectors):
        if vec.shape != k:
            raise ValueError(f"stream {i} has {vec.shape} classes, expected {k}")
    combined = sum(wt * vec for wt, vec in zip(weights, vectors))
    total = combined.sum()
    if not total > 0:
        raise ValueError(f"weighted scores sum to {total}: no positive mass to renormalize")
    return combined / total


def evaluate(predictions: Sequence[VideoPrediction], labels: dict, num_classes: int) -> EvalReport:
    """Overall accuracy, per-class accuracy, class-mean accuracy, confusion.

    `labels` maps video_id -> true class index. Rows of the confusion
    matrix are true classes, columns predicted; classes without test
    samples are excluded from the class mean.
    """
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred in predictions:
        if pred.video_id not in labels:
            raise ValueError(f"unknown video id {pred.video_id!r}")
        if not 0 <= pred.predicted < num_classes:
            raise ValueError(f"video {pred.video_id!r}: predicted class {pred.predicted} of {num_classes}")
        confusion[labels[pred.video_id], pred.predicted] += 1
    total = confusion.sum()
    if total == 0:
        raise ValueError("no predictions to evaluate")
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan)
    accuracy = float(np.trace(confusion) / total)
    class_mean = float(np.nanmean(per_class))
    return EvalReport(accuracy, per_class, class_mean, confusion)


def multi_split_average(accuracies: Sequence[float]) -> float:
    """Arithmetic mean of per-split accuracies."""
    if len(accuracies) == 0:
        raise ValueError("need at least one split accuracy")
    return float(np.mean(accuracies))


def confusion_heat_image(confusion: np.ndarray) -> np.ndarray:
    """Row-normalized confusion matrix as a [0, 255] byte raster."""
    confusion = np.asarray(confusion, dtype=np.float64)
    row_sums = confusion.sum(axis=1, keepdims=True)
    normalized = np.divide(confusion, np.maximum(row_sums, 1.0))
    return np.floor(255.0 * normalized + 0.5).astype(np.uint8)
