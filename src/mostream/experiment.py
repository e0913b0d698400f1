"""End-to-end desk-scale experiment harness.

Generates a synthetic motion dataset, computes flows and byte pairs once,
then trains and evaluates two classifiers on the same data: the full
magnitude/orientation input and an orientation-only ablation whose
magnitude bytes are all 128, the level that normalizes to 0.0. The
ablation collapses speed-paired classes, which is the point: the accuracy
gap measures how much velocity information the magnitude channels carry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import net
from .formats import manifest_classes
from .fusion import DEFAULT_TEST_SAMPLES, PredictParams, evaluate, predict_from_pairs
from .mos import MosPair, MosParams
from .pipeline import ClipDataset, TrainPipeline, load_dataset
from .raster import make_rng
from .synth import SyntheticSpec, gen_synthetic
from .tvl1 import Tvl1Params
from .volume import DEFAULT_STACK_LENGTH, StackSpec


@dataclass(frozen=True)
class ExperimentConfig:
    # input_side 32 keeps the full run inside the desk-scale time budget on
    # low-bandwidth machines; the motion classes are spatially uniform, so
    # nothing discriminative is lost relative to the 56-pixel default.
    seed: int = 0
    clips_per_class: int = 100
    frame_size: int = SyntheticSpec.frame_size[0]
    frames_per_clip: int = SyntheticSpec.frames_per_clip
    stack_length: int = DEFAULT_STACK_LENGTH
    input_side: int = 32
    iterations: int = 400
    batch_size: int = 16
    test_samples: int = DEFAULT_TEST_SAMPLES
    tvl1: Tvl1Params = field(default_factory=Tvl1Params)
    mos: MosParams = field(default_factory=MosParams)


@dataclass
class VariantResult:
    accuracy: float
    class_mean: float
    confusion: np.ndarray
    train_seconds: float
    predict_seconds: float


@dataclass
class ExperimentResult:
    classes: list[str]
    full: VariantResult
    orientation_only: VariantResult
    synth_seconds: float
    pairs_seconds: float

    @property
    def full_pipeline_seconds(self) -> float:
        """Wall time of the primary path: synth + flows + train + predict."""
        return (
            self.synth_seconds
            + self.pairs_seconds
            + self.full.train_seconds
            + self.full.predict_seconds
        )

    @property
    def ablation_gap(self) -> float:
        """Full-input accuracy minus orientation-only accuracy, in points."""
        return 100.0 * (self.full.accuracy - self.orientation_only.accuracy)


def orientation_only_dataset(dataset: ClipDataset) -> ClipDataset:
    """The ablation's data: every magnitude image replaced by one shared
    128-filled image per shape, so magnitude channels stack to 0.0."""
    blank = cache(lambda shape: np.full(shape, 128, dtype=np.uint8))

    def strip(clip):
        return replace(clip, pairs=[MosPair(blank(m.shape), o) for m, o in clip.pairs])

    return ClipDataset(
        dataset.classes,
        [[strip(c) for c in group] for group in dataset.train_by_class],
        [strip(c) for c in dataset.test_clips],
    )


def _train_and_eval(
    config: net.NetConfig, dataset: ClipDataset, train_cfg: net.TrainConfig, pipe: TrainPipeline, params: PredictParams
) -> VariantResult:
    # Each variant trains a fresh model from the seed's weights.
    model = net.TinyNet(config, make_rng(train_cfg.seed))
    t0 = time.perf_counter()
    net.train(model, dataset.train_by_class, pipe.make_volume, train_cfg)
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    predictions = [
        predict_from_pairs(model, clip.pairs, params, clip.video_id)
        for clip in dataset.test_clips
    ]
    predict_seconds = time.perf_counter() - t0
    labels = {clip.video_id: clip.class_index for clip in dataset.test_clips}
    report = evaluate(predictions, labels, dataset.num_classes)
    return VariantResult(
        accuracy=report.accuracy,
        class_mean=report.class_mean,
        confusion=report.confusion,
        train_seconds=train_seconds,
        predict_seconds=predict_seconds,
    )


def run_desk_experiment(work_dir, cfg: ExperimentConfig = ExperimentConfig(), progress=None) -> ExperimentResult:
    work_dir = Path(work_dir)
    # Every setting is checked before the flow stage, which dominates the run.
    if cfg.clips_per_class < 2:
        raise ValueError(f"clips_per_class must be >= 2 to leave a test clip, got {cfg.clips_per_class}")
    spec = SyntheticSpec(
        frame_size=(cfg.frame_size, cfg.frame_size),
        frames_per_clip=cfg.frames_per_clip,
        clips_per_class=cfg.clips_per_class,
        stack_length=cfg.stack_length,
    )
    net_config = net.desk_net_config(
        input_shape=(2 * cfg.stack_length, cfg.input_side, cfg.input_side),
        num_classes=len(spec.classes()),
    )
    train_cfg = net.TrainConfig(max_iter=cfg.iterations, batch_size=cfg.batch_size, seed=cfg.seed)
    stack = StackSpec(cfg.stack_length)
    pipe = TrainPipeline(stack=stack, out_side=cfg.input_side)
    params = PredictParams(stack=stack, k_samples=cfg.test_samples, out_side=cfg.input_side)

    t0 = time.perf_counter()
    entries = gen_synthetic(spec, make_rng(cfg.seed), work_dir / "data")
    synth_seconds = time.perf_counter() - t0
    classes = manifest_classes(entries)
    if progress:
        progress(f"synth: {len(entries)} clips, {len(classes)} classes ({synth_seconds:.1f}s)")

    def pair_progress(done, total):
        if progress and done % 100 == 0:
            progress(f"pairs {done}/{total}")

    t0 = time.perf_counter()
    dataset = load_dataset(entries, work_dir / "data", cfg.tvl1, cfg.mos, progress=pair_progress)
    pairs_seconds = time.perf_counter() - t0
    if progress:
        progress(f"flow/byte pairs for {len(entries)} clips ({pairs_seconds:.1f}s)")

    full = _train_and_eval(net_config, dataset, train_cfg, pipe, params)
    if progress:
        progress(
            f"full input: accuracy {full.accuracy * 100:.1f}% "
            f"(train {full.train_seconds:.1f}s, predict {full.predict_seconds:.1f}s)"
        )
    ablation = _train_and_eval(net_config, orientation_only_dataset(dataset), train_cfg, pipe, params)
    if progress:
        progress(
            f"orientation-only: accuracy {ablation.accuracy * 100:.1f}% "
            f"(train {ablation.train_seconds:.1f}s, predict {ablation.predict_seconds:.1f}s)"
        )
    return ExperimentResult(classes, full, ablation, synth_seconds, pairs_seconds)
