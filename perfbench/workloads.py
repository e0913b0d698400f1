"""The benchmark's two workloads, each a single-process closed loop.

``flow``: one clip at a time, read the frames, compute TV-L1 flow for every
consecutive pair and byte-code each flow as a magnitude/orientation pair.
TV-L1 dominates the desk experiment and this loop; the network, volume and
augmentation code are bypassed.

``classify``: set-up computes every clip's byte pairs with
``pipeline.load_dataset``; each timed round trains a fresh network for a
fixed number of steps (one batch at a time), predicts every test clip with
the 25-sample x 10-crop protocol and scores the result. Train and predict
use volumes, crops and the network in different ways, so a change that
helps one and costs the other shows on this one workload. TV-L1 runs only
in set-up here.

Both workloads are generated from the seed alone and share one clip set
for a given seed: desk geometry (64x64, 12 frames), all eight default
classes (four directions x two speeds), one train and one test clip per
class.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mostream import fusion, mos, net, pipeline, synth, tvl1
from mostream.experiment import ExperimentConfig
from mostream.raster import make_rng
from mostream.volume import StackSpec

# Desk settings come from ExperimentConfig; the benchmark shrinks only the
# clip count and the train length so that a round takes seconds.
CLIPS_PER_CLASS = 2
TRAIN_ITERATIONS = 80

# Criterion 2's bound on interior mean endpoint error, over the central
# 80% of the frame.
EPE_BOUND_PX = 0.3
INTERIOR_FRACTION = 0.8

# Tolerance on a score row's sum; rows are renormalized in float64.
SCORE_SUM_TOL = 1e-9

clock = time.perf_counter


def desk_config(seed: int) -> ExperimentConfig:
    return replace(
        ExperimentConfig(),
        seed=seed,
        clips_per_class=CLIPS_PER_CLASS,
        iterations=TRAIN_ITERATIONS,
    )


def synthetic_spec(cfg: ExperimentConfig) -> synth.SyntheticSpec:
    return synth.SyntheticSpec(
        frame_size=(cfg.frame_size, cfg.frame_size),
        frames_per_clip=cfg.frames_per_clip,
        clips_per_class=cfg.clips_per_class,
        stack_length=cfg.stack_length,
    )


def class_labels() -> list[str]:
    return [c.label for c in synthetic_spec(desk_config(0)).classes()]


def layer_names() -> list[str]:
    """`net.L<i>_<kind>` for every layer of the desk network."""
    layers = net.desk_net_config().layers
    return [f"net.L{i}_{type(spec).__name__.removesuffix('Spec').lower()}" for i, spec in enumerate(layers)]


def interior_mask(h: int, w: int) -> np.ndarray:
    my = int(round(h * (1.0 - INTERIOR_FRACTION) / 2.0))
    mx = int(round(w * (1.0 - INTERIOR_FRACTION) / 2.0))
    mask = np.zeros((h, w), dtype=bool)
    mask[my : h - my, mx : w - mx] = True
    return mask


def clip_epe(flows, displacement, mask) -> float:
    """Mean over pairs of the interior mean endpoint error against the
    class's exact per-frame displacement."""
    dx, dy = displacement
    return float(np.mean([np.hypot(f.u - dx, f.v - dy)[mask].mean() for f in flows]))


def epe_by_class(epes: dict, labels) -> dict:
    """{class index: [clip EPE, ...]} -> quality metrics in px."""
    out = {"tvl1.epe_px": float(np.mean([e for v in epes.values() for e in v]))}
    for index, label in enumerate(labels):
        out[f"tvl1.epe_px.{label}"] = float(np.mean(epes[index]))
    return out


@dataclass
class PassResult:
    """One pass over the workload's fixed unit list."""

    timed_s: float = 0.0  # sum of the timed regions
    item_rates: list = field(default_factory=list)  # items/s, one per unit
    clip_rates: list = field(default_factory=list)  # clips/s, one per clip
    attempted: int = 0
    problems: list = field(default_factory=list)  # one message per failed unit
    digest: str = ""
    quality: dict = field(default_factory=dict)


@dataclass
class ClipSet:
    cfg: ExperimentConfig
    root: Path
    entries: list
    dataset: pipeline.ClipDataset | None = None


def make_clips(cfg: ExperimentConfig, work_dir: Path) -> ClipSet:
    entries = synth.gen_synthetic(synthetic_spec(cfg), make_rng(cfg.seed), work_dir)
    return ClipSet(cfg, work_dir, entries)


class FlowWorkload:
    """Units are clips."""

    name = "flow"

    def setup(self, cfg: ExperimentConfig, work_dir: Path) -> ClipSet:
        return make_clips(cfg, work_dir)

    def run_pass(self, clips: ClipSet, tracer=None) -> PassResult:
        cfg = clips.cfg
        classes = synthetic_spec(cfg).classes()
        mask = interior_mask(cfg.frame_size, cfg.frame_size)
        digest = hashlib.sha256()
        epes = {i: [] for i in range(len(classes))}
        result = PassResult()
        for entry in clips.entries:
            result.attempted += 1
            try:
                t0 = clock()
                frames = pipeline.read_clip_frames(clips.root / entry.path)
                t1 = clock()
                flows = tvl1.video_flows(frames, cfg.tvl1)
                t2 = clock()
                pairs = [mos.mos_images(f, cfg.mos) for f in flows]
                t3 = clock()
            except Exception as exc:  # a unit that raises counts as failed
                result.problems.append(f"{entry.path}: {type(exc).__name__}: {exc}")
                continue
            result.timed_s += t3 - t0
            result.item_rates.append(len(flows) / (t2 - t1))
            result.clip_rates.append(1.0 / (t3 - t0))
            for pair in pairs:
                digest.update(pair.magnitude.tobytes())
                digest.update(pair.orientation.tobytes())
            epe = clip_epe(flows, classes[entry.class_index].param, mask)
            epes[entry.class_index].append(epe)
            problem = check_flow_unit(frames, flows, pairs, epe)
            if problem:
                result.problems.append(f"{entry.path}: {problem}")
        result.digest = digest.hexdigest()
        if all(epes.values()):
            result.quality = epe_by_class(epes, [c.label for c in classes])
        return result

    def extra_quality(self, clips: ClipSet) -> dict:
        return {}


def check_flow_unit(frames, flows, pairs, epe) -> str | None:
    shape = np.shape(frames[0])
    if len(flows) != len(frames) - 1 or len(pairs) != len(flows):
        return f"{len(frames)} frames gave {len(flows)} flows and {len(pairs)} byte pairs"
    for t, (f, pair) in enumerate(zip(flows, pairs)):
        if not (np.isfinite(f.u).all() and np.isfinite(f.v).all()):
            return f"pair {t}: non-finite flow"
        for img in pair:
            if img.dtype != np.uint8 or img.shape != shape:
                return f"pair {t}: byte image {img.dtype} {img.shape}, expected uint8 {shape}"
    if not epe <= EPE_BOUND_PX:
        return f"interior EPE {epe:.4f} px exceeds {EPE_BOUND_PX}"
    return None


class ClassifyWorkload:
    """Units are train steps, predicted clips and the final evaluation."""

    name = "classify"

    def setup(self, cfg: ExperimentConfig, work_dir: Path) -> ClipSet:
        clips = make_clips(cfg, work_dir)
        clips.dataset = pipeline.load_dataset(clips.entries, work_dir, cfg.tvl1, cfg.mos)
        return clips

    def new_model(self, clips: ClipSet) -> net.TinyNet:
        cfg = clips.cfg
        config = net.desk_net_config(
            input_shape=(2 * cfg.stack_length, cfg.input_side, cfg.input_side),
            num_classes=clips.dataset.num_classes,
        )
        return net.TinyNet(config, make_rng(cfg.seed))

    def run_pass(self, clips: ClipSet, tracer=None) -> PassResult:
        cfg, dataset = clips.cfg, clips.dataset
        model = self.new_model(clips)
        if tracer is not None:
            for name, layer in zip(layer_names(), model.layers):
                tracer.patch(layer, "forward", f"{name}.fwd")
                tracer.patch(layer, "backward", f"{name}.bwd")
        train_cfg = net.TrainConfig(max_iter=cfg.iterations, batch_size=cfg.batch_size, seed=cfg.seed)
        pipe = pipeline.TrainPipeline(stack=StackSpec(cfg.stack_length), out_side=cfg.input_side)
        params = fusion.PredictParams(
            tvl1=cfg.tvl1,
            mos=cfg.mos,
            stack=StackSpec(cfg.stack_length),
            k_samples=cfg.test_samples,
            out_side=cfg.input_side,
        )
        result = PassResult()
        step_times = []

        def on_step(it, lr, loss):
            nonlocal last
            now = clock()
            step_times.append(now - last)
            last = now

        t0 = last = clock()
        try:
            curve = net.train(model, dataset.train_by_class, pipe.make_volume, train_cfg, on_step)
        except Exception as exc:
            result.attempted = len(step_times) + 1
            result.problems.append(f"train step {len(step_times)}: {type(exc).__name__}: {exc}")
            return result
        result.timed_s += clock() - t0
        result.attempted += len(curve)
        result.item_rates = [cfg.batch_size / dt for dt in step_times]
        for it, _, loss in curve:
            if not np.isfinite(loss):
                result.problems.append(f"train step {it}: non-finite loss {loss}")

        k = dataset.num_classes
        predictions = []
        for clip in dataset.test_clips:
            result.attempted += 1
            try:
                t0 = clock()
                pred = fusion.predict_from_pairs(model, clip.pairs, params, clip.video_id)
                dt = clock() - t0
            except Exception as exc:
                result.problems.append(f"predict {clip.video_id}: {type(exc).__name__}: {exc}")
                continue
            result.timed_s += dt
            result.clip_rates.append(1.0 / dt)
            problem = check_scores(pred, k)
            if problem:
                result.problems.append(f"predict {clip.video_id}: {problem}")
            predictions.append(pred)

        scores = np.array([p.scores for p in predictions], dtype="<f8")
        result.digest = hashlib.sha256(scores.tobytes()).hexdigest()
        tail = max(1, len(curve) // 10)
        result.quality = {"net.train_loss_tail": float(np.mean([loss for _, _, loss in curve[-tail:]]))}

        labels = {clip.video_id: clip.class_index for clip in dataset.test_clips}
        result.attempted += 1
        try:
            t0 = clock()
            report = fusion.evaluate(predictions, labels, k)
            result.timed_s += clock() - t0
        except Exception as exc:
            result.problems.append(f"evaluate: {type(exc).__name__}: {exc}")
            return result
        result.quality["fusion.predict_accuracy"] = report.accuracy
        return result

    def extra_quality(self, clips: ClipSet) -> dict:
        """Flow EPE of the set-up clips, recomputed outside any timing."""
        cfg = clips.cfg
        classes = synthetic_spec(cfg).classes()
        mask = interior_mask(cfg.frame_size, cfg.frame_size)
        epes = {i: [] for i in range(len(classes))}
        for entry in clips.entries:
            flows = tvl1.video_flows(pipeline.read_clip_frames(clips.root / entry.path), cfg.tvl1)
            epes[entry.class_index].append(clip_epe(flows, classes[entry.class_index].param, mask))
        return epe_by_class(epes, [c.label for c in classes])


def check_scores(pred, k: int) -> str | None:
    scores = np.asarray(pred.scores)
    if scores.shape != (k,):
        return f"score row shape {scores.shape}, expected ({k},)"
    if not np.isfinite(scores).all():
        return "non-finite score"
    if abs(float(scores.sum()) - 1.0) > SCORE_SUM_TOL:
        return f"scores sum to {float(scores.sum())!r}"
    if not 0 <= pred.predicted < k or pred.predicted != int(np.argmax(scores)):
        return f"predicted class {pred.predicted} is not the in-range argmax"
    return None


def forward_flops(model: net.TinyNet) -> int:
    """Multiply-add FLOPs of one eval forward for one input, from the
    weight shapes: 2 per weight per output position (convolutions) or per
    output (fully connected); activations and pooling are not counted."""
    total = 0
    for layer in model.layers:
        w = layer.params().get("w")
        if w is None:
            continue
        positions = int(np.prod(layer.out_shape[1:])) if w.ndim == 4 else 1
        total += 2 * w.size * positions
    return total


WORKLOADS = {w.name: w for w in (FlowWorkload(), ClassifyWorkload())}

# Every public function the traced run wraps, at each import site the
# workloads reach it through: (owner, attribute, span name).
TRACE_SITES = (
    (synth, "gen_synthetic", "synth.gen_synthetic"),
    (synth, "write_pgm", "formats.write_pgm"),
    (pipeline, "load_dataset", "pipeline.load_dataset"),
    (pipeline, "read_clip_frames", "pipeline.read_clip_frames"),
    (pipeline, "read_pgm", "formats.read_pgm"),
    (tvl1, "video_flows", "tvl1.video_flows"),
    (fusion, "video_flows", "tvl1.video_flows"),
    (tvl1, "tvl1_flow", "tvl1.tvl1_flow"),
    (mos, "mos_images", "mos.mos_images"),
    (fusion, "mos_images", "mos.mos_images"),
    (pipeline.TrainPipeline, "make_volume", "pipeline.TrainPipeline.make_volume"),
    (pipeline, "stack_volume", "volume.stack_volume"),
    (fusion, "stack_volume", "volume.stack_volume"),
    (pipeline, "apply_crop", "augment.apply_crop"),
    (fusion, "apply_crop", "augment.apply_crop"),
    (net, "train", "net.train"),
    (net.TinyNet, "forward_with_cache", "net.TinyNet.forward_with_cache"),
    (net.TinyNet, "backward", "net.TinyNet.backward"),
    (net, "sgd_step", "net.sgd_step"),
    (net.TinyNet, "forward", "net.TinyNet.forward"),
    (fusion, "predict_from_pairs", "fusion.predict_from_pairs"),
    (fusion, "evaluate", "fusion.evaluate"),
)


# Spans only the set-up reaches, then the rest it reaches on `classify`,
# where it also computes and byte-codes the flow of every clip. The traced
# run traces one set-up apart from its passes and reports these by
# themselves.
SETUP_ONLY_SPANS = ("synth.gen_synthetic", "formats.write_pgm", "pipeline.load_dataset")
SETUP_SPANS = SETUP_ONLY_SPANS + (
    "pipeline.read_clip_frames",
    "formats.read_pgm",
    "tvl1.video_flows",
    "tvl1.tvl1_flow",
    "mos.mos_images",
)


def span_names() -> list[str]:
    """Every span name a pass can reach, in trace-site order."""
    names = dict.fromkeys(name for _, _, name in TRACE_SITES)
    return [n for n in names if n not in SETUP_ONLY_SPANS]
