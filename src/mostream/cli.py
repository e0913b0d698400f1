"""Command-line interface chaining the pipeline stages.

Subcommands: flow, mos, volume, synth, train, predict, fuse, eval, viz,
experiment. Every stage is deterministic given --seed; exit status is 0 on
success, 1 on pipeline errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np

from . import formats, net, pipeline, synth
from .experiment import ExperimentConfig, run_desk_experiment
from .fusion import (
    DEFAULT_TEST_SAMPLES,
    PredictParams,
    VideoPrediction,
    argmax_class,
    confusion_heat_image,
    evaluate,
    fuse,
    predict_from_pairs,
)
from .mos import DEFAULT_STREAM, MAG_BOUNDS, ORI_BOUNDS, STREAMS, MosParams, magnitude, orientation
from .raster import RescaleBounds, make_rng
from .tvl1 import Tvl1Params, video_flows
from .volume import DEFAULT_STACK_LENGTH, StackSpec, stack_volume

# The flags not named after their fields keep the CLI's established names.
_FLAG_NAMES = {"lam": "flow-lambda", "warps_per_level": "warps", "max_iter": "iterations"}


def _add_fields(parser, cls, *names):
    """One flag per int/float field of the dataclass `cls` (only `names`, if
    given), with the field's type and default; the field name is its dest."""
    types = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if types[f.name] in (int, float) and (not names or f.name in names):
            flag = _FLAG_NAMES.get(f.name, f.name.replace("_", "-"))
            parser.add_argument(f"--{flag}", dest=f.name, type=types[f.name], default=f.default,
                                help=f"{cls.__name__}.{f.name} (default %(default)s)")


def _config(cls, args, **given):
    """`cls` built from the parsed values named after its fields, then `given`."""
    parsed = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}
    return cls(**{**parsed, **given})


def _mos_params(args):
    return _config(
        MosParams,
        args,
        mag_bounds=RescaleBounds(args.mag_low, args.mag_high),
        ori_bounds=RescaleBounds(args.ori_low, args.ori_high),
    )


def cmd_flow(args):
    params = _config(Tvl1Params, args)
    entries = formats.read_manifest(args.manifest) if args.manifest else None
    for rel, clip_dir in pipeline.clip_dirs(args.input, entries):
        flows = video_flows(pipeline.read_clip_frames(clip_dir), params)
        pipeline.write_flow_sequence(Path(args.output) / rel, flows)
    return 0


def cmd_mos(args):
    params = _mos_params(args)
    code = STREAMS[args.mode].code
    entries = formats.read_manifest(args.manifest) if args.manifest else None
    for rel, clip_dir in pipeline.clip_dirs(args.input, entries):
        pairs = [code(flow, params) for flow in pipeline.read_flow_sequence(clip_dir)]
        pipeline.write_pair_sequence(Path(args.output) / rel, pairs)
    return 0


def cmd_volume(args):
    spec = _config(StackSpec, args)
    entries = formats.read_manifest(args.manifest) if args.manifest else None
    for rel, clip_dir in pipeline.clip_dirs(args.input, entries):
        pairs = pipeline.read_pair_sequence(clip_dir)
        if len(pairs) < spec.stack_length:
            raise ValueError(
                f"{clip_dir}: need {spec.stack_length} pairs for one stack, have {len(pairs)}"
            )
        dest = Path(args.output) / rel
        dest.mkdir(parents=True, exist_ok=True)
        for start in range(len(pairs) - spec.stack_length + 1):
            vol = stack_volume(pairs, start, spec)
            formats.write_tensor(dest / f"volume_{start:04d}.mosv", vol)
    return 0


def _synthetic_spec(args):
    return _config(
        synth.SyntheticSpec,
        args,
        frame_size=(args.frame_size, args.frame_size),
        speeds=tuple(float(s) for s in args.speeds.split(",")),
        directions=tuple(args.directions.split(",")),
        motions=tuple(args.motions.split(",")),
    )


def cmd_synth(args):
    entries = synth.gen_synthetic(_synthetic_spec(args), make_rng(args.seed), args.output)
    labels = formats.manifest_classes(entries)
    print(f"wrote {len(entries)} clips across {len(labels)} classes to {args.output}")
    return 0


def _net_config(args, num_classes):
    return net.desk_net_config(
        input_shape=(2 * args.stack_length, args.input_side, args.input_side),
        num_classes=num_classes,
        fc_width=args.fc_width,
        dropout=args.dropout,
    )


def _check_stack_fits(clips, length):
    for clip in clips:
        if len(clip.pairs) < length:
            raise ValueError(f"clip {clip.video_id}: {len(clip.pairs)} pairs cannot hold a stack of {length}")


def cmd_train(args):
    entries = formats.read_manifest(args.manifest)
    config = _net_config(args, len(formats.manifest_classes(entries)))
    cfg = _config(net.TrainConfig, args)
    train_pipe = pipeline.TrainPipeline(stack=StackSpec(args.stack_length), out_side=args.input_side)
    dataset = pipeline.load_pair_dataset(entries, args.pairs)
    _check_stack_fits([c for group in dataset.train_by_class for c in group], args.stack_length)
    model = net.TinyNet(config, make_rng(args.seed))

    def progress(it, lr, loss):
        if args.verbose and (it % 50 == 0 or it == cfg.max_iter - 1):
            print(f"  iter {it}: lr {lr:g} loss {loss:.4f}", flush=True)

    curve = net.train(model, dataset.train_by_class, train_pipe.make_volume, cfg, progress)
    net.save_checkpoint(model, args.output, iterations=cfg.max_iter, stream=dataset.stream)
    if args.loss_csv:
        formats.write_loss_csv(args.loss_csv, curve)
    print(f"trained {cfg.max_iter} iterations, final loss {curve[-1][2]:.4f}" if curve else "trained 0 iterations")
    return 0


def cmd_predict(args):
    # Stack length and input side come from the checkpoint; check it before reading any pairs.
    model, header = net.load_checkpoint(args.checkpoint)
    channels, side, width = model.config.input_shape
    if channels % 2 or side != width:
        raise ValueError(f"{args.checkpoint}: input shape {(channels, side, width)} is not (2L, S, S)")
    entries = formats.read_manifest(args.manifest)
    num_classes = len(formats.manifest_classes(entries))
    if model.config.num_classes != num_classes:
        raise ValueError(f"{args.checkpoint} has {model.config.num_classes} classes, the manifest {num_classes}")
    entries = [e for e in entries if e.split == args.split]
    if not entries:
        raise ValueError(f"manifest has no {args.split!r} entries")
    params = PredictParams(stack=StackSpec(channels // 2), k_samples=args.samples, out_side=side)
    dataset = pipeline.load_pair_dataset(entries, args.pairs)
    if dataset.stream != header["stream"]:
        raise ValueError(
            f"{args.checkpoint} was trained on {header['stream']} pairs, {args.pairs} holds {dataset.stream} pairs"
        )
    _check_stack_fits(dataset.clips, params.stack.stack_length)
    ids = []
    rows = []
    for clip in dataset.clips:
        pred = predict_from_pairs(model, clip.pairs, params, clip.video_id)
        ids.append(pred.video_id)
        rows.append(pred.scores)
        if args.verbose:
            print(f"  {pred.video_id}: class {pred.predicted}", flush=True)
    formats.write_scores_csv(args.output, ids, np.asarray(rows))
    print(f"wrote scores for {len(ids)} videos to {args.output}")
    return 0


def cmd_fuse(args):
    tables = [formats.read_scores_csv(p) for p in args.scores]
    base_ids = tables[0][0]
    weights = [float(w) for w in args.weights.split(",")] if args.weights else [1.0] * len(tables)
    if len(weights) != len(tables):
        raise ValueError(f"{len(tables)} score files but {len(weights)} weights")
    by_id = []
    for ids, scores in tables:
        if sorted(ids) != sorted(base_ids):
            raise ValueError("score files cover different video sets")
        by_id.append(dict(zip(ids, scores)))
    fused = [fuse([table[vid] for table in by_id], weights) for vid in base_ids]
    formats.write_scores_csv(args.output, base_ids, np.asarray(fused))
    print(f"fused {len(tables)} streams over {len(base_ids)} videos")
    return 0


def cmd_eval(args):
    ids, scores = formats.read_scores_csv(args.scores)
    entries = formats.read_manifest(args.manifest)
    labels = {e.path: e.class_index for e in entries}
    class_names = formats.manifest_classes(entries)
    if scores.shape[1] != len(class_names):
        raise formats.FormatError(
            f"{args.scores}: {scores.shape[1]} score columns, but {args.manifest} has {len(class_names)} classes"
        )
    predictions = [
        VideoPrediction(vid, row, argmax_class(row)) for vid, row in zip(ids, scores)
    ]
    report = evaluate(predictions, labels, len(class_names))
    print(f"accuracy: {report.accuracy * 100:.2f}%")
    print(f"class-mean accuracy: {report.class_mean * 100:.2f}%")
    for name, acc in zip(class_names, report.per_class):
        shown = "n/a" if np.isnan(acc) else f"{acc * 100:.2f}%"
        print(f"  {name}: {shown}")
    if args.confusion_csv:
        formats.write_confusion_csv(args.confusion_csv, report.confusion)
    if args.confusion_pgm:
        formats.write_pgm(args.confusion_pgm, confusion_heat_image(report.confusion))
    return 0


def _flow_color(flow, max_mag=None):
    mag = magnitude(flow)
    peak = max_mag if max_mag else max(mag.max(), 1e-9)
    # Orientation's (-180, 180] puts -180 at 180, and both are hue sextant 0 with fraction 0.
    hue = (orientation(flow) + 180.0) / 360.0
    val = np.clip(mag / peak, 0.0, 1.0)
    # HSV -> RGB with saturation 1
    i = np.floor(hue * 6.0).astype(int) % 6
    f = hue * 6.0 - np.floor(hue * 6.0)
    p = np.zeros_like(val)
    q = val * (1.0 - f)
    t = val * f
    lut = [(val, t, p), (q, val, p), (p, val, t), (p, q, val), (t, p, val), (val, p, q)]
    rgb = np.zeros(flow.shape + (3,))
    for idx, (r, g, b) in enumerate(lut):
        mask = i == idx
        rgb[mask, 0] = r[mask]
        rgb[mask, 1] = g[mask]
        rgb[mask, 2] = b[mask]
    return np.floor(rgb * 255.0 + 0.5).astype(np.uint8)


def cmd_viz(args):
    if args.max_mag is not None and not (np.isfinite(args.max_mag) and args.max_mag >= 0):
        raise ValueError(f"--max-mag must be finite and non-negative, got {args.max_mag}")
    flow = formats.read_flo(args.input)
    formats.write_ppm(args.output, _flow_color(flow, args.max_mag))
    return 0


def cmd_experiment(args):
    cfg = _config(ExperimentConfig, args)
    with contextlib.nullcontext(args.workdir) if args.workdir else tempfile.TemporaryDirectory() as work:
        result = run_desk_experiment(Path(work), cfg, progress=print)
    full = result.full
    print()
    print(f"classes ({len(result.classes)}): {', '.join(result.classes)}")
    print(f"full input accuracy:        {full.accuracy * 100:6.2f}%  (class mean {full.class_mean * 100:.2f}%)")
    print(f"orientation-only accuracy:  {result.orientation_only.accuracy * 100:6.2f}%")
    print(f"ablation gap:               {result.ablation_gap:6.2f} points")
    print()
    print(f"timings: synth {result.synth_seconds:.1f}s | flow/byte pairs {result.pairs_seconds:.1f}s | "
          f"train {full.train_seconds:.1f}s | predict {full.predict_seconds:.1f}s")
    print(f"primary pipeline total: {result.full_pipeline_seconds:.1f}s")
    print()
    print("confusion (full input, rows = true class):")
    for label, row in zip(result.classes, full.confusion):
        print(f"  {label:>10s}  " + " ".join(f"{int(v):3d}" for v in row))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mostream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="frames dir -> .flo files")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--manifest", help="process every clip listed in this manifest")
    _add_fields(p, Tvl1Params)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("mos", help=".flo files -> byte-image PGM pairs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--manifest")
    p.add_argument("--mode", choices=list(STREAMS), default=DEFAULT_STREAM)
    p.add_argument("--mag-low", type=float, default=MAG_BOUNDS.low)
    p.add_argument("--mag-high", type=float, default=MAG_BOUNDS.high)
    p.add_argument("--ori-low", type=float, default=ORI_BOUNDS.low)
    p.add_argument("--ori-high", type=float, default=ORI_BOUNDS.high)
    _add_fields(p, MosParams)
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser("volume", help="PGM pairs -> stacked tensor files")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--manifest")
    _add_fields(p, StackSpec)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("synth", help="generate a synthetic moving-texture dataset")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=net.TrainConfig.seed)
    p.add_argument("--frame-size", type=int, default=synth.SyntheticSpec.frame_size[0])
    p.add_argument("--speeds", default=",".join(map(str, synth.SyntheticSpec.speeds)))
    p.add_argument("--directions", default=",".join(synth.SyntheticSpec.directions))
    p.add_argument("--motions", default=",".join(synth.SyntheticSpec.motions))
    _add_fields(p, synth.SyntheticSpec)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="manifest + byte-pair tree -> checkpoint + loss CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pairs", required=True, help="tree written by `mos --manifest`")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--loss-csv")
    _add_fields(p, net.TrainConfig)
    p.add_argument("--dropout", type=float, default=net.DEFAULT_DROPOUT)
    p.add_argument("--fc-width", type=int, default=net.DEFAULT_FC_WIDTH)
    p.add_argument("--stack-length", type=int, default=DEFAULT_STACK_LENGTH)
    p.add_argument("--input-side", type=int, default=net.DEFAULT_INPUT_SIDE)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="checkpoint + manifest + byte-pair tree -> scores CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pairs", required=True, help="tree written by `mos --manifest`")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_TEST_SAMPLES)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse", help="combine score CSVs by weighted sum")
    p.add_argument("scores", nargs="+")
    p.add_argument("--weights", help="comma list, e.g. 2,1; default equal weights")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="scores + manifest -> accuracy and confusion matrix")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--confusion-csv")
    p.add_argument("--confusion-pgm")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help=".flo -> HSV-style color PPM for debugging")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--max-mag", type=float, default=None)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("experiment", help="desk experiment: synth, flow, train and test both input variants")
    p.add_argument("--workdir", help="where to put the dataset (default: a temporary directory)")
    _add_fields(p, ExperimentConfig, "seed", "clips_per_class", "iterations", "batch_size", "input_side",
                "test_samples")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
