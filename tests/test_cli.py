import argparse
import dataclasses
import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from mostream import cli, fusion, mos, pipeline, tvl1
from mostream.cli import main
from mostream.experiment import ExperimentConfig
from conftest import shift_image, smooth_texture
from mostream.formats import (
    read_flo,
    read_manifest,
    read_pgm,
    read_scores_csv,
    read_tensor,
    write_flo,
    write_pgm,
)
from mostream.fusion import PredictParams
from mostream.mos import MosParams, mos_images
from mostream.net import TinyNet, TrainConfig, desk_net_config, load_checkpoint, save_checkpoint
from mostream.raster import FlowField, make_rng
from mostream.synth import SyntheticSpec
from mostream.tvl1 import Tvl1Params
from mostream.volume import StackSpec


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code = main(
        [
            "synth",
            str(root),
            "--seed", "5",
            "--frame-size", "32",
            "--clips-per-class", "3",
            "--speeds", "2",
            "--directions", "right,down",
            "--frames-per-clip", "12",
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def tiny_flows(tiny_dataset, tmp_path_factory):
    """The `.flo` tree of `tiny_dataset`, built through the CLI."""
    flows = tmp_path_factory.mktemp("flows")
    assert main(["flow", str(tiny_dataset), str(flows), "--manifest", str(tiny_dataset / "manifest.tsv")]) == 0
    return flows


def _pair_tree(tiny_dataset, tiny_flows, tmp_path_factory, mode):
    pairs = tmp_path_factory.mktemp(mode)
    argv = ["mos", str(tiny_flows), str(pairs), "--manifest", str(tiny_dataset / "manifest.tsv"), "--mode", mode]
    assert main(argv) == 0
    return pairs


@pytest.fixture(scope="module")
def tiny_pairs(tiny_dataset, tiny_flows, tmp_path_factory):
    """The `mos` byte-pair tree of `tiny_dataset`, built through the CLI."""
    return _pair_tree(tiny_dataset, tiny_flows, tmp_path_factory, "mos")


@pytest.fixture(scope="module")
def tiny_xy_pairs(tiny_dataset, tiny_flows, tmp_path_factory):
    """The `xy` byte-pair tree of `tiny_dataset`, built through the CLI."""
    return _pair_tree(tiny_dataset, tiny_flows, tmp_path_factory, "xy")


class TestSynthCommand:
    def test_manifest_written(self, tiny_dataset):
        entries = read_manifest(tiny_dataset / "manifest.tsv")
        assert len(entries) == 6
        assert {e.label for e in entries} == {"right_s2", "down_s2"}


class TestDefaults:
    def test_mos_flag_defaults_are_reference_parameters(self):
        from mostream.cli import build_parser

        args = build_parser().parse_args(["mos", "in", "out"])
        assert (args.mag_low, args.mag_high) == (-15.0, 15.0)
        assert (args.ori_low, args.ori_high) == (-180.0, 180.0)
        assert args.mag_threshold == 128

    def test_predict_defaults(self):
        from mostream.cli import build_parser

        args = build_parser().parse_args(
            ["predict", "--manifest", "m", "--pairs", "p", "--checkpoint", "c", "--output", "o"]
        )
        assert args.samples == 25

    def test_train_defaults_follow_reference_schedule(self):
        from mostream.cli import build_parser

        args = build_parser().parse_args(["train", "--manifest", "m", "--pairs", "p", "--output", "o"])
        assert args.base_lr == 0.005
        assert args.lr_step == 5000
        assert args.lr_factor == 0.1
        assert args.momentum == 0.9
        assert args.weight_decay == 0.0005


def _built_from_defaults(args):
    """The objects a subcommand builds from its parsed flags."""
    built = {}
    if hasattr(args, "lam"):
        built["tvl1"] = cli._config(Tvl1Params, args)
    if hasattr(args, "mag_low"):
        built["mos"] = cli._mos_params(args)
    if args.command == "volume":
        built["stack"] = StackSpec(args.stack_length)
    if args.command == "synth":
        built["synth"] = cli._synthetic_spec(args)
    if args.command == "train":
        built["train"] = cli._config(TrainConfig, args)
        built["net"] = cli._net_config(args, 8)
    if args.command == "predict":
        built["predict"] = PredictParams(k_samples=args.samples)
    return built


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["flow", "i", "o"], {"tvl1": Tvl1Params()}),
        (["mos", "i", "o"], {"mos": MosParams()}),
        (["volume", "i", "o"], {"stack": StackSpec()}),
        (["synth", "o"], {"synth": SyntheticSpec()}),
        (
            ["train", "--manifest", "m", "--pairs", "p", "--output", "o"],
            {"train": TrainConfig(seed=0), "net": desk_net_config()},
        ),
        (
            ["predict", "--manifest", "m", "--pairs", "p", "--checkpoint", "c", "--output", "o"],
            {"predict": PredictParams()},
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_flag_defaults_equal_library_defaults(argv, expected):
    assert _built_from_defaults(cli.build_parser().parse_args(argv)) == expected


# Every option string of the subcommands that take settings. `experiment`
# takes the flags of the desk-experiment script it replaced.
FLAG_SURFACE = {
    "flow": ["--manifest", "--flow-lambda", "--tv-theta", "--tau", "--pyramid-scale", "--levels", "--warps",
             "--inner-iterations", "--stop-epsilon"],
    "mos": ["--manifest", "--mode", "--mag-low", "--mag-high", "--ori-low", "--ori-high", "--mag-threshold"],
    "volume": ["--manifest", "--stack-length"],
    "synth": ["--seed", "--frame-size", "--frames-per-clip", "--clips-per-class", "--speeds", "--directions",
              "--motions", "--train-fraction", "--stack-length"],
    "train": ["--manifest", "--pairs", "--output", "--loss-csv", "--seed", "--iterations", "--batch-size",
              "--base-lr", "--lr-step", "--lr-factor", "--momentum", "--weight-decay", "--dropout", "--fc-width",
              "--stack-length", "--input-side", "--verbose"],
    "predict": ["--manifest", "--pairs", "--checkpoint", "--output", "--samples", "--split", "--verbose"],
    "experiment": ["--workdir", "--seed", "--clips-per-class", "--iterations", "--batch-size", "--input-side",
                   "--test-samples"],
}
COMMANDS = ["flow", "mos", "volume", "synth", "train", "predict", "fuse", "eval", "viz", "experiment"]


@pytest.mark.parametrize("command", FLAG_SURFACE)
def test_flag_surface(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for action in sub.choices[command]._actions for o in action.option_strings}
    assert options == {"-h", "--help", *FLAG_SURFACE[command]}


# (command, flag, a valid non-default value, the config it sets, the field).
GENERATED_FLAGS = [
    ("flow", "--flow-lambda", "0.2", Tvl1Params, "lam"),
    ("flow", "--tv-theta", "0.4", Tvl1Params, "tv_theta"),
    ("flow", "--tau", "0.2", Tvl1Params, "tau"),
    ("flow", "--pyramid-scale", "0.6", Tvl1Params, "pyramid_scale"),
    ("flow", "--levels", "3", Tvl1Params, "levels"),
    ("flow", "--warps", "7", Tvl1Params, "warps_per_level"),
    ("flow", "--inner-iterations", "12", Tvl1Params, "inner_iterations"),
    ("flow", "--stop-epsilon", "0.02", Tvl1Params, "stop_epsilon"),
    ("mos", "--mag-threshold", "100", MosParams, "mag_threshold"),
    ("volume", "--stack-length", "7", StackSpec, "stack_length"),
    ("synth", "--frames-per-clip", "14", SyntheticSpec, "frames_per_clip"),
    ("synth", "--clips-per-class", "5", SyntheticSpec, "clips_per_class"),
    ("synth", "--train-fraction", "0.6", SyntheticSpec, "train_fraction"),
    ("synth", "--stack-length", "8", SyntheticSpec, "stack_length"),
    ("train", "--seed", "3", TrainConfig, "seed"),
    ("train", "--iterations", "9", TrainConfig, "max_iter"),
    ("train", "--batch-size", "4", TrainConfig, "batch_size"),
    ("train", "--base-lr", "0.01", TrainConfig, "base_lr"),
    ("train", "--lr-step", "100", TrainConfig, "lr_step"),
    ("train", "--lr-factor", "0.5", TrainConfig, "lr_factor"),
    ("train", "--momentum", "0.8", TrainConfig, "momentum"),
    ("train", "--weight-decay", "0.001", TrainConfig, "weight_decay"),
    ("experiment", "--seed", "3", ExperimentConfig, "seed"),
    ("experiment", "--clips-per-class", "5", ExperimentConfig, "clips_per_class"),
    ("experiment", "--iterations", "9", ExperimentConfig, "iterations"),
    ("experiment", "--batch-size", "4", ExperimentConfig, "batch_size"),
    ("experiment", "--input-side", "24", ExperimentConfig, "input_side"),
    ("experiment", "--test-samples", "3", ExperimentConfig, "test_samples"),
]
POSITIONALS = {"flow": ["i", "o"], "mos": ["i", "o"], "volume": ["i", "o"], "synth": ["o"],
               "train": ["--manifest", "m", "--pairs", "p", "--output", "o"], "experiment": []}


@pytest.mark.parametrize("command, flag, value, cls, name", GENERATED_FLAGS,
                         ids=[f"{c}{f}" for c, f, *_ in GENERATED_FLAGS])
def test_generated_flag_sets_exactly_its_field(command, flag, value, cls, name):
    build = {MosParams: cli._mos_params, SyntheticSpec: cli._synthetic_spec}.get(cls, lambda a: cli._config(cls, a))
    parser = cli.build_parser()
    base = build(parser.parse_args([command, *POSITIONALS[command]]))
    built = build(parser.parse_args([command, *POSITIONALS[command], flag, value]))
    assert base == cls()
    changed = {f.name for f in dataclasses.fields(cls) if getattr(built, f.name) != getattr(base, f.name)}
    assert changed == {name}
    assert getattr(built, name) == type(getattr(base, name))(value)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: mostream {command}")


def test_experiment_runs_end_to_end(tmp_path, capsys):
    argv = ["experiment", "--workdir", str(tmp_path), "--clips-per-class", "2", "--iterations", "2",
            "--test-samples", "1", "--input-side", "16"]
    assert main(argv) == 0
    assert "primary pipeline total:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--test-samples", "0"), ("--iterations", "-1"), ("--batch-size", "0"), ("--input-side", "0"),
     ("--input-side", "2"), ("--clips-per-class", "1")],
)
def test_experiment_bad_setting_fails_before_synth(tmp_path, capsys, flag, value):
    work = tmp_path / "work"
    assert main(["experiment", "--workdir", str(work), "--clips-per-class", "2", flag, value]) == 1
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "synth:" not in out
    assert not work.exists()


FLOW_FLAGS = ["--mode", "--flow-lambda", "--tv-theta", "--tau", "--pyramid-scale", "--levels", "--warps",
              "--inner-iterations", "--stop-epsilon", "--mag-low", "--mag-high", "--ori-low", "--ori-high",
              "--mag-threshold"]


@pytest.mark.parametrize(
    "argv, removed",
    [
        (["train", "--manifest", "m", "--pairs", "p", "--output", "o"], FLOW_FLAGS),
        (["predict", "--manifest", "m", "--pairs", "p", "--checkpoint", "c", "--output", "o"],
         FLOW_FLAGS + ["--seed"]),
    ],
    ids=["train", "predict"],
)
def test_train_and_predict_take_no_flow_flags(argv, removed, capsys):
    for flag in removed:
        assert main(argv + [flag, "mos" if flag == "--mode" else "1"]) == 2, flag
    capsys.readouterr()


class TestFlowMosVolumeChain:
    def test_chain_on_one_clip(self, tiny_dataset, tmp_path):
        clip = tiny_dataset / "right_s2" / "clip_000"
        flow_dir = tmp_path / "flows"
        assert main(["flow", str(clip), str(flow_dir)]) == 0
        flo_files = sorted(flow_dir.glob("*.flo"))
        assert len(flo_files) == 11  # 12 frames -> 11 flows

        mos_dir = tmp_path / "mos"
        assert main(["mos", str(flow_dir), str(mos_dir)]) == 0
        mags = sorted(mos_dir.glob("mag_*.pgm"))
        oris = sorted(mos_dir.glob("ori_*.pgm"))
        assert len(mags) == 11 and len(oris) == 11

        # CLI defaults must reproduce the library defaults exactly
        flow = read_flo(flo_files[0])
        pair = mos_images(flow)
        assert np.array_equal(read_pgm(mags[0]), pair.magnitude)
        assert np.array_equal(read_pgm(oris[0]), pair.orientation)

        vol_dir = tmp_path / "volumes"
        assert main(["volume", str(mos_dir), str(vol_dir), "--stack-length", "10"]) == 0
        vols = sorted(vol_dir.glob("volume_*.mosv"))
        assert len(vols) == 2  # 11 pairs, stack 10 -> starts 0 and 1
        tensor = read_tensor(vols[0])
        assert tensor.shape == (20, 32, 32)

    def test_flow_orders_frames_by_integer_index(self, tmp_path):
        # By name the frames run 1, 10, 2; by index 1, 2, 10.
        tex = smooth_texture(30, 32, 32)
        frames = {t: np.floor(shift_image(tex, 0.5 * t, 0.0) + 0.5).astype(np.uint8) for t in (1, 2, 10)}
        clip = tmp_path / "clip"
        clip.mkdir()
        for t, frame in frames.items():
            write_pgm(clip / f"frame_{t}.pgm", frame)
        assert main(["flow", str(clip), str(tmp_path / "flows")]) == 0
        expected = tvl1.video_flows([frames[t] for t in (1, 2, 10)])
        for i, want in enumerate(expected):
            got = read_flo(tmp_path / "flows" / f"flow_{i:04d}.flo")
            assert np.array_equal(got.u, want.u.astype(np.float32)), i
            assert np.array_equal(got.v, want.v.astype(np.float32)), i

    def test_mos_orders_flo_files_by_integer_index(self, tmp_path):
        # Uniform flows of t px to the right in flow_t.flo; by name they run
        # 1, 10, 2, and the pairs must follow the index: 1, 2, 10.
        flows = {t: FlowField(np.full((16, 16), float(t)), np.zeros((16, 16))) for t in (1, 2, 10)}
        (tmp_path / "flows").mkdir()
        for t, flow in flows.items():
            write_flo(tmp_path / "flows" / f"flow_{t}.flo", flow)
        assert main(["mos", str(tmp_path / "flows"), str(tmp_path / "mos")]) == 0
        for i, t in enumerate((1, 2, 10)):
            pair = mos_images(flows[t])
            assert np.array_equal(read_pgm(tmp_path / "mos" / f"mag_{i:04d}.pgm"), pair.magnitude), t
            assert np.array_equal(read_pgm(tmp_path / "mos" / f"ori_{i:04d}.pgm"), pair.orientation), t

    def test_xy_mode(self, tiny_dataset, tmp_path):
        clip = tiny_dataset / "down_s2" / "clip_000"
        flow_dir = tmp_path / "flows"
        assert main(["flow", str(clip), str(flow_dir)]) == 0
        xy_dir = tmp_path / "xy"
        assert main(["mos", str(flow_dir), str(xy_dir), "--mode", "xy"]) == 0
        assert len(sorted(xy_dir.glob("x_*.pgm"))) == 11
        assert len(sorted(xy_dir.glob("y_*.pgm"))) == 11


class TestTrainPredictEval:
    def test_full_loop(self, tiny_dataset, tiny_pairs, tmp_path):
        manifest = tiny_dataset / "manifest.tsv"
        ckpt = tmp_path / "model.mosn"
        loss_csv = tmp_path / "loss.csv"
        code = main(
            [
                "train",
                "--manifest", str(manifest),
                "--pairs", str(tiny_pairs),
                "--output", str(ckpt),
                "--loss-csv", str(loss_csv),
                "--iterations", "8",
                "--batch-size", "4",
                "--input-side", "24",
                "--seed", "1",
            ]
        )
        assert code == 0
        model, header = load_checkpoint(ckpt)
        assert header["iterations"] == 8
        assert loss_csv.read_text().splitlines()[0] == "iter,lr,loss"

        scores_csv = tmp_path / "scores.csv"
        code = main(
            [
                "predict",
                "--manifest", str(manifest),
                "--pairs", str(tiny_pairs),
                "--checkpoint", str(ckpt),
                "--output", str(scores_csv),
                "--samples", "3",
            ]
        )
        assert code == 0
        ids, scores = read_scores_csv(scores_csv)
        assert len(ids) == 2  # one test clip per class
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-6)

        conf_csv = tmp_path / "conf.csv"
        conf_pgm = tmp_path / "conf.pgm"
        code = main(
            [
                "eval",
                "--scores", str(scores_csv),
                "--manifest", str(manifest),
                "--confusion-csv", str(conf_csv),
                "--confusion-pgm", str(conf_pgm),
            ]
        )
        assert code == 0
        rows = conf_csv.read_text().splitlines()
        assert len(rows) == 2
        assert read_pgm(conf_pgm).shape == (2, 2)

        fused_csv = tmp_path / "fused.csv"
        code = main(
            [
                "fuse",
                str(scores_csv), str(scores_csv),
                "--weights", "2,1",
                "--output", str(fused_csv),
            ]
        )
        assert code == 0
        _, fused = read_scores_csv(fused_csv)
        assert np.allclose(fused, scores, atol=1e-8)


def test_train_and_predict_run_no_flow_code(tiny_dataset, tmp_path, monkeypatch):
    """flow -> mos -> train -> predict: only `flow` runs TV-L1, only `mos` codes bytes."""
    calls = set()
    stage = None

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.add((stage, name))
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [(tvl1, "video_flows"), (fusion, "video_flows"), (cli, "video_flows"),
                        (mos, "mos_images"), (fusion, "mos_images"), (mos, "xy_images")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    manifest = str(tiny_dataset / "manifest.tsv")
    steps = [
        ["flow", str(tiny_dataset), str(tmp_path / "flows"), "--manifest", manifest],
        ["mos", str(tmp_path / "flows"), str(tmp_path / "mos"), "--manifest", manifest],
        ["train", "--manifest", manifest, "--pairs", str(tmp_path / "mos"),
         "--output", str(tmp_path / "model.mosn"), "--iterations", "2", "--batch-size", "2",
         "--input-side", "16"],
        ["predict", "--manifest", manifest, "--pairs", str(tmp_path / "mos"),
         "--checkpoint", str(tmp_path / "model.mosn"), "--output", str(tmp_path / "scores.csv"),
         "--samples", "2"],
    ]
    for argv in steps:
        stage = argv[0]
        assert main(argv) == 0, argv
    assert calls == {("flow", "video_flows"), ("mos", "mos_images")}


def test_tree_pairs_equal_in_memory_pairs(tiny_dataset, tiny_pairs):
    """Pairs read back from the `mos` tree are the bytes `load_dataset` computes."""
    entries = read_manifest(tiny_dataset / "manifest.tsv")
    from_tree = pipeline.load_pair_dataset(entries, tiny_pairs)
    from_frames = pipeline.load_dataset(entries, tiny_dataset)
    assert from_tree.classes == from_frames.classes
    tree_clips = from_tree.test_clips + sum(from_tree.train_by_class, [])
    frame_clips = from_frames.test_clips + sum(from_frames.train_by_class, [])
    assert [c.video_id for c in tree_clips] == [c.video_id for c in frame_clips]
    for a, b in zip(tree_clips, frame_clips):
        assert len(a.pairs) == len(b.pairs) == 11
        for pa, pb in zip(a.pairs, b.pairs):
            assert np.array_equal(pa.magnitude, pb.magnitude)
            assert np.array_equal(pa.orientation, pb.orientation)


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "{clip}", "{out}", "--flow-lambda", "nan"],
        ["mos", "{flows}", "{out}", "--mag-high", "inf"],
        ["synth", "{out}", "--speeds", "inf"],
        ["fuse", "{scores}", "{scores}", "--weights", "inf,1", "--output", "{out}"],
        ["viz", "{flows}/flow_0000.flo", "{out}", "--max-mag", "nan"],
        ["train", "--manifest", "{manifest}", "--pairs", "{pairs}", "--output", "{out}", "--lr-factor", "nan",
         "--iterations", "2", "--batch-size", "2", "--input-side", "16"],
    ],
    ids=["flow", "mos", "synth", "fuse", "viz", "train"],
)
def test_non_finite_setting_rejected(argv, tiny_dataset, tiny_flows, tiny_pairs, tmp_path, capsys):
    clip = read_manifest(tiny_dataset / "manifest.tsv")[0].path
    scores = tmp_path / "scores.csv"
    scores.write_text("video_id,class_0,class_1\nv,0.5,0.5\n")
    paths = {
        "clip": tiny_dataset / clip,
        "flows": tiny_flows / clip,
        "scores": scores,
        "manifest": tiny_dataset / "manifest.tsv",
        "pairs": tiny_pairs,
        "out": tmp_path / "out",
    }
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert_one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, label",
    [
        ("--speeds", "1,1", "right_s1"),
        ("--directions", "right,right", "right_s1"),
        ("--motions", "translate,translate", "right_s1"),
        ("--speeds", "1,1.0000001", "right_s1"),
    ],
    ids=["speeds", "directions", "motions", "speeds_alike_under_g"],
)
def test_synth_repeated_label_writes_nothing(tmp_path, capsys, flag, value, label):
    out = tmp_path / "out"
    assert main(["synth", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and repr(label) in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--speeds", "-1"], ["--speeds", "0"], ["--motions", "zoom", "--speeds", "100"]],
    ids=["negative", "zero", "zoom_100"],
)
def test_synth_bad_speed_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["synth", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and argv[-1] in err, err
    assert not out.exists()


class TestViz:
    def test_flow_to_ppm(self, tiny_dataset, tmp_path):
        clip = tiny_dataset / "right_s2" / "clip_001"
        flow_dir = tmp_path / "flows"
        assert main(["flow", str(clip), str(flow_dir)]) == 0
        out = tmp_path / "flow.ppm"
        assert main(["viz", str(sorted(flow_dir.glob('*.flo'))[0]), str(out)]) == 0
        from mostream.formats import read_ppm

        assert read_ppm(out).shape == (32, 32, 3)

    @pytest.mark.parametrize(
        "extra, sha256",
        [
            ([], "30f95202c744e0f531bfd08194023d5f782e0ba85c3eb2120a9c77aa42798afb"),
            (["--max-mag", "2.5"], "6c912da2a27ff84774b84b720f45f3ba8c807a598310b7b50743e73877c90bd8"),
            (["--max-mag", "0"], "30f95202c744e0f531bfd08194023d5f782e0ba85c3eb2120a9c77aa42798afb"),
        ],
        ids=["auto_peak", "max_mag", "max_mag_zero"],
    )
    def test_colours_keep_their_bits(self, tmp_path, extra, sha256):
        # Seeded vectors plus the edge cases of the hue wheel: u < 0 on the
        # negative axis with v = -0.0 and v = +0.0 (angle -180 and +180),
        # and zero vectors of either sign.
        rng = make_rng(61)
        u, v = 4.0 * rng.standard_normal((2, 12, 16))
        u[0, :4], v[0, :4] = (-2.0, -2.0, 0.0, -0.0), (-0.0, 0.0, 0.0, -0.0)
        u[1, :2], v[1, :2] = (-7.5, 3.0), (-0.0, 0.0)
        write_flo(tmp_path / "in.flo", FlowField(u, v))
        assert main(["viz", str(tmp_path / "in.flo"), str(tmp_path / "out.ppm"), *extra]) == 0
        assert hashlib.sha256((tmp_path / "out.ppm").read_bytes()).hexdigest() == sha256


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["synth", "out", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_pipeline_error_exit_one(self, tmp_path, capsys):
        assert main(["flow", str(tmp_path / "missing"), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bad_fuse_weights(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("video_id,class_0,class_1\nv,0.5,0.5\n")
        assert main(["fuse", str(scores), "--weights", "1,2", "--output", str(tmp_path / "o.csv")]) == 1
        capsys.readouterr()

    def test_fuse_all_zero_row(self, tmp_path, capsys, recwarn):
        scores = tmp_path / "s.csv"
        scores.write_text("video_id,class_0,class_1\nv,0,0\nw,0.2,0.8\n")
        out = tmp_path / "o.csv"
        assert main(["fuse", str(scores), str(scores), "--output", str(out)]) == 1
        assert_one_line_error(capsys)
        assert not out.exists()
        assert not [str(w.message) for w in recwarn]

    def test_volume_on_short_clip_errors(self, tmp_path, capsys):
        from mostream.formats import write_pgm
        from mostream.raster import FlowField, make_rng

        clip = tmp_path / "clip"
        clip.mkdir()
        rng = make_rng(0)
        for t in range(3):
            write_pgm(clip / f"mag_{t:04d}.pgm", rng.integers(0, 256, (8, 8), dtype=np.uint8))
            write_pgm(clip / f"ori_{t:04d}.pgm", rng.integers(0, 256, (8, 8), dtype=np.uint8))
        assert main(["volume", str(clip), str(tmp_path / "out"), "--stack-length", "10"]) == 1
        assert "need 10 pairs" in capsys.readouterr().err


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestHostileInputs:
    def test_eval_scores_with_extra_class(self, tiny_dataset, tmp_path, capsys):
        manifest = tiny_dataset / "manifest.tsv"
        test_ids = [e.path for e in read_manifest(manifest) if e.split == "test"]
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "video_id,class_0,class_1,class_2\n" + "".join(f"{v},0.1,0.2,0.7\n" for v in test_ids)
        )
        assert main(["eval", "--scores", str(scores), "--manifest", str(manifest)]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("header, row", [("class_0,class_1,class_2", "0.1,0.8,0.1"), ("class_0", "0.9")])
    def test_eval_scores_width_must_match_manifest(self, tmp_path, capsys, header, row):
        # Every argmax lies inside the 2 classes, so only the width check catches it.
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a/c0\tx\t0\ttest\na/c1\ty\t1\ttest\n")
        scores = tmp_path / "scores.csv"
        scores.write_text(f"video_id,{header}\na/c0,{row}\na/c1,{row}\n")
        assert main(["eval", "--scores", str(scores), "--manifest", str(manifest)]) == 1
        assert_one_line_error(capsys)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rel", ["../escape", "ABSOLUTE"])
    def test_flow_manifest_path_outside_the_tree(self, tiny_dataset, tmp_path, capsys, rel):
        clip = next(p for p in sorted(tiny_dataset.rglob("*")) if p.is_dir() and any(p.glob("*.pgm")))
        data = tmp_path / "data"
        data.mkdir()
        escape = tmp_path / "escape"
        shutil.copytree(clip, escape)
        before = sorted(escape.iterdir())
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{escape if rel == 'ABSOLUTE' else rel}\tx\t0\ttest\n")
        out = tmp_path / "out"
        assert main(["flow", str(data), str(out), "--manifest", str(manifest)]) == 1
        assert_one_line_error(capsys)
        assert sorted(escape.iterdir()) == before
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, message",
        [
            (["frame_0", "frame_1", "frame_a"], "frame_a.pgm has no integer index"),
            (["frame_0", "frame_1", "frame_01"], "frame_01.pgm and frame_1.pgm share index 1"),
        ],
        ids=["no_index", "repeated_index"],
    )
    def test_flow_rejects_frame_names(self, tmp_path, capsys, names, message):
        clip = tmp_path / "clip"
        clip.mkdir()
        for name in names:
            write_pgm(clip / f"{name}.pgm", np.zeros((32, 32), dtype=np.uint8))
        assert main(["flow", str(clip), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "names, message",
        [
            (["flow_0", "flow_x"], "flow_x.flo has no integer index"),
            (["flow_0", "flow_1", "flow_0001"], "flow_0001.flo and flow_1.flo share index 1"),
        ],
        ids=["no_index", "repeated_index"],
    )
    def test_mos_rejects_flo_names(self, tmp_path, capsys, names, message):
        flows = tmp_path / "flows"
        flows.mkdir()
        for name in names:
            write_flo(flows / f"{name}.flo", FlowField(np.zeros((16, 16)), np.zeros((16, 16))))
        assert main(["mos", str(flows), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["flow", "mos", "volume"])
    def test_manifest_clip_missing_before_any_clip(self, tiny_dataset, tiny_flows, tiny_pairs, tmp_path, capsys,
                                                   monkeypatch, command):
        # The manifest's last clip has no directory; no clip may be solved, read or written.
        tree = {"flow": tiny_dataset, "mos": tiny_flows, "volume": tiny_pairs}[command]
        manifest = tmp_path / "m.tsv"
        manifest.write_text((tiny_dataset / "manifest.tsv").read_text() + "down_s2/clip_999\tdown_s2\t1\ttest\n")
        calls = []
        monkeypatch.setattr(cli, "video_flows", lambda *args: calls.append(args))
        out = tmp_path / "out"
        assert main([command, str(tree), str(out), "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert f"clip directory missing: {tree / 'down_s2/clip_999'}" in err
        assert not out.exists() and calls == []

    def test_mos_names_a_flow_of_another_size(self, tmp_path, capsys):
        flows = tmp_path / "flows"
        flows.mkdir()
        for t in range(8):
            side = 32 if t == 5 else 64
            write_flo(flows / f"flow_{t:04d}.flo", FlowField(np.full((side, side), 2.0), np.zeros((side, side))))
        assert main(["mos", str(flows), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "flow_0005.flo: image is 32x32, but flow_0000.flo is 64x64" in err
        assert not (tmp_path / "out").exists()

    def test_mos_bounds_too_wide_to_scale(self, tiny_dataset, tiny_flows, tmp_path, capsys):
        clip = read_manifest(tiny_dataset / "manifest.tsv")[0].path
        out = tmp_path / "out"
        # `--flag=value`, since argparse reads a bare -1e308 as an option.
        assert main(["mos", str(tiny_flows / clip), str(out), "--mag-low=-1e308", "--mag-high=1e308"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "(-1e+308, 1e+308)" in err, err
        assert not out.exists()

    def test_flow_names_a_frame_of_another_size(self, tiny_dataset, tmp_path, capsys):
        clip = tmp_path / "clip"
        shutil.copytree(tiny_dataset / read_manifest(tiny_dataset / "manifest.tsv")[0].path, clip)
        write_pgm(clip / "frame_005.pgm", np.zeros((32, 40), dtype=np.uint8))
        assert main(["flow", str(clip), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "frame_005.pgm: image is 40x32, but frame_000.pgm is 32x32" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict --samples 1", "predict", "volume", "train"])
    def test_pairs_name_an_image_of_another_size(self, tiny_dataset, tiny_pairs, tmp_path, capsys, command):
        # One test clip holds a 16x16 orientation image among 32x32 ones.
        tree = tmp_path / "pairs"
        shutil.copytree(tiny_pairs, tree)
        clip = next(e.path for e in read_manifest(tiny_dataset / "manifest.tsv") if e.split == "test")
        write_pgm(tree / clip / "ori_0010.pgm", np.zeros((16, 16), dtype=np.uint8))
        out = tmp_path / "out"
        if command.startswith("predict"):
            ckpt = self._checkpoint(tmp_path)
            code = self._predict(tiny_dataset, tree, ckpt, tmp_path, *command.split()[1:])
            out = tmp_path / "scores.csv"
        elif command == "volume":
            code = main(["volume", str(tree / clip), str(out)])
        else:
            code = self._train(tiny_dataset, tree, tmp_path, "--iterations", "1", "--batch-size", "2",
                               "--input-side", "16")
            out = tmp_path / "model.mosn"
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "ori_0010.pgm: image is 16x16, but mag_0000.pgm is 32x32" in err
        assert not out.exists()

    def test_eval_scores_with_nan(self, tiny_dataset, tmp_path, capsys):
        manifest = tiny_dataset / "manifest.tsv"
        test_ids = [e.path for e in read_manifest(manifest) if e.split == "test"]
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "video_id,class_0,class_1\n" f"{test_ids[0]},nan,nan\n" f"{test_ids[1]},0.2,0.8\n"
        )
        assert main(["eval", "--scores", str(scores), "--manifest", str(manifest)]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["eval", "fuse"])
    def test_scores_repeating_a_video(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a/c0\tx\t0\ttest\na/c1\ty\t1\ttest\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("video_id,class_0,class_1\na/c0,0.9,0.1\na/c1,0.2,0.8\na/c0,0.3,0.7\n")
        out = tmp_path / "fused.csv"
        argv = {
            "eval": ["eval", "--scores", str(scores), "--manifest", str(manifest)],
            "fuse": ["fuse", str(scores), "--output", str(out)],
        }[command]
        assert main(argv) == 1
        assert_one_line_error(capsys)
        assert not out.exists()

    @staticmethod
    def _forbid_reading_pairs(monkeypatch):
        def no_pair_reading(*args, **kwargs):
            raise AssertionError("pairs read before the settings were checked")

        monkeypatch.setattr(cli.pipeline, "load_pair_dataset", no_pair_reading)

    @staticmethod
    def _checkpoint(tmp_path, input_shape=(20, 24, 24), num_classes=2):
        path = tmp_path / "model.mosn"
        config = desk_net_config(input_shape=input_shape, num_classes=num_classes)
        save_checkpoint(TinyNet(config, make_rng(0)), path)
        return path

    @staticmethod
    def _predict(tiny_dataset, tiny_pairs, ckpt, tmp_path, *extra):
        argv = ["predict", "--manifest", str(tiny_dataset / "manifest.tsv"), "--pairs", str(tiny_pairs),
                "--checkpoint", str(ckpt), "--output", str(tmp_path / "scores.csv"), *extra]
        return main(argv)

    @pytest.mark.parametrize(
        "input_shape, num_classes",
        [((20, 24, 24), 3), ((21, 24, 24), 2), ((20, 24, 16), 2)],
        ids=["class_count", "odd_channels", "non_square"],
    )
    def test_predict_checkpoint_mismatch(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch, capsys,
                                         input_shape, num_classes):
        ckpt = self._checkpoint(tmp_path, input_shape, num_classes)
        self._forbid_reading_pairs(monkeypatch)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path) == 1
        assert_one_line_error(capsys)

    def test_predict_checkpoint_missing_header_key(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch,
                                                   capsys):
        ckpt = self._checkpoint(tmp_path)
        data = ckpt.read_bytes()
        ckpt.write_bytes(data.replace(b'"num_classes": 2', b'"num_klasses": 2'))
        self._forbid_reading_pairs(monkeypatch)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path) == 1
        assert_one_line_error(capsys)

    def test_predict_checkpoint_negative_iterations(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch,
                                                     capsys):
        ckpt = self._checkpoint(tmp_path)
        data = ckpt.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        header["iterations"] = -1
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
        self._forbid_reading_pairs(monkeypatch)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {ckpt}: iterations "), err
        assert not (tmp_path / "scores.csv").exists()

    def test_predict_bad_samples_before_flow_work(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch,
                                                  capsys):
        ckpt = self._checkpoint(tmp_path)
        self._forbid_reading_pairs(monkeypatch)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path, "--samples", "0") == 1
        assert_one_line_error(capsys)

    def test_predict_stack_longer_than_clip(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch, capsys):
        # 12 frames per clip give 11 pairs; this checkpoint stacks 12.
        ckpt = self._checkpoint(tmp_path, input_shape=(24, 24, 24))

        def no_prediction(*args, **kwargs):
            raise AssertionError("a clip was predicted before the stack length was checked")

        monkeypatch.setattr(cli, "predict_from_pairs", no_prediction)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path) == 1
        self._assert_short_clip_error(capsys, tiny_dataset, "test")

    def test_predict_rejects_pairs_of_another_stream(self, tiny_dataset, tiny_pairs, tiny_xy_pairs, tmp_path,
                                                      monkeypatch, capsys):
        ckpt = tmp_path / "model.mosn"
        assert self._train(tiny_dataset, tiny_pairs, tmp_path, "--iterations", "1", "--batch-size", "2",
                           "--input-side", "16") == 0
        capsys.readouterr()

        def no_prediction(*args, **kwargs):
            raise AssertionError("a clip was predicted before the stream kind was checked")

        monkeypatch.setattr(cli, "predict_from_pairs", no_prediction)
        assert self._predict(tiny_dataset, tiny_xy_pairs, ckpt, tmp_path) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "scores.csv").exists()
        assert load_checkpoint(ckpt)[1]["stream"] == "mos"

    def test_train_rejects_a_tree_mixing_streams(self, tiny_dataset, tiny_pairs, tiny_xy_pairs, tmp_path, capsys):
        first = read_manifest(tiny_dataset / "manifest.tsv")[0].path
        mixed = tmp_path / "mixed"
        shutil.copytree(tiny_pairs, mixed)
        shutil.rmtree(mixed / first)
        shutil.copytree(tiny_xy_pairs / first, mixed / first)
        assert self._train(tiny_dataset, mixed, tmp_path, "--iterations", "1", "--batch-size", "2",
                           "--input-side", "16") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert f"xy (clip {first})" in err and "mos (clip " in err
        assert not (tmp_path / "model.mosn").exists()

    @staticmethod
    def _assert_short_clip_error(capsys, tiny_dataset, split):
        err = capsys.readouterr().err
        clips = [e.path for e in read_manifest(tiny_dataset / "manifest.tsv") if e.split == split]
        assert err.count("\n") == 1 and any(err.startswith(f"error: clip {c}: ") for c in clips), err
        assert "11 pairs cannot hold a stack of 12" in err

    @staticmethod
    def _train(tiny_dataset, tiny_pairs, tmp_path, *extra):
        argv = ["train", "--manifest", str(tiny_dataset / "manifest.tsv"), "--pairs", str(tiny_pairs),
                "--output", str(tmp_path / "model.mosn"), *extra]
        return main(argv)

    def test_train_bad_dropout_before_flow_work(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch,
                                                capsys):
        self._forbid_reading_pairs(monkeypatch)
        assert self._train(tiny_dataset, tiny_pairs, tmp_path, "--dropout", "1.5") == 1
        assert_one_line_error(capsys)

    def test_train_bad_input_side_before_reading_pairs(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch,
                                                        capsys):
        self._forbid_reading_pairs(monkeypatch)
        assert self._train(tiny_dataset, tiny_pairs, tmp_path, "--input-side", "2") == 1
        assert_one_line_error(capsys)

    def test_train_divergence_writes_nothing(self, tiny_dataset, tiny_pairs, tmp_path, capsys, recwarn):
        loss_csv = tmp_path / "loss.csv"
        assert self._train(tiny_dataset, tiny_pairs, tmp_path, "--base-lr", "1e6", "--iterations", "20",
                           "--batch-size", "2", "--input-side", "16", "--loss-csv", str(loss_csv)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: training diverged at iteration "), err
        assert not (tmp_path / "model.mosn").exists() and not loss_csv.exists()
        assert not [str(w.message) for w in recwarn]

    def test_predict_non_finite_checkpoint(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "model.mosn"
        model = TinyNet(desk_net_config(input_shape=(20, 24, 24), num_classes=2), make_rng(0))
        model.layers[3].w[0, 0, 0, 0] = np.nan
        save_checkpoint(model, ckpt)
        self._forbid_reading_pairs(monkeypatch)
        assert self._predict(tiny_dataset, tiny_pairs, ckpt, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "layer 3 parameter 'w' holds non-finite values" in err, err
        assert not (tmp_path / "scores.csv").exists()

    def test_train_stack_longer_than_clip(self, tiny_dataset, tiny_pairs, tmp_path, monkeypatch, capsys):
        def no_network(*args, **kwargs):
            raise AssertionError("the network was built before the stack length was checked")

        monkeypatch.setattr(cli.net, "TinyNet", no_network)
        assert self._train(tiny_dataset, tiny_pairs, tmp_path, "--stack-length", "12") == 1
        self._assert_short_clip_error(capsys, tiny_dataset, "train")
        assert not (tmp_path / "model.mosn").exists()
