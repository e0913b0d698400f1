import hashlib

import numpy as np
import pytest

from conftest import interior_mask
from mostream.formats import read_manifest, read_pgm
from mostream.mos import mos_images
from mostream.raster import make_rng
from mostream.synth import DIRECTIONS, MotionClass, SyntheticSpec, gen_synthetic, render_clip
from mostream.tvl1 import tvl1_flow


class TestSpec:
    def test_default_classes(self):
        labels = [c.label for c in SyntheticSpec().classes()]
        assert labels == [
            "right_s1", "right_s3", "left_s1", "left_s3",
            "up_s1", "up_s3", "down_s1", "down_s3",
        ]

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="frames_per_clip"):
            SyntheticSpec(frames_per_clip=10, stack_length=10)

    def test_unknown_motion_rejected(self):
        with pytest.raises(ValueError, match="motion"):
            SyntheticSpec(motions=("spin",))

    @pytest.mark.parametrize(
        "motions, speed",
        [(("translate",), -1.0), (("rotate",), 0.0), (("translate", "zoom"), 100.0), (("zoom",), 150.0)],
        ids=["negative", "zero", "zoom_100", "zoom_150"],
    )
    def test_speed_that_breaks_a_class_rejected(self, motions, speed):
        with pytest.raises(ValueError, match=f"got {speed:g}$"):
            SyntheticSpec(motions=motions, speeds=(1.0, speed))

    def test_rotate_and_zoom_classes(self):
        spec = SyntheticSpec(motions=("rotate", "zoom"), speeds=(2.0,))
        labels = [c.label for c in spec.classes()]
        assert labels == ["rotcw_s2", "rotccw_s2", "zoomin_s2", "zoomout_s2"]


class TestRenderClip:
    def test_translation_matches_ground_truth_flow(self):
        spec = SyntheticSpec()
        cls = MotionClass("right_s3", "translate", (3.0, 0.0))
        frames = render_clip(cls, spec, make_rng(0))
        assert len(frames) == spec.frames_per_clip
        flow = tvl1_flow(frames[0].astype(float), frames[1].astype(float))
        mask = interior_mask(64, 64)
        assert np.abs(flow.u[mask] - 3.0).mean() < 0.2
        assert np.abs(flow.v[mask]).mean() < 0.2

    def test_mos_bytes_for_known_speed(self):
        # interior flow (3, 0): magnitude byte = rescale(3) = 153, angle 0 -> 128
        spec = SyntheticSpec()
        cls = MotionClass("right_s3", "translate", (3.0, 0.0))
        frames = render_clip(cls, spec, make_rng(1))
        flow = tvl1_flow(frames[0].astype(float), frames[1].astype(float))
        pair = mos_images(flow)
        mask = interior_mask(64, 64)
        mag_mode = np.bincount(pair.magnitude[mask].ravel()).argmax()
        ori_mode = np.bincount(pair.orientation[mask].ravel()).argmax()
        assert abs(int(mag_mode) - 153) <= 1
        assert abs(int(ori_mode) - 128) <= 1

    def test_direction_changes_orientation_statistics(self):
        # Same speed: magnitude statistics agree while orientation splits.
        # Leftward motion sits at the +-180 degree wrap, so compare the
        # deviation from the zero-angle byte 128 instead of raw means.
        spec = SyntheticSpec()
        mask = interior_mask(64, 64)
        stats = {}
        for label, direction in (("left", (-1.0, 0.0)), ("right", (1.0, 0.0))):
            cls = MotionClass(label, "translate", direction)
            frames = render_clip(cls, spec, make_rng(2))
            flow = tvl1_flow(frames[0].astype(float), frames[1].astype(float))
            pair = mos_images(flow)
            ori_spread = np.abs(pair.orientation[mask].astype(float) - 128.0).mean()
            stats[label] = (pair.magnitude[mask].astype(float).mean(), ori_spread)
        assert abs(stats["left"][0] - stats["right"][0]) < 3.0
        assert stats["right"][1] < 10.0
        assert stats["left"][1] > 100.0

    def test_rotation_clip_renders(self):
        spec = SyntheticSpec(motions=("rotate",))
        cls = MotionClass("rotcw_s2", "rotate", (2.0,))
        frames = render_clip(cls, spec, make_rng(3))
        assert all(f.shape == (64, 64) for f in frames)
        assert not np.array_equal(frames[0], frames[-1])

    def test_zoom_clip_renders(self):
        spec = SyntheticSpec(motions=("zoom",))
        cls = MotionClass("zoomin_s2", "zoom", (1.02,))
        frames = render_clip(cls, spec, make_rng(4))
        assert not np.array_equal(frames[0], frames[-1])


class TestGenSynthetic:
    def test_tree_and_manifest(self, tmp_path):
        spec = SyntheticSpec(clips_per_class=5, speeds=(1.0,), directions=("right", "left"))
        entries = gen_synthetic(spec, make_rng(0), tmp_path)
        assert len(entries) == 10
        assert read_manifest(tmp_path / "manifest.tsv") == entries
        splits = [e.split for e in entries if e.label == "right_s1"]
        assert splits == ["train"] * 4 + ["test"]
        first = entries[0]
        frames = sorted((tmp_path / first.path).glob("frame_*.pgm"))
        assert len(frames) == spec.frames_per_clip
        assert read_pgm(frames[0]).shape == (64, 64)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SyntheticSpec(clips_per_class=2, speeds=(1.0,), directions=("up",), frames_per_clip=12)
        gen_synthetic(spec, make_rng(7), tmp_path / "a")
        gen_synthetic(spec, make_rng(7), tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_desk_frames_keep_their_bits(self, tmp_path):
        # sha256 over (relative path, bytes) of every frame written for the
        # desk classes at two clips each, seed 0: the clip set the benchmark
        # renders, through the float64 path of `bilinear_map`.
        gen_synthetic(SyntheticSpec(clips_per_class=2), make_rng(0), tmp_path)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.rglob("*.pgm")):
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == "1d041052a284f46a778d6a7ec646fac81dd3846e51a2bc28b314fd37f6d00fe5"

    def test_different_seed_differs(self, tmp_path):
        spec = SyntheticSpec(clips_per_class=1, speeds=(1.0,), directions=("up",))
        gen_synthetic(spec, make_rng(1), tmp_path / "a")
        gen_synthetic(spec, make_rng(2), tmp_path / "b")
        fa = sorted((tmp_path / "a").rglob("*.pgm"))[0]
        fb = sorted((tmp_path / "b").rglob("*.pgm"))[0]
        assert fa.read_bytes() != fb.read_bytes()

    def test_direction_table(self):
        assert set(DIRECTIONS) == {"right", "left", "up", "down"}
        assert DIRECTIONS["up"] == (0.0, -1.0)
