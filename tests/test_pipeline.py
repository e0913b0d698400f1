import re

import numpy as np
import pytest

from conftest import random_pairs
from mostream.augment import apply_crop, five_crops, random_multiscale_crop
from mostream.formats import FormatError, ManifestEntry, read_pgm, write_pgm
from mostream.mos import MosPair, XyPair
from mostream.pipeline import (
    Clip,
    TrainPipeline,
    clip_dirs,
    load_dataset,
    load_pair_dataset,
    read_clip_frames,
    read_pair_sequence,
    write_pair_sequence,
)
from mostream.raster import make_rng
from mostream.synth import SyntheticSpec, gen_synthetic
from mostream.volume import StackSpec, sample_train_start, stack_volume


class TestReadClipFrames:
    def test_sorted_pgm_frames(self, tmp_path):
        rng = make_rng(0)
        for t in (2, 0, 1):
            write_pgm(tmp_path / f"frame_{t:03d}.pgm", rng.integers(0, 256, (4, 4), dtype=np.uint8))
        frames = read_clip_frames(tmp_path)
        assert len(frames) == 3
        assert frames[0].dtype == np.float64

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no frame files"):
            read_clip_frames(tmp_path)

    def test_frame_of_another_size_named(self, tmp_path):
        for t in range(3):
            write_pgm(tmp_path / f"frame_{t:03d}.pgm", np.zeros((4, 6) if t == 1 else (4, 5), dtype=np.uint8))
        with pytest.raises(FormatError, match=r"frame_001\.pgm: image is 6x4, but frame_000\.pgm is 5x4"):
            read_clip_frames(tmp_path)


def write_pairs(clip_dir, first, second, first_indices, second_indices, seed=0):
    rng = make_rng(seed)
    clip_dir.mkdir(parents=True, exist_ok=True)
    for name, indices in ((first, first_indices), (second, second_indices)):
        for t in indices:
            write_pgm(clip_dir / f"{name}_{t:04d}.pgm", rng.integers(0, 256, (4, 4), dtype=np.uint8))


class TestReadPairSequence:
    def test_mos_pairs_in_index_order(self, tmp_path):
        write_pairs(tmp_path, "mag", "ori", (2, 0, 1), (1, 2, 0))
        pairs = read_pair_sequence(tmp_path)
        assert len(pairs) == 3 and all(isinstance(p, MosPair) for p in pairs)
        for t, pair in enumerate(pairs):
            assert np.array_equal(pair.magnitude, read_pgm(tmp_path / f"mag_{t:04d}.pgm"))
            assert np.array_equal(pair.orientation, read_pgm(tmp_path / f"ori_{t:04d}.pgm"))

    def test_xy_kind_read_from_names(self, tmp_path):
        write_pairs(tmp_path, "x", "y", (0, 1), (0, 1))
        pairs = read_pair_sequence(tmp_path)
        assert len(pairs) == 2 and all(isinstance(p, XyPair) for p in pairs)

    def test_pairs_by_index_not_position(self, tmp_path):
        # Equal counts, but mag_0001 has no partner and ori_0002 none either.
        write_pairs(tmp_path / "clip", "mag", "ori", (0, 1), (0, 2))
        with pytest.raises(ValueError, match=r"clip: .*indices \['0001', '0002'\]"):
            read_pair_sequence(tmp_path / "clip")

    def test_pairs_in_integer_index_order(self, tmp_path):
        for t, value in ((1, 10), (2, 20), (10, 100)):
            for prefix in ("mag", "ori"):
                write_pgm(tmp_path / f"{prefix}_{t}.pgm", np.full((4, 4), value, dtype=np.uint8))
        pairs = read_pair_sequence(tmp_path)
        assert [int(p.magnitude[0, 0]) for p in pairs] == [10, 20, 100]

    @pytest.mark.parametrize(
        "names, match",
        [
            (["mag_x", "ori_x"], r"clip: mag_x\.pgm has no integer index"),
            (["mag_0001", "ori_0001", "mag_1", "ori_1"], r"clip: mag_0001\.pgm and mag_1\.pgm share index 1"),
            (["mag_0000", "ori_0000", "ori_1", "ori_01"], r"clip: ori_01\.pgm and ori_1\.pgm share index 1"),
        ],
        ids=["not_digits", "same_integer", "same_integer_second_half"],
    )
    def test_bad_index_names_clip(self, tmp_path, names, match):
        (tmp_path / "clip").mkdir()
        for name in names:
            write_pgm(tmp_path / "clip" / f"{name}.pgm", np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match=match):
            read_pair_sequence(tmp_path / "clip")

    def test_image_of_another_size_named(self, tmp_path):
        write_pairs(tmp_path, "mag", "ori", (0, 1, 2), (0, 1, 2))
        write_pgm(tmp_path / "ori_0002.pgm", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(FormatError, match=r"ori_0002\.pgm: image is 2x2, but mag_0000\.pgm is 4x4"):
            read_pair_sequence(tmp_path)

    def test_no_pairs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no mag_/ori_ or x_/y_ PGM pairs"):
            read_pair_sequence(tmp_path)


class TestClipDirs:
    def test_manifest_order_and_first_missing_named(self, tmp_path):
        entries = [ManifestEntry(path, "x", 0, "train") for path in ("b/c1", "a/c0", "c/gone", "d/gone")]
        for e in entries[:2]:
            (tmp_path / e.path).mkdir(parents=True)
        assert clip_dirs(tmp_path, entries[:2]) == [("b/c1", tmp_path / "b/c1"), ("a/c0", tmp_path / "a/c0")]
        with pytest.raises(ValueError, match=f"clip directory missing: {re.escape(str(tmp_path / 'c/gone'))}$"):
            clip_dirs(tmp_path, entries)

    def test_one_clip_without_manifest(self, tmp_path):
        assert clip_dirs(tmp_path) == [("", tmp_path)]


@pytest.mark.parametrize("pair", [MosPair, XyPair])
def test_written_pairs_read_back(tmp_path, pair):
    pairs = [pair(*p) for p in random_pairs(8, 3, 4, 5)]
    write_pair_sequence(tmp_path / "clip", pairs)
    got = read_pair_sequence(tmp_path / "clip")
    assert [type(p) for p in got] == [pair] * 3
    assert all(np.array_equal(a, b) for want, have in zip(pairs, got) for a, b in zip(want, have))


class TestLoadDataset:
    def test_splits_and_pair_counts(self, tmp_path):
        spec = SyntheticSpec(
            frame_size=(32, 32), clips_per_class=3, speeds=(2.0,), directions=("right", "down")
        )
        entries = gen_synthetic(spec, make_rng(1), tmp_path)
        dataset = load_dataset(entries, tmp_path)
        assert dataset.classes == ["right_s2", "down_s2"]
        assert [len(g) for g in dataset.train_by_class] == [2, 2]
        assert len(dataset.test_clips) == 2
        for clip in dataset.test_clips:
            assert len(clip.pairs) == spec.frames_per_clip - 1
            assert clip.pairs[0].magnitude.dtype == np.uint8

    def test_missing_clip_reported_before_flow_work(self, tmp_path):
        entries = [ManifestEntry("nowhere/clip_000", "x", 0, "train")]
        with pytest.raises(ValueError, match="clip directory missing"):
            load_dataset(entries, tmp_path)


class TestLoadPairDataset:
    def test_groups_clips_from_pair_tree(self, tmp_path):
        entries = [
            ManifestEntry("a/clip_0", "a", 0, "train"),
            ManifestEntry("b/clip_0", "b", 1, "train"),
            ManifestEntry("a/clip_1", "a", 0, "test"),
        ]
        for i, e in enumerate(entries):
            write_pairs(tmp_path / e.path, "mag", "ori", range(i + 2), range(i + 2), seed=i)
        dataset = load_pair_dataset(entries, tmp_path)
        assert dataset.classes == ["a", "b"]
        assert [[c.video_id for c in g] for g in dataset.train_by_class] == [["a/clip_0"], ["b/clip_0"]]
        assert [(c.video_id, len(c.pairs)) for c in dataset.test_clips] == [("a/clip_1", 4)]
        assert dataset.stream == "mos"

    def test_missing_clip_reported_before_reading(self, tmp_path):
        write_pairs(tmp_path / "a/clip_0", "mag", "ori", (0,), (1,))  # unreadable if reached
        entries = [ManifestEntry("a/clip_0", "a", 0, "train"), ManifestEntry("nowhere", "a", 0, "test")]
        with pytest.raises(ValueError, match="clip directory missing"):
            load_pair_dataset(entries, tmp_path)


class TestTrainPipeline:
    def test_volume_shape(self):
        pipe = TrainPipeline(stack=StackSpec(10), out_side=16)
        vol = pipe.make_volume(Clip("clip", 0, random_pairs(2, 12, 24, 24)), make_rng(3))
        assert vol.shape == (20, 16, 16)

    def test_deterministic_given_rng(self):
        pipe = TrainPipeline(stack=StackSpec(4), out_side=16)
        clip = Clip("clip", 0, random_pairs(4, 12, 24, 24))
        a = pipe.make_volume(clip, make_rng(5))
        b = pipe.make_volume(clip, make_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("h, w", [(64, 64), (48, 64)])
    def test_crop_first_equals_stack_then_crop(self, h, w):
        # make_volume stacks only the crop window's bytes; the volume must be
        # the bytes of cropping the whole stack with the same draws.
        pipe = TrainPipeline(stack=StackSpec(10), out_side=32)
        clip = Clip("clip", 0, random_pairs(6, 11, h, w))
        sizes, positions, flips = set(), set(), set()
        for i in range(400):
            got = pipe.make_volume(clip, make_rng(7, i))
            rng = make_rng(7, i)
            start = sample_train_start(len(clip.pairs), 10, rng)
            crop = random_multiscale_crop(w, h, rng, 32)
            expected = apply_crop(stack_volume(clip.pairs, start, pipe.stack), crop)
            assert got.tobytes() == expected.tobytes()
            sizes.add((crop.crop_w, crop.crop_h))
            origins = [(c.x, c.y) for c in five_crops(w, h, crop.crop_w, crop.crop_h, 32)]
            if len(set(origins)) == 5:
                positions.add(origins.index((crop.x, crop.y)))
            flips.add(crop.flip)
        assert (len(sizes), positions, flips) == (16, set(range(5)), {False, True})
