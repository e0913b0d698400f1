import numpy as np
import pytest

from mostream.formats import (
    FormatError,
    ManifestEntry,
    manifest_classes,
    read_flo,
    read_manifest,
    read_pgm,
    read_ppm,
    read_scores_csv,
    read_tensor,
    write_confusion_csv,
    write_flo,
    write_loss_csv,
    write_manifest,
    write_pgm,
    write_ppm,
    write_scores_csv,
    write_tensor,
)
from mostream.raster import FlowField, make_rng


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = np.array([[0, 255], [7, 128]], dtype=np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02")
        assert np.array_equal(read_pgm(path), np.array([[1, 2]], dtype=np.uint8))

    def test_maxval_65535_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="byte 0"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(FormatError, match="expected 4 pixel bytes"):
            read_pgm(path)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rgb = make_rng(0).integers(0, 256, (3, 2, 3), dtype=np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(path, rgb)
        assert np.array_equal(read_ppm(path), rgb)

    def test_rejects_gray_header(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_ppm(path)


class TestFlo:
    def test_round_trip_small(self, tmp_path):
        flow = FlowField(np.array([[3.0]]), np.array([[4.0]]))
        path = tmp_path / "a.flo"
        write_flo(path, flow)
        assert path.stat().st_size == 20
        back = read_flo(path)
        assert back.u[0, 0] == 3.0 and back.v[0, 0] == 4.0

    def test_zero_flow_round_trip(self, tmp_path):
        flow = FlowField(np.zeros((4, 5)), np.zeros((4, 5)))
        path = tmp_path / "z.flo"
        write_flo(path, flow)
        back = read_flo(path)
        assert np.all(back.u == 0.0) and np.all(back.v == 0.0)

    def test_exact_at_float32(self, tmp_path):
        rng = make_rng(1)
        u = rng.normal(size=(6, 7)).astype(np.float32).astype(np.float64)
        v = rng.normal(size=(6, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "r.flo"
        write_flo(path, FlowField(u, v))
        back = read_flo(path)
        assert np.array_equal(back.u, u) and np.array_equal(back.v, v)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"\x00\x00\x00\x00" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_flo(path)

    def test_truncated_payload(self, tmp_path):
        flow = FlowField(np.zeros((2, 2)), np.zeros((2, 2)))
        path = tmp_path / "t.flo"
        write_flo(path, flow)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected 32 payload bytes, found 28"):
            read_flo(path)


class TestTensor:
    def test_round_trip(self, tmp_path):
        t = make_rng(2).normal(size=(4, 3, 5)).astype(np.float32)
        path = tmp_path / "a.mosv"
        write_tensor(path, t)
        assert np.array_equal(read_tensor(path), t)

    def test_volume_sized_round_trip_bit_identical(self, tmp_path):
        t = make_rng(3).normal(size=(20, 56, 56)).astype(np.float32)
        path = tmp_path / "v.mosv"
        write_tensor(path, t)
        assert read_tensor(path).tobytes() == t.tobytes()

    def test_payload_size_checked(self, tmp_path):
        t = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "b.mosv"
        write_tensor(path, t)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="payload"):
            read_tensor(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "c.mosv"
        path.write_bytes(b"MOSV\x01" + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="zero dimension"):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "d.mosv"
        path.write_bytes(b"MOSV\x02" + b"\x01\x00\x00\x00" + b"\x01\x00\x00\x00" + b"\x00" * 4)
        with pytest.raises(FormatError, match="version"):
            read_tensor(path)


class TestManifest:
    def entries(self):
        return [
            ManifestEntry("a/clip_0", "left", 0, "train"),
            ManifestEntry("a/clip_1", "left", 0, "test"),
            ManifestEntry("b/clip_0", "right", 1, "train"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, self.entries())
        assert read_manifest(path) == self.entries()

    def test_classes_ordered(self, tmp_path):
        assert manifest_classes(self.entries()) == ["left", "right"]

    def test_duplicate_paths_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        bad = self.entries() + [ManifestEntry("a/clip_0", "left", 0, "train")]
        write_manifest(path, bad)
        with pytest.raises(FormatError, match="duplicate"):
            read_manifest(path)

    def test_sparse_class_indices_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, [ManifestEntry("a", "x", 0, "train"), ManifestEntry("b", "y", 2, "train")])
        with pytest.raises(FormatError, match="dense"):
            read_manifest(path)

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a\tx\t0\tvalidation\n")
        with pytest.raises(FormatError, match="split"):
            read_manifest(path)

    @pytest.mark.parametrize("rel", ["../escape", "/abs/clip", "", ".", "a/../../b", "a/./b", "a/.."])
    def test_path_leaving_the_tree_rejected(self, tmp_path, rel):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"a/clip_0\tx\t0\ttrain\n{rel}\tx\t0\ttest\n")
        with pytest.raises(FormatError, match=":2: clip path"):
            read_manifest(path)

    def test_dotted_names_accepted(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a/..clip\tx\t0\ttrain\n.hidden/c.1\tx\t0\ttest\n")
        assert [e.path for e in read_manifest(path)] == ["a/..clip", ".hidden/c.1"]

    @pytest.mark.parametrize("index", ["one", "1.5", ""])
    def test_non_integer_class_index_rejected(self, tmp_path, index):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"a\tx\t0\ttrain\nb\ty\t{index}\ttest\n")
        with pytest.raises(FormatError, match=":2: class index"):
            read_manifest(path)


class TestCsv:
    def test_scores_round_trip(self, tmp_path):
        ids = ["v0", "v1"]
        scores = np.array([[0.125, 0.875], [1.0 / 3.0, 2.0 / 3.0]])
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ids, scores)
        text = path.read_text()
        assert text.splitlines()[0] == "video_id,class_0,class_1"
        back_ids, back = read_scores_csv(path)
        assert back_ids == ids
        assert np.allclose(back, scores, atol=1e-9)

    def test_scores_nine_significant_digits(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ["v"], np.array([[0.123456789123, 0.5]]))
        assert "0.123456789" in path.read_text()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_scores_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "scores.csv"
        path.write_text(f"video_id,class_0,class_1\nv0,0.5,0.5\nv1,{value},0.5\n")
        with pytest.raises(FormatError, match=":3:"):
            read_scores_csv(path)

    def test_scores_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("video_id,class_0,class_1\nv0,0.5,0.5\nv1,high,0.5\n")
        with pytest.raises(FormatError, match=":3: non-numeric"):
            read_scores_csv(path)

    def test_scores_header_only_keeps_width(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("video_id,class_0,class_1,class_2\n")
        ids, scores = read_scores_csv(path)
        assert ids == [] and scores.shape == (0, 3)

    def test_scores_rejects_repeated_video(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("video_id,class_0,class_1\nv0,0.5,0.5\nv1,0.2,0.8\nv0,0.1,0.9\n")
        with pytest.raises(FormatError, match=r":4: video 'v0' repeats line 2"):
            read_scores_csv(path)

    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(0, 0.005, 2.0794), (1, 0.005, 1.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,lr,loss"
        assert lines[1].startswith("0,0.005,")

    def test_confusion_csv(self, tmp_path):
        path = tmp_path / "conf.csv"
        write_confusion_csv(path, np.array([[3, 1], [0, 4]]))
        assert path.read_text() == "3,1\n0,4\n"
