"""File formats: PGM/PPM rasters, Middlebury .flo flow, MOSV tensors,
dataset manifests, and the CSV score/loss/confusion files.

Every writer/reader pair round-trips bit-exactly at its declared
precision. Format violations raise FormatError with the byte offset where
parsing failed whenever that is meaningful.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import ByteImage, FlowField

FLO_MAGIC = 202021.25
TENSOR_MAGIC = b"MOSV"
TENSOR_VERSION = 1


class FormatError(ValueError):
    pass


# --------------------------------------------------------------------------
# PGM (P5) and PPM (P6), binary, maxval 255 only


def _parse_pnm_header(data, expected_magic, path):
    if data[:2] != expected_magic:
        raise FormatError(f"{path}: bad magic {data[:2]!r} at byte 0, expected {expected_magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: invalid header token {token!r} at byte {start}")
        fields.append(int(token))
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace after header at byte {pos}")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}, only 255 is handled")
    return width, height, pos


def _read_pnm(path, magic, channels):
    data = Path(path).read_bytes()
    width, height, pos = _parse_pnm_header(data, magic, path)
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise FormatError(f"{path}: expected {need} pixel bytes at byte {pos}, found {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def read_pgm(path) -> ByteImage:
    return _read_pnm(path, b"P5", 1)


def write_pgm(path, img: ByteImage):
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"write_pgm needs a 2-D uint8 array, got {img.dtype} {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def write_ppm(path, rgb: np.ndarray):
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"write_ppm needs an (H, W, 3) uint8 array, got {rgb.dtype} {rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


# --------------------------------------------------------------------------
# Middlebury .flo


def write_flo(path, flow: FlowField):
    h, w = flow.shape
    interleaved = np.empty((h, w, 2), dtype="<f4")
    interleaved[:, :, 0] = flow.u
    interleaved[:, :, 1] = flow.v
    with open(path, "wb") as f:
        f.write(struct.pack("<f", FLO_MAGIC))
        f.write(struct.pack("<ii", w, h))
        f.write(interleaved.tobytes())


def read_flo(path) -> FlowField:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes")
    (magic,) = struct.unpack_from("<f", data, 0)
    if magic != np.float32(FLO_MAGIC):
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {FLO_MAGIC}")
    w, h = struct.unpack_from("<ii", data, 4)
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid dimensions {w}x{h}")
    need = w * h * 2 * 4
    if len(data) - 12 != need:
        raise FormatError(f"{path}: expected {need} payload bytes, found {len(data) - 12}")
    arr = np.frombuffer(data, dtype="<f4", count=w * h * 2, offset=12).reshape(h, w, 2)
    return FlowField(arr[:, :, 0].astype(np.float64), arr[:, :, 1].astype(np.float64))


# --------------------------------------------------------------------------
# MOSV tensor: magic, version byte, u32 dim count, u32 dims, f32 payload


def write_tensor(path, tensor: np.ndarray):
    tensor = np.asarray(tensor)
    if tensor.ndim < 1:
        raise ValueError("cannot write a 0-dimensional tensor")
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(bytes([TENSOR_VERSION]))
        f.write(struct.pack("<I", tensor.ndim))
        f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        f.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def read_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte 0, expected {TENSOR_MAGIC!r}")
    if len(data) < 9 or data[4] != TENSOR_VERSION:
        raise FormatError(f"{path}: unsupported version byte at offset 4")
    (ndim,) = struct.unpack_from("<I", data, 5)
    if ndim == 0:
        raise FormatError(f"{path}: zero dimension count at byte 5")
    header_end = 9 + 4 * ndim
    if len(data) < header_end:
        raise FormatError(f"{path}: truncated dimension list at byte {len(data)}")
    dims = struct.unpack_from(f"<{ndim}I", data, 9)
    # A Python product: an int64 one can wrap to the payload's size.
    count = math.prod(dims)
    need = count * 4
    if len(data) - header_end != need:
        raise FormatError(
            f"{path}: header declares {need} payload bytes, found {len(data) - header_end}"
        )
    arr = np.frombuffer(data, dtype="<f4", count=count, offset=header_end)
    return arr.reshape(dims).astype(np.float32)


# --------------------------------------------------------------------------
# manifest: UTF-8 lines "path<TAB>label<TAB>class_index<TAB>split"; each
# path is relative, '/'-separated, with no '.' or '..' component, so every
# clip stays inside the trees it is read from and written to.


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    class_index: int
    split: str


def write_manifest(path, entries):
    lines = [f"{e.path}\t{e.label}\t{e.class_index}\t{e.split}\n" for e in entries]
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        rel, label, index, split = parts
        if not rel or rel.startswith("/") or any(part in (".", "..") for part in rel.split("/")):
            raise FormatError(f"{path}:{lineno}: clip path must be relative with no '.' or '..' component, got {rel!r}")
        try:
            class_index = int(index)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: class index must be an integer, got {index!r}") from None
        if split not in ("train", "test"):
            raise FormatError(f"{path}:{lineno}: split must be 'train' or 'test', got {split!r}")
        entries.append(ManifestEntry(rel, label, class_index, split))
    _validate_manifest(entries, path)
    return entries


def _validate_manifest(entries, path):
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    paths = [e.path for e in entries]
    if len(set(paths)) != len(paths):
        raise FormatError(f"{path}: duplicate clip paths in manifest")
    indices = sorted({e.class_index for e in entries})
    if indices != list(range(len(indices))):
        raise FormatError(f"{path}: class indices must be dense starting at 0, got {indices}")
    by_index = {}
    for e in entries:
        if by_index.setdefault(e.class_index, e.label) != e.label:
            raise FormatError(f"{path}: class index {e.class_index} maps to multiple labels")


def manifest_classes(entries) -> list[str]:
    """Class labels ordered by class index."""
    labels = {e.class_index: e.label for e in entries}
    return [labels[i] for i in range(len(labels))]


# --------------------------------------------------------------------------
# CSV files: scores, loss curve, confusion counts


def write_scores_csv(path, video_ids, scores: np.ndarray):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != len(video_ids):
        raise ValueError(f"scores must be (n_videos, n_classes), got {scores.shape}")
    k = scores.shape[1]
    header = "video_id," + ",".join(f"class_{i}" for i in range(k))
    lines = [header]
    for vid, row in zip(video_ids, scores):
        lines.append(vid + "," + ",".join(f"{x:.9g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scores_csv(path):
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text:
        raise FormatError(f"{path}: empty scores file")
    header = text[0].split(",")
    if header[0] != "video_id" or len(header) < 2:
        raise FormatError(f"{path}: bad scores header {text[0]!r}")
    k = len(header) - 1
    first_line = {}
    rows = []
    for lineno, line in enumerate(text[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise FormatError(f"{path}:{lineno}: expected {k + 1} columns, got {len(parts)}")
        try:
            row = [float(x) for x in parts[1:]]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric score in {line!r}") from None
        if not np.isfinite(row).all():
            raise FormatError(f"{path}:{lineno}: non-finite score in {line!r}")
        if parts[0] in first_line:
            raise FormatError(f"{path}:{lineno}: video {parts[0]!r} repeats line {first_line[parts[0]]}")
        first_line[parts[0]] = lineno
        rows.append(row)
    return list(first_line), np.asarray(rows, dtype=np.float64).reshape(-1, k)


def write_loss_csv(path, curve):
    lines = ["iter,lr,loss"]
    for it, lr, loss in curve:
        lines.append(f"{it},{lr:.9g},{loss:.9g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_confusion_csv(path, confusion: np.ndarray):
    confusion = np.asarray(confusion)
    lines = [",".join(str(int(x)) for x in row) for row in confusion]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
