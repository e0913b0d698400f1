"""Dataset plumbing: read clips, cache their byte-image pairs, and build
training volumes with the random stack start and multi-scale crop."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .augment import CropSpec, apply_crop, random_multiscale_crop
from .formats import FormatError, ManifestEntry, manifest_classes, read_flo, read_pgm, read_ppm, write_flo, write_pgm
from .fusion import pairs_from_frames
from .mos import STREAMS, MosParams, stream_of
from .net import DEFAULT_INPUT_SIDE
from .raster import FlowField, Rng, to_gray
from .tvl1 import Tvl1Params
from .volume import StackSpec, sample_train_start, stack_volume

FRAME_SUFFIXES = (".pgm", ".ppm")


@dataclass(frozen=True)
class Clip:
    video_id: str
    class_index: int
    pairs: list  # per-transition (first, second) byte-image pairs


@dataclass
class ClipDataset:
    classes: list[str]
    train_by_class: list[list[Clip]]
    test_clips: list[Clip]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def clips(self) -> list[Clip]:
        """Test clips, then train clips class by class."""
        return self.test_clips + [c for group in self.train_by_class for c in group]

    @property
    def stream(self) -> str:
        """Stream kind of the first clip's pairs (`load_pair_dataset` rejects a mix)."""
        return stream_of(self.clips[0].pairs)


def by_index(paths, where) -> dict:
    """{index: path} of a clip's numbered files, in index order.

    A file's index is the integer that ends its stem: 2 for `frame_2.pgm`,
    10 for `flow_0010.flo`. A stem without one, or two files with one
    index, raise ValueError naming the file and `where`.
    """
    out = {}
    for p in sorted(paths):
        digits = re.search(r"[0-9]+\Z", p.stem)
        if digits is None:
            raise ValueError(f"{where}: {p.name} has no integer index")
        i = int(digits.group())
        if out.setdefault(i, p) != p:
            raise ValueError(f"{where}: {out[i].name} and {p.name} share index {i}")
    return dict(sorted(out.items()))


def clip_dirs(root, entries: list[ManifestEntry] | None = None) -> list[tuple[str, Path]]:
    """(manifest path, directory) of every clip, in manifest order:
    `root / path` per entry, or `("", root)` for one clip without a manifest.

    Every directory is checked before the list is returned, so a missing
    clip is reported before any clip is read.
    """
    root = Path(root)
    dirs = [(e.path, root / e.path) for e in entries] if entries is not None else [("", root)]
    for _, clip_dir in dirs:
        if not clip_dir.is_dir():
            raise ValueError(f"clip directory missing: {clip_dir}")
    return dirs


def _read_numbered(clip_dir, files, read, kind) -> list:
    """`read` of each of a clip's `files`, in `by_index` order. A clip with
    none raises ValueError naming `kind`, and every result must have the
    first file's size (`_check_one_size`)."""
    paths = list(by_index(files, clip_dir).values())
    if not paths:
        raise ValueError(f"no {kind} in {clip_dir}")
    items = [read(p) for p in paths]
    _check_one_size(paths, items)
    return items


def _check_one_size(paths, images):
    """Raise FormatError naming the first file whose image (or flow) size
    differs from the clip's first one."""
    for path, image in zip(paths, images):
        if image.shape != images[0].shape:
            (h, w), (h0, w0) = image.shape, images[0].shape
            raise FormatError(f"{path}: image is {w}x{h}, but {paths[0].name} is {w0}x{h0}")


def _read_frame(path) -> np.ndarray:
    if path.suffix.lower() == ".pgm":
        return read_pgm(path).astype(np.float64)
    return to_gray(read_ppm(path))


def read_clip_frames(clip_dir) -> list[np.ndarray]:
    """Grayscale float frames from a directory of PGM/PPM files, in the
    order of their names' integer index (`by_index`); every frame must have
    the first frame's size."""
    clip_dir = Path(clip_dir)
    frame_files = (p for p in clip_dir.iterdir() if p.suffix.lower() in FRAME_SUFFIXES)
    return _read_numbered(clip_dir, frame_files, _read_frame, "frame files (*.pgm, *.ppm)")


def read_flow_sequence(clip_dir) -> list[FlowField]:
    """The `.flo` flows of a clip directory, in `by_index` order; every flow
    must have the first flow's size."""
    clip_dir = Path(clip_dir)
    return _read_numbered(clip_dir, clip_dir.glob("*.flo"), read_flo, ".flo files")


def write_flow_sequence(dest, flows) -> None:
    """Write `flows` as `dest/flow_NNNN.flo`, NNNN the flow's position."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    for t, flow in enumerate(flows):
        write_flo(dest / f"flow_{t:04d}.flo", flow)


def read_pair_sequence(clip_dir) -> list:
    """Byte-image pairs from a directory `write_pair_sequence` wrote, in index order.

    The stream kind comes from the file names, `<prefix>_NNNN.pgm` with a
    kind's two prefixes from `mos.STREAMS`. Files pair and are ordered by
    their integer index NNNN (`by_index`), and both halves must cover the
    same indices. Every image must have the size of the clip's first image.
    """
    clip_dir = Path(clip_dir)
    for stream in STREAMS.values():
        first, second = stream.prefixes
        firsts = by_index(clip_dir.glob(f"{first}_*.pgm"), clip_dir)
        if not firsts:
            continue
        seconds = by_index(clip_dir.glob(f"{second}_*.pgm"), clip_dir)
        unmatched = [f"{i:04d}" for i in sorted(firsts.keys() ^ seconds.keys())]
        if unmatched:
            raise ValueError(f"{clip_dir}: {first}_/{second}_ images without a partner at indices {unmatched}")
        paths = [p for i in firsts for p in (firsts[i], seconds[i])]
        images = [read_pgm(p) for p in paths]
        _check_one_size(paths, images)
        return [stream.pair(first, second) for first, second in zip(images[::2], images[1::2])]
    kinds = " or ".join("{}_/{}_".format(*stream.prefixes) for stream in STREAMS.values())
    raise ValueError(f"no {kinds} PGM pairs in {clip_dir}")


def write_pair_sequence(dest, pairs) -> None:
    """Write a non-empty list of byte pairs as `dest/<prefix>_NNNN.pgm`,
    with the two prefixes of their stream kind (`mos.stream_of`)."""
    dest = Path(dest)
    prefixes = STREAMS[stream_of(pairs)].prefixes
    dest.mkdir(parents=True, exist_ok=True)
    for t, pair in enumerate(pairs):
        for prefix, image in zip(prefixes, pair):
            write_pgm(dest / f"{prefix}_{t:04d}.pgm", image)


def _group_clips(entries: list[ManifestEntry], root, pairs_of: Callable, progress=None) -> ClipDataset:
    """Group manifest entries into a ClipDataset; `pairs_of(clip_dir)`
    gives a clip's byte pairs. Missing clip directories are reported
    before any file is read (`clip_dirs`)."""
    classes = manifest_classes(entries)
    train_by_class = [[] for _ in classes]
    test_clips = []
    for i, (e, (_, clip_dir)) in enumerate(zip(entries, clip_dirs(root, entries))):
        clip = Clip(e.path, e.class_index, pairs_of(clip_dir))
        if e.split == "train":
            train_by_class[e.class_index].append(clip)
        else:
            test_clips.append(clip)
        if progress is not None:
            progress(i + 1, len(entries))
    return ClipDataset(classes, train_by_class, test_clips)


def load_dataset(
    entries: list[ManifestEntry],
    root,
    tvl1_params: Tvl1Params = Tvl1Params(),
    mos_params: MosParams = MosParams(),
    progress: Callable | None = None,
) -> ClipDataset:
    """Compute the MOS byte pairs of every manifest clip from its frames.

    Missing clip directories are reported before any flow work starts.
    """

    def pairs_of(clip_dir):
        return pairs_from_frames(read_clip_frames(clip_dir), tvl1_params, mos_params)

    return _group_clips(entries, root, pairs_of, progress)


def load_pair_dataset(entries: list[ManifestEntry], pair_root) -> ClipDataset:
    """Read every manifest clip's byte pairs from `pair_root / <path>`,
    the tree `mostream mos --manifest` writes; no flow is computed.

    All clips must hold pairs of one stream kind.
    """
    dataset = _group_clips(entries, pair_root, read_pair_sequence)
    first_clip = {}
    for clip in dataset.clips:
        first_clip.setdefault(stream_of(clip.pairs), clip.video_id)
    if len(first_clip) > 1:
        mix = ", ".join(f"{kind} (clip {video_id})" for kind, video_id in first_clip.items())
        raise ValueError(f"{pair_root} mixes stream kinds: {mix}")
    return dataset


@dataclass(frozen=True)
class TrainPipeline:
    """Randomized volume construction used by the training loop."""

    stack: StackSpec = field(default_factory=StackSpec)
    out_side: int = DEFAULT_INPUT_SIDE

    def make_volume(self, clip: Clip, rng: Rng) -> np.ndarray:
        length = self.stack.stack_length
        start = sample_train_start(len(clip.pairs), length, rng)
        h, w = np.shape(clip.pairs[start][0])
        crop = random_multiscale_crop(w, h, rng, self.out_side)
        # Normalizing, flipping and resizing act element by element, so the
        # byte window stacked and cropped at the origin is the same volume.
        rows, cols = slice(crop.y, crop.y + crop.crop_h), slice(crop.x, crop.x + crop.crop_w)
        window = [(first[rows, cols], second[rows, cols]) for first, second in clip.pairs[start : start + length]]
        at_origin = CropSpec(0, 0, crop.crop_w, crop.crop_h, crop.flip, crop.out_side)
        return apply_crop(stack_volume(window, 0, self.stack), at_origin)
