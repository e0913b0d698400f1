"""Synthetic moving-texture dataset generator with known ground-truth motion.

Each clip is a smoothed random texture observed through a window that
moves over a larger canvas, so the true flow between consecutive frames
is the class displacement at every pixel. Default classes are the four
axis directions crossed with two speeds; rotation and zoom families are
available behind flags. Clips within a class differ by texture and by a
random starting phase of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .formats import ManifestEntry, write_manifest, write_pgm
from .raster import Rng, bilinear_map, rng_uniform
from .volume import DEFAULT_STACK_LENGTH

DIRECTIONS = {
    "right": (1.0, 0.0),
    "left": (-1.0, 0.0),
    "up": (0.0, -1.0),
    "down": (0.0, 1.0),
}

# Extra canvas room for the random starting phase, pixels per axis.
_PHASE_ROOM = 8

# Gaussian smoothing of the white-noise texture, pixels.
_TEXTURE_SIGMA = 1.5


@dataclass(frozen=True)
class MotionClass:
    label: str
    kind: str  # translate | rotate | zoom
    param: tuple  # (dx, dy) px/frame, or (deg/frame,), or (scale/frame,)


@dataclass(frozen=True)
class SyntheticSpec:
    frame_size: tuple[int, int] = (64, 64)  # (height, width)
    frames_per_clip: int = 12
    clips_per_class: int = 20
    speeds: tuple[float, ...] = (1.0, 3.0)
    directions: tuple[str, ...] = ("right", "left", "up", "down")
    motions: tuple[str, ...] = ("translate",)
    train_fraction: float = 0.8
    stack_length: int = DEFAULT_STACK_LENGTH

    def __post_init__(self):
        if self.frames_per_clip < self.stack_length + 2:
            raise ValueError(
                f"frames_per_clip ({self.frames_per_clip}) must exceed stack_length + 1 "
                f"({self.stack_length + 1})"
            )
        if min(self.frame_size) < 16:
            raise ValueError(f"frame_size must be at least 16x16, got {self.frame_size}")
        if self.clips_per_class < 1:
            raise ValueError("clips_per_class must be >= 1")
        if not np.isfinite(self.speeds).all():
            raise ValueError(f"speeds must be finite, got {self.speeds}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        unknown = set(self.motions) - {"translate", "rotate", "zoom"}
        if unknown:
            raise ValueError(f"unknown motion kinds {sorted(unknown)}")
        bad = set(self.directions) - set(DIRECTIONS)
        if bad:
            raise ValueError(f"unknown directions {sorted(bad)}")
        # A label names its class's clip directory, so a repeat would
        # overwrite the earlier class's clips.
        labels = [c.label for c in self.classes()]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"class label {label!r} repeats; every class needs its own label")

    def classes(self) -> list[MotionClass]:
        out = []
        for kind in self.motions:
            if kind == "translate":
                for direction in self.directions:
                    dx, dy = DIRECTIONS[direction]
                    for speed in self.speeds:
                        out.append(
                            MotionClass(f"{direction}_s{_fmt(speed)}", "translate", (dx * speed, dy * speed))
                        )
            elif kind == "rotate":
                for sense, sign in (("cw", 1.0), ("ccw", -1.0)):
                    for speed in self.speeds:
                        out.append(MotionClass(f"rot{sense}_s{_fmt(speed)}", "rotate", (sign * speed,)))
            elif kind == "zoom":
                for sense, sign in (("in", 1.0), ("out", -1.0)):
                    for speed in self.speeds:
                        out.append(
                            MotionClass(f"zoom{sense}_s{_fmt(speed)}", "zoom", (1.0 + sign * 0.01 * speed,))
                        )
        return out


def _fmt(speed: float) -> str:
    return f"{speed:g}".replace(".", "p")


def _texture(rng: Rng, h: int, w: int) -> np.ndarray:
    tex = gaussian_filter(rng.standard_normal((h, w)), _TEXTURE_SIGMA, mode="wrap")
    lo, hi = tex.min(), tex.max()
    return (tex - lo) * (255.0 / (hi - lo))


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def render_clip(cls: MotionClass, spec: SyntheticSpec, rng: Rng) -> list[np.ndarray]:
    """Byte frames for one clip of the given motion class.

    Class parameters describe CONTENT motion (e.g. translate (3, 0) means
    texture moves 3 px right per frame), so frames sample the canvas
    through the inverse map.
    """
    h, w = spec.frame_size
    t_count = spec.frames_per_clip
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    if cls.kind == "translate":
        dx, dy = cls.param
        span_x = int(np.ceil(abs(dx) * (t_count - 1)))
        span_y = int(np.ceil(abs(dy) * (t_count - 1)))
        canvas = _texture(rng, h + span_y + _PHASE_ROOM, w + span_x + _PHASE_ROOM)
        # Window slides by -d per frame; start so every offset stays inside.
        ox = rng_uniform(rng, _PHASE_ROOM + 1) + (span_x if dx > 0 else 0)
        oy = rng_uniform(rng, _PHASE_ROOM + 1) + (span_y if dy > 0 else 0)
        return [_quantize(bilinear_map(canvas, gx + ox - t * dx, gy + oy - t * dy)) for t in range(t_count)]

    # Rotation and zoom sample the canvas through the inverse affine map
    # about the frame center; the margin absorbs the corner excursions.
    margin = int(np.ceil(0.5 * max(h, w))) + _PHASE_ROOM
    canvas = _texture(rng, h + 2 * margin, w + 2 * margin)
    phase_x = rng_uniform(rng, _PHASE_ROOM + 1) - _PHASE_ROOM // 2
    phase_y = rng_uniform(rng, _PHASE_ROOM + 1) - _PHASE_ROOM // 2
    cx = margin + phase_x + (w - 1) / 2.0
    cy = margin + phase_y + (h - 1) / 2.0
    rel_x = gx - (w - 1) / 2.0
    rel_y = gy - (h - 1) / 2.0
    frames = []
    for t in range(t_count):
        if cls.kind == "rotate":
            angle = np.radians(-cls.param[0] * t)
            ca, sa = np.cos(angle), np.sin(angle)
            sx = cx + ca * rel_x - sa * rel_y
            sy = cy + sa * rel_x + ca * rel_y
        else:
            scale = cls.param[0] ** (-t)
            sx = cx + rel_x * scale
            sy = cy + rel_y * scale
        frames.append(_quantize(bilinear_map(canvas, sx, sy)))
    return frames


def gen_synthetic(spec: SyntheticSpec, rng: Rng, out_dir) -> list[ManifestEntry]:
    """Write the clip tree and manifest under out_dir; returns the entries.

    Layout: <out_dir>/<label>/clip_NNN/frame_NNN.pgm plus manifest.tsv.
    The split is stratified per class by clip index (first train_fraction
    of clips train, remainder test). Fully determined by the rng.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classes = spec.classes()
    train_count = int(np.floor(spec.train_fraction * spec.clips_per_class + 0.5))
    train_count = min(max(train_count, 1), spec.clips_per_class - 1) if spec.clips_per_class > 1 else 1
    entries = []
    for class_index, cls in enumerate(classes):
        for clip_index in range(spec.clips_per_class):
            rel = f"{cls.label}/clip_{clip_index:03d}"
            clip_dir = out_dir / rel
            clip_dir.mkdir(parents=True, exist_ok=True)
            frames = render_clip(cls, spec, rng)
            for t, frame in enumerate(frames):
                write_pgm(clip_dir / f"frame_{t:03d}.pgm", frame)
            split = "train" if clip_index < train_count else "test"
            entries.append(ManifestEntry(rel, cls.label, class_index, split))
    write_manifest(out_dir / "manifest.tsv", entries)
    return entries
