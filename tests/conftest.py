import numpy as np

from mostream.raster import bilinear_map, make_rng
from mostream.synth import _texture


def smooth_texture(seed, h, w):
    """Seeded smoothed-noise texture scaled to [0, 255], by synth's rule."""
    return _texture(make_rng(seed), h, w)


def shift_image(img, dx, dy):
    """Translate image content by (dx, dy) with clamp borders."""
    h, w = img.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    return bilinear_map(img, xs - dx, ys - dy)


def interior_mask(h, w, fraction=0.8):
    """Boolean mask selecting the central fraction of the raster."""
    my = int(round(h * (1.0 - fraction) / 2.0))
    mx = int(round(w * (1.0 - fraction) / 2.0))
    mask = np.zeros((h, w), dtype=bool)
    mask[my : h - my, mx : w - mx] = True
    return mask


def interior_epe(flow, u, v):
    """Mean endpoint error of `flow` against the displacement (u, v) over
    `interior_mask`; u and v are scalars or arrays of the flow's shape."""
    return np.hypot(flow.u - u, flow.v - v)[interior_mask(*flow.shape)].mean()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance.py" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"[{verdict}] {name}")
