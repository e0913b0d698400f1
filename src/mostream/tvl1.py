"""Dense TV-L1 optical flow and an independent block-matching oracle.

The solver minimizes the classic TV-L1 energy

    E(u) = lam * sum |I1(x + u) - I0(x)|  +  TV(u_x) + TV(u_y)

by coarse-to-fine iteration over an image pyramid. At each level it
alternates a point-wise soft-thresholding step on the linearized data term
with dual-projection iterations that solve the total-variation denoising
subproblem, re-warping the second image between passes. Warps sample
with ``raster.bilinear_map`` and pyramid levels resize with
``raster.resize_bilinear``.

The solver holds each quantity of N pairs as one ``(N, 2, H, W)`` stack:
the image pairs (first, second), the flows and their duals (x, then y). A
clip's pairs are solved together, one pyramid level at a time, in chunks
that hold no more pixels than one full-resolution pair; every per-pair sum
is a contiguous reduction over that pair's pixels, so each flow is
bit-identical to solving its pair alone.

``block_match_flow`` is a deliberately simple exhaustive-search SAD matcher
used as an independent test oracle for the variational solver; the two share
no code beyond the raster primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .raster import FlowField, GrayImage, bilinear_map, resize_bilinear

# Coarsest pyramid level must keep at least this many pixels per side.
MIN_LEVEL_SIDE = 16

# Guards the Gauss-Newton division where the warped gradient vanishes.
_GRAD_FLOOR = 1e-12


@dataclass(frozen=True)
class Tvl1Params:
    """Solver parameters. Defaults are the reference values of the solver
    family this implementation follows; `lam` weighs the data term against
    the total-variation regularizer."""

    lam: float = 0.15
    tv_theta: float = 0.3
    tau: float = 0.25
    pyramid_scale: float = 0.5
    levels: int = 5
    warps_per_level: int = 5
    inner_iterations: int = 10
    stop_epsilon: float = 0.01

    def __post_init__(self):
        for name in ("lam", "tv_theta", "tau", "pyramid_scale", "stop_epsilon"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.pyramid_scale < 1.0:
            raise ValueError(f"pyramid_scale must lie in (0, 1), got {self.pyramid_scale}")
        if self.levels < 1 or self.warps_per_level < 1 or self.inner_iterations < 1:
            raise ValueError("levels, warps_per_level and inner_iterations must be >= 1")
        if self.tau * self.tv_theta > 0.25:
            raise ValueError(f"tau * tv_theta must be <= 0.25 for dual-step stability, got {self.tau * self.tv_theta}")


def _central_gradient(img):
    # (d/dx, d/dy) of (..., H, W) images, stacked on a new axis before the
    # last two; one-sided half-differences at the border.
    g = np.empty(img.shape[:-2] + (2,) + img.shape[-2:])
    g[..., 0, :, 1:-1] = 0.5 * (img[..., :, 2:] - img[..., :, :-2])
    g[..., 0, :, 0] = 0.5 * (img[..., :, 1] - img[..., :, 0])
    g[..., 0, :, -1] = 0.5 * (img[..., :, -1] - img[..., :, -2])
    g[..., 1, 1:-1, :] = 0.5 * (img[..., 2:, :] - img[..., :-2, :])
    g[..., 1, 0, :] = 0.5 * (img[..., 1, :] - img[..., 0, :])
    g[..., 1, -1, :] = 0.5 * (img[..., -1, :] - img[..., -2, :])
    return g


def _forward_gradient(f):
    # Forward differences over the last two axes, with Neumann (zero)
    # boundary on the last row/col.
    fx = np.zeros_like(f)
    fy = np.zeros_like(f)
    fx[..., :-1] = f[..., 1:] - f[..., :-1]
    fy[..., :-1, :] = f[..., 1:, :] - f[..., :-1, :]
    return fx, fy


def _divergence(p1, p2):
    # Adjoint of _forward_gradient.
    div = np.zeros_like(p1)
    div[..., 0] += p1[..., 0]
    div[..., 1:] += p1[..., 1:] - p1[..., :-1]
    div[..., 0, :] += p2[..., 0, :]
    div[..., 1:, :] += p2[..., 1:, :] - p2[..., :-1, :]
    return div


def _pixel_grid(h, w):
    # (x, y) coordinates of every pixel, stacked like a flow.
    return np.array(np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)))


def _energy(pairs, grid, flow, lam):
    # Energy of each pair of an (N, 2, H, W) stack; every sum is a
    # contiguous reduction over one pair's pixels, as for a lone pair.
    n = len(flow)
    at = grid + flow
    warped = bilinear_map(pairs[:, 1], at[:, 0], at[:, 1])
    data = lam * np.abs(warped - pairs[:, 0]).reshape(n, -1).sum(axis=1)
    fx, fy = _forward_gradient(flow)
    tv = np.sqrt(fx * fx + fy * fy).reshape(n, 2, -1).sum(axis=2)
    return data + (tv[:, 0] + tv[:, 1])


def tvl1_energy(prev: GrayImage, nxt: GrayImage, flow: FlowField, lam: float) -> float:
    """Nonlinear TV-L1 energy of a flow field for an image pair."""
    pairs = np.array([[prev, nxt]], dtype=np.float64)
    return float(_energy(pairs, _pixel_grid(*pairs.shape[2:]), np.array([[flow.u, flow.v]]), lam)[0])


def _normalize_pair(pair):
    # Joint affine map of both images of a (2, H, W) pair onto [0, 255];
    # the solver's default weights are tuned for byte-scale intensities.
    # Constant pairs map to zero, which in turn yields exactly zero flow.
    lo = pair.min()
    hi = pair.max()
    if hi - lo <= 0:
        return np.zeros_like(pair)
    return (pair - lo) * (255.0 / (hi - lo))


def _downscale(pairs, scale, size):
    sigma = 0.6 * np.sqrt(1.0 / scale**2 - 1.0)
    sigmas = (0.0,) * (pairs.ndim - 2) + (sigma, sigma)
    return resize_bilinear(gaussian_filter(pairs, sigmas, mode="nearest"), *size)


def _pyramid_sizes(h, w, params):
    sizes = [(h, w)]
    for _ in range(1, params.levels):
        ph, pw = sizes[-1]
        nh = max(1, int(round(ph * params.pyramid_scale)))
        nw = max(1, int(round(pw * params.pyramid_scale)))
        if min(nh, nw) < MIN_LEVEL_SIDE:
            break
        sizes.append((nh, nw))
    return sizes


def _solve_level(pairs, flow, params):
    # Refines the flows (N, 2, H, W) of a stack of N pairs. Each pair keeps
    # its own stop test, leaving the working set for the rest of a warp
    # once it meets it, and its own monotone acceptance.
    n = len(flow)
    grid = _pixel_grid(*flow.shape[2:])
    # The second image and its gradient, sampled together at every warp.
    src = np.concatenate([pairs[:, 1:], _central_gradient(pairs[:, 1])], axis=1)

    lt = params.lam * params.tv_theta
    taut = params.tau / params.tv_theta
    p1 = np.zeros_like(flow)
    p2 = np.zeros_like(flow)
    accepted = _energy(pairs, grid, flow, params.lam)

    for _ in range(params.warps_per_level):
        at = grid + flow
        warped = bilinear_map(src, at[:, :1], at[:, 1:])
        g = warped[:, 1:]
        grad_sq = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
        # Constant part of the residual linearized at the warp point, the
        # clamp bound lam*theta*|grad|^2 and the Gauss-Newton divisor.
        rho_c = warped[:, 0] - g[:, 0] * flow[:, 0] - g[:, 1] * flow[:, 1] - pairs[:, 0]
        bound = lt * grad_sq
        divisor = np.maximum(grad_sq, _GRAD_FLOOR)

        refined = np.empty_like(flow)
        live = np.arange(n)
        f, q1, q2 = flow, p1, p2
        for _ in range(params.inner_iterations):
            last = f
            rho = rho_c + g[:, 0] * f[:, 0] + g[:, 1] * f[:, 1]
            # Point-wise minimizer of lam*theta*|rho(v)| + 0.5*|v - u|^2:
            # clamp the Gauss-Newton step to +-lam*theta*|grad|.
            step = np.where(rho < -bound, lt, np.where(rho > bound, -lt, -rho / divisor))
            f = f + step[:, None] * g + params.tv_theta * _divergence(q1, q2)

            fx, fy = _forward_gradient(f)
            norm = 1.0 + taut * np.sqrt(fx * fx + fy * fy)
            q1 = (q1 + taut * fx) / norm
            q2 = (q2 + taut * fy) / norm

            d = (f - last) ** 2
            d = (d[:, 0] + d[:, 1]).reshape(len(f), -1)
            # The mean over each pair's pixels, as `np.mean` computes it.
            stop = d.sum(axis=1) / d.shape[1] < params.stop_epsilon**2
            if stop.any():
                done = live[stop]
                refined[done], p1[done], p2[done] = f[stop], q1[stop], q2[stop]
                keep = ~stop
                live = live[keep]
                f, q1, q2, g, rho_c, bound, divisor = (a[keep] for a in (f, q1, q2, g, rho_c, bound, divisor))
                if not len(live):
                    break
        refined[live], p1[live], p2[live] = f, q1, q2

        # Monotone acceptance: the relinearized subproblem can raise the
        # true nonlinear energy; a pair keeps its previous flow when it
        # does (dual state carries on, so later warps can still make
        # progress).
        candidate = _energy(pairs, grid, refined, params.lam)
        rejected = candidate > accepted
        flow = np.where(rejected[:, None, None, None], flow, refined)
        accepted = np.where(rejected, accepted, candidate)

    return flow


def _frame_stack(frames):
    # The frames as one (T, H, W) float64 array, every frame checked
    # before any pair is solved.
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    shape = frames[0].shape
    for i, f in enumerate(frames):
        if f.ndim != 2 or f.shape != shape:
            raise ValueError(f"frame shapes differ: frame 0 is {shape}, frame {i} is {f.shape}")
    h, w = shape
    if min(h, w) < MIN_LEVEL_SIDE:
        raise ValueError(f"frames must be at least {MIN_LEVEL_SIDE}x{MIN_LEVEL_SIDE}, got {w}x{h}")
    frames = np.array(frames)
    if not np.isfinite(frames).all():
        raise ValueError("frames contain non-finite values")
    return frames


def _flows(frames, params):
    # Flows (T-1, 2, H, W) of the consecutive pairs of a (T, H, W) stack.
    # Each level solves its pairs in chunks that together hold no more
    # pixels than one full-resolution pair.
    n = len(frames) - 1
    h, w = frames.shape[1:]
    sizes = _pyramid_sizes(h, w, params)
    scale = params.pyramid_scale

    # The coarse levels of every pair, finest first. A full-resolution pair
    # is normalized when it is downscaled and again when it is solved, so
    # only one is held at a time.
    coarse = []
    if len(sizes) > 1:
        coarse.append(np.array([_downscale(_normalize_pair(frames[t : t + 2]), scale, sizes[1]) for t in range(n)]))
    for size in sizes[2:]:
        coarse.append(_downscale(coarse[-1], scale, size))

    flow = np.zeros((n, 2) + sizes[-1])
    for lh, lw in reversed(sizes):
        pairs = coarse.pop() if coarse else None
        chunk = max(1, (h * w) // (lh * lw))
        ch, cw = flow.shape[2:]
        # Upscale the coarse flow; displacement values grow with the
        # actual per-axis size ratio (nominally 1/pyramid_scale).
        ratio = np.array([lw / cw, lh / ch])[:, None, None]
        level = np.empty((n, 2, lh, lw))
        for s in range(0, n, chunk):
            end = min(s + chunk, n)
            if pairs is None:
                part = np.array([_normalize_pair(frames[t : t + 2]) for t in range(s, end)])
            else:
                part = pairs[s:end]
            level[s:end] = _solve_level(part, resize_bilinear(flow[s:end], lh, lw) * ratio, params)
        flow = level
    return flow


def tvl1_flow(prev: GrayImage, nxt: GrayImage, params: Tvl1Params = Tvl1Params()) -> FlowField:
    """Dense TV-L1 flow from `prev` to `nxt`."""
    flows = _flows(_frame_stack([prev, nxt]), params)
    return FlowField(flows[0, 0], flows[0, 1])


def _box_sum(x, k):
    # Exact k*k box sums via an integral image; for integer-valued float
    # inputs every partial sum is exactly representable, so SAD comparisons
    # and tie-breaks are deterministic.
    ii = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    np.cumsum(x, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    return ii[k:, k:] - ii[:-k, k:] - ii[k:, :-k] + ii[:-k, :-k]


def block_match_flow(
    prev: GrayImage,
    nxt: GrayImage,
    patch: int = 7,
    search_radius: int = 4,
) -> FlowField:
    """Exhaustive-search integer flow minimizing patch SAD.

    Ties break to the smallest displacement magnitude, then to row-major
    scan order of the search window, so identical frames yield exactly
    zero flow.
    """
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.ndim != 2 or prev.shape != nxt.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {nxt.shape}")
    if patch < 3 or patch % 2 == 0:
        raise ValueError(f"patch must be odd and >= 3, got {patch}")
    if search_radius < 1:
        raise ValueError(f"search_radius must be >= 1, got {search_radius}")

    h, w = prev.shape
    hp = patch // 2
    r = search_radius
    pad = hp + r
    p0 = np.pad(prev, pad, mode="edge")
    p1 = np.pad(nxt, pad, mode="edge")
    ref = p0[pad - hp : pad + h + hp, pad - hp : pad + w + hp]

    side = 2 * r + 1
    candidates = sorted(
        ((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], (d[0] + r) * side + (d[1] + r)),
    )

    best_cost = None
    u = np.zeros((h, w))
    v = np.zeros((h, w))
    for dy, dx in candidates:
        win = p1[pad - hp + dy : pad + h + hp + dy, pad - hp + dx : pad + w + hp + dx]
        cost = _box_sum(np.abs(ref - win), patch)
        if best_cost is None:
            best_cost = cost
            u.fill(dx)
            v.fill(dy)
        else:
            better = cost < best_cost
            best_cost = np.where(better, cost, best_cost)
            u = np.where(better, float(dx), u)
            v = np.where(better, float(dy), v)
    return FlowField(u, v)


def video_flows(frames: list, params: Tvl1Params = Tvl1Params()) -> list[FlowField]:
    """TV-L1 flow for every consecutive frame pair: n frames -> n-1 flows.

    Every frame is checked before any pair is solved. The pairs are solved
    together, level by level, and each flow is bit-identical to
    ``tvl1_flow`` on its pair alone.
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    flows = _flows(_frame_stack(frames), params)
    return [FlowField(f[0], f[1]) for f in flows]
