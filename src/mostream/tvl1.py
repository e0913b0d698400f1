"""Dense TV-L1 optical flow and an independent block-matching oracle.

The solver minimizes the classic TV-L1 energy

    E(u) = lam * sum |I1(x + u) - I0(x)|  +  TV(u_x) + TV(u_y)

by coarse-to-fine iteration over an image pyramid. At each level it
alternates a point-wise soft-thresholding step on the linearized data term
with dual-projection iterations that solve the total-variation denoising
subproblem, re-warping the second image between passes.

The solver holds each quantity as one stacked ``(2, H, W)`` array: the
image pair (first, second), the flow and its duals (x, then y).

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
    # (d/dx, d/dy) stacked; one-sided half-differences at the border.
    g = np.empty((2,) + img.shape)
    g[0, :, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
    g[0, :, 0] = 0.5 * (img[:, 1] - img[:, 0])
    g[0, :, -1] = 0.5 * (img[:, -1] - img[:, -2])
    g[1, 1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])
    g[1, 0, :] = 0.5 * (img[1, :] - img[0, :])
    g[1, -1, :] = 0.5 * (img[-1, :] - img[-2, :])
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


def _energy(pair, grid, flow, lam):
    warped = bilinear_map(pair[1], *(grid + flow))
    data = lam * np.abs(warped - pair[0]).sum()
    fx, fy = _forward_gradient(flow)
    tv = np.sqrt(fx * fx + fy * fy)
    return float(data + (tv[0].sum() + tv[1].sum()))


def tvl1_energy(prev: GrayImage, nxt: GrayImage, flow: FlowField, lam: float) -> float:
    """Nonlinear TV-L1 energy of a flow field for an image pair."""
    pair = np.array([prev, nxt], dtype=np.float64)
    return _energy(pair, _pixel_grid(*pair.shape[1:]), np.array([flow.u, flow.v]), lam)


def _normalize_pair(prev, nxt):
    # Joint affine map of both images onto [0, 255]; the solver's default
    # weights are tuned for byte-scale intensities. Constant pairs map to
    # zero, which in turn yields exactly zero flow.
    pair = np.array([prev, nxt])
    lo = pair.min()
    hi = pair.max()
    if hi - lo <= 0:
        return np.zeros_like(pair)
    return (pair - lo) * (255.0 / (hi - lo))


def _downscale(pair, scale, size):
    sigma = 0.6 * np.sqrt(1.0 / scale**2 - 1.0)
    return resize_bilinear(gaussian_filter(pair, (0.0, sigma, sigma), mode="nearest"), *size)


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


def _solve_level(pair, flow, params):
    # Returns the refined flow and the accepted energy after each warp.
    grid = _pixel_grid(*flow.shape[1:])
    i0, i1 = pair
    grad = _central_gradient(i1)

    lt = params.lam * params.tv_theta
    taut = params.tau / params.tv_theta
    p1 = np.zeros_like(flow)
    p2 = np.zeros_like(flow)
    energies = []
    accepted = _energy(pair, grid, flow, params.lam)

    for _ in range(params.warps_per_level):
        flow_in = flow
        at = grid + flow
        i1w = bilinear_map(i1, *at)
        g = np.array([bilinear_map(c, *at) for c in grad])
        grad_sq = g[0] * g[0] + g[1] * g[1]
        # Constant part of the residual linearized at the warp point.
        rho_c = i1w - g[0] * flow[0] - g[1] * flow[1] - i0

        for _ in range(params.inner_iterations):
            last = flow
            rho = rho_c + g[0] * flow[0] + g[1] * flow[1]
            # Point-wise minimizer of lam*theta*|rho(v)| + 0.5*|v - u|^2:
            # clamp the Gauss-Newton step to +-lam*theta*|grad|.
            step = np.where(
                rho < -lt * grad_sq,
                lt,
                np.where(rho > lt * grad_sq, -lt, -rho / np.maximum(grad_sq, _GRAD_FLOOR)),
            )
            flow = flow + step * g + params.tv_theta * _divergence(p1, p2)

            fx, fy = _forward_gradient(flow)
            norm = 1.0 + taut * np.sqrt(fx * fx + fy * fy)
            p1 = (p1 + taut * fx) / norm
            p2 = (p2 + taut * fy) / norm

            d = (flow - last) ** 2
            if np.mean(d[0] + d[1]) < params.stop_epsilon**2:
                break

        # Monotone acceptance: the relinearized subproblem can raise the
        # true nonlinear energy; keep the previous flow when it does (dual
        # state carries on, so later warps can still make progress).
        candidate = _energy(pair, grid, flow, params.lam)
        if candidate > accepted:
            flow = flow_in
        else:
            accepted = candidate
        energies.append(accepted)

    return flow, energies


def tvl1_flow(
    prev: GrayImage,
    nxt: GrayImage,
    params: Tvl1Params = Tvl1Params(),
    return_energies: bool = False,
):
    """Dense TV-L1 flow from `prev` to `nxt`.

    With ``return_energies=True`` also returns the nonlinear energy after
    each warp of the finest pyramid level (used by the monotonicity tests).
    """
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.ndim != 2 or prev.shape != nxt.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {nxt.shape}")
    h, w = prev.shape
    if min(h, w) < MIN_LEVEL_SIDE:
        raise ValueError(f"frames must be at least {MIN_LEVEL_SIDE}x{MIN_LEVEL_SIDE}, got {w}x{h}")
    if not (np.isfinite(prev).all() and np.isfinite(nxt).all()):
        raise ValueError("frames contain non-finite values")

    sizes = _pyramid_sizes(h, w, params)
    pyramid = [_normalize_pair(prev, nxt)]
    for size in sizes[1:]:
        pyramid.append(_downscale(pyramid[-1], params.pyramid_scale, size))

    flow = np.zeros((2,) + sizes[-1])
    for pair in reversed(pyramid):
        lh, lw = pair.shape[1:]
        ch, cw = flow.shape[1:]
        if (ch, cw) != (lh, lw):
            # Upscale the coarse flow; displacement values grow with the
            # actual per-axis size ratio (nominally 1/pyramid_scale).
            flow = resize_bilinear(flow, lh, lw) * np.array([lw / cw, lh / ch])[:, None, None]
        flow, energies = _solve_level(pair, flow, params)

    flow = FlowField(flow[0], flow[1])
    if return_energies:
        return flow, energies
    return flow


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
    """TV-L1 flow for every consecutive frame pair: n frames -> n-1 flows."""
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    shape = np.asarray(frames[0]).shape
    for i, f in enumerate(frames):
        if np.asarray(f).shape != shape:
            raise ValueError(f"frame {i} has shape {np.asarray(f).shape}, expected {shape}")
    return [tvl1_flow(frames[t], frames[t + 1], params) for t in range(len(frames) - 1)]
