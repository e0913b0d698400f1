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

A level makes the inner iterations' arrays once, sized for its chunk (the
flow and its previous value, double-buffered; the duals; the residual,
step, forward gradients, divergence and a scratch array), and every
update writes into them with ``out=``. Pairs that meet the stop test leave
the working set, which then uses the leading entries of the same arrays.
The second image and its gradient are sampled together at each flow's end
points; the acceptance energy of a warp reads that sample, and when the
warp is accepted the next warp linearizes at it, so a level samples once
per warp plus once at its start.

Precision: frames come in and are checked in float64, and each pair is
mapped onto [0, 255] in float64 before it is rounded to float32, so no
finite frame overflows. From there the pyramid, the flows, their duals and
every level buffer are float32, as in the reference single-precision
solvers. The per-pair sums that decide something (the energies of the
monotone acceptance and the stop test's mean squared change) accumulate in
float64. ``tvl1_flow`` and ``video_flows`` return float64 fields.

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
    g = np.empty(img.shape[:-2] + (2,) + img.shape[-2:], dtype=img.dtype)
    g[..., 0, :, 1:-1] = 0.5 * (img[..., :, 2:] - img[..., :, :-2])
    g[..., 0, :, 0] = 0.5 * (img[..., :, 1] - img[..., :, 0])
    g[..., 0, :, -1] = 0.5 * (img[..., :, -1] - img[..., :, -2])
    g[..., 1, 1:-1, :] = 0.5 * (img[..., 2:, :] - img[..., :-2, :])
    g[..., 1, 0, :] = 0.5 * (img[..., 1, :] - img[..., 0, :])
    g[..., 1, -1, :] = 0.5 * (img[..., -1, :] - img[..., -2, :])
    return g


def _forward_gradient(f, out=None):
    # Forward differences over the last two axes, with Neumann (zero)
    # boundary on the last row/col; written into `out`, a pair of
    # C-contiguous arrays, when given. Each difference runs over the
    # flattened array in one pass, so the entries that cross a row (or an
    # image) end up in the last column (row) and are then zeroed.
    w = f.shape[-1]
    fx, fy = (np.empty_like(f), np.empty_like(f)) if out is None else out
    flat = f.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=fx.reshape(-1)[:-1])
    fx[..., -1] = 0.0
    np.subtract(flat[w:], flat[:-w], out=fy.reshape(-1)[:-w])
    fy[..., -1, :] = 0.0
    return fx, fy


def _divergence(p1, p2, out=None):
    # Adjoint of _forward_gradient, written into the C-contiguous `out`
    # when given. The flattened differences cross rows (images) in the
    # first column (row), where the dual's own value goes instead.
    w = p1.shape[-1]
    div = np.empty_like(p1) if out is None else out
    dy = np.empty_like(p1)
    flat, a = div.reshape(-1), p1.reshape(-1)
    np.subtract(a[1:], a[:-1], out=flat[1:])
    div[..., 0] = p1[..., 0]
    flat, a = dy.reshape(-1), p2.reshape(-1)
    np.subtract(a[w:], a[:-w], out=flat[w:])
    dy[..., 0, :] = p2[..., 0, :]
    return np.add(div, dy, out=div)


def _pixel_grid(h, w):
    # (x, y) coordinates of every pixel, stacked like a flow; float32 holds
    # them exactly, and adding a float64 flow gives float64 end points.
    return np.array(np.meshgrid(np.arange(w, dtype=np.float32), np.arange(h, dtype=np.float32)))


def _energy(pairs, grid, flow, lam):
    # Energy of each pair of an (N, 2, H, W) stack.
    at = grid + flow
    return _sampled_energy(pairs[:, 0], bilinear_map(pairs[:, 1], at[:, 0], at[:, 1]), flow, lam)


def _sampled_energy(first, warped, flow, lam):
    # Energy of each of N flows, given the second images sampled at the
    # flows' end points; every sum is a contiguous float64 reduction over
    # one pair's pixels, as for a lone pair.
    n = len(flow)
    data = lam * np.abs(warped - first).reshape(n, -1).sum(axis=1, dtype=np.float64)
    fx, fy = _forward_gradient(flow)
    tv = np.sqrt(fx * fx + fy * fy).reshape(n, 2, -1).sum(axis=2, dtype=np.float64)
    return data + (tv[:, 0] + tv[:, 1])


def tvl1_energy(prev: GrayImage, nxt: GrayImage, flow: FlowField, lam: float) -> float:
    """Nonlinear TV-L1 energy of a flow field for an image pair."""
    pairs = np.array([[prev, nxt]], dtype=np.float64)
    return float(_energy(pairs, _pixel_grid(*pairs.shape[2:]), np.array([[flow.u, flow.v]]), lam)[0])


def _normalize_pair(pair):
    # Joint affine map of both images of a float64 (2, H, W) pair onto
    # [0, 255], then rounded to the solver's float32; the solver's default
    # weights are tuned for byte-scale intensities. Constant pairs map to
    # zero, which in turn yields exactly zero flow.
    lo = pair.min()
    hi = pair.max()
    if not hi > lo:
        return np.zeros(pair.shape, dtype=np.float32)
    # Scaling by a power of two first is exact and keeps the range and its
    # reciprocal finite for every finite pair, subnormal or near overflow.
    e = np.frexp(max(-lo, hi))[1]
    pair, lo, hi = np.ldexp(pair, -e), np.ldexp(lo, -e), np.ldexp(hi, -e)
    return ((pair - lo) * (255.0 / (hi - lo))).astype(np.float32)


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
    n, _, h, w = flow.shape
    grid = _pixel_grid(h, w)
    first = pairs[:, 0]
    # The second image and its gradient, sampled together at the flows'
    # end points: once for each warp's linearization and acceptance energy.
    src = np.concatenate([pairs[:, 1:], _central_gradient(pairs[:, 1])], axis=1)

    def sample_at(flow):
        at = grid + flow
        return bilinear_map(src, at[:, :1], at[:, 1:])

    lt = params.lam * params.tv_theta
    taut = params.tau / params.tv_theta
    eps_sq = params.stop_epsilon**2
    flow = flow.copy()
    p1 = np.zeros_like(flow)
    p2 = np.zeros_like(flow)
    sample = sample_at(flow)
    accepted = _sampled_energy(first, sample[:, 0], flow, params.lam)

    # The inner iterations write into these arrays; a warp's live pairs
    # use their leading entries.
    f, last, q1, q2, fx, fy, div, refined = (np.empty_like(flow) for _ in range(8))
    rho, step, scratch = (np.empty((n, h, w), dtype=flow.dtype) for _ in range(3))
    mask = np.empty((n, h, w), dtype=bool)

    for _ in range(params.warps_per_level):
        # The residual linearized at the warp point: its constant part, the
        # clamp bound lam*theta*|grad|^2 and the Gauss-Newton divisor, the
        # last two also negated so that the step takes one divide.
        g = sample[:, 1:].copy()
        grad_sq = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
        rho_c = sample[:, 0] - g[:, 0] * flow[:, 0] - g[:, 1] * flow[:, 1] - first
        bound = lt * grad_sq
        neg_bound = -bound
        neg_div = -np.maximum(grad_sq, _GRAD_FLOOR)
        np.copyto(f, flow)
        np.copyto(q1, p1)
        np.copyto(q2, p2)
        live = np.arange(n)
        for _ in range(params.inner_iterations):
            m = len(live)
            fm, gm, q1m, q2m, fxm, fym, dm = (a[:m] for a in (f, g, q1, q2, fx, fy, div))
            rm, sm, tm, km = (a[:m] for a in (rho, step, scratch, mask))
            np.multiply(gm[:, 0], fm[:, 0], out=rm)
            np.add(rho_c[:m], rm, out=rm)
            np.multiply(gm[:, 1], fm[:, 1], out=tm)
            np.add(rm, tm, out=rm)
            # Point-wise minimizer of lam*theta*|rho(v)| + 0.5*|v - u|^2:
            # the Gauss-Newton step, clamped to +-lam*theta*|grad|.
            np.divide(rm, neg_div[:m], out=sm)
            np.less(rm, neg_bound[:m], out=km)
            np.copyto(sm, lt, where=km)
            np.greater(rm, bound[:m], out=km)
            np.copyto(sm, -lt, where=km)

            # f + step*g + theta*div(q), into the other buffer.
            f, last = last, f
            fm, lm = f[:m], last[:m]
            np.multiply(sm[:, None], gm, out=fm)
            np.add(lm, fm, out=fm)
            _divergence(q1m, q2m, out=dm)
            np.multiply(dm, params.tv_theta, out=dm)
            np.add(fm, dm, out=fm)

            # The stop test, on the mean over each pair's pixels of the
            # squared change, summed in float64.
            np.subtract(fm, lm, out=lm)
            np.multiply(lm, lm, out=lm)
            np.add(lm[:, 0], lm[:, 1], out=tm)
            stop = tm.reshape(m, -1).sum(axis=1, dtype=np.float64) / (h * w) < eps_sq

            # The dual step q <- (q + taut*grad f) / (1 + taut*|grad f|).
            _forward_gradient(fm, out=(fxm, fym))
            np.multiply(fxm, fxm, out=dm)
            np.multiply(fym, fym, out=lm)
            np.add(dm, lm, out=dm)
            np.sqrt(dm, out=dm)
            np.multiply(dm, taut, out=dm)
            np.add(dm, 1.0, out=dm)
            for q, d in ((q1m, fxm), (q2m, fym)):
                np.multiply(d, taut, out=d)
                np.add(q, d, out=q)
                np.divide(q, dm, out=q)

            if stop.any():
                done = live[stop]
                refined[done], p1[done], p2[done] = fm[stop], q1m[stop], q2m[stop]
                keep = ~stop
                live = live[keep]
                for a in (f, q1, q2, g, rho_c, bound, neg_bound, neg_div):
                    a[: len(live)] = a[:m][keep]
                if not len(live):
                    break
        m = len(live)
        refined[live], p1[live], p2[live] = f[:m], q1[:m], q2[:m]

        # Monotone acceptance: the relinearized subproblem can raise the
        # true nonlinear energy; a pair keeps its previous flow, and the
        # sample there, when it does (dual state carries on, so later warps
        # can still make progress).
        candidate_sample = sample_at(refined)
        candidate = _sampled_energy(first, candidate_sample[:, 0], refined, params.lam)
        rejected = candidate > accepted
        take = ~rejected[:, None, None, None]
        np.copyto(flow, refined, where=take)
        np.copyto(sample, candidate_sample, where=take)
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

    flow = np.zeros((n, 2) + sizes[-1], dtype=np.float32)
    for lh, lw in reversed(sizes):
        pairs = coarse.pop() if coarse else None
        chunk = max(1, (h * w) // (lh * lw))
        ch, cw = flow.shape[2:]
        # Upscale the coarse flow; displacement values grow with the
        # actual per-axis size ratio (nominally 1/pyramid_scale).
        ratio = np.array([lw / cw, lh / ch], dtype=np.float32)[:, None, None]
        level = np.empty((n, 2, lh, lw), dtype=np.float32)
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
