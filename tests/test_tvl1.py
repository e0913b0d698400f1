import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import interior_epe, interior_mask, shift_image, smooth_texture
from mostream import tvl1
from mostream.mos import magnitude
from mostream.raster import FlowField, make_rng
from mostream.tvl1 import (
    Tvl1Params,
    _divergence,
    _forward_gradient,
    block_match_flow,
    tvl1_energy,
    tvl1_flow,
    video_flows,
)


def mixed_clip():
    """12 frames at 64x64 whose 11 pairs are a constant pair (zero flow), a
    pair from constant to textured, a static textured pair (the stop test
    fires at once) and 8 moving pairs. The slow ones (0.02 and 0.04 px)
    meet the stop test part way through a warp while the rest of their
    chunk goes on; the 32x32 level solves chunks of 4, 4 and 3 pairs."""
    tex = smooth_texture(90, 64, 64)
    steps = np.cumsum([0.3, 0.02, 0.02, 0.5, 0.75, 0.04, 0.75, 0.75])
    return [np.full((64, 64), 40.0)] * 2 + [tex, tex] + [shift_image(tex, s, -0.6 * s) for s in steps]


# sha256 of the raw float64 u, then v, bytes of each flow `video_flows`
# returns for `mixed_clip()`, as computed when every pair was solved alone.
MIXED_CLIP_FLOWS_SHA256 = "8fe07321887bcfa9392df854aebbe9f63afd35cb25016fef453fa97df02bd71f"


# Finite frames from uniform [0, 1) noise whose intensity range, or its
# reciprocal, over- or underflows float64: subnormal values, and values
# spread over +-1e308.
EXTREME_RANGES = [lambda r: r * 1e-310, lambda r: (2.0 * r - 1.0) * 1e308]
EXTREME_IDS = ["subnormal", "spread_over_range"]


def traced_peak(fn):
    """Peak bytes traced by `tracemalloc` while `fn()` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTvl1Params:
    def test_defaults_valid(self):
        p = Tvl1Params()
        assert p.lam == 0.15 and p.tv_theta == 0.3 and p.tau == 0.25
        assert p.tau * p.tv_theta <= 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"pyramid_scale": 1.0},
            {"levels": 0},
            {"tau": 1.0, "tv_theta": 0.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Tvl1Params(**kwargs)


class TestTvl1Flow:
    def test_zero_motion_fixed_point(self):
        tex = smooth_texture(0, 64, 64)
        flow = tvl1_flow(tex, tex)
        assert magnitude(flow).mean() <= 0.05

    def test_constant_images_give_zero_flow(self):
        img = np.full((32, 32), 7.0)
        flow = tvl1_flow(img, img)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_known_shift(self):
        tex = smooth_texture(1, 128, 128)
        nxt = shift_image(tex, 3.0, 0.0)
        flow = tvl1_flow(tex, nxt)
        assert interior_epe(flow, 3.0, 0.0) <= 0.3

    def test_subpixel_shift(self):
        tex = smooth_texture(2, 128, 128)
        nxt = shift_image(tex, 1.5, -0.5)
        flow = tvl1_flow(tex, nxt)
        assert interior_epe(flow, 1.5, -0.5) <= 0.3

    def test_oracle_cross_check(self):
        tex = smooth_texture(3, 128, 128)
        nxt = shift_image(tex, 3.0, 0.0)
        fine = tvl1_flow(tex, nxt)
        coarse = block_match_flow(tex, nxt, patch=7, search_radius=4)
        assert interior_epe(fine, coarse.u, coarse.v) <= 0.75

    def test_swap_negates_flow(self):
        tex = smooth_texture(4, 96, 96)
        nxt = shift_image(tex, 2.0, 1.0)
        fwd = tvl1_flow(tex, nxt)
        bwd = tvl1_flow(nxt, tex)
        assert interior_epe(fwd, -bwd.u, -bwd.v) <= 0.5

    def test_energy_non_increasing_at_finest_level(self, monkeypatch):
        # The finest level's solve, re-run with k = 1..W warps, yields the
        # flow that level holds after its k-th warp.
        calls = []
        solve = tvl1._solve_level
        monkeypatch.setattr(tvl1, "_solve_level", lambda *args: calls.append(args) or solve(*args))
        for seed in range(5):
            tex = smooth_texture(seed + 10, 96, 96)
            nxt = shift_image(tex, 2.0, -1.0)
            tvl1_flow(tex, nxt)
            pairs, flow, params = calls[-1]
            grid = tvl1._pixel_grid(*flow.shape[2:])
            energies = [
                tvl1._energy(pairs, grid, solve(pairs, flow, replace(params, warps_per_level=k)), params.lam)[0]
                for k in range(1, params.warps_per_level + 1)
            ]
            for before, after in zip(energies, energies[1:]):
                assert after <= before * (1.0 + 1e-9)

    def test_flow_always_finite(self):
        rng_img = smooth_texture(20, 48, 48)
        noisy = rng_img + smooth_texture(21, 48, 48)
        flow = tvl1_flow(rng_img, noisy)
        assert np.isfinite(flow.u).all() and np.isfinite(flow.v).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            tvl1_flow(np.zeros((32, 32)), np.zeros((32, 33)))

    def test_too_small_input(self):
        with pytest.raises(ValueError, match="at least"):
            tvl1_flow(np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_frame_rejected(self, value):
        tex = smooth_texture(12, 32, 32)
        bad = tex.copy()
        bad[3, 4] = value
        with pytest.raises(ValueError, match="non-finite"):
            tvl1_flow(tex, bad)

    @pytest.mark.parametrize("extreme", EXTREME_RANGES, ids=EXTREME_IDS)
    def test_extreme_finite_intensities_give_finite_flow(self, extreme):
        prev, nxt = extreme(make_rng(43).random((2, 16, 16)))
        flow = tvl1_flow(prev, nxt)
        assert np.isfinite(flow.u).all() and np.isfinite(flow.v).all()

    def test_energy_function_zero_for_perfect_static(self):
        tex = smooth_texture(5, 32, 32)
        e = tvl1_energy(tex, tex, FlowField(np.zeros((32, 32)), np.zeros((32, 32))), 0.15)
        assert e == 0.0


class TestStackedStencils:
    def test_stack_equals_each_slice(self):
        f, p1, p2 = make_rng(40).normal(size=(3, 2, 9, 7))
        fx, fy = _forward_gradient(f)
        div = _divergence(p1, p2)
        for c in range(2):
            sx, sy = _forward_gradient(f[c])
            assert np.array_equal(fx[c], sx) and np.array_equal(fy[c], sy)
            assert np.array_equal(div[c], _divergence(p1[c], p2[c]))

    def test_equal_slice_differences(self):
        # The helpers difference flattened arrays; the slice forms are the
        # reference, with or without `out` (filled with nan beforehand).
        f, p1, p2 = make_rng(42).normal(size=(3, 3, 2, 9, 7))
        fx, fy, div = np.zeros_like(f), np.zeros_like(f), np.zeros_like(f)
        fx[..., :-1] = f[..., 1:] - f[..., :-1]
        fy[..., :-1, :] = f[..., 1:, :] - f[..., :-1, :]
        div[..., 0] += p1[..., 0]
        div[..., 1:] += p1[..., 1:] - p1[..., :-1]
        div[..., 0, :] += p2[..., 0, :]
        div[..., 1:, :] += p2[..., 1:, :] - p2[..., :-1, :]
        nans = [np.full(f.shape, np.nan) for _ in range(3)]
        for gx, gy in (_forward_gradient(f), _forward_gradient(f, out=nans[:2])):
            assert np.array_equal(gx, fx) and np.array_equal(gy, fy)
        assert np.array_equal(_divergence(p1, p2), div)
        assert np.array_equal(_divergence(p1, p2, out=nans[2]), div)

    def test_divergence_is_negative_adjoint(self):
        # The solver's duals keep a zero last column (p1) and last row (p2),
        # because the forward differences they accumulate are zero there.
        f, p1, p2 = make_rng(41).normal(size=(3, 2, 9, 7))
        p1[..., -1] = 0.0
        p2[..., -1, :] = 0.0
        fx, fy = _forward_gradient(f)
        assert np.isclose((fx * p1 + fy * p2).sum(), -(f * _divergence(p1, p2)).sum(), rtol=1e-12, atol=0.0)


class TestBlockMatch:
    def test_identical_frames_exact_zero(self):
        tex = smooth_texture(6, 48, 48)
        flow = block_match_flow(tex, tex, patch=5, search_radius=3)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_constant_image_tie_break(self):
        img = np.full((32, 32), 3.0)
        flow = block_match_flow(img, img, patch=3, search_radius=2)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_exact_on_integer_shift(self):
        tex = smooth_texture(7, 64, 64)
        nxt = shift_image(tex, 2.0, -1.0)
        flow = block_match_flow(tex, nxt, patch=7, search_radius=2)
        mask = interior_mask(64, 64)
        assert np.all(flow.u[mask] == 2.0)
        assert np.all(flow.v[mask] == -1.0)

    @pytest.mark.parametrize("patch", [2, 1, 4])
    def test_even_or_small_patch_rejected(self, patch):
        img = np.zeros((16, 16))
        with pytest.raises(ValueError):
            block_match_flow(img, img, patch=patch)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            block_match_flow(np.zeros((16, 16)), np.zeros((16, 17)))


class TestVideoFlows:
    def test_two_frames_one_flow(self):
        tex = smooth_texture(8, 32, 32)
        flows = video_flows([tex, tex])
        assert len(flows) == 1

    def test_eleven_frames_ten_flows(self):
        tex = smooth_texture(9, 32, 32)
        frames = [shift_image(tex, t, 0.0) for t in range(11)]
        flows = video_flows(frames)
        assert len(flows) == 10

    def test_static_video_near_zero(self):
        tex = smooth_texture(11, 32, 32)
        flows = video_flows([tex] * 5)
        assert len(flows) == 4
        for f in flows:
            assert magnitude(f).mean() <= 0.05

    @pytest.mark.parametrize("extreme", EXTREME_RANGES, ids=EXTREME_IDS)
    def test_extreme_finite_intensities_give_finite_flows(self, extreme):
        flows = video_flows(list(extreme(make_rng(44).random((4, 16, 16)))))
        assert len(flows) == 3
        for f in flows:
            assert np.isfinite(f.u).all() and np.isfinite(f.v).all()

    def test_solver_state_stays_float32(self, monkeypatch):
        # Frames come in and flows go out in float64; every level solves
        # float32 pairs from float32 flows into float32 flows.
        calls = []
        solve = tvl1._solve_level

        def wrapped(pairs, flow, params):
            out = solve(pairs, flow, params)
            calls.append((pairs.dtype, flow.dtype, out.dtype))
            return out

        monkeypatch.setattr(tvl1, "_solve_level", wrapped)
        flows = video_flows(mixed_clip())
        assert len(calls) >= 3
        assert set(calls) == {(np.dtype(np.float32),) * 3}
        assert all(f.u.dtype == np.float64 and f.v.dtype == np.float64 for f in flows)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least 2"):
            video_flows([np.zeros((32, 32))])

    def test_mixed_shapes(self):
        with pytest.raises(ValueError):
            video_flows([np.zeros((32, 32)), np.zeros((16, 16))])

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda f: f[:-1] + [np.where(f[-1] > 100.0, np.nan, f[-1])], "non-finite"),
            (lambda f: f[:-1] + [np.full_like(f[-1], np.inf)], "non-finite"),
            (lambda f: [x[:12, :20] for x in f], "at least"),
            (lambda f: f[:-1] + [f[-1][:, :40]], "shapes differ"),
        ],
        ids=["nan_last_frame", "inf_last_frame", "undersized", "last_frame_shape"],
    )
    def test_every_frame_checked_before_any_solve(self, monkeypatch, bad, match):
        calls = []
        solve = tvl1._solve_level
        monkeypatch.setattr(tvl1, "_solve_level", lambda *args: calls.append(args) or solve(*args))
        with pytest.raises(ValueError, match=match):
            video_flows(bad(mixed_clip()))
        assert not calls

    def test_flows_keep_their_bits(self):
        digest = hashlib.sha256()
        for f in video_flows(mixed_clip()):
            digest.update(f.u.tobytes())
            digest.update(f.v.tobytes())
        assert digest.hexdigest() == MIXED_CLIP_FLOWS_SHA256

    def test_mixed_clip_has_a_rejected_warp_then_an_accepted_one(self, monkeypatch):
        # A warp the monotone rule rejects leaves its pair's flow equal to
        # the flow before it. At the 64x64 and 32x32 levels some pair of
        # `mixed_clip()` has such a warp followed by one that moves its flow,
        # so MIXED_CLIP_FLOWS_SHA256 covers a warp that starts from the
        # sample a rejection kept. (At 16x16 no flow moves after it stops.)
        calls = []
        solve = tvl1._solve_level
        monkeypatch.setattr(tvl1, "_solve_level", lambda *args: calls.append(args) or solve(*args))
        video_flows(mixed_clip())
        sizes = set()
        for pairs, flow, params in calls:
            warps = range(1, params.warps_per_level + 1)
            runs = [flow] + [solve(pairs, flow, replace(params, warps_per_level=k)) for k in warps]
            for i in range(len(flow)):
                for before, after, then in zip(runs, runs[1:], runs[2:]):
                    if np.array_equal(before[i], after[i]) and not np.array_equal(after[i], then[i]):
                        sizes.add(flow.shape[-1])
        assert {32, 64} <= sizes

    def test_each_flow_equals_its_pair_solved_alone(self):
        frames = mixed_clip()
        flows = video_flows(frames)
        assert len(flows) == 11
        for t, flow in enumerate(flows):
            alone = tvl1_flow(frames[t], frames[t + 1])
            assert np.array_equal(flow.u, alone.u) and np.array_equal(flow.v, alone.v), t

    def test_clip_peak_memory_stays_near_one_pair(self):
        frames = mixed_clip()
        clip = traced_peak(lambda: video_flows(frames))
        pair = traced_peak(lambda: tvl1_flow(frames[5], frames[6]))
        assert clip <= 2 * pair, (clip, pair)
