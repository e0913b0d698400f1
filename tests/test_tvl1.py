import numpy as np
import pytest

from conftest import interior_mask, shift_image, smooth_texture
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


def epe(flow, dx, dy, mask):
    return np.hypot(flow.u - dx, flow.v - dy)[mask].mean()


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
        assert np.hypot(flow.u, flow.v).mean() <= 0.05

    def test_constant_images_give_zero_flow(self):
        img = np.full((32, 32), 7.0)
        flow = tvl1_flow(img, img)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_known_shift(self):
        tex = smooth_texture(1, 128, 128)
        nxt = shift_image(tex, 3.0, 0.0)
        flow = tvl1_flow(tex, nxt)
        assert epe(flow, 3.0, 0.0, interior_mask(128, 128)) <= 0.3

    def test_subpixel_shift(self):
        tex = smooth_texture(2, 128, 128)
        nxt = shift_image(tex, 1.5, -0.5)
        flow = tvl1_flow(tex, nxt)
        assert epe(flow, 1.5, -0.5, interior_mask(128, 128)) <= 0.3

    def test_oracle_cross_check(self):
        tex = smooth_texture(3, 128, 128)
        nxt = shift_image(tex, 3.0, 0.0)
        fine = tvl1_flow(tex, nxt)
        coarse = block_match_flow(tex, nxt, patch=7, search_radius=4)
        mask = interior_mask(128, 128)
        assert np.hypot(fine.u - coarse.u, fine.v - coarse.v)[mask].mean() <= 0.75

    def test_swap_negates_flow(self):
        tex = smooth_texture(4, 96, 96)
        nxt = shift_image(tex, 2.0, 1.0)
        fwd = tvl1_flow(tex, nxt)
        bwd = tvl1_flow(nxt, tex)
        mask = interior_mask(96, 96)
        assert np.hypot(fwd.u + bwd.u, fwd.v + bwd.v)[mask].mean() <= 0.5

    def test_energy_non_increasing_at_finest_level(self):
        for seed in range(5):
            tex = smooth_texture(seed + 10, 96, 96)
            nxt = shift_image(tex, 2.0, -1.0)
            _, energies = tvl1_flow(tex, nxt, return_energies=True)
            assert len(energies) == Tvl1Params().warps_per_level
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
            assert np.hypot(f.u, f.v).mean() <= 0.05

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least 2"):
            video_flows([np.zeros((32, 32))])

    def test_mixed_shapes(self):
        with pytest.raises(ValueError):
            video_flows([np.zeros((32, 32)), np.zeros((16, 16))])
