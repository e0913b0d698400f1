import numpy as np
import pytest

from mostream.augment import (
    CropSpec,
    apply_crop,
    five_crops,
    random_multiscale_crop,
    ten_crops,
)
from mostream.raster import make_rng


class TestFiveCrops:
    def test_reference_geometry_256_to_224(self):
        crops = five_crops(256, 256, 224, 224, 224)
        assert [(c.x, c.y) for c in crops] == [(0, 0), (32, 0), (0, 32), (32, 32), (16, 16)]

    def test_crop_equals_source(self):
        crops = five_crops(64, 64, 64, 64, 224)
        assert all((c.x, c.y) == (0, 0) for c in crops)

    def test_small_case(self):
        crops = five_crops(4, 4, 2, 2, 224)
        assert [(c.x, c.y) for c in crops] == [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]

    def test_oversized_crop_rejected(self):
        with pytest.raises(ValueError, match="larger than source"):
            five_crops(10, 10, 11, 10, 224)


class TestTenCrops:
    def test_count_and_flip_order(self):
        crops = ten_crops(64, 64, 56, 56, 224)
        assert len(crops) == 10
        assert [c.flip for c in crops] == [False] * 5 + [True] * 5

    def test_flipped_half_mirrors_positions(self):
        crops = ten_crops(64, 48, 40, 40, 224)
        for base, flipped in zip(crops[:5], crops[5:]):
            assert (base.x, base.y, base.crop_w, base.crop_h) == (
                flipped.x,
                flipped.y,
                flipped.crop_w,
                flipped.crop_h,
            )

    def test_full_frame_gives_two_distinct_results(self):
        vol = make_rng(0).random((1, 8, 8))
        crops = ten_crops(8, 8, 8, 8, out_side=8)
        outputs = [apply_crop(vol, c) for c in crops]
        unique = {out.tobytes() for out in outputs}
        assert len(unique) == 2

    def test_symmetric_image_flip_invariant(self):
        half = make_rng(1).random((1, 6, 3))
        vol = np.concatenate([half, half[:, :, ::-1]], axis=2)
        crops = ten_crops(6, 6, 6, 6, out_side=6)
        for base, flipped in zip(crops[:5], crops[5:]):
            assert np.allclose(apply_crop(vol, base), apply_crop(vol, flipped))


class TestRandomMultiscaleCrop:
    def test_sides_from_scale_set(self):
        rng = make_rng(2)
        sides = set()
        for _ in range(200):
            spec = random_multiscale_crop(256, 256, rng, 224)
            sides.add(spec.crop_w)
            sides.add(spec.crop_h)
        assert sides == {256, 224, 192, 168}

    def test_deterministic_per_seed(self):
        a = [random_multiscale_crop(64, 64, make_rng(9), 224) for _ in range(1)]
        b = [random_multiscale_crop(64, 64, make_rng(9), 224) for _ in range(1)]
        assert a == b

    def test_positions_are_canonical(self):
        rng = make_rng(4)
        for _ in range(100):
            spec = random_multiscale_crop(64, 64, rng, 224)
            allowed = {(c.x, c.y) for c in five_crops(64, 64, spec.crop_w, spec.crop_h, 224)}
            assert (spec.x, spec.y) in allowed


class TestApplyCrop:
    def test_identity(self):
        vol = make_rng(5).random((3, 8, 8))
        out = apply_crop(vol, CropSpec(0, 0, 8, 8, False, out_side=8))
        assert np.array_equal(out, vol)

    def test_flip_is_involution(self):
        vol = make_rng(6).random((2, 8, 8))
        flip = CropSpec(0, 0, 8, 8, True, out_side=8)
        assert np.allclose(apply_crop(apply_crop(vol, flip), flip), vol, atol=1e-12)

    def test_exact_subwindow(self):
        vol = make_rng(7).random((2, 4, 4))
        out = apply_crop(vol, CropSpec(0, 0, 2, 2, False, out_side=2))
        assert np.array_equal(out, vol[:, :2, :2])

    def test_preserves_channels_and_bounds(self):
        vol = make_rng(8).random((5, 16, 16))
        out = apply_crop(vol, CropSpec(2, 3, 10, 12, True, out_side=7))
        window = vol[:, 3:15, 2:12]
        assert out.shape == (5, 7, 7)
        assert out.min() >= window.min() - 1e-12
        assert out.max() <= window.max() + 1e-12

    def test_out_of_bounds_rejected(self):
        vol = np.zeros((1, 8, 8))
        with pytest.raises(ValueError, match="exceeds"):
            apply_crop(vol, CropSpec(4, 0, 8, 8, False, out_side=4))

    def test_flip_applies_per_channel(self):
        vol = np.stack([np.arange(4.0).reshape(1, 4), np.arange(4.0, 8.0).reshape(1, 4)])
        out = apply_crop(vol, CropSpec(0, 0, 4, 1, True, out_side=0 + 4))
        # out_side resizes to 4x4; row content must be mirrored per channel
        assert out[0, 0, 0] == 3.0 and out[1, 0, 0] == 7.0
