import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostream import raster
from mostream.raster import (
    FlowField,
    RescaleBounds,
    bilinear_map,
    make_rng,
    resize_bilinear,
    rng_uniform,
    to_gray,
)


class TestBilinearSample:
    """`bilinear_map` at single points and on stacks."""

    def test_midpoint(self):
        img = np.array([[0.0, 10.0], [0.0, 10.0]])
        assert bilinear_map(img, 0.5, 0.0) == 5.0

    def test_exact_at_integer_coordinates(self):
        img = make_rng(1).random((4, 5)) * 100
        for y in range(4):
            for x in range(5):
                assert bilinear_map(img, float(x), float(y)) == img[y, x]

    def test_border_clamp(self):
        img = np.array([[0.0, 10.0], [0.0, 10.0]])
        assert bilinear_map(img, -1.0, 0.0) == 0.0
        assert bilinear_map(img, 5.0, 0.0) == 10.0
        assert bilinear_map(img, 0.0, -3.0) == 0.0

    @given(
        st.floats(-3.0, 6.0),
        st.floats(-3.0, 6.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_source(self, x, y, seed):
        img = make_rng(seed).random((3, 4))
        value = bilinear_map(img, x, y)
        assert img.min() - 1e-12 <= value <= img.max() + 1e-12

    def test_stacked_images_equal_per_image_calls(self):
        # Points reach 3 px past every side of the 6x7 raster.
        rng = make_rng(6)
        img = rng.random((3, 4, 6, 7)) * 255
        xs = rng.uniform(-3.0, 9.0, (3, 1, 6, 7))
        ys = rng.uniform(-3.0, 8.0, (3, 1, 6, 7))
        assert (xs < 0).any() and (xs > 6).any() and (ys < 0).any() and (ys > 5).any()
        out = bilinear_map(img, xs, ys)
        assert out.shape == img.shape
        for n in range(3):
            for c in range(4):
                assert np.array_equal(out[n, c], bilinear_map(img[n, c], xs[n, 0], ys[n, 0])), (n, c)

    def test_point_stack_equals_per_frame_calls(self):
        rng = make_rng(7)
        img = rng.random((9, 11))
        xs = rng.uniform(-2.0, 12.0, (5, 4, 3))
        ys = rng.uniform(-2.0, 10.0, (5, 4, 3))
        out = bilinear_map(img, xs, ys)
        assert out.shape == (5, 4, 3)
        for t in range(5):
            assert np.array_equal(out[t], bilinear_map(img, xs[t], ys[t])), t

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_fancy_index_reference(self, h, w, seed):
        rng = make_rng(seed)
        img = rng.normal(size=(h, w)) * 100
        xs = rng.uniform(-2.0, w + 1.0, (5, 6))
        ys = rng.uniform(-2.0, h + 1.0, (5, 6))
        # The body `bilinear_map` had before it gathered through flat offsets.
        xc = np.clip(xs, 0.0, float(w - 1))
        yc = np.clip(ys, 0.0, float(h - 1))
        x0 = np.floor(xc).astype(np.intp)
        y0 = np.floor(yc).astype(np.intp)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        fx = xc - x0
        fy = yc - y0
        top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
        bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
        assert np.array_equal(bilinear_map(img, xs, ys), top * (1.0 - fy) + bot * fy)


class TestResize:
    def test_identity(self):
        img = make_rng(2).random((5, 7))
        assert np.array_equal(resize_bilinear(img, 5, 7), img)

    def test_corners_align(self):
        img = make_rng(3).random((4, 4))
        out = resize_bilinear(img, 9, 9)
        assert out[0, 0] == pytest.approx(img[0, 0])
        assert out[-1, -1] == pytest.approx(img[-1, -1])

    @pytest.mark.parametrize("in_shape", [(5, 7), (16, 16), (64, 64), (1, 9)])
    @pytest.mark.parametrize("out_shape", [(5, 7), (32, 17), (9, 9), (1, 1)])
    def test_matches_bilinear_map_on_output_grid(self, in_shape, out_shape):
        img = make_rng(4).random(in_shape)
        gx, gy = np.meshgrid(
            np.linspace(0.0, in_shape[1] - 1.0, out_shape[1]),
            np.linspace(0.0, in_shape[0] - 1.0, out_shape[0]),
        )
        assert np.array_equal(resize_bilinear(img, *out_shape), bilinear_map(img, gx, gy))

    @pytest.mark.parametrize("flip", [False, True])
    def test_leading_axes_resize_per_channel(self, flip):
        vol = make_rng(5).random((20, 21, 28))
        if flip:
            vol = vol[:, :, ::-1]
        per_channel = np.stack([resize_bilinear(ch, 32, 32) for ch in vol])
        assert np.array_equal(resize_bilinear(vol, 32, 32), per_channel)

    def test_float64_window_keeps_its_bits(self):
        # The float64 path, which crops take, keeps its bits whatever the
        # float32 path does.
        window = make_rng(0).normal(128.0, 40.0, size=(20, 64, 64))
        assert hashlib.sha256(resize_bilinear(window, 32, 32).tobytes()).hexdigest() == (
            "21f66cc6cba9917610e5e3f7c3cca72c554b9cec02e97ac05e5473c9c05d22f7"
        )


class TestResizeWeightCache:
    """`resize_bilinear` shares read-only axis weights per (sizes, dtype)."""

    def test_alternating_dtypes_keep_dtype_and_bits(self):
        images = [make_rng(10 + i).random((3, 24, 40)) for i in range(3)]
        fresh = {}
        for img in images:
            for dtype in (np.float32, np.float64):
                raster._resize_axis.cache_clear()
                fresh[id(img), dtype] = resize_bilinear(img.astype(dtype), 17, 29)
        for _ in range(2):
            for img in images:
                for dtype in (np.float32, np.float64, np.float32):
                    out = resize_bilinear(img.astype(dtype), 17, 29)
                    assert out.dtype == dtype
                    assert out.tobytes() == fresh[id(img), dtype].tobytes()

    def test_cached_arrays_are_read_only(self):
        resize_bilinear(make_rng(11).random((6, 9)), 4, 5)
        for dtype in (np.float32, np.float64):
            for array in raster._resize_axis(9, 5, np.dtype(dtype)):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_identity_size_returns_a_copy(self):
        img = make_rng(12).random((5, 7))
        resize_bilinear(img, 9, 9)
        out = resize_bilinear(img, 5, 7)
        assert not np.shares_memory(out, img)
        out[0, 0] = -1.0
        assert img[0, 0] != -1.0


class TestSamplerPrecision:
    """float32 input stays float32; any other input is sampled in float64."""

    def test_float32_in_float32_out(self):
        img = make_rng(6).random((3, 9, 11)).astype(np.float32)
        xs, ys = (make_rng(7).random((2, 3, 5, 6)) * 12.0 - 1.0).astype(np.float32)
        mapped = bilinear_map(img, xs, ys)
        assert mapped.dtype == np.float32
        assert np.allclose(mapped, bilinear_map(img.astype(np.float64), xs, ys), rtol=0.0, atol=1e-6)
        resized = resize_bilinear(img, 17, 4)
        assert resized.dtype == np.float32
        assert np.allclose(resized, resize_bilinear(img.astype(np.float64), 17, 4), rtol=0.0, atol=1e-6)
        assert resize_bilinear(img, 9, 11).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float16, np.float64])
    def test_other_input_sampled_in_float64(self, dtype):
        img = (make_rng(8).random((6, 7)) * 100).astype(dtype)
        xs, ys = make_rng(9).random((2, 4, 4)) * 6.0
        assert bilinear_map(img, xs, ys).dtype == np.float64
        assert resize_bilinear(img, 3, 12).dtype == np.float64


class TestRng:
    def test_single_outcome(self):
        assert rng_uniform(make_rng(0), 1) == 0

    def test_deterministic_per_seed(self):
        a = make_rng(123)
        b = make_rng(123)
        assert [rng_uniform(a, 10) for _ in range(2)] == [rng_uniform(b, 10) for _ in range(2)]

    def test_streams_differ(self):
        a = [rng_uniform(make_rng(5, stream=0), 1000) for _ in range(8)]
        b = [rng_uniform(make_rng(5, stream=1), 1000) for _ in range(8)]
        assert a != b

    def test_byte_identical_sequences(self):
        assert make_rng(9).bytes(64) == make_rng(9).bytes(64)

    def test_zero_draw_rejected(self):
        with pytest.raises(ValueError):
            rng_uniform(make_rng(0), 0)

    def test_uniform_frequency(self):
        # Chi-square style check: each of 4 outcomes within +-2% of 0.25
        # over 1e5 draws (fixed seed, so deterministic).
        rng = make_rng(2024)
        counts = np.bincount([rng_uniform(rng, 4) for _ in range(100_000)], minlength=4)
        freqs = counts / 100_000
        assert np.all(np.abs(freqs - 0.25) < 0.02 * 1.0), freqs


class TestTypes:
    def test_rescale_bounds_ordering(self):
        with pytest.raises(ValueError):
            RescaleBounds(2.0, 2.0)

    def test_flow_field_shape_mismatch(self):
        with pytest.raises(ValueError):
            FlowField(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_flow_field_rejects_nan(self):
        u = np.zeros((2, 2))
        u[0, 0] = np.nan
        with pytest.raises(ValueError):
            FlowField(u, np.zeros((2, 2)))

    def test_to_gray_luma(self):
        rgb = np.zeros((1, 1, 3))
        rgb[0, 0] = (255, 0, 0)
        assert to_gray(rgb)[0, 0] == pytest.approx(0.299 * 255)
        rgb[0, 0] = (10, 20, 30)
        assert to_gray(rgb)[0, 0] == pytest.approx(0.299 * 10 + 0.587 * 20 + 0.114 * 30)
