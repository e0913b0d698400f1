import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostream.mos import (
    MAG_BOUNDS,
    ORI_BOUNDS,
    MosParams,
    magnitude,
    mos_images,
    orientation,
    rescale_image,
    rescale_to_byte,
    xy_images,
)
from mostream.raster import FlowField, RescaleBounds


def flow_of(u, v):
    return FlowField(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


class TestRescaleToByte:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (-15.0, 0),
            (15.0, 255),
            (20.0, 255),   # clamp above the upper bound
            (-20.0, 0),    # clamp below the lower bound
            (0.0, 128),    # 255 * 15/30 = 127.5, round half up
            (10.0, 213),   # 255 * 25/30 = 212.5, round half up
        ],
    )
    def test_reference_values(self, value, expected):
        assert rescale_to_byte(value, MAG_BOUNDS) == expected

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_total_and_in_range(self, value):
        b = rescale_to_byte(value, MAG_BOUNDS)
        assert 0 <= b <= 255

    @given(
        st.floats(-60.0, 60.0),
        st.floats(0.0, 40.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, value, delta):
        assert rescale_to_byte(value, MAG_BOUNDS) <= rescale_to_byte(value + delta, MAG_BOUNDS)

    def test_bounds_whose_byte_scale_overflows_rejected(self):
        # 255 * (high - low) is inf here: the coder would cast NaN to bytes.
        with pytest.raises(ValueError, match=r"\(-1e\+308, 1e\+308\)"):
            RescaleBounds(-1e308, 1e308)

    def test_widest_accepted_bounds_still_code(self):
        bounds = RescaleBounds(-1e305, 1e305)
        assert rescale_to_byte(0.0, bounds) == 128
        assert rescale_image(np.array([-1e305, 0.0, 1e305]), bounds).tolist() == [0, 128, 255]

    def test_vector_matches_scalar(self):
        values = np.linspace(-30, 30, 301)
        img = rescale_image(values.reshape(1, -1), MAG_BOUNDS)
        for val, byte in zip(values, img.ravel()):
            assert byte == rescale_to_byte(float(val), MAG_BOUNDS)


class TestMagnitude:
    def test_three_four_five(self):
        assert magnitude(flow_of([[3.0]], [[4.0]]))[0, 0] == 5.0

    def test_zero(self):
        assert magnitude(flow_of([[0.0]], [[0.0]]))[0, 0] == 0.0

    def test_sign_invariance(self):
        assert magnitude(flow_of([[-3.0]], [[-4.0]]))[0, 0] == 5.0

    def test_negation_invariance_field(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 8, 8))
        assert np.allclose(magnitude(flow_of(u, v)), magnitude(flow_of(-u, -v)))


class TestOrientation:
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            (1.0, 1.0, 45.0),
            (-1.0, 0.0, 180.0),
            (0.0, 0.0, 0.0),
            (0.0, 1.0, 90.0),
            (0.0, -1.0, -90.0),
            (1.0, -1.0, -45.0),
        ],
    )
    def test_quadrants(self, u, v, expected):
        assert orientation(flow_of([[u]], [[v]]))[0, 0] == pytest.approx(expected)

    def test_range(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=(2, 16, 16))
        theta = orientation(flow_of(u, v))
        assert np.all(theta > -180.0) and np.all(theta <= 180.0)

    def test_negation_rotates_180(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(8, 8)) + 3.0  # keep away from the singular origin
        v = rng.normal(size=(8, 8))
        a = orientation(flow_of(u, v))
        b = orientation(flow_of(-u, -v))
        diff = np.mod(b - a, 360.0)
        assert np.allclose(diff, 180.0)

    def test_rotation_by_90_degrees(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(8, 8)) + 3.0
        v = rng.normal(size=(8, 8))
        base = flow_of(u, v)
        rotated = flow_of(-v, u)  # each vector rotated +90 degrees
        dtheta = np.mod(orientation(rotated) - orientation(base), 360.0)
        assert np.allclose(dtheta, 90.0)
        assert np.allclose(magnitude(rotated), magnitude(base))


class TestMosImages:
    def test_still_pixel_defaults(self):
        pair = mos_images(flow_of([[0.0]], [[0.0]]))
        assert pair.magnitude[0, 0] == 128
        # 128 < 128 is false, so the angle passes unfiltered: rescale(0) = 128
        assert pair.orientation[0, 0] == 128

    def test_fast_horizontal_pixel(self):
        pair = mos_images(flow_of([[10.0]], [[0.0]]))
        assert pair.magnitude[0, 0] == 213
        assert pair.orientation[0, 0] == 128

    def test_filter_zeroes_low_magnitude(self):
        # raw theta 90 degrees, magnitude byte below the gate
        params = MosParams(mag_bounds=RescaleBounds(0.0, 100.0))
        pair = mos_images(flow_of([[0.0]], [[1.0]]), params)
        assert pair.magnitude[0, 0] == 3  # rescale(1, [0,100]) ~ 2.55 -> 3
        assert pair.magnitude[0, 0] < params.mag_threshold
        assert pair.orientation[0, 0] == 128  # filtered to 0 degrees

    def test_unfiltered_when_threshold_zero(self):
        params = MosParams(mag_threshold=0)
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=(2, 6, 6)) * 0.01
        pair = mos_images(flow_of(u, v), params)
        expected = rescale_image(orientation(flow_of(u, v)), ORI_BOUNDS)
        assert np.array_equal(pair.orientation, expected)

    def test_output_bounds_and_shape(self):
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 9, 7)) * 30
        pair = mos_images(flow_of(u, v))
        assert pair.magnitude.shape == (9, 7) and pair.orientation.shape == (9, 7)
        assert pair.magnitude.dtype == np.uint8 and pair.orientation.dtype == np.uint8

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MosParams(mag_threshold=300)


class TestXyImages:
    def test_zero_flow_centered(self):
        pair = xy_images(flow_of(np.zeros((3, 3)), np.zeros((3, 3))))
        assert np.all(pair.flow_x == 128) and np.all(pair.flow_y == 128)

    def test_saturation_high(self):
        pair = xy_images(flow_of(np.full((2, 2), 15.0), np.zeros((2, 2))))
        assert np.all(pair.flow_x == 255)

    def test_saturation_low(self):
        pair = xy_images(flow_of(np.full((2, 2), -20.0), np.zeros((2, 2))))
        assert np.all(pair.flow_x == 0)
