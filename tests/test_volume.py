import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pairs

from mostream.mos import MosPair
from mostream.raster import make_rng
from mostream.volume import (
    StackSpec,
    normalize_byte,
    sample_test_starts,
    sample_train_start,
    stack_volume,
)


class TestStackVolume:
    def test_single_pair_layout(self):
        pairs = random_pairs(0, 1, 4, 4)
        vol = stack_volume(pairs, 0, StackSpec(1))
        assert vol.shape == (2, 4, 4)
        assert np.allclose(vol[0], normalize_byte(pairs[0].magnitude))
        assert np.allclose(vol[1], normalize_byte(pairs[0].orientation))

    def test_ten_pair_stack(self):
        pairs = random_pairs(1, 10, 4, 4)
        vol = stack_volume(pairs, 0, StackSpec(10))
        assert vol.shape == (20, 4, 4)
        for k in range(10):
            assert np.allclose(vol[2 * k], normalize_byte(pairs[k].magnitude))
            assert np.allclose(vol[2 * k + 1], normalize_byte(pairs[k].orientation))

    def test_normalization_center(self):
        pairs = [MosPair(np.full((2, 2), 128, np.uint8), np.full((2, 2), 128, np.uint8))]
        vol = stack_volume(pairs, 0, StackSpec(1))
        assert np.all(vol == 0.0)

    def test_normalization_range(self):
        pairs = [MosPair(np.zeros((2, 2), np.uint8), np.full((2, 2), 255, np.uint8))]
        vol = stack_volume(pairs, 0, StackSpec(1))
        assert vol.min() >= -1.0 and vol.max() <= 1.0
        assert vol[0, 0, 0].item() == -1.0

    def test_start_offset(self):
        pairs = random_pairs(2, 5, 4, 4)
        vol = stack_volume(pairs, 3, StackSpec(2))
        assert np.allclose(vol[0], normalize_byte(pairs[3].magnitude))
        assert np.allclose(vol[3], normalize_byte(pairs[4].orientation))

    def test_insufficient_pairs(self):
        pairs = random_pairs(3, 4, 4, 4)
        with pytest.raises(ValueError, match="need 10 pairs from start 0, have 4"):
            stack_volume(pairs, 0, StackSpec(10))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_pure_relabeling(self, seed, length, start):
        pairs = random_pairs(seed, start + length, 3, 2)
        vol = stack_volume(pairs, start, StackSpec(length))
        source = []
        for k in range(length):
            source.append(normalize_byte(pairs[start + k].magnitude))
            source.append(normalize_byte(pairs[start + k].orientation))
        assert np.array_equal(vol, np.stack(source))


class TestSampleTrainStart:
    def test_single_valid_start(self):
        assert sample_train_start(10, 10, make_rng(0)) == 0

    def test_support_coverage(self):
        rng = make_rng(1)
        seen = {sample_train_start(14, 10, rng) for _ in range(1000)}
        assert seen == {0, 1, 2, 3, 4}

    def test_deterministic(self):
        a = [sample_train_start(20, 10, make_rng(7)) for _ in range(5)]
        b = [sample_train_start(20, 10, make_rng(7)) for _ in range(5)]
        assert a == b

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            sample_train_start(9, 10, make_rng(0))


class TestSampleTestStarts:
    def test_degenerate_spacing(self):
        assert sample_test_starts(10, 10, 25) == [0] * 25

    def test_exact_spacing(self):
        assert sample_test_starts(34, 10, 25) == list(range(25))

    def test_stride_two(self):
        assert sample_test_starts(58, 10, 25) == [2 * i for i in range(25)]

    def test_endpoints_and_monotone(self):
        for pair_count in (10, 13, 30, 100):
            starts = sample_test_starts(pair_count, 10, 25)
            assert starts[0] == 0
            assert starts[-1] == pair_count - 10
            assert all(a <= b for a, b in zip(starts, starts[1:]))

    def test_single_sample(self):
        assert sample_test_starts(30, 10, 1) == [0]

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            sample_test_starts(5, 10, 25)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            sample_test_starts(20, 10, 0)


class TestStackSpec:
    def test_bad_length(self):
        with pytest.raises(ValueError):
            StackSpec(0)
