import numpy as np
import pytest

from conftest import random_pairs
from mostream.augment import apply_crop, ten_crops
from mostream.fusion import (
    DEFAULT_TEST_CROP_FRACTION,
    PredictParams,
    argmax_class,
    confusion_heat_image,
    evaluate,
    fuse,
    multi_split_average,
    predict_from_pairs,
    VideoPrediction,
)
from mostream.net import FcSpec, NetConfig, TinyNet, desk_net_config
from mostream.raster import make_rng
from mostream.volume import StackSpec, sample_test_starts, stack_volume


class TestFuse:
    def test_weighted_example(self):
        out = fuse([[0.8, 0.2], [0.2, 0.8]], [2.0, 1.0])
        assert np.allclose(out, [0.6, 0.4])

    def test_equal_weights_identical_streams(self):
        out = fuse([[0.3, 0.7], [0.3, 0.7]], [1.0, 1.0])
        assert np.allclose(out, [0.3, 0.7])

    def test_single_stream_identity(self):
        out = fuse([[0.25, 0.75]], [5.0])
        assert np.allclose(out, [0.25, 0.75])

    def test_result_is_probability_vector(self):
        rng = make_rng(0)
        for _ in range(50):
            a = rng.random(4)
            b = rng.random(4)
            out = fuse([a / a.sum(), b / b.sum()], [2.0, 1.0])
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out >= 0)

    def test_argmax_invariance_under_scaling(self):
        rng = make_rng(1)
        for _ in range(200):
            a = rng.random(5)
            b = rng.random(5)
            w = rng.random(2) + 0.1
            base = argmax_class(fuse([a, b], w))
            assert argmax_class(fuse([3.7 * a, 3.7 * b], w)) == base
            assert argmax_class(fuse([a, b], 11.0 * w)) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="classes"):
            fuse([[0.5, 0.5], [0.2, 0.3, 0.5]], [1.0, 1.0])

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            fuse([[0.5, 0.5]], [1.0, 2.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            fuse([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0])

    @pytest.mark.parametrize(
        "scores, weights",
        [([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]), ([[0.0, 0.0], [0.5, 0.5]], [1.0, 0.0])],
        ids=["all_zero_rows", "mass_only_under_zero_weight"],
    )
    def test_no_positive_mass_rejected(self, scores, weights):
        with pytest.raises(ValueError, match="no positive mass"):
            fuse(scores, weights)

    def test_argmax_tie_breaks_low(self):
        assert argmax_class([0.4, 0.4, 0.2]) == 0


class ConstantNet:
    """Stub returning a fixed score vector, counting samples seen."""

    def __init__(self, scores, input_shape):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.config = type("C", (), {"input_shape": input_shape})
        self.samples_seen = 0

    def forward(self, volume):
        n = volume.shape[0] if volume.ndim == 4 else 1
        self.samples_seen += n
        return np.tile(self.scores, (n, 1))


class TestPredict:
    def test_250_forward_passes_default_protocol(self):
        net = ConstantNet([0.5, 0.3, 0.2], (6, 14, 14))
        pairs = random_pairs(0, 40, 16, 16)
        params = PredictParams(stack=StackSpec(3), k_samples=25, out_side=14)
        predict_from_pairs(net, pairs, params, "vid")
        assert net.samples_seen == 250

    def test_constant_net_returns_constant(self):
        net = ConstantNet([0.5, 0.3, 0.2], (6, 14, 14))
        pairs = random_pairs(1, 12, 16, 16)
        params = PredictParams(stack=StackSpec(3), k_samples=4, out_side=14)
        pred = predict_from_pairs(net, pairs, params, "vid")
        assert np.allclose(pred.scores, [0.5, 0.3, 0.2])
        assert pred.predicted == 0

    def test_single_sample_crop_equals_frame(self):
        net = ConstantNet([0.9, 0.1], (2, 16, 16))
        pairs = random_pairs(2, 1, 16, 16)
        params = PredictParams(stack=StackSpec(1), k_samples=1, out_side=16)
        pred = predict_from_pairs(net, pairs, params, "vid")
        assert net.samples_seen == 10
        assert pred.scores.sum() == pytest.approx(1.0)

    def test_too_short_video(self):
        net = ConstantNet([1.0, 0.0], (20, 14, 14))
        with pytest.raises(ValueError, match="at least 11 frames"):
            predict_from_pairs(net, random_pairs(3, 5, 16, 16), PredictParams(out_side=14), "vid")

    def test_prediction_is_deterministic(self):
        config = NetConfig(input_shape=(6, 14, 14), num_classes=3, layers=(FcSpec(3),))
        model = TinyNet(config, make_rng(45))
        pairs = random_pairs(46, 9, 16, 16)
        params = PredictParams(stack=StackSpec(3), k_samples=5, out_side=14)
        first = predict_from_pairs(model, pairs, params, "v")
        second = predict_from_pairs(model, pairs, params, "v")
        assert np.array_equal(first.scores, second.scores)
        assert first.predicted == second.predicted


def reference_scores(net, pairs, params):
    """The protocol as written: one ten-crop forward per temporal sample."""
    h, w = pairs[0][0].shape
    crop_side = int(np.floor(DEFAULT_TEST_CROP_FRACTION * min(h, w) + 0.5))
    crops = ten_crops(w, h, crop_side, crop_side, params.out_side)
    total = None
    count = 0
    for start in sample_test_starts(len(pairs), params.stack.stack_length, params.k_samples):
        vol = stack_volume(pairs, start, params.stack)
        probs = net.forward(np.stack([apply_crop(vol, c) for c in crops]))
        total = probs.sum(axis=0) if total is None else total + probs.sum(axis=0)
        count += probs.shape[0]
    scores = total / count
    return scores / scores.sum()


class TestRepeatedStarts:
    @pytest.mark.parametrize(
        "pair_count, stack_length, k, distinct, frame",
        [
            (1, 1, 1, 1, (16, 16)),
            (11, 10, 1, 1, (16, 16)),
            (11, 10, 25, 2, (16, 16)),
            (40, 10, 25, 25, (16, 16)),
            (12, 10, 40, 3, (16, 16)),
            (13, 2, 25, 12, (16, 16)),
            # Starts 0, 19, 38, 57: no two windows share a pair.
            (60, 3, 4, 4, (16, 16)),
            # Starts 0, 5, 9, 14: neighbours share 1, 2 and 1 pairs.
            (20, 6, 4, 4, (16, 16)),
            (20, 6, 4, 4, (22, 16)),
        ],
        ids=[
            "one_pair",
            "k1",
            "desk",
            "all_distinct",
            "k_over_distinct",
            "some_repeats",
            "gapped",
            "partly_overlapping",
            "partly_overlapping_non_square",
        ],
    )
    def test_one_forward_per_distinct_start_same_bits(self, monkeypatch, pair_count, stack_length, k, distinct, frame):
        pairs = random_pairs(60 + pair_count, pair_count, *frame)
        params = PredictParams(stack=StackSpec(stack_length), k_samples=k, out_side=14)
        model = TinyNet(desk_net_config(input_shape=(2 * stack_length, 14, 14), num_classes=4), make_rng(61))
        expected = reference_scores(model, pairs, params)
        batches = []
        forward = model.forward

        def counted(batch):
            batches.append(batch.shape[0])
            return forward(batch)

        monkeypatch.setattr(model, "forward", counted)
        pred = predict_from_pairs(model, pairs, params, "v")
        assert len(set(sample_test_starts(pair_count, stack_length, k))) == distinct
        assert batches == [10] * distinct
        assert pred.scores.tobytes() == expected.tobytes()
        assert pred.predicted == argmax_class(expected)


class TestEvaluate:
    def make_preds(self, assignments):
        return [
            VideoPrediction(f"v{i}", np.eye(3)[p], p) for i, (t, p) in enumerate(assignments)
        ], {f"v{i}": t for i, (t, p) in enumerate(assignments)}

    def test_all_correct(self):
        preds, labels = self.make_preds([(0, 0), (1, 1), (2, 2)])
        report = evaluate(preds, labels, 3)
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, np.eye(3, dtype=int))

    def test_all_predicted_class_zero(self):
        preds, labels = self.make_preds([(0, 0), (1, 0), (2, 0)])
        report = evaluate(preds, labels, 3)
        assert np.array_equal(report.confusion[:, 0], [1, 1, 1])
        assert report.confusion[:, 1:].sum() == 0

    def test_three_quarters(self):
        preds, labels = self.make_preds([(0, 0), (0, 1), (1, 1), (1, 1)])
        report = evaluate(preds, labels, 3)
        assert report.accuracy == 0.75

    def test_row_sums_and_trace(self):
        preds, labels = self.make_preds([(0, 1), (0, 0), (1, 1), (2, 0), (2, 2)])
        report = evaluate(preds, labels, 3)
        assert report.confusion.sum() == 5
        assert np.trace(report.confusion) / 5 == report.accuracy
        assert list(report.confusion.sum(axis=1)) == [2, 1, 2]

    def test_unknown_video(self):
        preds, labels = self.make_preds([(0, 0)])
        with pytest.raises(ValueError, match="unknown video"):
            evaluate(preds, {}, 3)

    def test_prediction_outside_class_range(self):
        preds = [VideoPrediction("v0", np.array([0.1, 0.2, 0.7]), 2)]
        with pytest.raises(ValueError, match="predicted class 2 of 2"):
            evaluate(preds, {"v0": 0}, 2)

    def test_class_mean_ignores_empty_rows(self):
        preds, labels = self.make_preds([(0, 0), (1, 1)])
        report = evaluate(preds, labels, 3)
        assert report.class_mean == 1.0


class TestMultiSplitAverage:
    def test_reported_table_row(self):
        avg = multi_split_average([90.8, 89.3, 91.5])
        assert avg == pytest.approx(90.5333333, abs=1e-6)
        assert round(avg, 1) == 90.5

    def test_single_split(self):
        assert multi_split_average([77.7]) == 77.7

    def test_identical_splits(self):
        assert multi_split_average([50.0, 50.0, 50.0]) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_split_average([])


class TestConfusionHeat:
    def test_row_normalization(self):
        heat = confusion_heat_image(np.array([[8, 2], [0, 0]]))
        assert heat[0, 0] == 204 and heat[0, 1] == 51
        assert heat[1, 0] == 0 and heat[1, 1] == 0
        assert heat.dtype == np.uint8
