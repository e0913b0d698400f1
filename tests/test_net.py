import hashlib

import numpy as np
import pytest

from conftest import traced_peak
from mostream.mos import MosPair
from mostream.net import (
    ConvSpec,
    DropoutSpec,
    FcSpec,
    NetConfig,
    PoolSpec,
    ReluSpec,
    SgdState,
    TinyNet,
    TrainConfig,
    _CONV_BLOCK_BYTES,
    _Conv,
    _Pool,
    _Relu,
    _windows,
    desk_net_config,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)
from mostream.pipeline import Clip, TrainPipeline
from mostream.raster import make_rng
from mostream.volume import StackSpec


def small_config(num_classes=4, dropout=0.3):
    return NetConfig(
        input_shape=(3, 8, 8),
        num_classes=num_classes,
        layers=(
            ConvSpec(4, kernel=3, stride=1, pad=1),
            ReluSpec(),
            PoolSpec(),
            ConvSpec(5, kernel=3, stride=2, pad=0),
            ReluSpec(),
            FcSpec(6),
            ReluSpec(),
            DropoutSpec(dropout),
            FcSpec(num_classes),
        ),
    )


def finite_difference_check(net, x, y, forward_seed, samples_per_param=10, step=1e-5):
    """Worst relative error between analytic and central-difference grads."""
    _, grads = net.loss_and_grads(x, y, make_rng(forward_seed))
    worst = 0.0
    for i, name, arr in net.parameters():
        analytic = grads[i][name].ravel()
        flat = arr.ravel()
        picks = make_rng(1000 + i).integers(0, flat.size, size=min(samples_per_param, flat.size))
        for j in np.unique(picks):
            orig = flat[j]
            flat[j] = orig + step
            plus = net.loss_and_grads(x, y, make_rng(forward_seed))[0]
            flat[j] = orig - step
            minus = net.loss_and_grads(x, y, make_rng(forward_seed))[0]
            flat[j] = orig
            fd = (plus - minus) / (2.0 * step)
            scale = max(abs(analytic[j]), abs(fd))
            if scale > 1e-6:
                worst = max(worst, abs(analytic[j] - fd) / scale)
            else:
                worst = max(worst, abs(analytic[j] - fd) / 1e-6 * 1e-5)
    return worst


class TestForward:
    def test_zero_weights_uniform_scores(self):
        net = TinyNet(small_config(), make_rng(0))
        for _, _, arr in net.parameters():
            arr[...] = 0.0
        probs = net.forward(make_rng(1).normal(size=(3, 8, 8)))
        assert np.allclose(probs, 0.25)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_eval_mode_deterministic(self):
        net = TinyNet(small_config(), make_rng(2))
        x = make_rng(3).normal(size=(3, 8, 8))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_identity_conv_net_softmaxes_input(self):
        config = NetConfig(input_shape=(2, 1, 1), num_classes=2, layers=(ConvSpec(2, kernel=1, pad=0),))
        net = TinyNet(config, make_rng(4))
        conv = net.layers[0]
        conv.w[...] = np.eye(2).reshape(2, 2, 1, 1)
        conv.b[...] = 0.0
        x = np.array([0.3, -1.2]).reshape(2, 1, 1)
        expected = np.exp([0.3, -1.2]) / np.exp([0.3, -1.2]).sum()
        assert np.allclose(net.forward(x), expected)

    def test_softmax_shift_invariance(self):
        config = NetConfig(input_shape=(3, 1, 1), num_classes=3, layers=())
        net = TinyNet(config, make_rng(5))
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        shifted = net.forward(x + 100.0)
        assert np.allclose(net.forward(x), shifted, atol=1e-9)
        assert shifted.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch_reports(self):
        net = TinyNet(small_config(), make_rng(6))
        with pytest.raises(ValueError, match="does not match network input"):
            net.forward(np.zeros((3, 9, 8)))

    def test_train_mode_needs_rng_for_dropout(self):
        net = TinyNet(small_config(), make_rng(7))
        with pytest.raises(ValueError, match="rng"):
            net.forward_with_cache(np.zeros((3, 8, 8)))

    def test_final_width_must_match_classes(self):
        with pytest.raises(ValueError, match="expected 4 classes"):
            TinyNet(NetConfig(input_shape=(3, 8, 8), num_classes=4, layers=(FcSpec(5),)), make_rng(8))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        net = TinyNet(small_config(), make_rng(9))
        x = make_rng(10).normal(size=(2, 3, 8, 8))
        y = np.array([1, 3])
        assert finite_difference_check(net, x, y, forward_seed=42) < 1e-5

    def test_saturated_prediction_has_tiny_gradient(self):
        config = NetConfig(input_shape=(2, 1, 1), num_classes=2, layers=(FcSpec(2),))
        net = TinyNet(config, make_rng(11))
        fc = net.layers[0]
        fc.w[...] = 0.0
        fc.b[...] = np.array([500.0, -500.0])
        _, grads = net.loss_and_grads(np.ones((2, 1, 1)), np.array([0]), make_rng(0))
        norm = np.sqrt(sum(np.sum(g[name] ** 2) for g, spec in zip(grads, config.layers) for name in g))
        assert norm <= 1e-9

    def test_zero_input_channel_gets_zero_gradient(self):
        net = TinyNet(small_config(), make_rng(12))
        x = make_rng(13).normal(size=(1, 3, 8, 8))
        x[:, 1] = 0.0
        _, grads = net.loss_and_grads(x, np.array([0]), make_rng(14))
        conv1_dw = grads[0]["w"]
        assert np.all(conv1_dw[:, 1] == 0.0)

    def test_backward_requires_cache(self):
        net = TinyNet(small_config(), make_rng(15))
        with pytest.raises(ValueError, match="cache"):
            net.backward(None, np.array([0]))

    @pytest.mark.parametrize("target", [5, -1])
    def test_out_of_range_target_rejected(self, target):
        net = TinyNet(small_config(), make_rng(15))
        with pytest.raises(ValueError, match="out of range"):
            net.loss_and_grads(np.zeros((1, 3, 8, 8)), np.array([target]), make_rng(0))


def reference_backward(net, cache, targets):
    """Backward through every layer, the first layer's input gradient included."""
    probs = cache["probs"]
    n = probs.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    dx = dlogits.reshape(cache["logits_shape"])
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        dx, grads[i] = net.layers[i].backward(dx, cache["layers"][i])
    assert dx.shape == (n,) + tuple(net.config.input_shape)
    return grads


class TestFirstLayerInputGradient:
    @pytest.mark.parametrize(
        "config",
        [
            desk_net_config(input_shape=(20, 16, 16)),
            NetConfig(input_shape=(4, 8, 8), num_classes=3, layers=(FcSpec(3),)),
        ],
        ids=["desk", "one_fc"],
    )
    def test_gradients_equal_a_backward_that_builds_it(self, config):
        net = TinyNet(config, make_rng(70))
        x = make_rng(71).normal(size=(3,) + config.input_shape)
        targets = np.arange(3) % config.num_classes
        _, cache = net.forward_with_cache(x, make_rng(72))
        grads = net.backward(cache, targets)
        expected = reference_backward(net, cache, targets)
        assert [sorted(g) for g in grads] == [sorted(g) for g in expected]
        for i, (g, e) in enumerate(zip(grads, expected)):
            for name in g:
                assert g[name].tobytes() == e[name].tobytes(), (i, name)

    @pytest.mark.parametrize(
        "config, scattered",
        [
            (desk_net_config(input_shape=(20, 16, 16)), [(2, 16, 8, 8)]),
            (
                NetConfig(
                    input_shape=(3, 8, 8),
                    num_classes=4,
                    layers=(ConvSpec(4), ReluSpec(), ConvSpec(5, stride=2), ReluSpec(), ConvSpec(2), FcSpec(4)),
                ),
                [(2, 5, 4, 4), (2, 4, 8, 8)],
            ),
        ],
        ids=["desk", "three_convs"],
    )
    def test_col2im_runs_for_every_conv_but_the_first(self, monkeypatch, config, scattered):
        import mostream.net as net_module

        seen = []
        col2im = net_module._col2im

        def counted(dflat, x_shape, *args):
            seen.append(tuple(x_shape))
            return col2im(dflat, x_shape, *args)

        monkeypatch.setattr(net_module, "_col2im", counted)
        net = TinyNet(config, make_rng(73))
        x = make_rng(74).normal(size=(2,) + config.input_shape)
        net.loss_and_grads(x, np.array([0, 1]), make_rng(75))
        assert seen == scattered


def reference_pool_forward(x):
    """The earlier 2x2 pool: a transposed (..., 4) copy of the windows, argmax
    (first maximum wins) and take_along_axis; returns (y, int64 index)."""
    n, c, h, w = x.shape
    ch, cw = 2 * (h // 2), 2 * (w // 2)
    xv = x[:, :, :ch, :cw].reshape(n, c, ch // 2, 2, cw // 2, 2)
    xv = xv.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ch // 2, cw // 2, 4)
    idx = xv.argmax(axis=-1)
    return np.take_along_axis(xv, idx[..., None], axis=-1)[..., 0], idx


def reference_pool_backward(dout, idx, x_shape):
    n, c, h, w = x_shape
    ch, cw = 2 * (h // 2), 2 * (w // 2)
    dxv = np.zeros((n, c, ch // 2, cw // 2, 4))
    np.put_along_axis(dxv, idx[..., None], dout[..., None], axis=-1)
    dxv = dxv.reshape(n, c, ch // 2, cw // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(x_shape)
    dx[:, :, :ch, :cw] = dxv.reshape(n, c, ch, cw)
    return dx


def pool_inputs(shape, seed):
    """Pool inputs rich in ties: ReLU output (all-zero windows), one value
    everywhere, and a few repeated integers; none holds -0.0."""
    rng = make_rng(seed)
    return {
        "relu": np.maximum(rng.normal(size=shape), 0.0),
        "all_equal": np.full(shape, 1.5),
        "repeats": rng.integers(0, 3, size=shape).astype(np.float64),
    }


POOL_SHAPES = [(3, 2, 3, 3), (2, 3, 5, 5), (3, 1, 7, 7), (2, 2, 4, 6), (4, 2, 7, 4)]


class TestPool:
    """The pool against the earlier argmax pool it replaced.

    Each window's winner is the first of (0,0), (0,1), (1,0), (1,1) equal to
    its maximum, argmax's rule, so the gradients match byte for byte. The
    outputs match byte for byte unless a window's maximum is a signed zero:
    np.maximum may return either zero there (here it returns its second
    operand), while argmax picks the first. A TinyNet pool always follows a
    ReLU, and np.maximum(x, 0.0) never emits -0.0.
    """

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_matches_the_argmax_pool(self, shape):
        pool = _Pool(PoolSpec(), shape[1:], None)
        for kind, x in pool_inputs(shape, seed=sum(shape)).items():
            y, idx = pool.forward(x, True, None)
            ref_y, ref_idx = reference_pool_forward(x)
            assert y.tobytes() == ref_y.tobytes() and y.shape == ref_y.shape, kind
            assert idx.dtype == np.uint8 and idx.shape == y.shape, kind
            assert np.array_equal(idx, ref_idx), kind
            dout = make_rng(1).normal(size=y.shape)
            dout[0, 0, 0, 0] = -0.0
            dx, grads = pool.backward(dout, idx)
            assert grads == {}
            assert dx.tobytes() == reference_pool_backward(dout, ref_idx, x.shape).tobytes(), kind

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_signed_zero_windows_match_as_numbers(self, shape):
        x = make_rng(2).choice(np.array([-0.0, 0.0, -1.0]), size=shape)
        pool = _Pool(PoolSpec(), shape[1:], None)
        y, idx = pool.forward(x, True, None)
        ref_y, ref_idx = reference_pool_forward(x)
        assert np.array_equal(y, ref_y)
        assert np.array_equal(idx, ref_idx)
        dout = make_rng(3).normal(size=y.shape)
        assert pool.backward(dout, idx)[0].tobytes() == reference_pool_backward(dout, ref_idx, x.shape).tobytes()

    def test_relu_emits_no_negative_zero(self):
        for size in (1, 7, 64, 1001):
            for offset in range(3):
                x = np.full(size + offset, -0.0)[offset:]
                assert not np.signbit(np.maximum(x, 0.0)).any(), (size, offset)

    def test_eval_mode_keeps_no_cache(self):
        shape = (3, 2, 7, 6)
        x = pool_inputs(shape, seed=4)["relu"]
        pool = _Pool(PoolSpec(), shape[1:], None)
        y, cache = pool.forward(x, False, None)
        assert cache is None
        assert y.tobytes() == pool.forward(x, True, None)[0].tobytes()


def reference_im2col(x, k, stride, pad):
    """The earlier patch matrix: np.pad, then a channel-last copy."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = x.shape[2:]
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    xcl = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    sn, sh, sw, sc = xcl.strides
    view = np.lib.stride_tricks.as_strided(
        xcl, shape=(n, out_h, out_w, k, k, c), strides=(sn, sh * stride, sw * stride, sh, sw, sc)
    )
    return np.ascontiguousarray(view).reshape(n * out_h * out_w, k * k * c), out_h, out_w


class TestIm2col:
    """The patch matrix the conv backward rebuilds from its cache: the window
    view of the padded channel-last input, copied in C order."""

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (3, 2, 0), (1, 1, 0), (3, 1, 2)])
    def test_matches_pad_then_transpose(self, k, stride, pad):
        x = make_rng(5).normal(size=(2, 3, 7, 6))
        conv = _Conv(ConvSpec(4, kernel=k, stride=stride, pad=pad), x.shape[1:], make_rng(6))
        windows = _windows(conv.forward(x, True, None)[1], k, stride)
        n, out_h, out_w = windows.shape[:3]
        flat = np.ascontiguousarray(windows).reshape(n * out_h * out_w, -1)
        ref, ref_h, ref_w = reference_im2col(x, k, stride, pad)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert flat.shape == ref.shape and flat.tobytes() == ref.tobytes()


def reference_conv_forward(conv, x):
    """The earlier conv forward: the whole batch's patch matrix and one GEMM."""
    spec = conv.spec
    flat, out_h, out_w = reference_im2col(x, spec.kernel, spec.stride, spec.pad)
    y = conv._w2() @ flat.T
    y += conv.b[:, None]
    return np.ascontiguousarray(y.reshape(spec.out_channels, x.shape[0], out_h, out_w).transpose(1, 0, 2, 3))


class TestBlockedConv:
    # (input batch shape, output channels, train, GEMM blocks the batch splits into)
    CASES = [
        ((16, 20, 32, 32), 16, True, 16),
        ((10, 20, 32, 32), 16, False, 10),
        ((10, 16, 16, 16), 32, True, 3),
        ((3, 4, 12, 12), 16, True, 1),
    ]

    @pytest.mark.parametrize(
        "shape, out_channels, train_mode, blocks", CASES, ids=["desk_conv0", "eval_conv0", "partial_conv3", "one_block"]
    )
    def test_equals_the_one_gemm_forward(self, shape, out_channels, train_mode, blocks):
        n, c, h, w = shape
        conv = _Conv(ConvSpec(out_channels), (c, h, w), make_rng(80))
        conv.b[...] = make_rng(81).normal(size=conv.b.shape)
        x = make_rng(82).normal(size=shape)
        per_sample = h * w * 9 * c * 8
        assert -(-n // min(n, -(-_CONV_BLOCK_BYTES // per_sample))) == blocks
        y, cache = conv.forward(x, train_mode, None)
        ref = reference_conv_forward(conv, x)
        assert y.shape == ref.shape and y.tobytes() == ref.tobytes()
        if not train_mode:
            assert cache is None
            return
        assert cache.nbytes == n * (h + 2) * (w + 2) * c * 8
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).transpose(0, 2, 3, 1)
        assert cache.shape == padded.shape and cache.tobytes() == np.ascontiguousarray(padded).tobytes()


class TestConvMemory:
    """Traced peaks at the desk shape stay below conv0's patch matrix, which
    no forward builds whole."""

    def test_train_forward_peaks_below_the_patch_matrix(self):
        net = TinyNet(desk_net_config(input_shape=(20, 32, 32)), make_rng(83))
        x = make_rng(84).normal(size=(16, 20, 32, 32))
        patch_matrix = 16 * 32 * 32 * 9 * 20 * 8
        peak = traced_peak(lambda: net.forward_with_cache(x, make_rng(85)))
        assert peak < patch_matrix, (peak, patch_matrix)

    def test_ten_crop_eval_forward_peaks_below_the_patch_matrix(self):
        net = TinyNet(desk_net_config(input_shape=(20, 32, 32)), make_rng(86))
        x = make_rng(87).normal(size=(10, 20, 32, 32))
        patch_matrix = 10 * 32 * 32 * 9 * 20 * 8
        peak = traced_peak(lambda: net.forward(x))
        assert peak < patch_matrix, (peak, patch_matrix)


class TestRelu:
    def test_eval_mode_keeps_no_cache(self):
        x = make_rng(6).normal(size=(2, 3, 5, 5))
        relu = _Relu(ReluSpec(), x.shape[1:], None)
        y, cache = relu.forward(x, False, None)
        train_y, mask = relu.forward(x, True, None)
        assert cache is None
        assert y.tobytes() == train_y.tobytes()
        assert np.array_equal(mask, x > 0)


class TestDropout:
    def test_inverted_dropout_expectation(self):
        layer_cfg = NetConfig(input_shape=(4, 1, 1), num_classes=4, layers=(DropoutSpec(0.5),))
        net = TinyNet(layer_cfg, make_rng(16))
        x = np.full((4, 1, 1), 2.0)
        rng = make_rng(17)
        total = np.zeros(4)
        trials = 20_000
        for _ in range(trials):
            out, cache = net.layers[0].forward(x[None], True, rng)
            total += out[0, :, 0, 0]
        mean = total / trials
        assert np.all(np.abs(mean - 2.0) / 2.0 < 0.02)

    def test_eval_mode_identity(self):
        layer_cfg = NetConfig(input_shape=(4, 1, 1), num_classes=4, layers=(DropoutSpec(0.9),))
        net = TinyNet(layer_cfg, make_rng(18))
        x = make_rng(19).normal(size=(4, 1, 1))
        out, _ = net.layers[0].forward(x[None], False, None)
        assert np.array_equal(out[0], x)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DropoutSpec(1.0)


class TestSgd:
    def test_step_schedule(self):
        cfg = TrainConfig()
        assert learning_rate(0, cfg) == 0.005
        assert learning_rate(4999, cfg) == 0.005
        assert learning_rate(5000, cfg) == pytest.approx(0.0005)
        assert learning_rate(10000, cfg) == pytest.approx(0.00005)

    def test_plain_gradient_descent(self):
        config = NetConfig(input_shape=(2, 1, 1), num_classes=2, layers=(FcSpec(2),))
        net = TinyNet(config, make_rng(20))
        fc = net.layers[0]
        w_before = fc.w.copy()
        grads = [{"w": np.ones_like(fc.w), "b": np.zeros_like(fc.b)}]
        cfg = TrainConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(net, grads, SgdState(net), 0, cfg)
        assert np.allclose(fc.w, w_before - 0.1)

    def test_zero_gradient_zero_velocity_keeps_params(self):
        config = NetConfig(input_shape=(2, 1, 1), num_classes=2, layers=(FcSpec(2),))
        net = TinyNet(config, make_rng(21))
        fc = net.layers[0]
        w_before = fc.w.copy()
        grads = [{"w": np.zeros_like(fc.w), "b": np.zeros_like(fc.b)}]
        sgd_step(net, grads, SgdState(net), 0, TrainConfig(weight_decay=0.0))
        assert np.array_equal(fc.w, w_before)

    def test_momentum_accumulates(self):
        config = NetConfig(input_shape=(1, 1, 1), num_classes=2, layers=(FcSpec(2),))
        net = TinyNet(config, make_rng(22))
        fc = net.layers[0]
        fc.w[...] = 0.0
        state = SgdState(net)
        grads = [{"w": np.ones_like(fc.w), "b": np.zeros_like(fc.b)}]
        cfg = TrainConfig(base_lr=1.0, momentum=0.5, weight_decay=0.0)
        sgd_step(net, grads, state, 0, cfg)   # v = -1,   w = -1
        sgd_step(net, grads, state, 1, cfg)   # v = -1.5, w = -2.5
        assert np.allclose(fc.w, -2.5)

    def test_shape_mismatch_rejected(self):
        config = NetConfig(input_shape=(2, 1, 1), num_classes=2, layers=(FcSpec(2),))
        net = TinyNet(config, make_rng(23))
        bad = [{"w": np.zeros((1, 1)), "b": np.zeros(2)}]
        with pytest.raises(ValueError, match="mismatched"):
            sgd_step(net, bad, SgdState(net), 0, TrainConfig())


def tiny_dataset(seed, classes=2, clips_per_class=2, pair_count=4):
    rng = make_rng(seed)
    out = []
    for c in range(classes):
        clips = []
        for i in range(clips_per_class):
            level = 40 + 180 * c
            pairs = [
                MosPair(
                    np.full((8, 8), level, np.uint8),
                    rng.integers(0, 256, (8, 8), dtype=np.uint8),
                )
                for _ in range(pair_count)
            ]
            clips.append(Clip(f"c{c}_{i}", c, pairs))
        out.append(clips)
    return out


class TestTrain:
    def test_initial_loss_near_log_k(self):
        data = tiny_dataset(24)
        pipe = TrainPipeline(stack=StackSpec(2), out_side=8)
        net = TinyNet(
            NetConfig(input_shape=(4, 8, 8), num_classes=2, layers=(FcSpec(2),)), make_rng(25)
        )
        curve = train(net, data, pipe.make_volume, TrainConfig(max_iter=1, batch_size=8, seed=0))
        assert curve[0][2] == pytest.approx(np.log(2), rel=0.1)

    def test_same_seed_identical_curves(self):
        data = tiny_dataset(26)
        pipe = TrainPipeline(stack=StackSpec(2), out_side=8)

        def run():
            net = TinyNet(
                NetConfig(input_shape=(4, 8, 8), num_classes=2, layers=(FcSpec(2),)),
                make_rng(27),
            )
            return train(net, data, pipe.make_volume, TrainConfig(max_iter=5, batch_size=4, seed=3))

        assert run() == run()

    def test_loss_decreases_on_separable_data(self):
        data = tiny_dataset(28)
        pipe = TrainPipeline(stack=StackSpec(2), out_side=8)
        net = TinyNet(
            NetConfig(input_shape=(4, 8, 8), num_classes=2, layers=(FcSpec(2),)), make_rng(29)
        )
        curve = train(net, data, pipe.make_volume, TrainConfig(max_iter=40, batch_size=8, seed=1))
        assert curve[-1][2] < curve[0][2] * 0.5

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="training clip"):
            train(
                TinyNet(NetConfig(input_shape=(4, 8, 8), num_classes=2, layers=(FcSpec(2),)), make_rng(30)),
                [[], []],
                lambda clip, rng: None,
                TrainConfig(max_iter=1),
            )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = TinyNet(small_config(), make_rng(31))
        path = tmp_path / "model.mosn"
        save_checkpoint(net, path, iterations=17)
        loaded, header = load_checkpoint(path)
        assert header["iterations"] == 17
        assert loaded.config == net.config
        for (i, name, a), (_, _, b) in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b), (i, name)
        x = make_rng(32).normal(size=(3, 8, 8))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mosn"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        net = TinyNet(small_config(), make_rng(33))
        path = tmp_path / "model.mosn"
        save_checkpoint(net, path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["num_classes", "input_shape", "layers", "params", "stream"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        import json
        import struct

        net = TinyNet(small_config(), make_rng(35))
        path = tmp_path / "model.mosn"
        save_checkpoint(net, path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        del header[key]
        blob = json.dumps(header).encode()
        path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
        with pytest.raises(ValueError, match=key):
            load_checkpoint(path)

    def test_short_parameter_table_rejected(self, tmp_path):
        import json
        import struct

        net = TinyNet(desk_net_config(input_shape=(20, 24, 24)), make_rng(5))
        assert len(net.config.layers) == 10
        path = tmp_path / "model.mosn"
        save_checkpoint(net, path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        dropped = header["params"].pop()
        assert (dropped["layer"], dropped["name"]) == (9, "w")
        blob = json.dumps(header).encode()
        payload = data[9 + blob_len : len(data) - 8 * int(np.prod(dropped["shape"]))]
        path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + payload)
        with pytest.raises(ValueError, match="lists 7 parameters, the architecture has 8"):
            load_checkpoint(path)

    def test_unknown_stream_rejected(self, tmp_path):
        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(small_config(), make_rng(36)), path, stream="rgb")
        with pytest.raises(ValueError, match="unknown stream kind 'rgb'"):
            load_checkpoint(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.mosn"
        path.write_bytes(b"MOSN\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_oversized_declared_input_rejected_before_allocating(self, tmp_path):
        # The declared input would need a 29 TiB weight; the parameter table
        # and payload of the saved one-FC net are checked against it first.
        import json
        import struct

        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(NetConfig(input_shape=(2, 3, 3), num_classes=2, layers=(FcSpec(2),)), make_rng(37)), path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        header["input_shape"] = [2, 1000000, 1000000]
        blob = json.dumps(header).encode()
        path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
        with pytest.raises(ValueError, match="parameter table does not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer, field, value", [(0, "stride", 0), (0, "kernel", 0), (0, "pad", -1), (2, "width", 0)])
    def test_invalid_layer_descriptor_rejected(self, tmp_path, layer, field, value):
        import json
        import struct

        config = NetConfig(input_shape=(2, 6, 6), num_classes=3, layers=(ConvSpec(2), ReluSpec(), FcSpec(3)))
        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(config, make_rng(39)), path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        header["layers"][layer][field] = value
        blob = json.dumps(header).encode()
        path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
        with pytest.raises(ValueError, match="positive|>= 1"):
            load_checkpoint(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(small_config(), make_rng(38)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated checkpoint payload"):
            load_checkpoint(path)

    # sha256 of the checkpoint bytes, recorded before the layer kinds moved
    # into one table: initialization draws and the MOSN layout stay put.
    def test_desk_checkpoint_bytes_pinned(self, tmp_path):
        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(desk_net_config(), make_rng(3)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "88e8c56e0ea5af492bc1c711ba741d4ce37c5abe1dc051dd8526a173f696ec84"
        )

    def test_trained_checkpoint_bytes_pinned(self, tmp_path):
        net = TinyNet(desk_net_config(input_shape=(4, 12, 12), num_classes=3, fc_width=8), make_rng(5))
        volumes = [[make_rng(10 + 3 * c + i).normal(size=(4, 12, 12)) for i in range(2)] for c in range(3)]
        train(net, volumes, lambda clip, rng: clip, TrainConfig(max_iter=4, batch_size=3, seed=2))
        path = tmp_path / "model.mosn"
        save_checkpoint(net, path, iterations=4)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4a5ff1207d4fbbe82ded87ad5e083e0795aa9f01ac0bcd1c0732eaa97806d0df"
        )

    # (input shape, layer specs, the same layers as MOSN descriptors, message)
    BAD_ARCHITECTURES = [
        ((2, 6, 6), (object(), FcSpec(3)), [{"type": "lstm"}, {"type": "fc", "width": 3}], "unknown"),
        (
            (2, 6, 6),
            (FcSpec(4), ConvSpec(3), FcSpec(3)),
            [{"type": "fc", "width": 4}, {"type": "conv", "out_channels": 3, "kernel": 3, "stride": 1, "pad": 1},
             {"type": "fc", "width": 3}],
            r"layer 1: convolution needs a \(C, H, W\) input",
        ),
        (
            (2, 6, 6),
            (FcSpec(4), PoolSpec(), FcSpec(3)),
            [{"type": "fc", "width": 4}, {"type": "pool"}, {"type": "fc", "width": 3}],
            r"layer 1: max-pool needs a \(C, H, W\) input",
        ),
        (
            (2, 1, 6),
            (PoolSpec(), FcSpec(3)),
            [{"type": "pool"}, {"type": "fc", "width": 3}],
            "layer 0: max-pool input too small",
        ),
        (
            (2, 3, 3),
            (ConvSpec(2, kernel=5, pad=0), FcSpec(3)),
            [{"type": "conv", "out_channels": 2, "kernel": 5, "stride": 1, "pad": 0}, {"type": "fc", "width": 3}],
            "layer 0: conv kernel 5 larger than padded input",
        ),
        (
            (2, 6, 6),
            (FcSpec(4),),
            [{"type": "fc", "width": 4}],
            "final layer produces 4 values, expected 3 classes",
        ),
    ]

    @pytest.mark.parametrize("input_shape, layers, descriptors, message", BAD_ARCHITECTURES)
    def test_bad_architecture_rejected_by_net_and_checkpoint(self, tmp_path, input_shape, layers, descriptors, message):
        import json
        import struct

        with pytest.raises(ValueError, match=message):
            NetConfig(input_shape=input_shape, num_classes=3, layers=layers)
        path = tmp_path / "model.mosn"
        save_checkpoint(TinyNet(NetConfig(input_shape=(2, 6, 6), num_classes=3, layers=(FcSpec(3),)), make_rng(40)), path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 5)
        header = json.loads(data[9 : 9 + blob_len])
        header["input_shape"] = list(input_shape)
        header["layers"] = descriptors
        blob = json.dumps(header).encode()
        path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_desk_default_shapes(self):
        net = TinyNet(desk_net_config(), make_rng(34))
        probs = net.forward(np.zeros((20, 56, 56)))
        assert probs.shape == (8,)
