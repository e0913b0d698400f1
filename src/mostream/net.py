"""Compact convolutional classifier with hand-written forward/backward passes.

Everything runs in float64 so analytic gradients can be validated against
central finite differences. Layers: k x k convolution (stride/pad), ReLU,
2x2 max-pool, fully connected, inverted dropout; the network output is
always a softmax over the class logits produced by the final layer.

Eval-mode forwards keep no backward caches. The max-pool works on the four
strided views of its 2x2 windows, with no transposed copy: its output is
their elementwise maximum, and in train mode it keeps a one-byte index of
each window's first maximum (argmax's tie rule) for backward. Only a
window whose maximum is a signed zero may come out with the other zero's
sign, which a ReLU before the pool rules out.

Training is synchronous mini-batch SGD with momentum, weight decay, and a
step learning-rate schedule; batches are class-balanced and every sample
gets a fresh random stack start and multi-scale crop.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence, Union

import numpy as np

from .mos import DEFAULT_STREAM, STREAMS
from .raster import Rng, make_rng, rng_uniform
from .volume import DEFAULT_STACK_LENGTH

CHECKPOINT_MAGIC = b"MOSN"
CHECKPOINT_VERSION = 1

# Desk-scale network: square input side, hidden FC width, its dropout rate.
DEFAULT_INPUT_SIDE = 56
DEFAULT_FC_WIDTH = 64
DEFAULT_DROPOUT = 0.5


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int = 3
    stride: int = 1
    pad: int = 1

    def __post_init__(self):
        if min(self.out_channels, self.kernel, self.stride) < 1 or self.pad < 0:
            raise ValueError(f"convolution needs positive channels, kernel and stride and pad >= 0, got {self}")


@dataclass(frozen=True)
class ReluSpec:
    pass


@dataclass(frozen=True)
class PoolSpec:
    """2x2 max pooling with stride 2; odd trailing rows/columns drop."""


@dataclass(frozen=True)
class FcSpec:
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"fully connected width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class DropoutSpec:
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class NetConfig:
    input_shape: tuple[int, int, int]
    num_classes: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"input_shape must be a positive (C, H, W), got {self.input_shape}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        _architecture(self)  # every layer's shapes chain to num_classes outputs


def desk_net_config(
    input_shape: tuple[int, int, int] = (2 * DEFAULT_STACK_LENGTH, DEFAULT_INPUT_SIDE, DEFAULT_INPUT_SIDE),
    num_classes: int = 8,
    fc_width: int = DEFAULT_FC_WIDTH,
    dropout: float = DEFAULT_DROPOUT,
) -> NetConfig:
    """Default desk-scale architecture: two conv/pool blocks, one hidden
    fully connected layer with dropout, then the class logits."""
    return NetConfig(
        input_shape=input_shape,
        num_classes=num_classes,
        layers=(
            ConvSpec(16),
            ReluSpec(),
            PoolSpec(),
            ConvSpec(32),
            ReluSpec(),
            PoolSpec(),
            FcSpec(fc_width),
            ReluSpec(),
            DropoutSpec(dropout),
            FcSpec(num_classes),
        ),
    )


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.005
    lr_step: int = 5000
    lr_factor: float = 0.1
    max_iter: int = 600
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("base_lr", "lr_factor", "momentum", "weight_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_step < 1 or self.max_iter < 0:
            raise ValueError("lr_step must be >= 1 and max_iter >= 0")


def learning_rate(iteration: int, cfg: TrainConfig) -> float:
    """Step schedule: base_lr scaled by lr_factor every lr_step iterations."""
    return cfg.base_lr * cfg.lr_factor ** (iteration // cfg.lr_step)


# --------------------------------------------------------------------------
# layers


def _im2col(x, k, stride, pad):
    # Patch matrix laid out as (n*out_h*out_w, k*k*c): the input is copied
    # once into the interior of a zero-bordered channel-last buffer, and an
    # overlapping-window view of it is gathered in one pass, so the
    # convolution GEMM and its backward need no further transposes of the big
    # buffer. The matching weight layout is a cheap transpose of the small
    # kernel tensor.
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    xcl = np.zeros((n, hp, wp, c), dtype=x.dtype)
    xcl[:, pad : pad + h, pad : pad + w, :] = x.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = xcl.strides
    view = np.lib.stride_tricks.as_strided(
        xcl,
        shape=(n, out_h, out_w, k, k, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
    )
    return np.ascontiguousarray(view).reshape(n * out_h * out_w, k * k * c), out_h, out_w


def _col2im(dflat, x_shape, k, stride, pad):
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    dcols = dflat.reshape(n, out_h, out_w, k, k, c)
    dxcl = np.zeros((n, hp, wp, c))
    for ki in range(k):
        for kj in range(k):
            dxcl[:, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride, :] += dcols[:, :, :, ki, kj, :]
    dx = np.ascontiguousarray(dxcl.transpose(0, 3, 1, 2))
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


def _he_normal(shape, rng):
    # He initialization; the fan-in is everything but the output axis.
    return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)


class _Layer:
    """Shared base of every layer kind, built as (spec, in_shape, rng). The
    shape rule `shapes(spec, in_shape)` gives the output shape and each
    parameter's shape without allocating; the default keeps the shape and
    has no parameters. He-normal `w`, then zero `b`, where the rule lists them.

    backward(dout, cache, need_dx=True) returns (dx, parameter gradients);
    with need_dx=False it builds no input gradient and returns None for dx,
    which TinyNet.backward asks of its first layer.
    """

    def __init__(self, spec, in_shape, rng):
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape, shapes = self.shapes(spec, in_shape)
        if "w" in shapes:
            self.w = _he_normal(shapes["w"], rng)
            self.b = np.zeros(shapes["b"])

    @staticmethod
    def shapes(spec, in_shape):
        return in_shape, {}

    def params(self):
        return {name: getattr(self, name) for name in ("w", "b") if hasattr(self, name)}


class _Conv(_Layer):
    @staticmethod
    def shapes(spec, in_shape):
        if len(in_shape) != 3:
            raise ValueError(f"convolution needs a (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        k = spec.kernel
        if h + 2 * spec.pad < k or w + 2 * spec.pad < k:
            raise ValueError(f"conv kernel {k} larger than padded input {in_shape}")
        out_h = (h + 2 * spec.pad - k) // spec.stride + 1
        out_w = (w + 2 * spec.pad - k) // spec.stride + 1
        return (spec.out_channels, out_h, out_w), {"w": (spec.out_channels, c, k, k), "b": (spec.out_channels,)}

    def _w2(self):
        # (out, k*k*c) to match the im2col feature order.
        return np.ascontiguousarray(self.w.transpose(0, 2, 3, 1)).reshape(self.spec.out_channels, -1)

    def forward(self, x, train, rng):
        spec = self.spec
        flat, out_h, out_w = _im2col(x, spec.kernel, spec.stride, spec.pad)
        n = x.shape[0]
        # Channel-major (out, n*out_h*out_w): the bias adds per row and NCHW
        # is a copy of whole (out_h*out_w) blocks. This keeps the bits of
        # `flat @ W2.T` only because the BLAS sums each dot product in the
        # same order whichever operand comes first; no BLAS promises that.
        # The checkpoint pins check it on the BLAS the tests run with.
        y = self._w2() @ flat.T
        y += self.b[:, None]
        y = np.ascontiguousarray(y.reshape(spec.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3))
        return y, (flat, x.shape)

    def backward(self, dout, cache, need_dx=True):
        flat, x_shape = cache
        spec = self.spec
        n, o, out_h, out_w = dout.shape
        k = spec.kernel
        c = x_shape[1]
        d2 = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, o)
        dw = np.ascontiguousarray((d2.T @ flat).reshape(o, k, k, c).transpose(0, 3, 1, 2))
        db = d2.sum(axis=0)
        grads = {"w": dw, "b": db}
        if not need_dx:
            return None, grads
        dflat = d2 @ self._w2()
        return _col2im(dflat, x_shape, spec.kernel, spec.stride, spec.pad), grads


class _Relu(_Layer):
    def forward(self, x, train, rng):
        return np.maximum(x, 0.0), (x > 0 if train else None)

    def backward(self, dout, cache, need_dx=True):
        return (dout * cache if need_dx else None), {}


class _Pool(_Layer):
    """2x2 max-pool with stride 2 over the four strided views
    x[:, :, r:ch:2, s:cw:2] of the even crop (ch, cw); odd trailing rows and
    columns are dropped and get zero gradient.

    The output is the np.maximum of the four views. In train mode the cache
    is the uint8 index of each window's winner in (0,0), (0,1), (1,0), (1,1)
    order, the first view equal to the maximum (argmax's rule), and backward
    routes each output gradient to that one position; eval mode keeps no
    cache. A window whose maximum is a signed zero may return the other
    zero's sign, since np.maximum does not order -0.0 and +0.0; every pool
    of a TinyNet follows a ReLU, which never emits -0.0.
    """

    _OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    @staticmethod
    def shapes(spec, in_shape):
        if len(in_shape) != 3:
            raise ValueError(f"max-pool needs a (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        if h < 2 or w < 2:
            raise ValueError(f"max-pool input too small: {in_shape}")
        return (c, h // 2, w // 2), {}

    def _views(self, x):
        _, out_h, out_w = self.out_shape
        return [x[:, :, r : 2 * out_h : 2, s : 2 * out_w : 2] for r, s in self._OFFSETS]

    def forward(self, x, train, rng):
        # Steps write in place, so a train forward allocates only y, the
        # index and one mask.
        views = self._views(x)
        y = np.maximum(views[0], views[1])
        np.maximum(y, views[2], out=y)
        np.maximum(y, views[3], out=y)
        if not train:
            return y, None
        # The first view equal to y, from whether views 0..2 miss it:
        # miss0 * (1 + miss1 * (1 + miss2)).
        idx = np.not_equal(views[2], y).view(np.uint8)
        idx += 1
        miss = np.empty(y.shape, dtype=bool)
        idx *= np.not_equal(views[1], y, out=miss)
        idx += 1
        idx *= np.not_equal(views[0], y, out=miss)
        return y, idx

    def backward(self, dout, cache, need_dx=True):
        if not need_dx:
            return None, {}
        dx = np.zeros((dout.shape[0],) + self.in_shape)
        for i, view in enumerate(self._views(dx)):
            view[...] = np.where(cache == i, dout, 0.0)
        return dx, {}


class _Fc(_Layer):
    @staticmethod
    def shapes(spec, in_shape):
        return (spec.width,), {"w": (spec.width, math.prod(in_shape)), "b": (spec.width,)}

    def forward(self, x, train, rng):
        flat = x.reshape(x.shape[0], -1)
        return flat @ self.w.T + self.b, flat

    def backward(self, dout, cache, need_dx=True):
        dw = dout.T @ cache
        db = dout.sum(axis=0)
        dx = (dout @ self.w).reshape((dout.shape[0],) + self.in_shape) if need_dx else None
        return dx, {"w": dw, "b": db}


class _Dropout(_Layer):
    def forward(self, x, train, rng):
        rate = self.spec.rate
        if not train or rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("train-mode forward through dropout requires an rng")
        keep = 1.0 - rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, dout, cache, need_dx=True):
        if not need_dx:
            return None, {}
        if cache is None:
            return dout, {}
        return dout * cache, {}


# Every layer kind, one row each: spec class -> (checkpoint tag, layer class).
# Building, shaping, saving and loading a network all read this table.
LAYER_KINDS = {
    ConvSpec: ("conv", _Conv),
    ReluSpec: ("relu", _Relu),
    PoolSpec: ("pool", _Pool),
    FcSpec: ("fc", _Fc),
    DropoutSpec: ("dropout", _Dropout),
}
LayerSpec = Union[tuple(LAYER_KINDS)]


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _architecture(config: NetConfig):
    """(layer class, input shape, {parameter name: shape}) of every layer
    of `config`, checked layer by layer without allocating anything."""
    out = []
    shape = tuple(config.input_shape)
    for i, spec in enumerate(config.layers):
        if type(spec) not in LAYER_KINDS:
            raise ValueError(f"layer {i}: unknown spec {spec!r}")
        layer = LAYER_KINDS[type(spec)][1]
        try:
            out_shape, params = layer.shapes(spec, shape)
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from None
        out.append((layer, shape, params))
        shape = out_shape
    if math.prod(shape) != config.num_classes:
        raise ValueError(f"final layer produces {math.prod(shape)} values, expected {config.num_classes} classes")
    return out


def _checked_targets(targets, probs_shape):
    """Class indices as an (n,) intp array, one per row of an (n, k)
    probability batch, each in [0, k)."""
    n, k = probs_shape
    targets = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError("target class index out of range")
    return targets


class TinyNet:
    """Feed-forward classifier built from a NetConfig; outputs class
    probabilities. Immutable after training apart from sgd_step updates."""

    def __init__(self, config: NetConfig, rng: Rng):
        self.config = config
        self.layers = [
            layer(spec, in_shape, rng) for spec, (layer, in_shape, _) in zip(config.layers, _architecture(config))
        ]

    def _as_batch(self, volume):
        x = np.asarray(volume, dtype=np.float64)
        if x.ndim == 3:
            return x[None], True
        if x.ndim == 4:
            return x, False
        raise ValueError(f"expected (C, H, W) or (N, C, H, W) input, got shape {x.shape}")

    def forward(self, volume):
        """Eval-mode class probabilities for a volume or batch of volumes."""
        return self._forward(volume, False, None)[0]

    def forward_with_cache(self, volume, rng: Rng = None):
        """Train-mode forward returning (probabilities, caches) for backward."""
        return self._forward(volume, True, rng)

    def _forward(self, volume, train, rng):
        x, single = self._as_batch(volume)
        expected = tuple(self.config.input_shape)
        if x.shape[1:] != expected:
            raise ValueError(f"input shape {x.shape[1:]} does not match network input {expected}")
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, train, rng)
            caches.append(cache)
        logits = x.reshape(x.shape[0], self.config.num_classes)
        probs = _softmax(logits)
        out = probs[0] if single else probs
        return out, {"layers": caches, "probs": probs, "logits_shape": x.shape}

    def backward(self, cache, targets):
        """Softmax cross-entropy gradients for every parameter.

        `cache` comes from forward_with_cache; `targets` is a class index
        or an array of them (one per batch row). Returns one dict per
        layer, aligned with self.layers. The first layer is asked for no
        input gradient (need_dx=False), so its backward stops at its
        parameter gradients.
        """
        if cache is None:
            raise ValueError("backward requires the cache from a train-mode forward")
        probs = cache["probs"]
        n = probs.shape[0]
        targets = _checked_targets(targets, probs.shape)
        dlogits = probs.copy()
        dlogits[np.arange(n), targets] -= 1.0
        dlogits /= n
        dx = dlogits.reshape(cache["logits_shape"])
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            dx, grads[i] = self.layers[i].backward(dx, cache["layers"][i], need_dx=i > 0)
        return grads

    def loss_and_grads(self, volume, targets, rng: Rng = None):
        """Mean cross-entropy loss and parameter gradients for a batch."""
        probs, cache = self.forward_with_cache(volume, rng)
        probs = cache["probs"]
        targets = _checked_targets(targets, probs.shape)
        n = probs.shape[0]
        loss = float(-np.log(np.maximum(probs[np.arange(n), targets], 1e-300)).mean())
        grads = self.backward(cache, targets)
        return loss, grads

    def parameters(self):
        """List of (layer_index, name, array) for every trainable tensor."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in sorted(layer.params().items()):
                out.append((i, name, arr))
        return out


class SgdState:
    """Momentum velocities, one per trainable tensor."""

    def __init__(self, net: TinyNet):
        self.velocities = {(i, name): np.zeros_like(arr) for i, name, arr in net.parameters()}


def sgd_step(net: TinyNet, grads, state: SgdState, iteration: int, cfg: TrainConfig):
    """One SGD update: v = m*v - lr*(g + wd*p); p += v. Mutates net/state."""
    lr = learning_rate(iteration, cfg)
    for i, name, param in net.parameters():
        grad = grads[i].get(name)
        if grad is None or grad.shape != param.shape:
            raise ValueError(f"gradient missing or mismatched for layer {i} param {name!r}")
        vel = state.velocities[(i, name)]
        vel *= cfg.momentum
        vel -= lr * (grad + cfg.weight_decay * param)
        param += vel
    return net


# A diverging step overflows quietly; train reports its non-finite loss.
@np.errstate(over="ignore", invalid="ignore")
def train(
    net: TinyNet,
    train_by_class: Sequence[Sequence],
    make_volume: Callable,
    cfg: TrainConfig,
    progress: Callable | None = None,
):
    """SGD training loop over class-balanced mini-batches.

    `train_by_class[c]` lists the training clips of class c; `make_volume`
    maps (clip, rng) to an input volume and is where the random stack
    start and random crop are drawn. Returns the loss curve as a list of
    (iteration, lr, loss) tuples. Fully determined by cfg.seed. Raises
    ValueError at the first non-finite loss, before that step's update.
    """
    k = len(train_by_class)
    if k == 0 or any(len(clips) == 0 for clips in train_by_class):
        raise ValueError("every class needs at least one training clip")
    rng = make_rng(cfg.seed, stream=1)
    state = SgdState(net)
    curve = []
    for it in range(cfg.max_iter):
        classes = [(it * cfg.batch_size + i) % k for i in range(cfg.batch_size)]
        xs = []
        for c in classes:
            clips = train_by_class[c]
            clip = clips[rng_uniform(rng, len(clips))]
            xs.append(make_volume(clip, rng))
        batch = np.stack(xs)
        targets = np.asarray(classes, dtype=np.intp)
        loss, grads = net.loss_and_grads(batch, targets, rng)
        if not np.isfinite(loss):
            raise ValueError(f"training diverged at iteration {it}: non-finite loss {loss}")
        sgd_step(net, grads, state, it, cfg)
        lr = learning_rate(it, cfg)
        curve.append((it, lr, loss))
        if progress is not None:
            progress(it, lr, loss)
    return curve


# --------------------------------------------------------------------------
# checkpoint format: magic "MOSN", version byte, JSON header (stream kind,
# layer descriptors, parameter table), then raw float64 little-endian
# parameter payloads in layer order.


def _spec_to_dict(spec):
    return {"type": LAYER_KINDS[type(spec)][0], **asdict(spec)}


def _spec_from_dict(d):
    cls = next((c for c, (tag, _) in LAYER_KINDS.items() if tag == d["type"]), None)
    if cls is None:
        raise ValueError(f"unknown layer descriptor type {d['type']!r}")
    return cls(**{f.name: d[f.name] for f in fields(cls)})


def save_checkpoint(net: TinyNet, path, iterations: int = 0, stream: str = DEFAULT_STREAM):
    """Write a bit-exact snapshot of the network to `path`; `stream` names
    the kind of byte pairs it was trained on."""
    header = {
        "stream": stream,
        "input_shape": list(net.config.input_shape),
        "num_classes": net.config.num_classes,
        "layers": [_spec_to_dict(s) for s in net.config.layers],
        "iterations": iterations,
        "params": [
            {"layer": i, "name": name, "shape": list(arr.shape)}
            for i, name, arr in net.parameters()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(bytes([CHECKPOINT_VERSION]))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, _, arr in net.parameters():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[TinyNet, dict]:
    """Read a checkpoint; returns (net, header metadata)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    if len(data) < 9:
        raise ValueError(f"{path}: truncated checkpoint header, {len(data)} bytes")
    if data[4] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data[4]}")
    (blob_len,) = struct.unpack_from("<I", data, 5)
    header = json.loads(data[9 : 9 + blob_len].decode("utf-8"))
    offset = 9 + blob_len
    try:
        config = NetConfig(
            input_shape=tuple(header["input_shape"]),
            num_classes=header["num_classes"],
            layers=tuple(_spec_from_dict(d) for d in header["layers"]),
        )
        if header["stream"] not in STREAMS:
            raise ValueError(f"{path}: unknown stream kind {header['stream']!r}")
        iterations = header["iterations"]
        if type(iterations) is not int or iterations < 0:
            raise ValueError(f"{path}: iterations must be a non-negative integer, got {iterations!r}")
        # The table and the payload size are checked against the shapes the
        # architecture implies before any parameter array is allocated.
        table = [
            [i, name, list(shape)]
            for i, (_, _, shapes) in enumerate(_architecture(config))
            for name, shape in sorted(shapes.items())
        ]
        if len(header["params"]) != len(table):
            raise ValueError(
                f"{path}: checkpoint lists {len(header['params'])} parameters, the architecture has {len(table)}"
            )
        for row, meta in zip(table, header["params"]):
            if row != [meta["layer"], meta["name"], meta["shape"]]:
                raise ValueError("checkpoint parameter table does not match the architecture")
        payload = 8 * sum(math.prod(shape) for _, _, shape in table)
        if len(data) - offset < payload:
            raise ValueError(f"{path}: truncated checkpoint payload, {len(data) - offset} of {payload} bytes")
        if len(data) - offset > payload:
            raise ValueError(f"checkpoint has {len(data) - offset - payload} trailing bytes")
        net = TinyNet(config, make_rng(0))
        for i, name, arr in net.parameters():
            vals = np.frombuffer(data, dtype="<f8", count=arr.size, offset=offset)
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}: layer {i} parameter {name!r} holds non-finite values")
            arr[...] = vals.reshape(arr.shape)
            offset += arr.size * 8
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})") from None
    return net, header
