"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

The end-to-end classification criteria (5 and 6) share a module-scoped
fixture that runs the full desk-scale experiment once; everything else is
self-contained. The terminal summary hook in conftest prints one
pass/fail line per criterion.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import interior_epe, interior_mask, shift_image, smooth_texture
from mostream import formats
from mostream.cli import main as cli_main
from mostream.experiment import ExperimentConfig, run_desk_experiment
from mostream.fusion import argmax_class, fuse, multi_split_average
from mostream.mos import (
    MAG_BOUNDS,
    MosParams,
    magnitude,
    mos_images,
    orientation,
    rescale_to_byte,
)
from mostream.net import (
    ConvSpec,
    DropoutSpec,
    FcSpec,
    NetConfig,
    ReluSpec,
    TinyNet,
    load_checkpoint,
    save_checkpoint,
)
from mostream.raster import FlowField, RescaleBounds, make_rng
from mostream.tvl1 import block_match_flow, tvl1_flow


def test_criterion_1_equation_unit_suite():
    start = time.perf_counter()

    # Eq. 1: linear byte rescaling with clamped bounds, round half up.
    assert rescale_to_byte(-15.0, MAG_BOUNDS) == 0
    assert rescale_to_byte(15.0, MAG_BOUNDS) == 255
    assert rescale_to_byte(20.0, MAG_BOUNDS) == 255
    assert rescale_to_byte(-20.0, MAG_BOUNDS) == 0
    assert rescale_to_byte(0.0, MAG_BOUNDS) == 128
    assert rescale_to_byte(10.0, MAG_BOUNDS) == 213

    # Eq. 2: Euclidean magnitude.
    def flow1(u, v):
        return FlowField(np.array([[float(u)]]), np.array([[float(v)]]))

    assert magnitude(flow1(3, 4))[0, 0] == 5.0
    assert magnitude(flow1(0, 0))[0, 0] == 0.0
    assert magnitude(flow1(-3, -4))[0, 0] == 5.0

    # Eq. 3: four-quadrant angle in degrees, zero vector maps to zero.
    assert orientation(flow1(1, 1))[0, 0] == 45.0
    assert orientation(flow1(-1, 0))[0, 0] == 180.0
    assert orientation(flow1(0, 0))[0, 0] == 0.0

    # Eq. 4 with the reference parameters h=15, l=-15, m=128.
    still = mos_images(flow1(0, 0))
    assert still.magnitude[0, 0] == 128 and still.orientation[0, 0] == 128
    fast = mos_images(flow1(10, 0))
    assert fast.magnitude[0, 0] == 213 and fast.orientation[0, 0] == 128
    # gated pixel: magnitude byte below m forces the angle to zero degrees
    gated = mos_images(flow1(0, 1), MosParams(mag_bounds=RescaleBounds(0.0, 100.0)))
    assert gated.magnitude[0, 0] < 128
    assert gated.orientation[0, 0] == 128

    assert time.perf_counter() - start < 1.0


def _integer_shift(seed):
    rng = make_rng(seed, stream=77)
    while True:
        dx = int(rng.integers(-4, 5))
        dy = int(rng.integers(-4, 5))
        if 1 <= dx * dx + dy * dy <= 16:
            return dx, dy


def test_criterion_2_flow_accuracy():
    # 20 seeded 128x128 texture pairs, global integer shifts |d| <= 4 px.
    # The variational flow and the exhaustive SAD oracle run single-threaded.
    mask = interior_mask(128, 128)
    for seed in range(20):
        dx, dy = _integer_shift(seed)
        tex = smooth_texture(seed, 128, 128)
        nxt = shift_image(tex, dx, dy)

        t0 = time.perf_counter()
        flow = tvl1_flow(tex, nxt)
        tvl1_seconds = time.perf_counter() - t0
        epe = interior_epe(flow, dx, dy)
        assert epe <= 0.3, f"seed {seed} shift ({dx},{dy}): EPE {epe}"
        assert tvl1_seconds < 2.0

        t0 = time.perf_counter()
        oracle = block_match_flow(tex, nxt, patch=7, search_radius=4)
        oracle_seconds = time.perf_counter() - t0
        assert np.all(oracle.u[mask] == dx) and np.all(oracle.v[mask] == dy)
        assert oracle_seconds < 2.0

        cross = interior_epe(flow, oracle.u, oracle.v)
        assert cross <= 0.75


def test_criterion_3_zero_motion():
    for seed in (0, 1, 2):
        tex = smooth_texture(100 + seed, 96, 96)
        flow = tvl1_flow(tex, tex)
        assert magnitude(flow).mean() <= 0.05
        mag_bytes = mos_images(flow).magnitude
        assert np.all(np.abs(mag_bytes.astype(np.int64) - 128) <= 1)


_FD_STEP = 1e-5


def _fd_compare(analytic, fd, context):
    scale = max(abs(analytic), abs(fd))
    if scale > 1e-6:
        rel = abs(analytic - fd) / scale
        assert rel <= 1e-5, f"{context}: rel {rel}"
    else:
        assert abs(analytic - fd) <= 1e-9, context


def _check_layer_gradients(layer, x, seed, rng_factory=None, check_params=True):
    """Analytic vs central-difference gradients of L = sum(forward(x) * R).

    Inputs are pre-conditioned by the caller to sit away from ReLU/pool
    decision boundaries, so the finite-difference oracle stays valid.
    """
    def loss():
        rng = rng_factory() if rng_factory else None
        out, _ = layer.forward(x, True, rng)
        return float((out * weight).sum())

    rng = rng_factory() if rng_factory else None
    out, cache = layer.forward(x, True, rng)
    weight = make_rng(seed, stream=50).normal(size=out.shape)
    dx, grads = layer.backward(weight, cache)

    targets = [("x", x, dx)]
    if check_params:
        analytic_params = {name: grads[name] for name in layer.params()}
        targets += [(name, layer.params()[name], analytic_params[name]) for name in sorted(layer.params())]
    for name, arr, analytic in targets:
        flat = arr.ravel()
        picks = np.unique(make_rng(seed, stream=51).integers(0, flat.size, size=min(8, flat.size)))
        for j in picks:
            orig = flat[j]
            flat[j] = orig + _FD_STEP
            plus = loss()
            flat[j] = orig - _FD_STEP
            minus = loss()
            flat[j] = orig
            fd = (plus - minus) / (2.0 * _FD_STEP)
            _fd_compare(analytic.ravel()[j], fd, f"seed {seed} {type(layer).__name__} {name}[{j}]")


def test_criterion_4_gradient_checks():
    # Every layer type: analytic gradients vs central finite differences
    # (64-bit, step 1e-5) on randomized small shapes, 20 seeds. Inputs keep
    # a margin from ReLU kinks and pooling ties so the difference quotient
    # measures the same branch the analytic gradient differentiates.
    from mostream.net import PoolSpec, _Conv, _Dropout, _Fc, _Pool, _Relu, _softmax

    for seed in range(20):
        rng = make_rng(seed)
        c = int(rng.integers(1, 4))
        side = int(rng.integers(5, 9))
        n = int(rng.integers(1, 3))

        conv = _Conv(ConvSpec(int(rng.integers(1, 4)), kernel=3, stride=int(rng.integers(1, 3)), pad=1), (c, side, side), rng)
        x = make_rng(seed, stream=1).normal(size=(n, c, side, side))
        _check_layer_gradients(conv, x, seed)

        relu = _Relu(ReluSpec(), (c, side, side), rng)
        x = make_rng(seed, stream=2).normal(size=(n, c, side, side))
        x += 0.05 * np.sign(x)  # keep pre-activations off the kink
        _check_layer_gradients(relu, x, seed, check_params=False)

        pool = _Pool(PoolSpec(), (c, side, side), rng)
        perm = make_rng(seed, stream=3).permutation(n * c * side * side)
        x = 0.1 * perm.reshape(n, c, side, side).astype(np.float64)  # distinct window values
        _check_layer_gradients(pool, x, seed, check_params=False)

        fc = _Fc(FcSpec(int(rng.integers(2, 6))), (c, side, side), rng)
        x = make_rng(seed, stream=4).normal(size=(n, c, side, side))
        _check_layer_gradients(fc, x, seed)

        drop = _Dropout(DropoutSpec(0.4), (c, side, side), rng)
        x = make_rng(seed, stream=5).normal(size=(n, c, side, side))
        _check_layer_gradients(drop, x, seed, rng_factory=lambda: make_rng(seed, stream=6), check_params=False)

        # softmax cross-entropy head: loss gradient w.r.t. the logits
        k = int(rng.integers(2, 6))
        logits = make_rng(seed, stream=7).normal(size=(1, k))
        target = int(make_rng(seed, stream=8).integers(0, k))
        probs = _softmax(logits)
        analytic = probs.copy()
        analytic[0, target] -= 1.0
        for j in range(k):
            orig = logits[0, j]
            logits[0, j] = orig + _FD_STEP
            plus = -np.log(_softmax(logits)[0, target])
            logits[0, j] = orig - _FD_STEP
            minus = -np.log(_softmax(logits)[0, target])
            logits[0, j] = orig
            fd = (plus - minus) / (2.0 * _FD_STEP)
            _fd_compare(analytic[0, j], fd, f"seed {seed} softmax[{j}]")


@pytest.fixture(scope="module")
def desk_experiment(tmp_path_factory):
    work = tmp_path_factory.mktemp("desk_experiment")
    cfg = ExperimentConfig()
    assert cfg.clips_per_class == 100 and cfg.iterations <= 3000
    return run_desk_experiment(work, cfg)


@pytest.mark.slow
def test_criterion_5_end_to_end_classification(desk_experiment):
    # 8 synthetic motion classes (4 directions x speeds {1, 3}), 100 clips
    # per class, 80/20 split, stack length 10, <= 3000 training iterations.
    res = desk_experiment
    assert len(res.classes) == 8
    assert res.full.confusion.sum() == 160  # 20 test clips per class
    assert res.full.accuracy >= 0.90, f"accuracy {res.full.accuracy}"
    assert res.full_pipeline_seconds <= 900.0, f"pipeline took {res.full_pipeline_seconds:.0f}s"


@pytest.mark.slow
def test_criterion_6_magnitude_ablation(desk_experiment):
    # Zeroing the magnitude channels collapses the speed pairs, so the
    # orientation-only score must trail full input by >= 25 points.
    res = desk_experiment
    assert res.ablation_gap >= 25.0, (
        f"full {res.full.accuracy:.3f} vs orientation-only "
        f"{res.orientation_only.accuracy:.3f}"
    )


def test_criterion_7_fusion_arithmetic():
    # Worked example: weights (2, 1) over ([0.8, 0.2], [0.2, 0.8]).
    assert np.allclose(fuse([[0.8, 0.2], [0.2, 0.8]], [2.0, 1.0]), [0.6, 0.4])
    # Non-weighted mode is the equal-weight combination.
    assert np.allclose(fuse([[0.8, 0.2], [0.2, 0.8]], [1.0, 1.0]), [0.5, 0.5])
    # Argmax invariance over 1e4 random score pairs.
    rng = make_rng(2718)
    for _ in range(10_000):
        a = rng.random(6)
        b = rng.random(6)
        w = rng.random(2) + 1e-3
        c = float(rng.random() * 10 + 0.1)
        base = argmax_class(fuse([a, b], w))
        assert argmax_class(fuse([c * a, c * b], w)) == base
        assert argmax_class(fuse([a, b], c * w)) == base


def test_criterion_8_table_arithmetic():
    assert round(multi_split_average([90.8, 89.3, 91.5]), 1) == 90.5


def test_criterion_9_round_trips(tmp_path):
    for seed in range(100):
        rng = make_rng(seed, stream=9)
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))

        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        formats.write_pgm(tmp_path / "img.pgm", img)
        assert np.array_equal(formats.read_pgm(tmp_path / "img.pgm"), img)

        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        formats.write_ppm(tmp_path / "img.ppm", rgb)
        assert np.array_equal(formats.read_ppm(tmp_path / "img.ppm"), rgb)

        u = rng.normal(size=(h, w)).astype(np.float32).astype(np.float64)
        v = rng.normal(size=(h, w)).astype(np.float32).astype(np.float64)
        formats.write_flo(tmp_path / "f.flo", FlowField(u, v))
        back = formats.read_flo(tmp_path / "f.flo")
        assert np.array_equal(back.u, u) and np.array_equal(back.v, v)

        tensor = rng.normal(size=(int(rng.integers(1, 4)), h, w)).astype(np.float32)
        formats.write_tensor(tmp_path / "t.mosv", tensor)
        assert np.array_equal(formats.read_tensor(tmp_path / "t.mosv"), tensor)

        config = NetConfig(
            input_shape=(2, 6, 6),
            num_classes=3,
            layers=(ConvSpec(int(rng.integers(1, 4))), ReluSpec(), FcSpec(3)),
        )
        net = TinyNet(config, rng)
        save_checkpoint(net, tmp_path / "n.mosn", iterations=seed)
        loaded, header = load_checkpoint(tmp_path / "n.mosn")
        assert header["iterations"] == seed
        for (_, _, a), (_, _, b) in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)


def _chain_steps(base, seed):
    """synth -> flow -> mos -> volume -> train -> predict -> eval, as CLI argument lists."""
    data = base / "data"
    return [
        ["synth", str(data), "--seed", str(seed), "--frame-size", "32",
         "--clips-per-class", "3", "--speeds", "2", "--directions", "right,down"],
        ["flow", str(data), str(base / "flows"), "--manifest", str(data / "manifest.tsv")],
        ["mos", str(base / "flows"), str(base / "mos"), "--manifest", str(data / "manifest.tsv")],
        ["volume", str(base / "mos"), str(base / "volumes"), "--manifest", str(data / "manifest.tsv"),
         "--stack-length", "10"],
        ["train", "--manifest", str(data / "manifest.tsv"), "--pairs", str(base / "mos"),
         "--output", str(base / "model.mosn"),
         "--loss-csv", str(base / "loss.csv"), "--iterations", "6", "--batch-size", "4",
         "--input-side", "24", "--seed", str(seed)],
        ["predict", "--manifest", str(data / "manifest.tsv"), "--pairs", str(base / "mos"),
         "--checkpoint", str(base / "model.mosn"),
         "--output", str(base / "scores.csv"), "--samples", "3"],
        ["eval", "--scores", str(base / "scores.csv"), "--manifest", str(data / "manifest.tsv"),
         "--confusion-csv", str(base / "confusion.csv"), "--confusion-pgm", str(base / "confusion.pgm")],
    ]


def _run_chain(base, seed):
    base.mkdir()
    for argv in _chain_steps(base, seed):
        assert cli_main(argv) == 0, argv


def _tree_bytes(base):
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_chained_pipeline_determinism(tmp_path, capsys):
    _run_chain(tmp_path / "run_a", seed=11)
    _run_chain(tmp_path / "run_b", seed=11)
    capsys.readouterr()
    a = _tree_bytes(tmp_path / "run_a")
    b = _tree_bytes(tmp_path / "run_b")
    assert a.keys() == b.keys()
    for rel in a:
        assert a[rel] == b[rel], f"artifact differs: {rel}"
    # artifacts of every stage are present
    kinds = {rel.split("/")[0] for rel in a}
    assert {"data", "flows", "mos", "volumes", "model.mosn", "scores.csv",
            "confusion.csv", "confusion.pgm", "loss.csv"} <= kinds


@pytest.mark.slow
def test_criterion_10_chain_identical_across_processes(tmp_path):
    # Each stage in its own process, under one and under two BLAS threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    trees = []
    for threads in ("1", "2"):
        base = tmp_path / f"blas_threads_{threads}"
        base.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        for argv in _chain_steps(base, seed=11):
            run = subprocess.run(
                [sys.executable, "-m", "mostream", *argv], env=env, capture_output=True, text=True, timeout=300
            )
            assert run.returncode == 0, (argv, run.stderr)
        trees.append(_tree_bytes(base))
    a, b = trees
    assert a.keys() == b.keys() and "model.mosn" in a
    for rel in a:
        assert a[rel] == b[rel], f"artifact differs between 1 and 2 BLAS threads: {rel}"
