"""The program API that `perfbench/workloads.py` relies on.

The benchmark wraps every `TRACE_SITES` entry with `getattr`/`setattr`
and builds `TrainPipeline` and `PredictParams` itself, so a change that
drops one of those names breaks the traced benchmark; these tests fail
first. Volumes must also keep reaching the stack and crop functions
through the module attributes the benchmark wraps, or its per-layer
counts read zero.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mostream import fusion, net, pipeline
from mostream.mos import MosPair
from mostream.raster import make_rng
from mostream.volume import StackSpec, sample_test_starts

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_trace_site_resolves(workloads):
    assert workloads.TRACE_SITES
    for owner, attr, span in workloads.TRACE_SITES:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, span)


def classify_predict_params(cfg):
    """`PredictParams` built as `ClassifyWorkload.run_pass` builds them."""
    return fusion.PredictParams(
        tvl1=cfg.tvl1,
        mos=cfg.mos,
        stack=StackSpec(cfg.stack_length),
        k_samples=cfg.test_samples,
        out_side=cfg.input_side,
    )


def test_predict_params_build_as_the_classify_workload_builds_them(workloads):
    cfg = workloads.desk_config(0)
    params = classify_predict_params(cfg)
    assert (params.stack.stack_length, params.k_samples, params.out_side) == (
        cfg.stack_length,
        cfg.test_samples,
        cfg.input_side,
    )


def test_volumes_reach_the_traced_stack_and_crop_sites(workloads, monkeypatch):
    cfg = workloads.desk_config(0)
    pipe = pipeline.TrainPipeline(stack=StackSpec(cfg.stack_length), out_side=cfg.input_side)
    params = classify_predict_params(cfg)
    calls = Counter()
    for owner in (pipeline, fusion):
        for attr in ("stack_volume", "apply_crop"):

            def counted(*args, _fn=getattr(owner, attr), _site=f"{owner.__name__}.{attr}", **kwargs):
                calls[_site] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
    rng = make_rng(0)
    side = cfg.frame_size
    pairs = [
        MosPair(*rng.integers(0, 256, (2, side, side), dtype=np.uint8)) for _ in range(cfg.frames_per_clip - 1)
    ]
    pipe.make_volume(pipeline.Clip("clip", 0, pairs), rng)
    assert calls == {"mostream.pipeline.stack_volume": 1, "mostream.pipeline.apply_crop": 1}
    calls.clear()
    input_shape = (2 * cfg.stack_length, cfg.input_side, cfg.input_side)
    model = net.TinyNet(net.desk_net_config(input_shape=input_shape), make_rng(1))
    fusion.predict_from_pairs(model, pairs, params, "clip")
    # A repeated test start is stacked and cropped once: two distinct starts
    # at the classify shapes.
    distinct = len(set(sample_test_starts(len(pairs), cfg.stack_length, cfg.test_samples)))
    assert distinct == 2
    assert calls == {
        "mostream.fusion.stack_volume": distinct,
        "mostream.fusion.apply_crop": 10 * distinct,
    }


def test_flow_workload_checks_pass_on_one_clip(workloads, tmp_path):
    clips = workloads.make_clips(workloads.desk_config(0), tmp_path)
    clips.entries = clips.entries[:1]
    result = workloads.FlowWorkload().run_pass(clips)
    assert result.attempted == 1
    assert result.problems == []
