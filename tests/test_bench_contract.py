"""The program API that `perfbench/workloads.py` relies on.

The benchmark wraps every `TRACE_SITES` entry with `getattr`/`setattr`
and builds `PredictParams` itself, so a change that drops one of those
names breaks the traced benchmark; these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mostream import fusion
from mostream.volume import StackSpec

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


def test_predict_params_build_as_the_classify_workload_builds_them(workloads):
    cfg = workloads.desk_config(0)
    params = fusion.PredictParams(
        tvl1=cfg.tvl1,
        mos=cfg.mos,
        stack=StackSpec(cfg.stack_length),
        k_samples=cfg.test_samples,
        out_side=cfg.input_side,
    )
    assert (params.stack.stack_length, params.k_samples, params.out_side) == (
        cfg.stack_length,
        cfg.test_samples,
        cfg.input_side,
    )
