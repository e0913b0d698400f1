"""The verdicts of `scripts/bench_pairs.py`'s `compare`, on small run lists,
and its check that the two checkouts are siblings."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

HIGHER = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
# Ten parent runs with median 100 and quartiles 99-101.
TIGHT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
# Ten parent runs whose quartiles span 35% of the median, wider than the bounds.
WIDE = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(bench_pairs):
    def run(metric, parent, change):
        def runs(values):
            return [{"metrics": {metric["name"]: v}} for v in values]

        return bench_pairs.compare(metric, runs(parent), runs(change))

    return run


def _better(metric, values, by):
    """`values` moved by `by` in the metric's better direction."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    return [v + sign * by for v in values]


@pytest.mark.parametrize("metric", [HIGHER, LOWER], ids=["higher", "lower"])
class TestVerdicts:
    def test_gain(self, compare, metric):
        result = compare(metric, TIGHT, _better(metric, TIGHT, 10.0))
        assert result["verdict"] == "gain"
        assert (result["change_wins"], result["parent_wins"], result["pairs"]) == (10, 0, 10)

    def test_gain_needs_ten_pairs(self, compare, metric):
        assert compare(metric, TIGHT[:9], _better(metric, TIGHT[:9], 10.0))["verdict"] == "flat"

    def test_worse(self, compare, metric):
        result = compare(metric, TIGHT, _better(metric, TIGHT, -30.0))
        assert result["verdict"] == "worse"
        assert (result["change_wins"], result["parent_wins"]) == (0, 10)

    def test_within_the_bound_is_flat(self, compare, metric):
        assert compare(metric, TIGHT, _better(metric, TIGHT, -20.0))["verdict"] == "flat"

    def test_flat(self, compare, metric):
        # Reversed, the runs win 3 pairs each way and tie the other 4.
        result = compare(metric, TIGHT, TIGHT[::-1])
        assert result["verdict"] == "flat"
        assert result["change_wins"] == result["parent_wins"] == 3

    def test_wide_parent_spread_is_unresolved(self, compare, metric):
        assert compare(metric, WIDE, _better(metric, WIDE, 5.0))["verdict"] == "unresolved"

    def test_wide_spread_resolves_when_every_change_run_is_better(self, compare, metric):
        # Nine pairs cannot make a gain, so this is flat, not unresolved.
        change = [200.0 if metric["better"] == "higher" else 10.0] * 9
        assert compare(metric, WIDE[:9], change)["verdict"] == "flat"

    def test_ties_count_for_neither_side(self, compare, metric):
        change = _better(metric, TIGHT, 10.0)
        change[0], change[1] = TIGHT[0], TIGHT[1]
        result = compare(metric, TIGHT, change)
        assert (result["change_wins"], result["parent_wins"]) == (8, 0)
        # Eight wins in ten pairs fall short of the nine a gain needs.
        assert result["verdict"] == "flat"


def test_siblings(bench_pairs, tmp_path):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    assert bench_pairs.sibling_checkouts(tmp_path / "parent", tmp_path / "change")
    # A relative path that resolves into the same directory counts too.
    assert bench_pairs.sibling_checkouts(tmp_path / "change" / ".." / "parent", tmp_path / "change")


@pytest.mark.parametrize("parent", ["deeper/parent", "change"], ids=["other_directory", "same_checkout"])
def test_not_siblings(bench_pairs, tmp_path, parent):
    (tmp_path / parent).mkdir(parents=True, exist_ok=True)
    (tmp_path / "change").mkdir(exist_ok=True)
    assert not bench_pairs.sibling_checkouts(tmp_path / parent, tmp_path / "change")
