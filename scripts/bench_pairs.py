#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark.

Runs ``perfbench/run.py --workload W --seed N --trace 0`` in two source
checkouts, alternately, for the run length ``BENCHMARK.json`` sets: pair i
runs the parent first when i is even and the change first when it is odd.
Each run's last output line (one JSON object) gives its end-to-end metrics
and its ``digest`` line the hash of its outputs.

The results go into ``BENCH_<label>.json`` at the root of this checkout.
Every call appends one set (workload, seed, every run) to the file, so one
label can hold several workloads and seeds. Per metric, a set reports each
side's median and quartiles, the pairs the change wins (ties count for
neither side) and a verdict:

- ``gain``: over at least ten pairs, the change wins at least nine tenths
  of them and the medians differ by more than the parent's interquartile
  range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, relative to the parent's median;
- ``unresolved``: the parent's interquartile range exceeds the bound,
  relative to its median, and not every change run beats every parent run;
- ``flat``: none of these.

The two checkouts should be sibling directories (one parent directory):
set-up time follows the files deleted recently on the disk, so checkouts
in different places can read different set-up times for the same code.
Each set records ``sibling_checkouts``, and a warning goes to stderr when
they are not siblings.

Example, from the root of the change's checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload classify --seed 0 --pairs 10 --label predict_dedup
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GAIN_WIN_FRACTION = 0.9
GAIN_MIN_PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side} has no perfbench/run.py")
    return args


def sibling_checkouts(parent: Path, change: Path) -> bool:
    """Whether the two checkouts are distinct directories with one parent."""
    parent, change = parent.resolve(), change.resolve()
    return parent != change and parent.parent == change.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    last = json.loads(lines[-1])
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "digest": digests[-1] if digests else None,
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def compare(metric: dict, parent_runs, change_runs) -> dict:
    name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
    p = [r["metrics"][name] for r in parent_runs]
    c = [r["metrics"][name] for r in change_runs]
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    ps, cs = quartiles(p), quartiles(c)
    iqr = ps["q3"] - ps["q1"]
    scale = abs(ps["median"]) or 1.0
    worse_by = -sign * (cs["median"] - ps["median"]) / scale
    every_run_better = min(sign * b for b in c) > max(sign * a for a in p)
    if len(p) >= GAIN_MIN_PAIRS and wins >= GAIN_WIN_FRACTION * len(p) and sign * (cs["median"] - ps["median"]) > iqr:
        verdict = "gain"
    elif worse_by > metric["bound"]:
        verdict = "worse"
    elif iqr / scale > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": ps,
        "change": cs,
        "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
        "change_wins": wins,
        "parent_wins": losses,
        "pairs": len(p),
        "verdict": verdict,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    siblings = sibling_checkouts(sides["parent"], sides["change"])
    if not siblings:
        print(f"warning: {sides['parent']} and {sides['change']} are not sibling directories; "
              "setup_s may differ between them for the same code", file=sys.stderr, flush=True)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, seconds)
            result["pair"], result["first"] = i, side == order[0]
            runs[side].append(result)
            print(f"pair {i} {side:6s} " + " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
                  + f" digest={str(result['digest'])[:12]} exit={result['exit_code']}", flush=True)

    digests = {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "sibling_checkouts": siblings,
        "machine": {"nproc": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "digests": digests,
        "same_digest": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
        "metrics": {m["name"]: compare(m, runs["parent"], runs["change"]) for m in spec["end_to_end"]},
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"label": args.label, "sets": []}
    doc["sets"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, same digest {entry['same_digest']}")
    for name, m in entry["metrics"].items():
        print(f"  {name:12s} parent {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]"
              f"  change {m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]"
              f"  wins {m['change_wins']}/{m['pairs']}  {m['verdict']}")
    print(f"wrote {path}")
    return 0 if entry["all_correct"] and entry["same_digest"] else 1


if __name__ == "__main__":
    sys.exit(main())
