#!/usr/bin/env python3
"""Benchmark of the mostream pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload flow --seed 0 --seconds 30 --trace 0

Workloads are described in ``perfbench/workloads.py``. Each run repeats
whole passes over a fixed unit list until ``--seconds`` of timed units have
elapsed, checking every unit's output; it stops early if a pass times no
unit because every one failed. With ``--trace 0`` it sets its inputs up
again before each pass (``setup_s`` is the median) and prints the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` it traces one
set-up, then alternates untraced and traced passes, and prints the
per-layer metrics: per span, calls and self time per traced pass (medians
over the passes) and call latencies; the set-up's self time per span; exact
counts; quality; and the tracing overhead per pass. A quality metric the workload
does not compute (the network's on ``flow``) is printed as 0 and marked
"not measured".

Lines before the last are for people: every metric with its unit, the
environment record, output digests and failed checks. The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Each run also writes a record (and, traced, the spans and the
per-layer summary) under ``.perfbench_out/``. The exit code is 0 only if
every output check passed.

The program is imported from ``src/`` of the checkout and is never
modified. Set-up data lives under ``.perfbench_work/`` and is removed at the
end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# The seed runs use when none is given, and a second seed held out for
# re-checking a claimed gain on inputs not used while making it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

# Before each untraced pass the run sets up again, repeating for at least
# this long, and reports the median set-up time. Set-ups spread over the run
# this way read lower and steadier than the same number timed in one burst
# at process start (paired runs in CHANGES.md); the long set-up (`classify`)
# runs once per pass, the short one (`flow`) many times.
SETUP_BURST_S = 1.0

# One BLAS thread keeps runs steady on a small shared machine; it must not
# exceed the number of cores. Set before numpy is first imported.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("flow", "classify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import mostream from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "mostream" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mostream

    if Path(mostream.__file__).resolve().parent != (src / "mostream").resolve():
        return None
    return mostream


def median_or_zero(values) -> float:
    """Median, or 0 when every unit failed and nothing was timed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup_times, passes, attempted, failed) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (median_or_zero(r for p in passes for r in p.item_rates), "1/s"),
        "clips_per_s": (median_or_zero(r for p in passes for r in p.clip_rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }


def per_layer_metrics(wl, clips, tracer, setup_tracer, untraced, traced, traced_ranges, quality) -> tuple[dict, dict]:
    from tracing import has_ancestor, self_times, summarize
    from workloads import SETUP_SPANS, class_labels, forward_flops, layer_names, span_names

    spans = tracer.spans
    names = span_names() + [f"{n}.{d}" for n in layer_names() for d in ("fwd", "bwd")]
    summary = summarize(spans, names, traced_ranges)
    metrics = {}
    for name in span_names():
        s = summary[name]
        metrics[f"{name}.calls"] = (s["calls"], "count/pass")
        metrics[f"{name}.self_s"] = (s["self_s"], "s/pass")
        metrics[f"{name}.p50_ms"] = (s["p50_ms"], "ms")
        metrics[f"{name}.p_hi_ms"] = (s["p_hi_ms"], "ms")
    for name in layer_names():
        metrics[f"{name}.fwd_s"] = (summary[f"{name}.fwd"]["self_s"], "s/pass")
        metrics[f"{name}.bwd_s"] = (summary[f"{name}.bwd"]["self_s"], "s/pass")
    setup_summary = summarize(setup_tracer.spans, SETUP_SPANS, [(0, len(setup_tracer.spans))])
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.self_s"] = (setup_summary[name]["self_s"], "s")

    def per_call(child, parent):
        parents = sum(1 for s in spans if s[0] == parent)
        inside = sum(1 for i, s in enumerate(spans) if s[0] == child and has_ancestor(spans, i, parent))
        return inside / parents if parents else 0.0

    crops_per_clip = per_call("augment.apply_crop", "fusion.predict_from_pairs")
    metrics["tvl1.pairs_per_clip"] = (per_call("tvl1.tvl1_flow", "tvl1.video_flows"), "count")
    metrics["fusion.forward_batches_per_clip"] = (per_call("net.TinyNet.forward", "fusion.predict_from_pairs"), "count")
    metrics["fusion.crops_per_clip"] = (crops_per_clip, "count")
    train_gflop = eval_gflop = 0.0
    if clips.dataset is not None:
        flops = forward_flops(wl.new_model(clips)) / 1e9
        train_gflop = 3 * clips.cfg.batch_size * flops  # forward, weight and input gradients
        eval_gflop = crops_per_clip * flops
    metrics["net.train_gflop_per_step"] = (train_gflop, "GFLOP")
    metrics["net.eval_gflop_per_clip"] = (eval_gflop, "GFLOP")

    units = {"tvl1.epe_px": "px", "net.train_loss_tail": "nats", "fusion.predict_accuracy": "fraction"}
    units.update({f"tvl1.epe_px.{label}": "px" for label in class_labels()})
    for name, unit in units.items():
        metrics[name] = (quality.get(name, 0.0), unit)
    not_measured = sorted(set(units) - set(quality))

    own = self_times(spans)
    untraced_s = statistics.median(p.timed_s for p in untraced)
    traced_s = statistics.median(p.timed_s for p in traced)
    self_sum = statistics.median(float(own[a:b].sum()) for a, b in traced_ranges)
    metrics["trace.untraced_s"] = (untraced_s, "s/pass")
    metrics["trace.traced_s"] = (traced_s, "s/pass")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s/pass")
    metrics["trace.span_self_sum_s"] = (self_sum, "s/pass")
    return metrics, {"passes": summary, "setup": setup_summary, "not_measured": not_measured}


def environment(args, cfg, wl, clips) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {
            "frame_size": cfg.frame_size,
            "frames_per_clip": cfg.frames_per_clip,
            "clips": len(clips.entries),
            "clips_per_class": cfg.clips_per_class,
            "stack_length": cfg.stack_length,
            "input_side": cfg.input_side,
            "batch_size": cfg.batch_size,
            "train_iterations": cfg.iterations,
            "test_samples": cfg.test_samples,
        },
    }


def blas_info() -> dict:
    """Name and version numpy was built with, and the thread count of the
    loaded OpenBLAS (None where it cannot be queried)."""
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads,
            "threads_requested": BLAS_THREADS}


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace: int):
    """{name: unit} that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> int:
    from tracing import Tracer
    from workloads import TRACE_SITES, WORKLOADS, desk_config

    wl = WORKLOADS[args.workload]
    cfg = desk_config(args.seed)
    work = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    setup_tracer = Tracer() if args.trace else None

    passes, untraced, traced, traced_ranges, setup_times = [], [], [], [], []
    try:
        if tracer is not None:
            with setup_tracer.installed(TRACE_SITES):
                clips = wl.setup(cfg, work / "setup0")

        while True:
            if tracer is None:
                burst_end = time.perf_counter() + SETUP_BURST_S
                while not setup_times or time.perf_counter() < burst_end:
                    rep = work / f"setup{len(setup_times)}"
                    t0 = time.perf_counter()
                    made = wl.setup(cfg, rep)
                    setup_times.append(time.perf_counter() - t0)
                    if len(setup_times) == 1:
                        clips = made  # the passes use the first set-up's clips
                    else:
                        shutil.rmtree(rep)
                new = [wl.run_pass(clips)]
                passes += new
            else:
                untraced.append(wl.run_pass(clips))
                first = len(tracer.spans)
                with tracer.installed(TRACE_SITES):
                    traced.append(wl.run_pass(clips, tracer))
                traced_ranges.append((first, len(tracer.spans)))
                new = [untraced[-1], traced[-1]]
                passes = untraced + traced
            # A pass that timed nothing had every unit fail; more passes
            # would only repeat the failures.
            if any(p.timed_s == 0 for p in new) or sum(p.timed_s for p in passes) >= args.seconds:
                break

        attempted = sum(p.attempted for p in passes)
        problems = [msg for p in passes for msg in p.problems]
        digests = sorted({p.digest for p in passes})
        if len(digests) != 1:
            problems.append(f"outputs differ between passes of one run: {digests}")
        failed = len(problems)
        quality = dict(passes[0].quality)

        record = {"environment": environment(args, cfg, wl, clips), "digest": digests[0],
                  "pass_s": [p.timed_s for p in passes], "setup_s": setup_times, "quality": quality,
                  "problems": problems}
        if tracer is None:
            metrics = end_to_end_metrics(setup_times, passes, attempted, failed)
        else:
            quality.update(wl.extra_quality(clips))
            metrics, summary = per_layer_metrics(
                wl, clips, tracer, setup_tracer, untraced, traced, traced_ranges, quality
            )
            record["span_summary"] = summary
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(emitted))}, extra {sorted(set(emitted) - set(declared))}, "
            f"unit mismatch {sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])}"
        )
        failed += 1
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))

    summary = record.get("span_summary", {})
    for name, (value, unit) in metrics.items():
        note = ""
        span = summary.get("passes", {}).get(name.removesuffix(".p_hi_ms"))
        if name.endswith(".p_hi_ms") and span["samples"]:
            note = f"  (p{span['p_hi_percentile']:g} of {span['samples']} calls)"
        if name in summary.get("not_measured", ()):
            note = "  (not measured on this workload)"
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    if tracer is not None:
        print(
            f"trace: span self times sum to {metrics['trace.span_self_sum_s'][0]:.4f} s per traced pass; "
            f"untraced pass {metrics['trace.untraced_s'][0]:.4f} s; overhead {metrics['trace.overhead_s'][0]:+.4f} s"
        )
    print(f"quality {json.dumps(quality)}")
    print(f"digest {digests[0]}")
    print(f"environment {json.dumps(record['environment'])}")
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"BENCHMARK.json not found in {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if import_program() is None:
        print(f"mostream sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
