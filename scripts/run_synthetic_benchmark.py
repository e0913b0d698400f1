#!/usr/bin/env python3
"""Run the desk-scale end-to-end experiment and print a report.

Generates the synthetic motion dataset, trains the classifier on full
magnitude/orientation volumes and on the orientation-only ablation, and
reports both accuracies, the ablation gap, and stage timings.

Example:
    python scripts/run_synthetic_benchmark.py --workdir /tmp/mos_bench --clips-per-class 20
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mostream.experiment import ExperimentConfig, run_desk_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", help="where to put the dataset (default: temp dir)")
    d = ExperimentConfig
    parser.add_argument("--seed", type=int, default=d.seed)
    parser.add_argument("--clips-per-class", type=int, default=d.clips_per_class)
    parser.add_argument("--iterations", type=int, default=d.iterations)
    parser.add_argument("--batch-size", type=int, default=d.batch_size)
    parser.add_argument("--input-side", type=int, default=d.input_side)
    parser.add_argument("--test-samples", type=int, default=d.test_samples)
    args = parser.parse_args()

    cfg = ExperimentConfig(
        seed=args.seed,
        clips_per_class=args.clips_per_class,
        iterations=args.iterations,
        batch_size=args.batch_size,
        input_side=args.input_side,
        test_samples=args.test_samples,
    )

    if args.workdir:
        result = run_desk_experiment(Path(args.workdir), cfg, progress=print)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_desk_experiment(Path(tmp), cfg, progress=print)

    print()
    print(f"classes ({len(result.classes)}): {', '.join(result.classes)}")
    print(f"full input accuracy:        {result.full.accuracy * 100:6.2f}%  (class mean {result.full.class_mean * 100:.2f}%)")
    print(f"orientation-only accuracy:  {result.orientation_only.accuracy * 100:6.2f}%")
    print(f"ablation gap:               {result.ablation_gap:6.2f} points")
    print()
    print(f"timings: synth {result.synth_seconds:.1f}s | flow/byte pairs {result.pairs_seconds:.1f}s | "
          f"train {result.full.train_seconds:.1f}s | predict {result.full.predict_seconds:.1f}s")
    print(f"primary pipeline total: {result.full_pipeline_seconds:.1f}s")
    print()
    print("confusion (full input, rows = true class):")
    for label, row in zip(result.classes, result.full.confusion):
        print(f"  {label:>10s}  " + " ".join(f"{int(v):3d}" for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
