#!/usr/bin/env python3
"""Benchmark the TV-L1 solver against analytic shifts and the SAD oracle.

For seeded random textures translated by known integer displacements,
reports the interior mean endpoint error of the variational flow, the
oracle's exactness, their agreement, and per-pair runtime.

Example:
    python scripts/flow_accuracy_check.py --pairs 20 --size 128
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scipy.ndimage import gaussian_filter

from mostream.raster import bilinear_map, make_rng
from mostream.tvl1 import block_match_flow, tvl1_flow


def texture(seed, side):
    tex = gaussian_filter(make_rng(seed).standard_normal((side, side)), 1.5, mode="wrap")
    tex -= tex.min()
    return tex * (255.0 / tex.max())


def shift(img, dx, dy):
    h, w = img.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return bilinear_map(img, xs - dx, ys - dy)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--max-shift", type=int, default=4)
    args = parser.parse_args()

    side = args.size
    margin = side // 10
    mask = np.zeros((side, side), dtype=bool)
    mask[margin : side - margin, margin : side - margin] = True

    tvl1_epes, cross_epes, times = [], [], []
    oracle_exact = 0
    for seed in range(args.pairs):
        rng = make_rng(seed, stream=77)
        while True:
            dx = int(rng.integers(-args.max_shift, args.max_shift + 1))
            dy = int(rng.integers(-args.max_shift, args.max_shift + 1))
            if 1 <= dx * dx + dy * dy <= args.max_shift**2:
                break
        tex = texture(seed, side)
        nxt = shift(tex, dx, dy)

        t0 = time.perf_counter()
        flow = tvl1_flow(tex, nxt)
        dt = time.perf_counter() - t0
        epe = np.hypot(flow.u - dx, flow.v - dy)[mask].mean()

        oracle = block_match_flow(tex, nxt, search_radius=args.max_shift)
        exact = np.all(oracle.u[mask] == dx) and np.all(oracle.v[mask] == dy)
        oracle_exact += int(exact)
        cross = np.hypot(flow.u - oracle.u, flow.v - oracle.v)[mask].mean()

        tvl1_epes.append(epe)
        cross_epes.append(cross)
        times.append(dt)
        print(f"seed {seed:2d} shift ({dx:+d},{dy:+d}): "
              f"tv-l1 EPE {epe:.4f}  oracle exact {exact}  cross {cross:.4f}  {dt * 1000:.0f} ms")

    print()
    print(f"tv-l1 interior mean EPE: max {max(tvl1_epes):.4f}, mean {np.mean(tvl1_epes):.4f}")
    print(f"oracle exact on {oracle_exact}/{args.pairs} pairs")
    print(f"tv-l1 vs oracle: max {max(cross_epes):.4f}")
    print(f"runtime per pair: max {max(times):.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
