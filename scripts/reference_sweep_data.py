#!/usr/bin/env python3
"""Success probability and Schmidt number across the reference-purity range.

Sweeps the efficiency planner over a log grid from full concentration (1/D)
to no concentration (1) on one high-dimensional random state, then evaluates
the threshold heuristic: ask for a minimum Schmidt number, place the
reference slightly below it, and read off the achieved operating point.
"""

import argparse
from pathlib import Path

import numpy as np

from schmidt_forge import (
    SampleSpec,
    measures,
    optimal_plan_efficiency,
    reference_from,
    sample_haar_spectrum,
    sweep_table,
)
from schmidt_forge.io import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grid-points", type=int, default=100)
    ap.add_argument("--kmin", type=float, default=900.0)
    ap.add_argument("--gap", type=float, default=0.037)
    ap.add_argument("--out", default="results/reference_sweep.csv")
    args = ap.parse_args()

    s = sample_haar_spectrum(SampleSpec(dim=args.dim, seed=args.seed, count=1))[0]
    m0 = measures(s)
    print(f"initial state: K={m0.schmidt_number:.1f}, full-concentration p={args.dim * s.min_sq:.3e}")

    grid = np.geomspace(1.0 / args.dim, 1.0, args.grid_points).tolist()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, *sweep_table(s, "efficiency", grid))
    print(f"wrote {args.out}")

    ref = reference_from("k_ref", args.kmin * (1.0 - args.gap), args.dim)
    o = optimal_plan_efficiency(s, ref)
    print(
        f"threshold heuristic (kmin={args.kmin}, gap={args.gap}): p_ref={ref.p_ref:.4e} "
        f"-> K={o.post_measures.schmidt_number:.1f} at p_success={o.p_success:.3f}"
    )


if __name__ == "__main__":
    main()
