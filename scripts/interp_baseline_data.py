#!/usr/bin/env python3
"""Interpolation-baseline curve: entanglement vs success probability.

Sweeps the single-knob interpolation filter over a random D=32 state and
writes one CSV row per grid point, showing how quickly the success
probability collapses as the spectrum is pushed toward uniform.
"""

import argparse
from pathlib import Path

from schmidt_forge import SampleSpec, default_xi_grid, sample_haar_spectrum, sweep_table
from schmidt_forge.io import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--grid-points", type=int, default=101)
    ap.add_argument("--out", default="results/interp_baseline.csv")
    args = ap.parse_args()

    s = sample_haar_spectrum(SampleSpec(dim=args.dim, seed=args.seed, count=1))[0]
    header, rows = sweep_table(s, "interp", default_xi_grid(args.grid_points))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, header, rows)
    k0, k1 = rows[0][3], rows[-1][3]
    print(f"wrote {args.out}: K {k0:.1f} -> {k1:.1f}, p 1.0 -> {rows[-1][1]:.3e}")


if __name__ == "__main__":
    main()
