#!/usr/bin/env python3
"""Closed form vs numerical ascent across a reference-purity grid.

For one high-dimensional random state, runs the multi-start projected
gradient oracle at every grid point and records the relative differences
against the closed-form plan. Both columns should sit at rounding level.
"""

import argparse
from pathlib import Path

from schmidt_forge import sample_haar_spectrum
from schmidt_forge.io import write_csv
from schmidt_forge.oracle import numeric_qp_ascent

import numpy as np


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grid-points", type=int, default=100)
    ap.add_argument("--restarts", type=int, default=32)
    ap.add_argument("--out", default="results/oracle_comparison.csv")
    args = ap.parse_args()

    s = sample_haar_spectrum(args.dim, args.seed, 1)[0]
    grid = np.geomspace(2.0 / args.dim, 1.0, args.grid_points)
    rows = []
    for p_ref in grid:
        rep = numeric_qp_ascent(s, float(p_ref), restarts=args.restarts, seed=2)
        rows.append([
            float(p_ref),
            rep.delta_q_relative if rep.delta_q_relative is not None else float("nan"),
            rep.delta_y_relative if rep.delta_y_relative is not None else float("nan"),
            int(rep.converged),
        ])
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, ["p_ref", "delta_q_relative", "delta_y_relative", "converged"], rows)
    dq = max(r[1] for r in rows)
    dy = max(r[2] for r in rows)
    print(f"wrote {args.out}: max dQ_rel={dq:.3e}, max dy_rel={dy:.3e}")


if __name__ == "__main__":
    main()
