"""Batch command-line front end.

Subcommands: measures, sample, concentrate, fixedp, sweep and validate, one
route per computation. Domain errors exit with status 1 and the error class
name on stderr; usage errors, malformed grids and sample sizes included, exit
2. A reader that closes stdout early ends the command quietly with status 1;
any other failed write to stdout, such as on a full device, is an IoError.
Identical argv and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .efficiency import optimal_plan_efficiency, reference_from
from .errors import MAX_ENUM_DIM, MIN_VALIDATION_DIM, IoError, SchmidtForgeError
from .fixedprob import optimal_plan_fixed
from .sampling import MAX_SAMPLE_DIM, _draws
from .spectrum import measures
from .sweep import sweep_table

#: the grid option each sweep mode reads
SWEEP_GRID_OPTIONS = {"efficiency": "pref_grid", "fixedprob": "pfix_grid", "interp": "xi_grid"}
#: most points of a log: or lin: grid; each point is a row of the sweep table,
#: and a larger count is a usage error before any array is made
MAX_GRID_POINTS = 100_000


def _grid_token(token: str, dim: int) -> float:
    if token == "1/D":
        return 1.0 / dim
    return float(token)


def parse_grid(text: str, dim: int) -> np.ndarray:
    """Parse ``log:a:b:n`` / ``lin:a:b:n`` / comma-separated values.

    Endpoint tokens may be numbers or the literal ``1/D`` (resolved against
    the spectrum's dimension). Endpoints and their span must be finite, and
    endpoints positive on a log grid; numpy would warn and return inf or NaN.
    A log: or lin: grid has 1 to ``MAX_GRID_POINTS`` points.
    """
    if text.startswith(("log:", "lin:")):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"grid {text!r} is not kind:a:b:n")
        kind, lo, hi, num = parts
        a = _grid_token(lo, dim)
        b = _grid_token(hi, dim)
        n = int(num)
        if not 1 <= n <= MAX_GRID_POINTS:
            raise ValueError(f"grid needs 1 to {MAX_GRID_POINTS} points, got {n}")
        if not np.isfinite(b - a) or (kind == "log" and min(a, b) <= 0.0):
            raise ValueError(f"grid {text!r} needs finite endpoints and span (positive for log)")
        if kind == "log":
            return np.geomspace(a, b, n)
        return np.linspace(a, b, n)
    return np.array([_grid_token(tok, dim) for tok in text.split(",")])


def _emit(obj: dict, out: str | None) -> None:
    if out is not None:
        io.write_json(obj, out)
    else:
        sys.stdout.writelines(io.json_pieces(obj))
        sys.stdout.write("\n")


# ---------------------------------------------------------------- subcommands


def _cmd_measures(args) -> int:
    s = io.read_spectrum(args.spectrum)
    m = measures(s)
    _emit(
        {
            "dim": s.dim,
            "concurrence": m.concurrence,
            "concurrence_sq": m.concurrence_sq,
            "schmidt_number": m.schmidt_number,
            "purity": m.purity,
        },
        None,
    )
    return 0


def _cmd_sample(args) -> int:
    # checked now, drawn once --out exists: bad arguments write nothing, a bad --out draws nothing
    spectra = _draws(args.dim, args.seed, args.count)
    if not args.out:  # Path("") is the working directory
        raise IoError("cannot create directory: --out is empty")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise IoError(f"cannot create directory {out}: {exc}") from exc
    for i, s in enumerate(spectra):
        io.write_spectrum(s, out / f"spectrum_{i:04d}.json")
    print(f"wrote {args.count} spectra to {out}")
    return 0


def _reference_from_args(args, dim: int) -> float:
    if args.pref is not None:
        return reference_from("p_ref", args.pref, dim)
    if args.cref_sq is not None:
        return reference_from("c_ref_sq", args.cref_sq, dim)
    return reference_from("k_ref", args.kref, dim)


def _cmd_concentrate(args) -> int:
    s = io.read_spectrum(args.spectrum)
    p_ref = _reference_from_args(args, s.dim)
    outcome = optimal_plan_efficiency(s, p_ref)
    _emit(io.outcome_dict(outcome, "efficiency", p_ref), args.out)
    return 0


def _cmd_fixedp(args) -> int:
    s = io.read_spectrum(args.spectrum)
    outcome = optimal_plan_fixed(s, args.p)
    _emit(io.outcome_dict(outcome, "fixedprob", args.p), args.out)
    return 0


def _cmd_sweep(args) -> int:
    s = io.read_spectrum(args.spectrum)
    grid_text = getattr(args, SWEEP_GRID_OPTIONS[args.mode])
    io.write_csv(args.out, *sweep_table(s, args.mode, parse_grid(grid_text, s.dim).tolist()))
    return 0


def _cmd_validate(args) -> int:
    from .oracle import run_validation  # the only command that needs the oracles

    results = run_validation(dim_max=args.dim_max, instances=args.instances, seed=args.seed)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name}  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 1 if failed else 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt-forge",
        description="Entanglement-concentration planning for bipartite qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="print entanglement measures of a spectrum")
    p.add_argument("spectrum", help="spectrum JSON file")
    p.set_defaults(fn=_cmd_measures)

    p = sub.add_parser("sample", help="write random spectra")
    p.add_argument("--dim", type=int, required=True, help=f"at most {MAX_SAMPLE_DIM}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("concentrate", help="efficiency-optimal plan for one reference")
    p.add_argument("--spectrum", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pref", type=float, help="reference purity")
    group.add_argument("--cref-sq", type=float, help="squared reference concurrence")
    group.add_argument("--kref", type=float, help="reference Schmidt number")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_concentrate)

    p = sub.add_parser("fixedp", help="maximum entanglement at fixed success probability")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_fixedp)

    p = sub.add_parser("sweep", help="sweep a reference grid, write a CSV table")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--mode", choices=("efficiency", "fixedprob", "interp"), required=True)
    p.add_argument("--pref-grid", default=None, help="log:a:b:n | lin:a:b:n | v1,v2,...")
    p.add_argument("--pfix-grid", default=None)
    p.add_argument("--xi-grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("validate", help="run oracle suites against the planners")
    p.add_argument(
        "--dim-max", type=int, default=10,
        help=f"largest dimension of the random instances (at least {MIN_VALIDATION_DIM}; "
             f"capped at {MAX_ENUM_DIM})",
    )
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        option = SWEEP_GRID_OPTIONS[args.mode]
        if getattr(args, option) is None:
            parser.error(f"sweep --mode {args.mode} needs --{option.replace('_', '-')}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # from stdout: the package's own file I/O raises IoError
        # stdout goes to devnull so the interpreter's final flush cannot fail
        # again; a reader that closed it early, as `| head` does, is no error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"IoError: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    except SchmidtForgeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a malformed option value, e.g. a grid or a count
        parser.error(str(exc))
