"""Benchmark of schmidt-forge end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

* ``plan-large``: ``concentrate`` and ``fixedp`` CLI processes at D = 2^18,
  on a seeded spectrum and on a fixed fault input;
* ``sweep-grid``: ``sweep`` CLI processes at D = 2^16 in the efficiency,
  fixedprob and interp modes, 100 grid points each;
* ``plan-small-batch``: one process making plans on 200 small spectra with
  ``make_spectrum``, the two planners and one ``io.write_csv`` table a round.

The program is run from ``src/`` of the checkout; its outputs are checked
against an independent water-level solution (waterlevel.py). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which are the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a separate traced round with
``--trace 1``. The run exits 2 without a result if the program's source is
missing.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import calibrate
import inputs
import program
import selftest
import waterlevel as wl

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
PROGRAM = Path(program.__file__).resolve()

LARGE_DIM = 2**18
#: rounds a run makes at least: four calls a round, so six of each CLI command
LARGE_MIN_ROUNDS = 3
SWEEP_DIM = 2**16
SWEEP_POINTS = 100
SWEEP_MIN_ROUNDS = 2
SMALL_SPECTRA = 200
SMALL_DIM_RANGE = (3, 300)
#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 10
#: the run ends within this many seconds, whatever the workload
RUN_LIMIT_S = 170.0

EFFICIENCY_COLUMNS = ["p_ref", "n_opt", "p_success", "purity", "schmidt_number",
                      "concurrence_sq", "q_value"]
FIXEDPROB_COLUMNS = ["p_fix", "n_opt", "p_success", "purity", "schmidt_number",
                     "concurrence_sq"]
INTERP_COLUMNS = ["xi", "p_success", "purity", "schmidt_number", "concurrence_sq"]



def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Runs program processes: wall time, peak memory, a hard deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # the sweep thread pool runs at its default size, as users get it
        self.env.pop("SCHMIDT_FORGE_THREADS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def run(self, argv: list[str], name: str) -> tuple[int, float, float]:
        """(exit status, wall seconds, peak RSS in MB) of one process."""
        logfile = self.work / f"{name}.log"
        with open(logfile, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            reaped = {}

            def reap():
                reaped["wait"] = os.wait4(proc.pid, 0)
                reaped["end"] = time.perf_counter()

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(self.deadline - time.monotonic(), 0.0))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                proc.returncode = -9
                raise TimeoutError(f"{name} still running at the run's time limit")
        _, status, usage = reaped["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = logfile.read_text(errors="replace").strip().splitlines()[-3:]
            log(f"{name} exited {proc.returncode}: {' | '.join(tail)}")
        return proc.returncode, reaped["end"] - t0, usage.ru_maxrss / 1024.0

    def cli(self, args: list[str], name: str):
        return self.run([sys.executable, "-m", "schmidt_forge", *args], name)

    def traced_cli(self, args: list[str], name: str):
        spans = self.work / f"{name}.spans.json"
        code, wall, _ = self.run(
            [sys.executable, str(PROGRAM), "cli", str(spans), "--", *args], name)
        return code, wall, json.loads(spans.read_text()) if code == 0 else None


def check_program_source(runner: Runner) -> None:
    """Exit 2 unless the program imports from this checkout's src/."""
    probe = runner.work / "which.txt"
    code, _, _ = runner.run(
        [sys.executable, "-c",
         f"import schmidt_forge.cli as c; open({str(probe)!r}, 'w').write(c.__file__)"],
        "which")
    if code != 0 or not Path(probe.read_text()).resolve().is_relative_to(SRC.resolve()):
        log("schmidt_forge does not import from this checkout's src/")
        sys.exit(2)


def setup_times(runner: Runner, count: int) -> list[float]:
    """Times from starting a fresh interpreter to schmidt_forge.cli being
    imported. The check in ``check_program_source`` has already written the
    bytecode caches."""
    argv = [sys.executable, "-c", "import schmidt_forge.cli"]
    return [runner.run(argv, "setup")[1] for _ in range(count)]


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, name: str, problems: list[str], known_fault: bool = False, times: int = 1):
        """Count ``times`` attempts of one operation whose check found
        ``problems``. Only a known fault may fail and leave the run correct."""
        self.attempted += times
        if problems:
            self.failed += times
            self.correct &= known_fault
            tag = "known fault" if known_fault else "UNEXPECTED"
            log(f"FAILED ({tag}) {name}: {problems[0]}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            log(f"CHECK FAILED: {what}")


def layer_metrics(spans: list[dict], rounds: int, bytes_written: int, overhead: float) -> dict:
    """Per-layer metrics per round from the traced children's span reports."""
    absent = set().union(*(s["absent"] for s in spans)) if spans else set()

    def total(kind, name):
        return None if name in absent else sum(s[kind][name] for s in spans) / rounds

    metrics = {f"{name}_s": (total("self_s", name), "s")
               for name in program.LAYERS if name != "cli.main"}
    metrics["cli.main_s"] = (total("total_s", "cli.main"), "s")
    metrics["cli.self_s"] = (total("self_s", "cli.main"), "s")
    metrics["efficiency.calls"] = (total("calls", "efficiency.optimal_plan_efficiency"), "count")
    metrics["fixedprob.calls"] = (total("calls", "fixedprob.optimal_plan_fixed"), "count")
    metrics["spectrum.coefficients"] = (sum(s["coefficients"] for s in spans) / rounds, "count")
    metrics["io.bytes_written"] = (bytes_written / rounds, "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in sorted(absent):
        log(f"layer {name} is absent from the program")
    return metrics


# ------------------------------------------------- rounds of CLI processes


class CliOp(NamedTuple):
    """One program call of a round: a CLI process that writes ``out``."""

    name: str
    kind: str  # "efficiency", "fixedprob" or "interp": which op-time metric it feeds
    args: Callable[[Path], list[str]]  # CLI arguments, given the output path
    check: Callable[[Path], list[str]]  # problems found in the output
    suffix: str  # output file suffix
    plans: int = 1  # plans (grid points) the call delivers
    known_fault: bool = False


class Rounds(NamedTuple):
    walls: dict  # kind -> wall time of each process
    rss_mb: list
    first: dict  # op name -> (output of the first round, problems found in it)
    count: int

    def end_to_end(self, ops: list[CliOp]) -> dict:
        total = sum(map(sum, self.walls.values()))
        return {
            "efficiency_op_s": (statistics.median(self.walls["efficiency"]), "s"),
            "fixedprob_op_s": (statistics.median(self.walls["fixedprob"]), "s"),
            "plans_per_s": (sum(op.plans for op in ops) * self.count / total, "plans/s"),
            "peak_rss_mb": (max(self.rss_mb), "MB"),
        }


def same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def cli_rounds(runner: Runner, ops: list[CliOp], seconds: float, min_rounds: int,
               tally: Tally) -> Rounds:
    """Whole rounds of the ops, at least ``min_rounds``, until their processes
    have used ``seconds``. The first round's outputs are checked; later
    rounds must repeat them byte for byte."""
    walls = {op.kind: [] for op in ops}
    rss, first, count = [], {}, 0
    while count < min_rounds or sum(map(sum, walls.values())) < seconds:
        for op in ops:
            out = runner.work / f"{op.name}-r{count}{op.suffix}"
            code, wall, mb = runner.cli(op.args(out), f"{op.name}-r{count}")
            walls[op.kind].append(wall)
            rss.append(mb)
            if count == 0:
                first[op.name] = (out, [f"exit status {code}"] if code else op.check(out))
            else:
                tally.require(same_bytes(out, first[op.name][0]),
                              f"{op.name}: repeated call wrote different bytes")
                out.unlink(missing_ok=True)
            problems = first[op.name][1]
            tally.op(op.name, problems, op.known_fault)
        count += 1
    return Rounds(walls, rss, first, count)


def traced_round(runner: Runner, ops: list[CliOp], rounds: Rounds, tally: Tally):
    """The same ops once more, each through ``program.py cli`` with tracing.
    Returns the span reports, the traced round's wall time minus an
    untraced round's, and the bytes written."""
    spans, wall_sum, written = [], 0.0, 0
    for op in ops:
        out = runner.work / f"{op.name}-traced{op.suffix}"
        code, wall, report = runner.traced_cli(op.args(out), f"{op.name}-traced")
        tally.require(code == 0 and same_bytes(out, rounds.first[op.name][0]),
                      f"{op.name}: traced call wrote different bytes")
        if report:
            spans.append(report)
            written += out.stat().st_size
        wall_sum += wall
    untraced = sum(map(sum, rounds.walls.values())) / rounds.count
    return spans, wall_sum - untraced, written


# ------------------------------------------------------------------ plan-large


def check_outcome_file(path: Path, a2, mode: str, ref: float) -> list[str]:
    try:
        out = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable outcome: {exc}"]
    return wl.check_outcome(a2, mode, ref, out)


def plan_large(runner: Runner, seed: int, seconds: float, trace: bool, tally: Tally) -> dict:
    seeded = inputs.dirichlet(np.random.default_rng(seed), LARGE_DIM)
    fault = inputs.dirichlet(np.random.default_rng(inputs.FAULT_SEED), LARGE_DIM)
    lv, lf = inputs.Levels(seeded), inputs.Levels(fault)
    target_pref, target_pfix = 1.5 / LARGE_DIM, 0.5
    refs = {  # (spectrum name, mode) -> (spectrum, reference)
        ("seeded", "efficiency"): (seeded, lv.pref_for(lv.midgap_level(lv.rank_of_pref(target_pref)))),
        ("seeded", "fixedprob"): (seeded, lv.pfix_for(lv.midgap_level(lv.rank_of_pfix(target_pfix)))),
        ("fault", "efficiency"): (fault, lf.pref_for(lf.fault_level(lf.rank_of_pref(target_pref)))),
        ("fault", "fixedprob"): (fault, lf.pfix_for(lf.fault_level(lf.rank_of_pfix(target_pfix)))),
    }
    for source, a2 in (("seeded", seeded), ("fault", fault)):
        inputs.write_spectrum(a2, runner.work / f"{source}.json")

    def op(source, mode):
        a2, ref = refs[source, mode]
        cmd, flag = ("concentrate", "--pref") if mode == "efficiency" else ("fixedp", "--p")
        spectrum = str(runner.work / f"{source}.json")
        return CliOp(
            name=f"{cmd}-{source}", kind=mode,
            args=lambda out: [cmd, "--spectrum", spectrum, flag, repr(ref), "--out", str(out)],
            check=lambda out: check_outcome_file(out, a2, mode, ref),
            suffix=".json", known_fault=source == "fault")

    ops = [op(source, mode) for source, mode in refs]
    rounds = cli_rounds(runner, ops, seconds, LARGE_MIN_ROUNDS, tally)
    if not trace:
        return rounds.end_to_end(ops)
    spans, overhead, written = traced_round(runner, ops, rounds, tally)
    return layer_metrics(spans, 1, written, overhead)


# ------------------------------------------------------------------ sweep-grid


def read_table(path: Path, header: list[str]) -> list[dict] | None:
    """Rows of a CSV table as dicts of floats, or None if the header differs."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            return None
        return [dict(zip(header, map(float, row))) for row in reader]


def check_sweep(path: Path, a2, mode: str, grid: list[float]) -> list[str]:
    header, key, check_row = {
        "efficiency": (EFFICIENCY_COLUMNS, "p_ref", wl.check_efficiency_row),
        "fixedprob": (FIXEDPROB_COLUMNS, "p_fix", wl.check_fixed_row),
        "interp": (INTERP_COLUMNS, "xi", wl.check_interp_row),
    }[mode]
    try:
        rows = read_table(path, header)
    except (OSError, ValueError) as exc:
        return [f"unreadable table: {exc}"]
    if rows is None:
        return ["unexpected CSV header"]
    if [r[key] for r in rows] != grid:
        return [f"{key} column is not the requested grid"]
    problems = [f"{key}={r[key]!r}: {p}" for r in rows for p in check_row(a2, r)]
    if mode == "efficiency":
        problems += wl.check_monotone([r["p_success"] for r in rows], "p_success")
    elif mode == "fixedprob":
        problems += wl.check_monotone([r["purity"] for r in rows], "purity")
    return problems


def sweep_grid(runner: Runner, seed: int, seconds: float, trace: bool, tally: Tally) -> dict:
    a2 = inputs.dirichlet(np.random.default_rng(seed), SWEEP_DIM)
    lv = inputs.Levels(a2)
    spectrum = runner.work / "sweep.json"
    inputs.write_spectrum(a2, spectrum)
    grids = {
        "efficiency": ("--pref-grid", inputs.efficiency_grid(lv, SWEEP_POINTS)),
        "fixedprob": ("--pfix-grid", inputs.fixed_grid(lv, SWEEP_POINTS)),
        "interp": ("--xi-grid", [float(v) for v in np.linspace(0.0, 1.0, SWEEP_POINTS)]),
    }

    def op(mode):
        flag, grid = grids[mode]
        return CliOp(
            name=f"sweep-{mode}", kind=mode,
            args=lambda out: ["sweep", "--spectrum", str(spectrum), "--mode", mode,
                              flag, ",".join(map(repr, grid)), "--out", str(out)],
            check=lambda out: check_sweep(out, a2, mode, grid),
            suffix=".csv", plans=len(grid))

    ops = [op(mode) for mode in grids]
    rounds = cli_rounds(runner, ops, seconds, SWEEP_MIN_ROUNDS, tally)
    if not trace:
        return rounds.end_to_end(ops)
    spans, overhead, written = traced_round(runner, ops, rounds, tally)
    # the CLI's interp mode calls interpolate point by point; the library's
    # interp_sweep is timed on the same spectrum and grid in a child of its own
    report = runner.work / "interp_sweep.spans.json"
    code, _, _ = runner.run(
        [sys.executable, str(PROGRAM), "interp", str(report), str(spectrum),
         ",".join(map(repr, grids["interp"][1]))], "interp_sweep-traced")
    tally.require(code == 0, "interp_sweep call failed")
    if code == 0:
        spans.append(json.loads(report.read_text()))
    return layer_metrics(spans, 1, written, overhead)


# ------------------------------------------------------------ plan-small-batch


def small_batch_inputs(seed: int) -> tuple[list[np.ndarray], list[tuple[int, int, float]]]:
    """Spectra with D log-spaced over SMALL_DIM_RANGE, and five plans on each:
    standard concentration (P_ref = 1/D), an identity-plan reference
    (P_ref = sqrt(max a^2) >= max a^2), an efficiency plan and a
    fixed-probability plan at mid-gap levels of random rank, and p_fix = 1.

    The dimensions are the same for every seed, so the mix of small and
    larger plans, which sets the time per plan, does not vary between runs."""
    rng = np.random.default_rng(seed)
    dims = np.geomspace(*SMALL_DIM_RANGE, SMALL_SPECTRA).astype(int)
    spectra, plans = [], []
    for i, d in enumerate(dims):
        a2 = inputs.dirichlet(rng, int(d))
        lv = inputs.Levels(a2)
        spectra.append(a2)
        plans += [
            (i, 0, 1.0 / d),
            (i, 0, float(np.sqrt(a2.max()))),
            (i, 0, lv.pref_for(lv.midgap_level(int(rng.integers(1, d))))),
            (i, 1, lv.pfix_for(lv.midgap_level(int(rng.integers(1, d))))),
            (i, 1, 1.0),
        ]
    return spectra, plans


def check_small_table(table: Path, vectors: Path, spectra, plans) -> list[list[str]]:
    """Problems of each plan in the batch's last results table."""
    rows = read_table(table, program.TABLE_COLUMNS)
    if rows is None or len(rows) != len(plans):
        return [["results table has the wrong header or length"]] * len(plans)
    vec = np.load(vectors)
    start = 0
    problems = []
    for (i, mode, ref), row in zip(plans, rows):
        a2 = spectra[i]
        end = start + a2.size
        if (row["spectrum"], row["dim"], row["mode"]) != (i, a2.size, mode):
            problems.append([f"row for spectrum {i} mode {mode} out of place"])
            start = end
            continue
        key = "p_ref" if mode == 0 else "p_fix"
        out = dict(row, **{key: row["ref"]}, n_opt=int(row["n_opt"]),
                   y=vec["y"][start:end], post_spectrum=vec["post"][start:end])
        if mode == 1 and np.isnan(row["q_value"]):
            out["q_value"] = None
        problems.append(wl.check_outcome(a2, "efficiency" if mode == 0 else "fixedprob",
                                         ref, out))
        start = end
    return problems


def plan_small_batch(runner: Runner, seed: int, seconds: float, trace: bool,
                     tally: Tally) -> dict:
    work = runner.work
    spectra, plans = small_batch_inputs(seed)
    batch_inputs = work / "batch.npz"
    np.savez(batch_inputs, dims=[a.size for a in spectra], values=np.concatenate(spectra),
             plan_spectrum=[p[0] for p in plans], plan_mode=[p[1] for p in plans],
             plan_ref=[p[2] for p in plans])
    table, result = work / "batch.csv", work / "batch-result.json"
    code, _, mb = runner.run(
        [sys.executable, str(PROGRAM), "batch", str(batch_inputs), str(table), str(result),
         repr(float(seconds)), "1" if trace else "0"], "batch")
    if code != 0:
        raise RuntimeError(f"the small-plan batch exited {code}")
    report = json.loads(result.read_text())
    rounds = len(report["round_s"])
    tally.require(report["tables_identical"], "a batch round wrote a different table")
    for (i, mode, ref), problems in zip(
            plans, check_small_table(table, result.with_suffix(".npz"), spectra, plans)):
        tally.op(f"spectrum {i} (D={spectra[i].size}) mode {mode} ref {ref!r}", problems,
                 times=rounds)
    if trace:
        overhead = (statistics.median(report["round_s"])
                    - statistics.median(report["untraced_round_s"]))
        return layer_metrics([report["spans"]], rounds, table.stat().st_size * rounds,
                             overhead)
    # the batch's timings are scaled to the reference machine speed
    scale = calibrate.scale(report["calibration_s"])
    log(f"plan-small-batch: {rounds} rounds, median round "
        f"{statistics.median(report['round_s']):.6f} s, speed scale {scale:.4f}")
    return {
        "efficiency_op_s": (statistics.median(report["efficiency_s"]) * scale, "s"),
        "fixedprob_op_s": (statistics.median(report["fixedprob_s"]) * scale, "s"),
        "plans_per_s": (len(plans) / (statistics.median(report["round_s"]) * scale),
                        "plans/s"),
        "peak_rss_mb": (mb, "MB"),
    }


# ------------------------------------------------------------------------ main

WORKLOADS = {
    "plan-large": plan_large,
    "sweep-grid": sweep_grid,
    "plan-small-batch": plan_small_batch,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schmidt_forge" / "cli.py").is_file():
        log(f"program source not found under {SRC}")
        return 2

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        check_program_source(runner)
        tally = Tally()
        gate = selftest.run_selftest()
        tally.require(not gate, f"checker self-test: {gate[:1]}")
        # setup is sampled before and after the workload, so that its median
        # spans the run rather than one moment of a machine whose speed drifts
        setup = [] if args.trace else setup_times(runner, SETUP_SAMPLES // 2)
        metrics = WORKLOADS[args.workload](runner, args.seed, args.seconds, bool(args.trace),
                                           tally)
        if not args.trace:
            setup += setup_times(runner, SETUP_SAMPLES - len(setup))
            metrics["setup_s"] = (statistics.median(setup), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
