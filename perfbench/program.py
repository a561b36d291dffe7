"""Child process through which the benchmark calls the program in-process.

Subcommands:

* ``cli SPANS -- ARGV...``: one traced ``schmidt_forge.cli.main(ARGV)``;
* ``interp SPANS SPECTRUM XI,...``: one traced ``interp_sweep`` on a
  spectrum read before tracing starts;
* ``batch INPUTS TABLE RESULT SECONDS TRACE``: the small-plan batch, as the
  experiment scripts use the library: ``make_spectrum``, the two planners,
  then one ``io.write_csv`` table per round.

Tracing wraps public functions, never private ones: every module attribute
of the package that is the original function is replaced by a timing
wrapper, wherever it was imported. A function that no longer exists is
reported as absent. Span results are written as JSON when the call ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from calibrate import Calibration

#: traced layer -> (module, public function)
LAYERS = {
    "io.read_spectrum": ("schmidt_forge.io", "read_spectrum"),
    "spectrum.make_spectrum": ("schmidt_forge.spectrum", "make_spectrum"),
    "spectrum.sort_descending": ("schmidt_forge.spectrum", "sort_descending"),
    "spectrum.measures": ("schmidt_forge.spectrum", "measures"),
    "efficiency.optimal_plan_efficiency": ("schmidt_forge.efficiency", "optimal_plan_efficiency"),
    "fixedprob.optimal_plan_fixed": ("schmidt_forge.fixedprob", "optimal_plan_fixed"),
    "interp.interp_sweep": ("schmidt_forge.interp", "interp_sweep"),
    "io.write_csv": ("schmidt_forge.io", "write_csv"),
    "cli.main": ("schmidt_forge.cli", "main"),
}
#: layers whose first argument is the spectrum a plan is made for
PLANNERS = ("efficiency.optimal_plan_efficiency", "fixedprob.optimal_plan_fixed")


class Tracer:
    """Self time, total time and calls per layer.

    A span's self time is its duration minus that of the spans directly
    inside it. Spans that start on a thread with no open span (the sweep
    thread pool) count as inside the outermost span of the main thread.
    """

    def __init__(self):
        self.self_s = {name: 0.0 for name in LAYERS}
        self.total_s = {name: 0.0 for name in LAYERS}
        self.calls = {name: 0 for name in LAYERS}
        self.coefficients = 0
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list[float] = []  # child time of the main thread's outermost span

    def _stack(self) -> list[float]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            outermost = not stack and threading.current_thread() is threading.main_thread()
            stack.append(0.0)
            if outermost:
                self._root.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                with self._lock:
                    if outermost:
                        inner += self._root.pop()
                    self.total_s[name] += dt
                    self.self_s[name] += dt - inner
                    self.calls[name] += 1
                    if name in PLANNERS:
                        self.coefficients += int(getattr(args[0], "dim", 0))
                    if stack:
                        stack[-1] += dt
                    elif not outermost and self._root:
                        self._root[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import schmidt_forge  # noqa: F401  (loads the package's modules)

        for _, (module, _) in LAYERS.items():
            try:
                importlib.import_module(module)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "schmidt_forge" or n.startswith("schmidt_forge."))]
        for name, (module, attr) in LAYERS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def report(self) -> dict:
        return {"self_s": self.self_s, "total_s": self.total_s, "calls": self.calls,
                "coefficients": self.coefficients, "absent": self.absent}


def _cmd_cli(spans: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from schmidt_forge import cli

    code = cli.main(argv)
    Path(spans).write_text(json.dumps(tracer.report()))
    return code


def _cmd_interp(spans: str, spectrum: str, xi: str) -> int:
    from schmidt_forge import interp, io

    s = io.read_spectrum(spectrum)
    grid = [float(v) for v in xi.split(",")]
    tracer = Tracer()
    tracer.install()
    interp.interp_sweep(s, grid)
    Path(spans).write_text(json.dumps(tracer.report()))
    return 0


#: columns of the small-plan results table; mode 0 is efficiency, 1 fixedprob
TABLE_COLUMNS = ["spectrum", "dim", "mode", "ref", "n_opt", "crop_level", "p_success",
                 "purity", "schmidt_number", "concurrence_sq", "q_value"]


class Batch:
    """The small-plan batch: spectra, the plans made on each, a table path."""

    def __init__(self, inputs: str, table: str):
        data = np.load(inputs)
        self.spectra = np.split(data["values"], np.cumsum(data["dims"])[:-1])
        self.plans = [[] for _ in self.spectra]
        for i, mode, ref in zip(data["plan_spectrum"], data["plan_mode"], data["plan_ref"]):
            self.plans[int(i)].append((int(mode), float(ref)))
        self.table = Path(table)
        self.call_s = ([], [])  # mean wall time of a planner call in each round, by mode
        self.first_table = None
        self.tables_identical = True

    def round(self):
        """Make every plan of the batch, then write the results table."""
        import schmidt_forge as lib
        from schmidt_forge import io

        rows, outcomes = [], []
        clock = time.perf_counter
        spent, calls = [0.0, 0.0], [0, 0]  # planner time and calls, by mode
        for i, values in enumerate(self.spectra):
            s = lib.make_spectrum(values)
            for mode, ref in self.plans[i]:
                if mode == 0:
                    request = lib.reference_from("p_ref", ref, s.dim)
                    t0 = clock()
                    o = lib.optimal_plan_efficiency(s, request)
                else:
                    request = lib.FixedProbRequest(ref)
                    t0 = clock()
                    o = lib.optimal_plan_fixed(s, request)
                spent[mode] += clock() - t0
                calls[mode] += 1
                m = o.post_measures
                rows.append([i, s.dim, mode, ref, o.plan.n_opt, o.plan.crop_level,
                             o.p_success, m.purity, m.schmidt_number, m.concurrence_sq,
                             float("nan") if o.q_value is None else o.q_value])
                outcomes.append(o)
        io.write_csv(self.table, TABLE_COLUMNS, rows)
        for mode in (0, 1):
            self.call_s[mode].append(spent[mode] / calls[mode])
        return outcomes

    def timed_rounds(self, seconds: float, calibration: Calibration | None = None):
        """Rounds until ``seconds`` have passed; the wall time of each and the
        outcomes of the last. Every round's table must match the first's.
        With a calibration, the machine's speed is sampled before and after
        each round."""
        times, outcomes = [], None
        start = time.perf_counter()
        if calibration is not None:
            calibration.sample()
        while not times or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            outcomes = self.round()
            times.append(time.perf_counter() - t0)
            if calibration is not None:
                calibration.sample()
            written = self.table.read_bytes()
            if self.first_table is None:
                self.first_table = written
            self.tables_identical &= written == self.first_table
        return times, outcomes


def _cmd_batch(inputs: str, table: str, result: str, seconds: float, trace: bool) -> int:
    batch = Batch(inputs, table)
    batch.round()  # warm-up
    batch.call_s = ([], [])
    report = {}
    if trace:
        untraced, _ = batch.timed_rounds(seconds / 2)
        tracer = Tracer()
        tracer.install()
        times, outcomes = batch.timed_rounds(seconds / 2)
        report = {"untraced_round_s": untraced, "spans": tracer.report()}
    else:
        calibration = Calibration()
        times, outcomes = batch.timed_rounds(seconds, calibration)
        report["calibration_s"] = calibration.samples
    np.savez(
        Path(result).with_suffix(".npz"),
        y=np.concatenate([o.plan.y for o in outcomes]),
        post=np.concatenate([o.post_spectrum.sq_coeffs for o in outcomes]),
    )
    report.update(round_s=times, efficiency_s=batch.call_s[0], fixedprob_s=batch.call_s[1],
                  tables_identical=batch.tables_identical)
    Path(result).write_text(json.dumps(report))
    return 0


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "cli":
        return _cmd_cli(rest[0], rest[2:])
    if cmd == "interp":
        return _cmd_interp(*rest)
    if cmd == "batch":
        inputs, table, result, seconds, trace = rest
        return _cmd_batch(inputs, table, result, float(seconds), trace == "1")
    raise SystemExit(f"unknown subcommand {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
