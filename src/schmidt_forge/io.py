"""File formats: spectrum JSON, outcome JSON, sweep CSV.

Floats are serialized with 17 significant digits, which round-trips IEEE
doubles exactly; rereading a written file reproduces the values bit for bit.
Non-finite floats are written as ``null``, and ``-0.0`` as ``-0``. JSON is
written as a stream: a float array goes out in chunks of ``FLOAT_CHUNK``
values, so the text of a D-long outcome or spectrum is never held in memory
at once. Each distinct value in a chunk is formatted once, which changes no
byte: an optimal plan's y is 1 on every uncropped coefficient, and its
post-selected spectrum takes only a few values on the cropped ones.
CSV uses '.' decimals, ',' separators, LF line endings and a mandatory
header, so outputs diff cleanly across runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .efficiency import ConcentrationOutcome
from .errors import IoError, NotNormalizedError, ParseError, SchemaError, SchmidtForgeError
from .spectrum import SchmidtSpectrum, make_spectrum

OUTCOME_MODES = {"efficiency": "p_ref", "fixedprob": "p_fix"}

#: floats formatted per piece of streamed JSON
FLOAT_CHUNK = 4096


def _float_array(value) -> np.ndarray | None:
    """``value`` as a float64 array if it is a 1-D ndarray of float dtype, else None."""
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return np.asarray(value, dtype=float)
    return None


def _scalar(value) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return "null"  # undefined metrics stay valid JSON
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def json_pieces(value):
    """Yield the JSON text of ``value`` in pieces, with fixed float
    formatting and dict key order kept. Joined, the pieces are the whole
    text; a float array comes as one piece per ``FLOAT_CHUNK`` values."""
    floats = _float_array(value)
    if floats is not None:
        yield "["
        for start in range(0, floats.size, FLOAT_CHUNK):
            chunk = floats[start:start + FLOAT_CHUNK]
            # distinct bit patterns, not values, so -0.0 stays apart from 0.0
            bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
            distinct = bits.view(np.float64)
            text = "\n".join(["%.17g"] * distinct.size) % tuple(distinct.tolist())
            items = text.split("\n")
            for i in np.flatnonzero(~np.isfinite(distinct)):
                items[i] = "null"
            yield (", " if start else "") + ", ".join(map(items.__getitem__, inverse.tolist()))
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (k, v) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(k)}: "
            yield from json_pieces(v)
        yield "}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        yield "["
        for i, v in enumerate(value):
            if i:
                yield ", "
            yield from json_pieces(v)
        yield "]"
    else:
        yield _scalar(value)


def write_json(obj: dict, path) -> None:
    """Write ``obj`` as one line of JSON, streaming its pieces to the file."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json_pieces(obj))
            f.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            lineno=exc.lineno,
            colno=exc.colno,
        ) from exc
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise ParseError(f"{path}: {exc}") from exc


def write_spectrum(s: SchmidtSpectrum, path) -> None:
    write_json({"dim": s.dim, "squared_coefficients": s.sq_coeffs}, path)


def read_spectrum(path) -> SchmidtSpectrum:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    missing = {"dim", "squared_coefficients"} - data.keys()
    if missing:
        raise SchemaError(f"{path}: missing fields {sorted(missing)}")
    dim = data["dim"]
    coeffs = data["squared_coefficients"]
    if not isinstance(dim, int) or not isinstance(coeffs, list):
        raise SchemaError(f"{path}: wrong field types")
    if not set(map(type, coeffs)) <= {int, float}:  # JSON booleans and strings too
        raise SchemaError(f"{path}: coefficients must be numbers")
    if dim != len(coeffs):
        raise SchemaError(f"{path}: dim={dim} but {len(coeffs)} coefficients")
    try:
        return make_spectrum(coeffs, input_kind="squared", normalize=False)
    except NotNormalizedError as exc:
        raise SchemaError(f"{path}: NotNormalized: {exc}") from exc
    except SchmidtForgeError as exc:
        raise SchemaError(f"{path}: {type(exc).__name__}: {exc}") from exc
    except OverflowError as exc:  # an integer too large for a float
        raise SchemaError(f"{path}: malformed coefficient: {exc}") from exc


def outcome_dict(outcome: ConcentrationOutcome, mode: str, ref_value: float) -> dict:
    """The JSON object of an outcome. ``mode`` selects the leading field
    name: ``p_ref`` for efficiency outcomes, ``p_fix`` for fixed-probability
    ones."""
    m = outcome.post_measures
    return {
        OUTCOME_MODES[mode]: float(ref_value),
        "n_opt": outcome.plan.n_opt,
        "crop_level": outcome.plan.crop_level,
        "y": outcome.plan.y,
        "p_success": outcome.p_success,
        "post_spectrum": outcome.post_spectrum.sq_coeffs,
        "purity": m.purity,
        "schmidt_number": m.schmidt_number,
        "concurrence_sq": m.concurrence_sq,
        "q_value": outcome.q_value,
    }


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of numbers (ints kept as ints) under a mandatory header."""
    def cell(v) -> str:
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            return str(int(v))
        return repr(float(v))

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
