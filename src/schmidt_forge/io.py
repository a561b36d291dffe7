"""File formats: spectrum JSON, outcome JSON, sweep CSV.

Floats are written as ``"%.17g"`` writes them: 17 significant digits, which
round-trips IEEE doubles exactly, so the text holds the values bit for bit.
``read_spectrum`` divides the values it parses by their sum again, which can
move a value whose float sum is not exactly 1 by a few ulps. Non-finite
floats are written as ``null``, and ``-0.0`` as ``-0``. JSON is written as a
stream: a float array goes out in chunks of ``FLOAT_CHUNK`` values, so the
text of a D-long outcome or spectrum is never held in memory at once. Each
distinct bit pattern in a chunk is printed once: an optimal plan's y is 1 on
every uncropped coefficient, and its post-selected spectrum takes only a few
values on the cropped ones.

One numpy kernel prints the float arrays, with no Python call per value (the
idea of Loitsch, PLDI 2010, and of Adams's Ryu, PLDI 2018); a float outside
an array, such as an outcome's p_success, is printed by ``"%.17g"`` itself.
The decade k of |x| comes from a table of the least double >= 10^k; the 17
digits are N = round(|x| * 10^(16 - k)), from a double-double product whose
error is below 2^-46 of a unit of N; the digits are then laid out in the
fixed or exponent form of ``%g``. Only when N's fraction lies within 2^-20
of one half, where that error could decide the rounding, is the value
printed by ``"%.17g"`` itself, so exact ties round as ``"%.17g"`` rounds
them.

CSV uses '.' decimals, ',' separators, LF line endings and a mandatory
header, so outputs diff cleanly across runs.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .efficiency import ConcentrationOutcome
from .errors import IoError, ParseError, SchemaError, SchmidtForgeError
from .spectrum import SchmidtSpectrum, make_spectrum

OUTCOME_MODES = {"efficiency": "p_ref", "fixedprob": "p_fix"}

#: floats formatted per piece of streamed JSON
FLOAT_CHUNK = 16384

#: decades k of finite nonzero doubles, 10^k <= |x| < 10^(k + 1)
_DECADES = range(-324, 309)
#: Veltkamp's splitter 2^27 + 1: x = hi + lo with 26-bit halves
_SPLITTER = 134217729.0
#: a printed float's row: ", ", sign, "0.000" of the fixed form below one,
#: 17 digits each followed by a slot for the point, then "e+308"; NUL bytes
#: are dropped when the rows are joined
_ROW = 2 + 1 + 5 + 2 * 17 + 5


def _split(x):
    """Veltkamp's split of ``x`` into two halves of at most 26 bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _thresholds() -> np.ndarray:
    """The least double >= 10^k for each k in ``_DECADES``."""
    out = []
    for k in _DECADES:
        x = float(f"1e{k}")  # correctly rounded, so at most one step below
        num, den = x.as_integer_ratio()
        if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
            x = math.nextafter(x, math.inf)
        out.append(x)
    return np.array(out)


@functools.cache
def _decade(i: int) -> tuple:
    """(hi, its two Veltkamp halves, lo, F) with 10^(16 - k) = (hi + lo) * 2^F
    to 2^-105 relative, hi in [1, 2), for the ``i``-th decade k."""
    s = 16 - _DECADES[i]
    if s >= 0:
        f = (10**s).bit_length() - 1
        w = 10**s << (105 - f) if f <= 105 else 10**s >> (f - 105)
    else:
        f = -(10**-s).bit_length()
        w = (1 << (105 - f)) // 10**-s
    hi = float(w >> 53) * 2.0**-52
    return (hi, *_split(hi), float(w & (2**53 - 1)) * 2.0**-105, f)


@functools.cache
def _layout() -> tuple:
    """Per decade of a printed value: the bytes around its digits (5 before,
    5 after), the digit after which the point goes (17: none) and the digits
    printed even when zero."""
    k = np.arange(_DECADES.start, _DECADES.stop)
    fixed, below_one = (k >= 0) & (k < 17), (k >= -4) & (k < 0)
    text = "".join(
        "\0" * 10 if 0 <= e < 17
        else f"0.{'0' * (-e - 1)}".ljust(10, "\0") if -4 <= e < 0
        else "\0" * 5 + f"e{e:+03d}".ljust(5, "\0")
        for e in k.tolist()
    )
    around = np.frombuffer(text.encode("ascii"), np.dtype((np.void, 10)))
    point = np.where(fixed, k + 1, np.where(below_one, 17, 1))
    return around, point, np.where(fixed, k + 1, 1)


@functools.cache
def _groups() -> tuple:
    """Text of the four-digit groups 0000..9999 as uint32, then the same with
    trailing zeros as NUL, and each group's count of trailing zeros."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    zeros = np.sum([g % 10 == 0, g % 100 == 0, g % 1000 == 0, g == 0], axis=0)
    text = (digits + ord("0")).astype(np.uint8)
    stripped = np.where(np.arange(4) < 4 - zeros[:, None], text, 0).astype(np.uint8)
    return np.concatenate([text, stripped]).view(np.uint32).ravel(), zeros


def _float_rows(v: np.ndarray) -> np.ndarray:
    """One ``_ROW``-byte row per value of ``v``: ", " then its ``"%.17g"``
    text (``null`` if not finite), padded with NUL bytes."""
    u = v.size
    rows = np.zeros((u, _ROW), np.uint8)
    rows[:, :2] = np.frombuffer(b", ", np.uint8)
    finite = np.isfinite(v)
    # 1.0 stands in for zeros and non-finite values; their rows are redone below
    x = np.abs(v, out=np.ones(u), where=finite & (v != 0))
    # the decade and the digits N = round(x * 10^(16 - k)) in [10^16, 10^17]
    i = np.searchsorted(_thresholds(), x, side="right") - 1
    table = np.zeros((5, len(_DECADES)))
    present = np.flatnonzero(np.bincount(i, minlength=len(_DECADES)))
    table[:, present] = np.array([_decade(j) for j in present.tolist()]).T
    hi, hi_h, hi_l, lo, f = np.take(table, i, axis=1)
    m, e = np.frexp(x)
    m_h, m_l = _split(m)
    p = m * hi
    err = ((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l  # Dekker: m*hi - p
    e += f.astype(e.dtype)
    rest = np.ldexp(err + m * lo, e)
    whole = np.floor(rest)
    frac = rest - whole
    # p * 2^e >= 2^53 is an integer, and so exact in int64
    n = np.ldexp(p, e).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    i += carry
    # the digits: one, then four groups of four, trailing zeros as NUL
    top, low = np.divmod(n, 10**8)
    top, g2 = np.divmod(top, 10**4)
    g0, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    group_text, group_zeros = _groups()
    groups = np.empty((u, 5), np.uint32)
    groups[:, 0] = group_text[g0]
    trailing = np.ones(u, bool)  # every later group is zero
    kept = np.full(u, 17)
    for c, g in ((4, g4), (3, g3), (2, g2), (1, g1)):
        groups[:, c] = group_text[g + 10000 * trailing]
        kept -= trailing * group_zeros[g]
        trailing &= g == 0
    slots = rows[:, 8:42].reshape(u, 17, 2)
    slots[:, :, 0] = groups.view(np.uint8)[:, 3:]
    ends, at, shown = (column[i] for column in _layout())
    r = np.flatnonzero(kept > at)
    slots[r, at[r] - 1, 1] = ord(".")
    r = np.flatnonzero(shown > kept)  # an integer that ends in zeros
    if r.size:
        digits = slots[r, :, 0]
        digits[(np.arange(17) < shown[r, None]) & (digits == 0)] = ord("0")
        slots[r, :, 0] = digits
    ends = ends.view(np.uint8).reshape(u, 10)
    rows[:, 3:8], rows[:, 42:] = ends[:, :5], ends[:, 5:]
    rows[:, 2] = np.where(finite & np.signbit(v), ord("-"), 0)
    rows[v == 0, 8] = ord("0")
    rows[~finite, 3:9] = np.frombuffer(b"null\0\0", np.uint8)
    for j in np.flatnonzero(abs(frac - 0.5) < 2.0**-20).tolist():  # near a tie
        text = b"%.17g" % v[j]
        rows[j, 2:] = 0
        rows[j, 2:2 + len(text)] = np.frombuffer(text, np.uint8)
    return rows


def _float_text(floats: np.ndarray) -> str:
    """The values of ``floats`` printed and joined by ", ". Each distinct bit
    pattern, not value, is printed once, so -0.0 stays apart from 0.0."""
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    rows = _float_rows(bits.view(np.float64)).view(np.dtype((np.void, _ROW)))
    return rows.ravel()[inverse].tobytes().translate(None, b"\0").decode("ascii")[2:]


def json_pieces(value):
    """Yield the JSON text of ``value`` in pieces, with fixed float
    formatting and dict key order kept. Joined, the pieces are the whole
    text; a 1-D float array comes as one piece per ``FLOAT_CHUNK`` values,
    printed by the kernel, and a float outside an array by ``"%.17g"``.
    Only what the package writes is serialized: dicts, 1-D float arrays,
    ints, floats and None; anything else, a bool included, is a TypeError."""
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        floats = np.asarray(value, dtype=float)
        yield "["
        for start in range(0, floats.size, FLOAT_CHUNK):
            yield (", " if start else "") + _float_text(floats[start:start + FLOAT_CHUNK])
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (k, v) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(k)}: "
            yield from json_pieces(v)
        yield "}"
    elif value is None:
        yield "null"
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        yield str(int(value))
    elif isinstance(value, float):
        yield "%.17g" % value if math.isfinite(value) else "null"
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def write_json(obj: dict, path) -> None:
    """Write ``obj`` as one line of JSON, streaming its pieces to the file."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json_pieces(obj))
            f.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _object(pairs: list) -> dict:
    """A JSON object; a name given twice is refused, since which of its
    values counts would be the parser's choice, not the file's."""
    seen = set()
    for name, _ in pairs:
        if name in seen:
            raise ValueError(f"duplicate key {name!r}")
        seen.add(name)
    return dict(pairs)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, not an OSError
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # a repeated name, or past a parser limit
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
    if type(dim) is not int or not isinstance(coeffs, list):  # a JSON boolean is no dim
        raise SchemaError(f"{path}: wrong field types")
    if not set(map(type, coeffs)) <= {int, float}:  # JSON booleans and strings too
        raise SchemaError(f"{path}: coefficients must be numbers")
    if dim != len(coeffs):
        raise SchemaError(f"{path}: dim={dim} but {len(coeffs)} coefficients")
    try:
        return make_spectrum(coeffs)
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
        if type(v) is float:  # most cells: the repr of float(v) is the repr of v
            return repr(v)
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            return str(int(v))
        return repr(float(v))

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
