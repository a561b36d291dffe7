"""Independent water-level solution and output checks for the benchmark.

Nothing here imports the program under test. Both optimal plans cut every
squared Schmidt coefficient above one level down to that level, x = min(a^2, L):

* efficiency: L is the positive root of L = P_ref * sum_m min(a_m^2, L);
  the identity plan (L >= max a^2) applies when P_ref >= max a^2, and at
  P_ref = 1/D every coefficient falls to a_min^2 (standard concentration);
* fixed probability: L solves sum_m min(a_m^2, L) = p_fix.

Both levels are found here by plain bisection on the unsorted coefficients,
not by the sorted-prefix scan the program uses. Every check compares with a
tolerance relative to the size of the quantity compared (RTOL).
"""

from __future__ import annotations

import numpy as np

#: relative tolerance of every comparison; sound outputs agree to ~1e-14
RTOL = 1e-9


def efficiency_level(a2: np.ndarray, p_ref: float) -> float:
    """Water level of the efficiency-optimal plan at reference purity p_ref."""
    d = a2.size
    lo, hi = float(a2.min()), float(a2.max())
    if p_ref >= hi:
        return float(p_ref)  # identity plan: min(a^2, L) = a^2
    if p_ref * d <= 1.0 + RTOL * 1e-3:
        return lo  # standard concentration
    # f(L) = p_ref * sum(min(a^2, L)) - L is concave with f(0) = 0, so it is
    # >= 0 at L = a_min^2 and < 0 at L = a_max^2 in this branch
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if p_ref * float(np.minimum(a2, mid).sum()) - mid >= 0.0:
            lo = mid
        else:
            hi = mid


def fixed_level(a2: np.ndarray, p_fix: float) -> float:
    """Water level of the minimum-purity plan that succeeds with p_fix."""
    lo, hi = 0.0, float(a2.max())
    if p_fix >= float(a2.sum()):
        return hi  # keep the state: nothing needs to be cut
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if float(np.minimum(a2, mid).sum()) < p_fix:
            lo = mid
        else:
            hi = mid


def _close(got, want, scale=None) -> bool:
    if got is None:
        return False
    scale = abs(want) if scale is None else scale
    return abs(float(got) - float(want)) <= RTOL * scale


def _tail_sums_desc(v: np.ndarray) -> np.ndarray:
    """E_l(v) = sum of all but the l-1 largest entries, for l = 1..D."""
    asc = np.sort(v)
    return np.cumsum(asc)[::-1]


def vidal_bound(a2: np.ndarray, post: np.ndarray) -> float:
    """Vidal's optimal single-copy conversion probability a -> post.

    min over l of E_l(a) / E_l(post), each vector ordered on its own
    (Vidal, PRL 83, 1046, 1999).
    """
    ea = _tail_sums_desc(a2)
    ep = _tail_sums_desc(post)
    ok = ep > 0.0
    return float(np.min(ea[ok] / ep[ok]))


def _measure_checks(d, x_ref, purity, schmidt, c_sq) -> list[str]:
    """The output's measures against those of the independently solved plan
    x_ref, and against their formulas in terms of the purity."""
    bad = []
    total = float(x_ref.sum())
    purity_sol = float(np.dot(x_ref, x_ref)) / (total * total)
    if not _close(purity, purity_sol):
        return [f"purity {purity!r} != water-level {purity_sol!r}"]
    if not _close(schmidt, 1.0 / purity):
        bad.append(f"schmidt_number {schmidt!r} != 1/purity")
    c_want = min(max(d / (d - 1.0) * (1.0 - purity), 0.0), 1.0)
    if not _close(c_sq, c_want, scale=d / (d - 1.0) * (1.0 + purity)):
        bad.append(f"concurrence_sq {c_sq!r} != D/(D-1)(1-purity)")
    return bad


def _p_check(p, x_ref) -> list[str]:
    want = float(x_ref.sum())
    return [] if _close(p, want) else [f"p_success {p!r} != water-level {want!r}"]


def _n_opt_ok(a2: np.ndarray, level: float, n_opt: int) -> bool:
    """n_opt counts the coefficients cut to the level; ties may go either way."""
    lo = int(np.count_nonzero(a2 > level * (1.0 + RTOL)))
    hi = int(np.count_nonzero(a2 >= level * (1.0 - RTOL)))
    return lo <= n_opt <= hi


def _q_checks(d, p_ref, x_ref, q) -> list[str]:
    p = float(x_ref.sum())
    sq = float(np.dot(x_ref, x_ref))
    scale = d / (d - 1.0)
    want = scale * (p_ref * p * p - sq)
    if not _close(q, want, scale=scale * (p_ref * p * p + sq)):
        return [f"q_value {q!r} != D/(D-1)(P_ref p^2 - sum x^2) = {want!r}"]
    return []


def check_outcome(a2: np.ndarray, mode: str, ref: float, out: dict) -> list[str]:
    """Check one outcome JSON (``concentrate`` or ``fixedp``) against the
    water-level solution and the properties every optimal plan has.

    Returns the list of violations; empty means the outcome is correct.
    """
    d = a2.size
    level = efficiency_level(a2, ref) if mode == "efficiency" else fixed_level(a2, ref)
    x_ref = np.minimum(a2, level)
    key = "p_ref" if mode == "efficiency" else "p_fix"
    bad = []
    if out.get(key) != ref:
        bad.append(f"{key} {out.get(key)!r} != requested {ref!r}")
    y = np.asarray(out["y"], dtype=float)
    post = np.asarray(out["post_spectrum"], dtype=float)
    p = out["p_success"]
    if y.shape != (d,) or post.shape != (d,) or p is None:
        return bad + ["y, post_spectrum or p_success missing or of wrong length"]
    if not (np.all(y >= 0.0) and np.all(y <= 1.0)):
        bad.append("y leaves [0, 1]")
    x = post * p
    rel = np.abs(x - x_ref) / x_ref
    worst = int(np.argmax(rel))
    if rel[worst] > RTOL:
        bad.append(
            f"post_spectrum*p_success differs from min(a^2, L) by {rel[worst]:.3g} "
            f"relative at index {worst} (n_opt {out['n_opt']}, "
            f"{int(np.count_nonzero(rel > RTOL))} coefficients off)"
        )
    rel_y = np.abs(x - a2 * y) / a2
    if np.max(rel_y) > RTOL:
        bad.append(f"post_spectrum*p_success != a^2*y by {np.max(rel_y):.3g} relative")
    if not _close(post.sum(), 1.0):
        bad.append(f"post_spectrum sums to {post.sum()!r}")
    if not _n_opt_ok(a2, level, out["n_opt"]):
        bad.append(f"n_opt {out['n_opt']} does not count the coefficients above L={level!r}")
    crop = out["crop_level"]
    if out["n_opt"] == 0:
        if crop < a2.max() * (1.0 - RTOL):
            bad.append(f"identity plan with crop_level {crop!r} below max a^2")
    elif not _close(crop, level):
        bad.append(f"crop_level {crop!r} != water level {level!r}")
    bad += _p_check(p, x_ref)
    bad += _measure_checks(d, x_ref, out["purity"], out["schmidt_number"],
                           out["concurrence_sq"])
    purity_own = float(np.dot(post, post))
    if not _close(out["purity"], purity_own):
        bad.append(f"purity {out['purity']!r} != sum of squared post_spectrum")
    if mode == "efficiency":
        bad += _q_checks(d, ref, x_ref, out["q_value"])
    else:
        if out["q_value"] is not None:
            bad.append("fixed-probability outcome carries a q_value")
        if not _close(p, ref):
            bad.append(f"p_success {p!r} != p_fix {ref!r}")
    if p > vidal_bound(a2, post) * (1.0 + RTOL):
        bad.append(f"p_success {p!r} above Vidal's bound")
    return bad


def check_efficiency_row(a2: np.ndarray, row: dict) -> list[str]:
    """One row of an efficiency sweep CSV."""
    level = efficiency_level(a2, row["p_ref"])
    x_ref = np.minimum(a2, level)
    bad = _p_check(row["p_success"], x_ref)
    if not _n_opt_ok(a2, level, int(row["n_opt"])):
        bad.append(f"n_opt {row['n_opt']} does not count the coefficients above L={level!r}")
    bad += _measure_checks(a2.size, x_ref, row["purity"], row["schmidt_number"],
                           row["concurrence_sq"])
    return bad + _q_checks(a2.size, row["p_ref"], x_ref, row["q_value"])


def check_fixed_row(a2: np.ndarray, row: dict) -> list[str]:
    """One row of a fixed-probability sweep CSV."""
    level = fixed_level(a2, row["p_fix"])
    x_ref = np.minimum(a2, level)
    bad = _p_check(row["p_success"], x_ref)
    if not _n_opt_ok(a2, level, int(row["n_opt"])):
        bad.append(f"n_opt {row['n_opt']} does not count the coefficients above L={level!r}")
    if not _close(row["p_success"], row["p_fix"]):
        bad.append(f"p_success {row['p_success']!r} != p_fix {row['p_fix']!r}")
    return bad + _measure_checks(a2.size, x_ref, row["purity"],
                                 row["schmidt_number"], row["concurrence_sq"])


def check_interp_row(a2: np.ndarray, row: dict) -> list[str]:
    """One row of an interpolation sweep CSV: b^2 = a^2 + (1/D - a^2) xi,
    succeeding with p = 1 / (1 - xi + xi / (D a_min^2))."""
    d = a2.size
    xi = row["xi"]
    p_want = 1.0 / (1.0 - xi + xi / (d * float(a2.min())))
    b2 = a2 + (1.0 / d - a2) * xi
    bad = []
    if not _close(row["p_success"], p_want):
        bad.append(f"p_success {row['p_success']!r} != {p_want!r} at xi={xi!r}")
    return bad + _measure_checks(d, b2, row["purity"], row["schmidt_number"],
                                 row["concurrence_sq"])


def check_monotone(values, what: str) -> list[str]:
    """Values along a sweep must not fall as its grid rises."""
    v = np.asarray(values, dtype=float)
    drops = np.nonzero(v[1:] < v[:-1] * (1.0 - RTOL))[0]
    return [f"{what} falls at grid point {int(i) + 1}" for i in drops]
