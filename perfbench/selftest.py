"""Self-test of the benchmark's correctness gate (waterlevel.py).

1. The bisection levels agree with brute force over every crop set at
   D <= 8: each subset S of coefficients is cut to its own best common
   level, the rest are kept, and the best configuration wins.
2. Outcomes built from the brute-force optimum pass ``check_outcome``, and
   deliberately corrupted copies of them are flagged.

Run ``python3 perfbench/selftest.py``; the benchmark also runs it before
every workload. Exit status 0 means the gate works.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

import waterlevel as wl


def _efficiency_crop_optimum(a2: np.ndarray, p_ref: float) -> np.ndarray:
    """x maximizing P_ref (sum x)^2 - sum x^2 over all crop sets.

    Ties in the payoff go to the larger success probability, which picks
    a_min^2 among the equally good uniform plans at P_ref = 1/D.
    """
    d = a2.size
    best, best_key = a2.copy(), (p_ref - float(a2 @ a2), 1.0)
    for k in range(1, d + 1):
        for subset in itertools.combinations(range(d), k):
            mask = np.zeros(d, dtype=bool)
            mask[list(subset)] = True
            cap = float(a2[mask].min())
            beta = float(a2[~mask].sum())
            gamma = float(a2[~mask] @ a2[~mask])

            def payoff(lv):
                total = k * lv + beta
                return p_ref * total * total - k * lv * lv - gamma

            candidates = [0.0, cap]
            if k * p_ref < 1.0:
                candidates.append(min(max(p_ref * beta / (1.0 - k * p_ref), 0.0), cap))
            for lv in candidates:
                if k * lv + beta <= 0.0:
                    continue
                key = (payoff(lv), k * lv + beta)
                if key[0] > best_key[0] + 1e-13 or (
                    abs(key[0] - best_key[0]) <= 1e-13 and key[1] > best_key[1]
                ):
                    best_key = key
                    best = np.where(mask, lv, a2)
    return best


def _fixed_crop_optimum(a2: np.ndarray, p_fix: float) -> np.ndarray:
    """x minimizing sum x^2 subject to sum x = p_fix over all crop sets."""
    d = a2.size
    best, best_sq = None, np.inf
    for k in range(1, d + 1):
        for subset in itertools.combinations(range(d), k):
            mask = np.zeros(d, dtype=bool)
            mask[list(subset)] = True
            lv = (p_fix - float(a2[~mask].sum())) / k
            if lv < 0.0 or lv > float(a2[mask].min()) * (1.0 + 1e-12):
                continue
            x = np.where(mask, lv, a2)
            if float(x @ x) < best_sq:
                best, best_sq = x, float(x @ x)
    return best


def _outcome(a2: np.ndarray, x: np.ndarray, mode: str, ref: float, n_opt: int, level: float):
    """An outcome dict in the program's JSON layout, computed from x."""
    d = a2.size
    p = float(x.sum())
    post = x / p
    purity = float(post @ post)
    return {
        ("p_ref" if mode == "efficiency" else "p_fix"): ref,
        "n_opt": n_opt,
        "crop_level": level,
        "y": list(np.minimum(x / a2, 1.0)),
        "p_success": ref if mode == "fixedprob" else p,
        "post_spectrum": list(post),
        "purity": purity,
        "schmidt_number": 1.0 / purity,
        "concurrence_sq": min(max(d / (d - 1.0) * (1.0 - purity), 0.0), 1.0),
        "q_value": (d / (d - 1.0) * (ref * p * p - float(x @ x))
                    if mode == "efficiency" else None),
    }


def _corruptions(a2: np.ndarray, out: dict):
    """Yield (label, corrupted copy) pairs that a sound gate must flag."""
    cut = int(np.argmax(a2))
    bumped = dict(out)
    post = np.array(out["post_spectrum"])
    post[cut] = a2[cut] * (1.0 + 1e-6) / out["p_success"]
    bumped["post_spectrum"] = list(post)
    yield "one coefficient nudged above a^2", bumped
    yield "p_success off by 1e-7", dict(out, p_success=out["p_success"] * (1.0 + 1e-7))
    yield "purity off by 1e-7", dict(out, purity=out["purity"] * (1.0 + 1e-7))
    top = max(out["post_spectrum"]) * out["p_success"]
    at_or_above = int(np.count_nonzero(a2 >= top * (1.0 - 1e-9)))
    if at_or_above < a2.size:
        yield "n_opt counts a coefficient below the level", dict(out, n_opt=at_or_above + 1)
    y = np.array(out["y"])
    y[int(np.argmin(a2))] = 1.0 + 1e-6
    yield "y above 1", dict(out, y=list(y))


def run_selftest(seed: int = 0) -> list[str]:
    """Return the self-test's failures; empty means the gate works."""
    rng = np.random.default_rng(seed)
    problems = []
    for d in range(2, 9):
        for _ in range(3):
            a2 = rng.dirichlet(np.ones(d))
            refs = [("efficiency", 1.0 / d), ("efficiency", float(a2.max())),
                    ("efficiency", float(rng.uniform(1.0 / d, a2.max()))),
                    ("fixedprob", float(rng.uniform(0.05, 1.0))), ("fixedprob", 1.0)]
            for mode, ref in refs:
                if mode == "efficiency":
                    level = wl.efficiency_level(a2, ref)
                    brute = _efficiency_crop_optimum(a2, ref)
                else:
                    level = wl.fixed_level(a2, ref)
                    brute = _fixed_crop_optimum(a2, ref)
                x = np.minimum(a2, level)
                if np.max(np.abs(x - brute)) > 1e-12:
                    problems.append(f"D={d} {mode} {ref!r}: bisection {x} != brute force {brute}")
                    continue
                n_opt = int(np.count_nonzero(a2 > level))
                out = _outcome(a2, brute, mode, ref, n_opt, level if n_opt else float(a2.max()))
                bad = wl.check_outcome(a2, mode, ref, out)
                if bad:
                    problems.append(f"D={d} {mode} {ref!r}: sound outcome flagged: {bad}")
                for label, corrupt in _corruptions(a2, out):
                    if not wl.check_outcome(a2, mode, ref, corrupt):
                        problems.append(f"D={d} {mode} {ref!r}: {label} not flagged")
    return problems


if __name__ == "__main__":
    found = run_selftest()
    for line in found:
        print(line)
    print("checker self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
