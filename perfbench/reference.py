"""Independent reference optima from HiGHS (``scipy.optimize.milp``).

The model is the aggregated lot-sizing MILP written from the problem
statement, not from the solver: per period a production X_t, an end
inventory I_t and a setup binary Y_t; flow balance I_{t-1} + X_t - I_t =
d_t with I_{-1} = 0 and I_{T-1} = 0; setup link X_t <= alpha_hi_t Y_t.
A disjunctive period gets one binary per allowed interval [lo_k, hi_k]:
sum_k Z_tk <= 1, sum_k lo_k Z_tk <= X_t <= sum_k hi_k Z_tk (all Z_tk = 0
forces X_t = 0). Q/R adds, for every full window, at most one setup in
Q+1 consecutive periods and at least one in R+1 consecutive periods.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np


def build_milp(inst, side):
    """Return (c, integrality, lower, upper, A, lo, hi) of the MILP."""
    T = inst.T
    disj = side.disjunction.intervals if side is not None and side.disjunction is not None else {}
    qr = side.qr if side is not None else None
    # Column layout: X_0..X_{T-1}, I_0..I_{T-1}, Y_0..Y_{T-1}, then Z's.
    X, I, Y = 0, T, 2 * T
    z_cols: dict[int, list[tuple[int, int, int]]] = {}
    ncols = 3 * T
    for t in sorted(disj):
        cols = []
        for lo, hi in disj[t]:
            lo, hi = max(lo, inst.alpha_lo[t]), min(hi, inst.alpha_hi[t])
            if lo <= hi:
                cols.append((ncols, lo, hi))
                ncols += 1
        z_cols[t] = cols
    c = np.zeros(ncols)
    lower = np.zeros(ncols)
    upper = np.ones(ncols)
    integrality = np.zeros(ncols)
    for t in range(T):
        c[X + t], c[I + t], c[Y + t] = inst.p[t], inst.h[t], inst.s[t]
        lower[X + t], upper[X + t] = inst.alpha_lo[t], inst.alpha_hi[t]
        lower[I + t], upper[I + t] = inst.beta_lo[t], inst.beta_hi[t]
        integrality[Y + t] = 1
    upper[I + T - 1] = min(upper[I + T - 1], 0)
    for cols in z_cols.values():
        for col, _, _ in cols:
            integrality[col] = 1

    rows, rlo, rhi = [], [], []

    def row(coefs: dict[int, float], lo: float, hi: float) -> None:
        r = np.zeros(ncols)
        for col, v in coefs.items():
            r[col] += v
        rows.append(r)
        rlo.append(lo)
        rhi.append(hi)

    for t in range(T):
        bal = {X + t: 1.0, I + t: -1.0}
        if t > 0:
            bal[I + t - 1] = 1.0
        row(bal, inst.d[t], inst.d[t])
        row({X + t: 1.0, Y + t: -float(inst.alpha_hi[t])}, -np.inf, 0.0)
    for t, cols in z_cols.items():
        row({col: 1.0 for col, _, _ in cols}, -np.inf, 1.0)
        up = {X + t: 1.0}
        low = {X + t: 1.0}
        for col, lo, hi in cols:
            up[col] = -float(hi)
            low[col] = -float(lo)
        row(up, -np.inf, 0.0)
        row(low, 0.0, np.inf)
    if qr is not None:
        for a in range(T - (qr.Q + 1) + 1):
            row({Y + b: 1.0 for b in range(a, a + qr.Q + 1)}, -np.inf, 1.0)
        for a in range(T - (qr.R + 1) + 1):
            row({Y + b: 1.0 for b in range(a, a + qr.R + 1)}, 1.0, np.inf)
    return c, integrality, lower, upper, np.array(rows), np.array(rlo), np.array(rhi)


def highs_optimum(inst, side, time_limit: float = 600.0):
    """Proven optimum as an int, None if infeasible; raises if unresolved."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, integrality, lower, upper, A, lo, hi = build_milp(inst, side)
    res = milp(
        c,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        constraints=LinearConstraint(A, lo, hi),
        options={"mip_rel_gap": 0.0, "time_limit": time_limit},
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: {res.message}")
    value = round(res.fun)
    if abs(res.fun - value) > 1e-6 * max(1.0, abs(value)) or res.mip_dual_bound < value - 1 + 1e-6:
        raise RuntimeError(f"HiGHS optimum {res.fun} (dual bound {res.mip_dual_bound}) is not a proven integer")
    return value


def _compute(cls: str, seed: int) -> int | None:
    from problems import make_problem

    problem = make_problem(cls, seed)
    return highs_optimum(problem.inst, problem.side)


def main(argv=None) -> int:
    from workloads import REFERENCE_FILE, REFERENCED_SEEDS, WORKLOADS, load_references

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="solve every workload class and write references.json")
    mode.add_argument("--check", action="store_true", help="re-solve every stored entry and compare")
    args = ap.parse_args(argv)

    if args.check:
        bad = 0
        for cls, seeds in load_references().items():
            for seed, stored in seeds.items():
                t0 = time.perf_counter()
                got = _compute(cls, seed)
                bad += got != stored
                verdict = "ok" if got == stored else "MISMATCH"
                print(f"{cls:<9} {seed:>3} stored={stored} highs={got} {time.perf_counter() - t0:.1f}s {verdict}", flush=True)
        print(f"{bad} mismatches")
        return 1 if bad else 0

    # Per class, instance seeds 1, 2, ... until REFERENCED_SEEDS are feasible;
    # infeasible ones are stored as null and never drawn by a run.
    optima: dict[str, dict[str, int | None]] = {}
    for cls in sorted({c for w in WORKLOADS.values() for c in w.classes}):
        optima[cls] = {}
        seed = feasible = 0
        while feasible < REFERENCED_SEEDS:
            seed += 1
            t0 = time.perf_counter()
            value = _compute(cls, seed)
            optima[cls][str(seed)] = value
            feasible += value is not None
            print(f"{cls:<9} {seed:>3} {value} {time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
    doc = {"solver": "HiGHS via scipy.optimize.milp, mip_rel_gap=0", "optima": optima}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    # The script's own directory is on sys.path already; the solver is not.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
