"""Plan checker written from the problem statement; shares no code with the
solver's own verifier. Returns a list of violations, empty for a valid plan."""

from __future__ import annotations


def check_plan(inst, side, sol) -> list[str]:
    T = inst.T
    errors = []
    if not (len(sol.x) == len(sol.i) == len(sol.y) == T):
        return [f"plan vectors have lengths {len(sol.x)}/{len(sol.i)}/{len(sol.y)}, horizon is {T}"]
    disj = side.disjunction.intervals if side is not None and side.disjunction is not None else {}
    stock = 0
    for t in range(T):
        x, i, y = sol.x[t], sol.i[t], sol.y[t]
        stock += x - inst.d[t]
        if i != stock:
            errors.append(f"t={t}: inventory {i}, flow balance gives {stock}")
        if not inst.alpha_lo[t] <= x <= inst.alpha_hi[t]:
            errors.append(f"t={t}: production {x} outside [{inst.alpha_lo[t]}, {inst.alpha_hi[t]}]")
        if not inst.beta_lo[t] <= i <= inst.beta_hi[t]:
            errors.append(f"t={t}: inventory {i} outside [{inst.beta_lo[t]}, {inst.beta_hi[t]}]")
        if y not in (0, 1):
            errors.append(f"t={t}: setup {y} is not binary")
        elif x > 0 and y == 0:
            errors.append(f"t={t}: production {x} without a setup")
        if t in disj and x != 0 and not any(lo <= x <= hi for lo, hi in disj[t]):
            errors.append(f"t={t}: production {x} outside the allowed levels {disj[t]}")
    if T and sol.i[-1] != 0:
        errors.append(f"final inventory {sol.i[-1]} is not zero")
    qr = side.qr if side is not None else None
    if qr is not None:
        for a in range(T - qr.Q):
            if sum(sol.y[a : a + qr.Q + 1]) > 1:
                errors.append(f"two setups within {qr.Q + 1} periods from t={a}")
        for a in range(T - qr.R):
            if sum(sol.y[a : a + qr.R + 1]) < 1:
                errors.append(f"no setup within {qr.R + 1} periods from t={a}")
    cp = sum(p * x for p, x in zip(inst.p, sol.x))
    ch = sum(h * i for h, i in zip(inst.h, sol.i))
    cs = sum(s for s, y in zip(inst.s, sol.y) if y)
    if (sol.cp, sol.ch, sol.cs, sol.c) != (cp, ch, cs, cp + ch + cs):
        errors.append(f"reported costs {(sol.cp, sol.ch, sol.cs, sol.c)}, recomputed {(cp, ch, cs, cp + ch + cs)}")
    return errors
