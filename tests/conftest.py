"""Shared test helpers: random small instances and exhaustive ground truth."""

from __future__ import annotations

import random
from typing import Iterator

from lotsizing import DomainStore, Instance, make_instance, validate_and_normalize
from lotsizing.domains import iv_values


def rand_instance(
    rng: random.Random,
    max_T: int = 5,
    max_d: int = 6,
    max_cap: int = 8,
    with_lower_bounds: bool = True,
) -> Instance:
    T = rng.randint(1, max_T)
    d = [rng.randint(0, max_d) for _ in range(T)]
    p = [rng.randint(0, 4) for _ in range(T)]
    h = [rng.randint(0, 3) for _ in range(T)]
    s = [rng.randint(0, 9) for _ in range(T)]
    alpha_hi = [rng.randint(0, max_cap) for _ in range(T)]
    beta_hi = [rng.randint(0, max_cap) for _ in range(T)]
    if with_lower_bounds and rng.random() < 0.5:
        alpha_lo = [rng.randint(0, a) if rng.random() < 0.3 else 0 for a in alpha_hi]
        beta_lo = [rng.randint(0, b) if rng.random() < 0.3 else 0 for b in beta_hi]
    else:
        alpha_lo = [0] * T
        beta_lo = [0] * T
    return make_instance(d, p, h, s, alpha_lo, alpha_hi, beta_lo, beta_hi)


def rand_normalized(rng: random.Random, **kw) -> Instance:
    return validate_and_normalize(rand_instance(rng, **kw))


def store_plans(inst: Instance, store: DomainStore) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """All (x, i, y) assignments inside the store's current domains that
    satisfy flow balance and the setup link. Exhaustive, solver-free."""
    if store.failed:
        return
    T = inst.T
    xs: list[int] = []
    invs: list[int] = []

    def rec(t: int, inv: int):
        if t == T:
            yield from emit()
            return
        for x in iv_values(store.intervals(("X", t))):
            nxt = inv + x - inst.d[t]
            if store.min(("I", t)) <= nxt <= store.max(("I", t)) and store.contains(("I", t), nxt):
                xs.append(x)
                invs.append(nxt)
                yield from rec(t + 1, nxt)
                xs.pop()
                invs.pop()

    def emit():
        y_options = []
        for t in range(T):
            opts = [y for y in iv_values(store.intervals(("Y", t))) if not (xs[t] > 0 and y == 0)]
            if not opts:
                return
            y_options.append(opts)

        def yrec(t: int, ys: list[int]):
            if t == T:
                yield list(xs), list(invs), list(ys)
                return
            for y in y_options[t]:
                ys.append(y)
                yield from yrec(t + 1, ys)
                ys.pop()

        yield from yrec(0, [])

    yield from rec(0, 0)


def plan_costs(inst: Instance, x, i, y) -> tuple[int, int, int, int]:
    cp = sum(inst.p[t] * x[t] for t in range(inst.T))
    ch = sum(inst.h[t] * i[t] for t in range(inst.T))
    cs = sum(inst.s[t] for t in range(inst.T) if y[t])
    return cp, ch, cs, cp + ch + cs


def state_budget(view) -> int:
    """Transition-count proxy (periods x (max states + 1)^2) of a DP cost
    view: the reference for the window-size test that ``wisp`` computes for
    all windows at once (``wisp._last_exact_ends`` against
    ``wisp._WINDOW_BUDGET``)."""
    top = max(view.row_cap)
    return (view.v - view.u + 1) * (top + 1) * (top + 1)
