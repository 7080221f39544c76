"""Depth-first branch-and-bound over the setup variables.

Each node runs the global-constraint propagator (and the Q/R sequence
propagator when posted) to a joint fixpoint; once every setup variable is
fixed the propagator completes the plan exactly through the path-network
flow, and a flow plan that lands in a production hole is closed by the
DP's plan offer, so branching is normally restricted to the Y's; the search
splits a production domain only when neither settles the node. Value order
tries "no setup" first; variable order is lexicographic or
peak-demand-first. Incumbents come from completions and
from the argmin plans of the whole-horizon DP, which the search accepts only
when ``verify`` does; a node whose lower bound an accepted plan meets is
closed. With a user-supplied cost upper bound known to be optimal, the first
completed or closing solution is returned.

The module also houses an independent exhaustive oracle (plain enumeration
over production vectors, inventories by flow balance) and a from-scratch
solution verifier; both share only the instance data with the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .domains import DomainStore, Status, iv_intersect, iv_normalize, iv_values
from .instance import Instance, validate_and_normalize
# bc_feasibility and complete_when_setups_fixed stay names of this module:
# perfbench/layertrace.py wraps them here by name.
from .propagator import (
    LotSizingConstraint,
    PropagateResult,
    bc_feasibility,  # noqa: F401
    complete_when_setups_fixed,  # noqa: F401
)
from .side_constraints import SideSpecs, apply_disjunctions, post_qr, qr_satisfied
from .solution import Solution


BRANCHINGS = ("lex", "peak")


@dataclass
class SearchConfig:
    ub: int | None = None  # known cost upper bound; None = discover the optimum
    branching: str = "lex"  # lex | peak
    time_limit: float | None = None
    node_limit: int | None = None
    filter_mode: str = "auto"  # auto | wisp (propagator.FILTER_MODES)


@dataclass
class SearchStats:
    nodes: int = 0
    backtracks: int = 0
    prunes: int = 0
    cpu_s: float = 0.0
    root_lb: int | None = None
    best_cost: int | None = None
    status: str = "INFEASIBLE"
    # Why the search stopped: node_limit | time_limit | bound_met (a plan
    # within the given bound) | exhausted (the whole tree was searched).
    stop_reason: str = "exhausted"

    def root_gap(self) -> float | None:
        """(optimum - root bound) / optimum, the root-node gap."""
        if self.best_cost in (None, 0) or self.root_lb is None:
            return None
        return (self.best_cost - self.root_lb) / self.best_cost


class _Stop(Exception):
    def __init__(self, status: str, reason: str):
        self.status = status
        self.reason = reason


def build_model(
    inst: Instance, side: SideSpecs | None, config: SearchConfig
) -> tuple[DomainStore, LotSizingConstraint, object | None, bool]:
    """Store + propagators for one solve; returns (store, ls, seq, root_ok)."""
    store = DomainStore.for_instance(inst)
    root_ok = True
    seq = None
    if side is not None and side.disjunction is not None:
        if apply_disjunctions(store, side.disjunction) is Status.FAILED:
            root_ok = False
    if side is not None and side.qr is not None:
        seq = post_qr(inst.T, side.qr.Q, side.qr.R)
        seq.install(store)
    ls = LotSizingConstraint(inst, store, config.filter_mode)
    return store, ls, seq, root_ok


def _propagate_all(store, ls, seq, side) -> tuple[PropagateResult, Solution | None]:
    while True:
        before = store.mod_count
        if seq is not None:
            if seq.propagate(store) is Status.FAILED:
                return PropagateResult.FAILED, None
        res, sol = ls.propagate()
        if res is PropagateResult.FAILED:
            return res, None
        if res is PropagateResult.CLOSED:
            return res, sol
        if res is PropagateResult.COMPLETED:
            if side is not None and side.qr is not None and not qr_satisfied(sol.y, side.qr.Q, side.qr.R):
                return PropagateResult.FAILED, None
            return res, sol
        if store.mod_count == before:
            return PropagateResult.FIXPOINT, None


def solve(
    inst: Instance,
    side: SideSpecs | None = None,
    config: SearchConfig | None = None,
) -> tuple[Solution | None, SearchStats]:
    """Exact search; returns the optimum (or None) and run statistics."""
    config = config or SearchConfig()
    if validate_and_normalize(inst).T != inst.T:
        raise ValueError("instance must be normalized first (validate_and_normalize)")
    if config.branching not in BRANCHINGS:
        raise ValueError(f"unknown branching {config.branching!r}; known: {', '.join(BRANCHINGS)}")
    stats = SearchStats()
    start = time.perf_counter()
    store, ls, seq, root_ok = build_model(inst, side, config)
    if not root_ok:
        stats.nodes = 1
        stats.cpu_s = time.perf_counter() - start
        return None, stats
    if config.ub is not None:
        if store.set_max(("C", 0), config.ub) is Status.FAILED:
            stats.nodes = 1
            stats.cpu_s = time.perf_counter() - start
            return None, stats

    best: list[Solution | None] = [None]

    def offer(plan: Solution) -> bool:
        """Gate a DP plan (the DP knows no Q/R); keep a valid one if cheaper."""
        if not verify(inst, side, plan)[0]:
            return False
        if best[0] is None or plan.c < best[0].c:
            best[0] = plan
        return True

    ls.offer = offer

    order = list(range(inst.T))
    if config.branching == "peak":
        order.sort(key=lambda t: (-inst.d[t], t))

    at_root = [True]

    def node() -> None:
        stats.nodes += 1
        if config.time_limit is not None and time.perf_counter() - start > config.time_limit:
            raise _Stop("TIMEOUT", "time_limit")
        if config.node_limit is not None and stats.nodes > config.node_limit:
            raise _Stop("TIMEOUT", "node_limit")
        if best[0] is not None and config.ub is None:
            if store.set_max(("C", 0), best[0].c - 1) is Status.FAILED:
                stats.prunes += 1
                return
        res, sol = _propagate_all(store, ls, seq, side)
        if at_root[0]:
            at_root[0] = False
            if res is not PropagateResult.FAILED:
                stats.root_lb = sol.c if sol is not None else store.min(("C", 0))
        if res is PropagateResult.FAILED:
            stats.backtracks += 1
            return
        if res in (PropagateResult.CLOSED, PropagateResult.COMPLETED):
            # Nothing in this subtree is cheaper. A CLOSED plan is already
            # the incumbent (the offer kept it), so the update is a no-op.
            if best[0] is None or sol.c < best[0].c:
                best[0] = sol
            if config.ub is not None:
                raise _Stop("OPT", "bound_met")
            return
        t = next((v for v in order if not store.is_fixed(("Y", v))), None)
        if t is not None:
            for val in (0, 1):
                store.push_level()
                st = store.assign(("Y", t), val)
                if st is not Status.FAILED:
                    node()
                else:
                    stats.backtracks += 1
                store.pop_level()
            return
        # All setups fixed but the node neither completed nor closed (a flow
        # plan in a production hole with a DP table over the state cap, or a
        # DP plan the offer declines): split a production domain by halves,
        # so the recursion is as deep as the domain's bit length.
        tx = next((v for v in range(inst.T) if not store.is_fixed(("X", v))), None)
        if tx is None:
            return
        mid = (store.min(("X", tx)) + store.max(("X", tx))) // 2
        for kind, value in (("set_max", mid), ("set_min", mid + 1)):
            store.push_level()
            st = store.tighten(("X", tx), kind, value)
            if st is not Status.FAILED:
                node()
            else:
                stats.backtracks += 1
            store.pop_level()

    status = "DONE"
    try:
        node()
    except _Stop as stop:
        status = stop.status
        stats.stop_reason = stop.reason

    stats.cpu_s = time.perf_counter() - start
    stats.best_cost = best[0].c if best[0] is not None else None
    if status == "TIMEOUT":
        stats.status = "TIMEOUT"
    elif best[0] is not None:
        stats.status = "OPT"
    else:
        stats.status = "INFEASIBLE"
    return best[0], stats


# ---------------------------------------------------------------------------
# Independent oracle and verifier
# ---------------------------------------------------------------------------


def _allowed_x_values(inst: Instance, side: SideSpecs | None, t: int) -> list[int]:
    base = ((inst.alpha_lo[t], inst.alpha_hi[t]),)
    if side is not None and side.disjunction is not None and t in side.disjunction.intervals:
        allowed = iv_normalize(tuple(side.disjunction.intervals[t]) + ((0, 0),))
        base = iv_intersect(base, allowed)
    return list(iv_values(base))


def enumerate_plans(
    inst: Instance,
    side: SideSpecs | None = None,
    include_idle_setups: bool = False,
) -> Iterator[Solution]:
    """Every feasible plan, by brute force; deliberately solver-free.

    Production vectors are enumerated value by value with inventories from
    flow balance; end inventory must be zero (instances are normalized).
    With ``include_idle_setups`` each plan is also emitted with every subset
    of zero-production periods paying an idle setup, which the Q/R rules may
    require and the constraint semantics allow.
    """
    T = inst.T
    allowed = [_allowed_x_values(inst, side, t) for t in range(T)]
    qr = side.qr if side is not None else None

    def leaves(y_base: list[int], xs: list[int]) -> Iterator[Solution]:
        idle = [t for t in range(T) if y_base[t] == 0]
        if not include_idle_setups or not idle:
            choices = [y_base]
        else:
            choices = []
            for bits in range(1 << len(idle)):
                y = list(y_base)
                for pos, t in enumerate(idle):
                    if bits >> pos & 1:
                        y[t] = 1
                choices.append(y)
        for y in choices:
            if qr is not None and not qr_satisfied(y, qr.Q, qr.R):
                continue
            yield Solution.from_plan(inst, xs, y)

    xs: list[int] = []

    def rec(t: int, inv: int) -> Iterator[Solution]:
        if t == T:
            yield from leaves([1 if x > 0 else 0 for x in xs], xs)
            return
        for x in allowed[t]:
            nxt = inv + x - inst.d[t]
            if nxt < inst.beta_lo[t] or nxt > inst.beta_hi[t]:
                continue
            if t == T - 1 and nxt != 0:
                continue
            xs.append(x)
            yield from rec(t + 1, nxt)
            xs.pop()

    yield from rec(0, 0)


def brute_force_oracle(
    inst: Instance,
    side: SideSpecs | None = None,
    cost_caps: tuple[int, int, int, int] | None = None,
    size_cap: int = 10**8,
) -> Solution | None:
    """Exhaustive optimum (or None when infeasible). Refuses huge spaces."""
    est = 1
    for t in range(inst.T):
        est *= max(len(_allowed_x_values(inst, side, t)), 1)
        if est > size_cap:
            raise ValueError(f"search space above {size_cap}; oracle refused")
    include_idle = side is not None and side.qr is not None
    best: Solution | None = None
    for sol in enumerate_plans(inst, side, include_idle_setups=include_idle):
        if cost_caps is not None:
            cp, ch, cs, c = cost_caps
            if sol.cp > cp or sol.ch > ch or sol.cs > cs or sol.c > c:
                continue
        if best is None or sol.c < best.c:
            best = sol
    return best


def verify(inst: Instance, side: SideSpecs | None, sol: Solution) -> tuple[bool, str | None]:
    """Recheck a solution from scratch; returns (valid, reason-if-not). A
    disjunction for a period past the horizon is a ValueError, as in
    ``solve``."""
    T = inst.T
    if side is not None and side.disjunction is not None:
        side.disjunction.check_horizon(T)
    if len(sol.x) != T or len(sol.i) != T or len(sol.y) != T:
        return False, "vector length mismatch"
    inv = 0
    for t in range(T):
        x, i, y = sol.x[t], sol.i[t], sol.y[t]
        if y not in (0, 1):
            return False, f"Y at t={t + 1} not binary"
        if not (inst.alpha_lo[t] <= x <= inst.alpha_hi[t]):
            return False, f"production bounds violated at t={t + 1}"
        if side is not None and side.disjunction is not None and t in side.disjunction.intervals:
            allowed = iv_normalize(tuple(side.disjunction.intervals[t]) + ((0, 0),))
            if not any(lo <= x <= hi for lo, hi in allowed):
                return False, f"disjunction violated at t={t + 1}"
        if x > inst.alpha_hi[t] * y:
            return False, f"setup link violated at t={t + 1}"
        inv = inv + x - inst.d[t]
        if inv != i:
            return False, f"flow balance at t={t + 1}"
        if not (inst.beta_lo[t] <= i <= inst.beta_hi[t]):
            return False, f"inventory bounds violated at t={t + 1}"
    if inv != 0:
        return False, "nonzero end inventory"
    if side is not None and side.qr is not None and not qr_satisfied(sol.y, side.qr.Q, side.qr.R):
        return False, "Q/R gap constraint violated"
    cp = sum(inst.p[t] * sol.x[t] for t in range(T))
    ch = sum(inst.h[t] * sol.i[t] for t in range(T))
    cs = sum(inst.s[t] for t in range(T) if sol.y[t])
    if (cp, ch, cs, cp + ch + cs) != (sol.cp, sol.ch, sol.cs, sol.c):
        return False, "cost mismatch"
    return True, None
