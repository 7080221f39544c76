"""Time-decomposition lower bound via weighted interval scheduling.

Every pair of periods u < v defines a sub-problem: the original instance with
demands and setup costs zeroed outside u..v. Its optimum lower-bounds the
cost any plan pays to serve the demands of u..v, and sums of such bounds over
pairwise disjoint windows lower-bound the total cost. Picking the best
disjoint combination is weighted interval scheduling over the n = T(T-1)/2
windows, which arrive pre-sorted (by end period, then start period), so the
DP is linear in n.

Per-window bounds come from the windowed DP when the state space fits the
budget and from the flow relaxation otherwise. The flow bounds of all
windows that start at period u come from one greedy pass over the path
network (``flow.window_flow_bounds``), run the first time a window of that
start needs one. Prefix/suffix variants of the scheduling DP give lower
bounds on the cost spent strictly before or after a window; these offsets
let the windowed DP tables filter domains against the global cost bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import DomainStore, Status, merge
from .dp import _build_forward, filter_with_dp, make_cost_view, state_budget, window_tables
from .flow import window_flow_bounds
from .instance import StrippedInstance

DP_EXACT = "DP_EXACT"
FLOW_RELAX = "FLOW_RELAX"

COST_C = "COST_C"
COST_CS = "COST_CS"


@dataclass
class SubProblem:
    """Window [u, v] (0-based periods) with its bound and scheduling links.

    ``index`` is the 1-based position in the canonical ordering (increasing
    end, then increasing start). ``prec`` is the largest smaller index whose
    window is disjoint (0 if none); ``succ`` the smallest larger disjoint
    index (n+1 if none).
    """

    index: int
    u: int
    v: int
    prec: int
    succ: int
    w: float | None = None
    bound_kind: str = ""


def subproblem_index(u1: int, v1: int) -> int:
    """1-based index of the window with 1-based endpoints u1 < v1."""
    return (v1 - 1) * (v1 - 2) // 2 + u1


def enumerate_subproblems(T: int) -> list[SubProblem]:
    if T < 2:
        return []
    n = T * (T - 1) // 2
    subs = []
    for v1 in range(2, T + 1):
        for u1 in range(1, v1):
            prec = (u1 - 1) * (u1 - 2) // 2
            succ = subproblem_index(v1 + 1, v1 + 2) if v1 + 2 <= T else n + 1
            subs.append(
                SubProblem(index=subproblem_index(u1, v1), u=u1 - 1, v=v1 - 1, prec=prec, succ=succ)
            )
    return subs


INF_BOUND = math.inf


def _window_state_budget(u: int, v: int, icap: list[int], dprefix: list[int]) -> int:
    top = 0
    total = dprefix[v + 1]
    for b in range(max(u, 1), v + 2):
        cap = min(icap[b - 1], total - dprefix[b])
        if cap > top:
            top = cap
    return (v - u + 1) * (top + 1) * (top + 1)


def _window_bounder(stripped: StrippedInstance, store: DomainStore, mode: str, dp_budget: int | None):
    """``bound(u, v) -> (w, kind)`` for the windows under current domains.

    Exact windowed DP (pre-stock seeded, zero end inventory) when the
    window's state budget fits, else the flow relaxation, read from the
    greedy pass of start u, which runs once on the first flow window of that
    start. Includes setups already sunk inside the window. The bound is inf
    when even the relaxation is infeasible, which means the whole problem is.
    """
    cs = mode == COST_CS
    T = stripped.T
    icap = [max(min(stripped.i_cap[t], store.max(("I", t)) - stripped.i_off[t]), 0) for t in range(T)]
    dprefix = [0] * (T + 1)
    for t in range(T):
        dprefix[t + 1] = dprefix[t] + stripped.d[t]
    flow_pass = window_flow_bounds(stripped, store, cs)
    passes: dict[int, list[float]] = {}

    def bound(u: int, v: int) -> tuple[float, str]:
        if dp_budget is None or _window_state_budget(u, v, icap, dprefix) <= dp_budget:
            view = make_cost_view(stripped, store, (u, v), cs_mode=cs)
            opt = _build_forward(view, stripped, store, None, None).optimum()
            return (INF_BOUND if math.isinf(opt) else opt + view.sunk), DP_EXACT
        if u not in passes:
            passes[u] = flow_pass(u)
        return passes[u][v], FLOW_RELAX

    return bound


def bound_subproblem(
    stripped: StrippedInstance,
    store: DomainStore,
    sub: SubProblem,
    mode: str = COST_C,
    dp_budget: int | None = None,
) -> tuple[float, str]:
    """Lower bound on the window's cost contribution under current domains."""
    return _window_bounder(stripped, store, mode, dp_budget)(sub.u, sub.v)


@dataclass
class WispDecomposition:
    """All sub-problems with bounds, the scheduling tables and the support."""

    T: int
    subproblems: list[SubProblem]
    wisp: list[float]
    wisp_r: list[float]
    support: list[int]

    @property
    def value(self) -> float:
        return self.wisp[-1]

    def lb_before(self, b: int) -> float:
        """Best disjoint combination among windows fully inside periods 0..b-1."""
        return self.wisp[b * (b - 1) // 2]

    def lb_after(self, b: int) -> float:
        """Best disjoint combination among windows fully inside periods b..T-1."""
        m = self.T - b
        return self.wisp_r[m * (m - 1) // 2] if m >= 0 else 0.0


def dpwisp(subproblems: list[SubProblem], T: int) -> WispDecomposition:
    """Forward and reverse scheduling DPs plus support extraction.

    Forward: wisp[i] = max(wisp[i-1], wisp[prec_i] + w_i). The reverse table
    runs over the mirror ordering (decreasing start, then decreasing end), in
    which the windows disjoint from and after a given one again form a
    prefix; its prefix of size (T-b)(T-b-1)/2 covers exactly the windows
    inside periods b..T-1.
    """
    n = len(subproblems)
    w = [0.0] * (n + 1)
    for sub in subproblems:
        if sub.w is None:
            raise ValueError(f"sub-problem {sub.index} has no bound")
        w[sub.index] = sub.w
    wisp = [0.0] * (n + 1)
    for i in range(1, n + 1):
        take = wisp[subproblems[i - 1].prec] + w[i]
        wisp[i] = max(wisp[i - 1], take)

    support = []
    i = n
    while i > 0:
        sub = subproblems[i - 1]
        if wisp[i] > wisp[i - 1]:
            support.append(i)
            i = sub.prec
        else:
            i -= 1
    support.reverse()

    rev = sorted(subproblems, key=lambda s: (-s.u, -s.v))
    wisp_r = [0.0] * (n + 1)
    for m in range(1, n + 1):
        sub = rev[m - 1]
        pred = (T - sub.v - 2) * (T - sub.v - 1) // 2
        wisp_r[m] = max(wisp_r[m - 1], w[sub.index] + wisp_r[pred])

    return WispDecomposition(T=T, subproblems=subproblems, wisp=wisp, wisp_r=wisp_r, support=support)


def compute_decomposition(
    stripped: StrippedInstance,
    store: DomainStore,
    mode: str = COST_C,
    dp_budget: int | None = None,
    bound_cache: dict | None = None,
    cache_key_fn=None,
) -> WispDecomposition:
    """Bound every sub-problem (optionally memoized) and run the DPs."""
    T = stripped.T
    subs = enumerate_subproblems(T)
    bound = _window_bounder(stripped, store, mode, dp_budget)
    for sub in subs:
        key = None
        if bound_cache is not None and cache_key_fn is not None:
            key = (sub.u, sub.v, mode, cache_key_fn(sub.v))
            hit = bound_cache.get(key)
            if hit is not None:
                sub.w, sub.bound_kind = hit
                continue
        sub.w, sub.bound_kind = bound(sub.u, sub.v)
        if key is not None:
            bound_cache[key] = (sub.w, sub.bound_kind)
    return dpwisp(subs, T)


def wisp_support_filter(
    decomp: WispDecomposition,
    stripped: StrippedInstance,
    store: DomainStore,
    cost_ub: int,
    mode: str = COST_C,
    dp_budget: int | None = None,
    hole_punch: bool = False,
) -> Status:
    """Windowed DP filtering on every support window whose DP fits.

    The cost spent outside the window is lower-bounded by the best disjoint
    combinations strictly before and after it, taken from the scheduling
    tables; the window's own tables then filter against
    cost_ub - before - after.
    """
    status = Status.UNCHANGED
    cs = mode == COST_CS
    for idx in decomp.support:
        sub = decomp.subproblems[idx - 1]
        view = make_cost_view(stripped, store, (sub.u, sub.v), cs_mode=cs)
        if dp_budget is not None and state_budget(view) > dp_budget:
            continue
        fwd, bwd = window_tables(stripped, store, (sub.u, sub.v), cs_mode=cs)
        before = decomp.lb_before(sub.u)
        after = decomp.lb_after(sub.v + 1)
        st = filter_with_dp(
            fwd,
            bwd,
            store,
            stripped,
            cost_ub,
            before=int(before),
            after=int(after),
            hole_punch=hole_punch,
        )
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)
    return status
