"""Time-decomposition lower bound via weighted interval scheduling.

Every pair of periods u < v defines a sub-problem: the original instance with
demands and setup costs zeroed outside u..v. Its optimum lower-bounds the
cost any plan pays to serve the demands of u..v, and sums of such bounds over
pairwise disjoint windows lower-bound the total cost. Picking the best
disjoint combination is weighted interval scheduling (Kleinberg & Tardos),
which over the windows of a path is one recurrence over period boundaries:
the best combination inside periods 0..b-1 either leaves period b-1 out or
ends a window there (``dpwisp``), O(T^2) in all.

Per-window bounds come from the windowed DP when the window's table fits
the one sizing rule, ``dp.table_fits``, and from the flow relaxation
otherwise. Both take one pass per start period u: one forward table gives
the exact bounds of all windows (u, v) that fit (``_window_bounder``), and
one greedy pass over the path network (``flow.window_flow_bounds``) gives
the flow bounds of the rest.
Bounds are recomputed on every call; nothing is memoized across calls.
Every window of a decomposition, and every support window its filter
visits, reads one stripped instance: the snapshot of the domains that a
propagation pass takes once (``instance.strip_lower_bounds``).
The same recurrence run from either end bounds the cost spent strictly
before or after a window; these offsets let the windowed DP tables filter
domains against the global cost bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainStore, Status, merge
from .dp import _build_forward, filter_with_dp, make_cost_view, table_fits, window_tables
from .flow import pre_stock, window_flow_bounds
from .instance import StrippedInstance

DP_EXACT = "DP_EXACT"
FLOW_RELAX = "FLOW_RELAX"


@dataclass
class SubProblem:
    """Window [u, v] (0-based periods, u < v) with its bound and the kind of
    bound (``DP_EXACT`` or ``FLOW_RELAX``)."""

    u: int
    v: int
    w: float
    bound_kind: str = ""


INF_BOUND = math.inf


def _last_exact_ends(stripped: StrippedInstance) -> list[int]:
    """Per start u, the last end v whose window (u, v) gets the exact DP:
    its table fits (``table_fits``), so the exact windows of a start are
    u..v*(u); v*(u) = u - 1 when there is none. A window's state count grows
    with v and falls as u grows, so v*(u) never decreases and one pass of
    two pointers finds every start's end."""
    T = stripped.T
    ends, v = [], -1
    for u in range(T):
        v = max(v, u - 1)
        while v + 1 < T and table_fits(stripped, (u, v + 1)):
            v += 1
        ends.append(v)
    return ends


def _window_bounder(stripped: StrippedInstance, cs_mode: bool):
    """``bounds(u) -> [(w, kind) for v = u+1..T-1]`` under the domains of
    ``stripped``.

    Windows whose table fits (``_last_exact_ends``) get the exact windowed
    DP (pre-stock seeded, zero end inventory): one forward table per start u on
    the relaxed view of (u, min(v*, T-2)) gives them all, since the rows of a
    shorter window are the low states of a longer one's, so f(v+1, 0) is the
    optimum of window (u, v). The suffix window (u, T-1) honors domain holes
    and gets its own table. Entry q of a pre-stock row does not depend on
    how many states it is cut to, so one row serves both tables. The other
    windows take the flow relaxation, read from the greedy pass of start u.
    Each bound includes the setups already sunk inside its window; it is inf
    when even the relaxation is infeasible, which means the whole problem is.
    """
    T = stripped.T
    last_exact = _last_exact_ends(stripped)
    flow_pass = window_flow_bounds(stripped, cs_mode)
    prestock = pre_stock(stripped, cs_mode)

    def bounds(u: int) -> list[tuple[float, str]]:
        out = []
        end = last_exact[u]
        sweep_end = min(end, T - 2)
        sweep = make_cost_view(stripped, (u, sweep_end), cs_mode) if sweep_end > u else None
        suffix = make_cost_view(stripped, (u, T - 1), cs_mode) if end == T - 1 else None
        caps = [view.cap(u) for view in (sweep, suffix) if view is not None]
        row = prestock(u, max(caps)) if caps else None
        if sweep is not None:
            rows = _build_forward(sweep, row).rows
            paid = stripped.sunk[u]
            for v in range(u + 1, sweep_end + 1):
                paid += stripped.sunk[v]
                opt = float(rows[v + 1 - u][0])
                out.append((INF_BOUND if math.isinf(opt) else opt + paid, DP_EXACT))
        if suffix is not None:
            opt = _build_forward(suffix, row).optimum()
            out.append((INF_BOUND if math.isinf(opt) else opt + suffix.sunk, DP_EXACT))
        if end < T - 1:
            flow = flow_pass(u)
            out.extend((flow[v], FLOW_RELAX) for v in range(max(end, u) + 1, T))
        return out

    return bounds


@dataclass
class WispDecomposition:
    """The bounded windows, the scheduling tables and the support.

    ``best[b]`` is the best disjoint combination of windows inside periods
    0..b-1, ``rbest[b]`` inside periods b..T-1, and ``support`` the (u, v)
    windows of a best combination over the horizon, in period order.
    """

    T: int
    subproblems: list[SubProblem]
    best: list[float]
    rbest: list[float]
    support: list[tuple[int, int]]

    @property
    def value(self) -> float:
        return self.best[self.T]

    def lb_before(self, b: int) -> float:
        """Best disjoint combination among windows fully inside periods 0..b-1."""
        return self.best[b]

    def lb_after(self, b: int) -> float:
        """Best disjoint combination among windows fully inside periods b..T-1."""
        return self.rbest[b] if b < self.T else 0.0


def dpwisp(subproblems: list[SubProblem], T: int) -> WispDecomposition:
    """Weighted interval scheduling over the windows, one boundary at a time.

    The best combination inside periods 0..b-1 leaves period b-1 out or ends
    a window (u, b-1) there: best[b] = max(best[b-1], max over u < b-1 of
    best[u] + w(u, b-1)). Mirrored, rbest[b] = max(rbest[b+1], max over
    v > b of w(b, v) + rbest[v+1]). The support is traced back from b = T:
    where best[b] beats best[b-1], it takes the window (u, b-1) of the
    smallest u whose sum attains best[b] and jumps to b = u; elsewhere it
    steps to b-1. A window that only ties with leaving its end out is never
    taken.
    """
    w = np.zeros((T, T))
    for sub in subproblems:
        w[sub.u, sub.v] = sub.w
    best = np.zeros(T + 1)
    for v in range(1, T):
        best[v + 1] = max(best[v], (best[:v] + w[:v, v]).max())
    rbest = np.zeros(T + 1)
    for u in range(T - 2, -1, -1):
        rbest[u] = max(rbest[u + 1], (w[u, u + 1 :] + rbest[u + 2 :]).max())

    support = []
    b = T
    while b > 1:
        if best[b] > best[b - 1]:
            u = int(np.flatnonzero(best[: b - 1] + w[: b - 1, b - 1] == best[b])[0])
            support.append((u, b - 1))
            b = u
        else:
            b -= 1
    support.reverse()
    return WispDecomposition(T=T, subproblems=subproblems, best=best.tolist(), rbest=rbest.tolist(), support=support)


def compute_decomposition(stripped: StrippedInstance, cs_mode: bool = False) -> WispDecomposition:
    """Bound every window, one start period at a time, and schedule them."""
    T = stripped.T
    bounds = _window_bounder(stripped, cs_mode)
    subs = [
        SubProblem(u, v, w, kind)
        for u in range(T - 1)
        for v, (w, kind) in enumerate(bounds(u), start=u + 1)
    ]
    return dpwisp(subs, T)


def wisp_support_filter(
    decomp: WispDecomposition,
    stripped: StrippedInstance,
    store: DomainStore,
    cost_ub: int,
    cs_mode: bool = False,
) -> Status:
    """Windowed DP filtering on every support window whose table fits
    (``table_fits``), the windows the decomposition bounds exactly.

    Every window reads the domains of ``stripped``, those the decomposition
    was built on, and writes ``store``. An earlier window may have narrowed
    the store since; tables on the wider domains keep a superset of the
    supported values, so each write stays sound.

    The cost spent outside the window is lower-bounded by the best disjoint
    combinations strictly before and after it, taken from the scheduling
    tables; the window's own tables then filter against
    cost_ub - before - after.
    """
    status = Status.UNCHANGED
    for u, v in decomp.support:
        if not table_fits(stripped, (u, v)):
            continue
        fwd, bwd = window_tables(stripped, (u, v), cs_mode=cs_mode)
        before = int(decomp.lb_before(u))
        after = int(decomp.lb_after(v + 1))
        st = filter_with_dp(fwd, bwd, store, stripped, cost_ub - before - after)
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)
    return status
