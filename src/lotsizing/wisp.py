"""Time-decomposition lower bound via weighted interval scheduling.

Every pair of periods u < v defines a sub-problem: the original instance with
demands and setup costs zeroed outside u..v. Its optimum lower-bounds the
cost any plan pays to serve the demands of u..v, and sums of such bounds over
pairwise disjoint windows lower-bound the total cost. Picking the best
disjoint combination is weighted interval scheduling over the n = T(T-1)/2
windows, which arrive pre-sorted (by end period, then start period), so the
DP is linear in n.

Per-window bounds come from the windowed DP when the window's state proxy
fits ``_WINDOW_BUDGET`` and from the flow relaxation otherwise. Both take one
pass per start period u: one forward table gives the exact bounds of all
windows (u, v) that fit (``_window_bounder``), and one greedy pass over the
path network (``flow.window_flow_bounds``) gives the flow bounds of the rest.
Bounds are recomputed on every call; nothing is memoized across calls.
Prefix/suffix variants of the scheduling DP give lower bounds on the cost
spent strictly before or after a window; these offsets let the windowed DP
tables filter domains against the global cost bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainStore, Status, merge
from .dp import _build_forward, filter_with_dp, make_cost_view, window_tables
from .flow import window_flow_bounds
from .instance import StrippedInstance

DP_EXACT = "DP_EXACT"
FLOW_RELAX = "FLOW_RELAX"

COST_C = "COST_C"
COST_CS = "COST_CS"

# Transition proxy (periods x (max states + 1)^2, ``_last_exact_ends``) up to
# which a window gets the exact DP. Read at call time: ``math.inf`` makes
# every window exact, 0 none.
_WINDOW_BUDGET = 20_000_000


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


@functools.lru_cache(maxsize=8)
def _layout(T: int) -> tuple[tuple[tuple[int, int, int, int, int], ...], tuple[tuple[int, int], ...]]:
    """The windows of horizon T in canonical order as (index, u, v, prec,
    succ) rows, and the mirror order of the reverse scheduling DP as
    (index, pred) pairs. Immutable, so one copy serves every call."""
    n = T * (T - 1) // 2
    rows = tuple(
        (
            subproblem_index(u1, v1),
            u1 - 1,
            v1 - 1,
            (u1 - 1) * (u1 - 2) // 2,
            subproblem_index(v1 + 1, v1 + 2) if v1 + 2 <= T else n + 1,
        )
        for v1 in range(2, T + 1)
        for u1 in range(1, v1)
    )
    mirror = tuple(
        (subproblem_index(u + 1, v + 1), (T - v - 2) * (T - v - 1) // 2)
        for u in range(T - 2, -1, -1)
        for v in range(T - 1, u, -1)
    )
    return rows, mirror


def enumerate_subproblems(T: int) -> list[SubProblem]:
    """Fresh, unbounded sub-problems of horizon T in canonical order."""
    if T < 2:
        return []
    return [SubProblem(*row) for row in _layout(T)[0]]


INF_BOUND = math.inf


def _last_exact_ends(stripped: StrippedInstance, store: DomainStore) -> list[int]:
    """Per start u, the last end v whose window (u, v) gets the exact DP.

    The state proxy of a window is (v - u + 1) * (top + 1)^2, with top the
    largest state cap min(I cap, in-window demand after the boundary) over
    its boundaries max(u, 1)..v+1. It grows with v, so the exact windows of
    a start are u..v*(u); v*(u) = u - 1 when there is none.
    """
    T = stripped.T
    dprefix = np.concatenate(([0], np.cumsum(stripped.d, dtype=np.int64)))
    total = int(dprefix[-1])
    icap = np.array(
        [min(max(min(stripped.i_cap[t], store.max(("I", t)) - stripped.i_off[t]), 0), total) for t in range(T)],
        dtype=np.int64,
    )
    # caps[v, b - 1]: cap of boundary b = 1..T in windows ending at v. Caps of
    # boundaries past v + 1 are <= 0 and never raise the maximum.
    caps = np.minimum(icap[None, :], dprefix[1:, None] - dprefix[None, 1:])
    top = np.maximum(np.maximum.accumulate(caps[:, ::-1], axis=1)[:, ::-1], 0)
    starts = np.arange(T)
    top_uv = top[:, np.maximum(starts, 1) - 1].T  # [u, v]: boundaries max(u, 1)..
    span = starts[None, :] - starts[:, None] + 1  # [u, v]: v - u + 1
    fits = (span >= 1) & (span * (top_uv + 1.0) ** 2 <= _WINDOW_BUDGET)  # float: no overflow
    return (starts - 1 + fits.sum(axis=1)).tolist()


def _window_bounder(stripped: StrippedInstance, store: DomainStore, mode: str):
    """``bounds(u, v_last) -> [(w, kind) for v = u..v_last]`` under current domains.

    Windows whose state proxy fits ``_WINDOW_BUDGET`` get the exact windowed DP
    (pre-stock seeded, zero end inventory): one forward table per start u on
    the relaxed view of (u, min(v*, T-2)) gives them all, since the rows of a
    shorter window are the low states of a longer one's, so f(v+1, 0) is the
    optimum of window (u, v). The suffix window (u, T-1) honors domain holes
    and gets its own table. The other windows take the flow relaxation, read
    from the greedy pass of start u. Each bound includes the setups already
    sunk inside its window; it is inf when even the relaxation is
    infeasible, which means the whole problem is.
    """
    cs = mode == COST_CS
    T = stripped.T
    last_exact = _last_exact_ends(stripped, store)
    sunk = [stripped.s[t] if store.min(("Y", t)) == 1 else 0 for t in range(T)]
    flow_pass = window_flow_bounds(stripped, store, cs)

    def bounds(u: int, v_last: int) -> list[tuple[float, str]]:
        out = []
        end = min(last_exact[u], v_last)
        sweep_end = min(end, T - 2)
        if sweep_end >= u:
            view = make_cost_view(stripped, store, (u, sweep_end), cs_mode=cs)
            rows = _build_forward(view, stripped, store).rows
            paid = 0
            for v in range(u, sweep_end + 1):
                paid += sunk[v]
                opt = float(rows[v + 1 - u][0])
                out.append((INF_BOUND if math.isinf(opt) else opt + paid, DP_EXACT))
        if end == T - 1:
            view = make_cost_view(stripped, store, (u, T - 1), cs_mode=cs)
            opt = _build_forward(view, stripped, store).optimum()
            out.append((INF_BOUND if math.isinf(opt) else opt + view.sunk, DP_EXACT))
        if v_last > end:
            flow = flow_pass(u)
            out.extend((flow[v], FLOW_RELAX) for v in range(end + 1, v_last + 1))
        return out

    return bounds


def bound_subproblem(
    stripped: StrippedInstance,
    store: DomainStore,
    sub: SubProblem,
    mode: str = COST_C,
) -> tuple[float, str]:
    """Lower bound on the window's cost contribution under current domains."""
    return _window_bounder(stripped, store, mode)(sub.u, sub.v)[-1]


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

    wisp_r = [0.0] * (n + 1)
    for m, (index, pred) in enumerate(_layout(T)[1], start=1):
        wisp_r[m] = max(wisp_r[m - 1], w[index] + wisp_r[pred])

    return WispDecomposition(T=T, subproblems=subproblems, wisp=wisp, wisp_r=wisp_r, support=support)


def compute_decomposition(
    stripped: StrippedInstance,
    store: DomainStore,
    mode: str = COST_C,
) -> WispDecomposition:
    """Bound every sub-problem, one start period at a time, and run the DPs."""
    T = stripped.T
    subs = enumerate_subproblems(T)
    bounds = _window_bounder(stripped, store, mode)
    for u in range(T - 1):
        for v, (w, kind) in enumerate(bounds(u, T - 1)[1:], start=u + 1):
            sub = subs[subproblem_index(u + 1, v + 1) - 1]
            sub.w, sub.bound_kind = w, kind
    return dpwisp(subs, T)


def wisp_support_filter(
    decomp: WispDecomposition,
    stripped: StrippedInstance,
    store: DomainStore,
    cost_ub: int,
    mode: str = COST_C,
) -> Status:
    """Windowed DP filtering on every support window whose DP fits
    ``_WINDOW_BUDGET`` under the current domains (``_last_exact_ends``,
    re-read per window since earlier windows narrow the store).

    The cost spent outside the window is lower-bounded by the best disjoint
    combinations strictly before and after it, taken from the scheduling
    tables; the window's own tables then filter against
    cost_ub - before - after.
    """
    status = Status.UNCHANGED
    cs = mode == COST_CS
    for idx in decomp.support:
        sub = decomp.subproblems[idx - 1]
        if sub.v > _last_exact_ends(stripped, store)[sub.u]:
            continue
        fwd, bwd = window_tables(stripped, store, (sub.u, sub.v), cs_mode=cs)
        before = decomp.lb_before(sub.u)
        after = decomp.lb_after(sub.v + 1)
        st = filter_with_dp(fwd, bwd, store, stripped, cost_ub, before=int(before), after=int(after))
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)
    return status
