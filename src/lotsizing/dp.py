"""Dynamic programming over (period, inventory-level) states.

The forward table f(b, i) holds the cheapest way to serve the demands of
periods u..b-1 and end boundary b (= end of period b-1) with i units in
stock; the backward table mirrors it from the other side. Both honor the
current search domains. Setting unit and holding costs to zero gives the
knapsack-style variant that lower-bounds the setup cost alone.

Tables drive three filtering rules against a cost upper bound: inventory
values whose through-path exceeds the bound, production values with no
surviving (I_{t-1}, I_t) support pair, and setup values whose cheapest
completion exceeds the bound. The inventory rule costs O(S) per boundary,
S the number of states. A support pair joins two states that survive the
inventory rule, so the production rule (``_support``) reads pairs of
surviving states only, cheapest first, by rows or along the diagonal of
each undecided value, and stops once the domain is decided: its cost
follows the pairs it must read, at most |J| x |I| for J and I the
surviving states, and its temporaries are capped at a fixed size. The
setup rule reuses the production verdicts plus one O(S) diagonal.

Windowed tables (for the interval-decomposition bound) deliberately relax
production holes and treat end-of-window stock as zero; the complementary
guard is that values at or above the remaining in-window demand are never
filtered, since such stock may serve demands outside the window. On that
relaxed view the rows of window (u, v) are the low states of the rows of
any longer window (u, v'), so one forward table per start period bounds all
windows of that start.

A step takes the minimum over a range of production values for every
state, a sliding-window minimum over the previous row; ``_window_min``
computes it with numpy in time linear in the row, whatever the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import DomainStore, Status, iv_from_mask, iv_intersect, iv_mask, iv_shift, merge
from .instance import StrippedInstance

INF = math.inf


class DpBudgetExceeded(Exception):
    """State space too large for the configured budget; use the WISP path."""


@dataclass
class CostView:
    """Cost/transition data of one window, shared by tables and filters.

    Boundaries b run from u to v+1; boundary b carries inventory I_{b-1}
    (b = 0 is the fixed initial inventory). ``row_cap[b - u]`` caps the
    useful states: stock beyond the remaining in-window demand can never
    reach the zero-stock end boundary. Per period, allowed production values
    are pre-split into the zero transition and maximal runs of positive
    values (suffix windows honor domain holes, true sub-windows relax them).
    """

    u: int
    v: int
    horizon: int
    d: tuple[int, ...]
    p: tuple[int, ...]
    h: tuple[int, ...]
    s_charge: tuple[int, ...]
    sunk: int
    x_cap: tuple[int, ...]
    x_piece: list[tuple[bool, list[tuple[int, int]]]]
    row_cap: tuple[int, ...]
    i_masks: list[np.ndarray | None]
    tail: tuple[int, ...]
    cs_mode: bool

    @property
    def windowed(self) -> bool:
        return self.v < self.horizon - 1

    def cap(self, b: int) -> int:
        return self.row_cap[b - self.u]

    def i_mask_at(self, b: int) -> np.ndarray | None:
        return self.i_masks[b - self.u]

    def x_runs(self, t: int) -> tuple[bool, list[tuple[int, int]]]:
        """(is x=0 allowed, list of maximal allowed runs with x >= 1)."""
        return self.x_piece[t - self.u]

    def x_allow_mask(self, t: int) -> np.ndarray:
        x0, runs = self.x_runs(t)
        mask = np.zeros(self.x_cap[t - self.u] + 1, dtype=bool)
        if x0:
            mask[0] = True
        for a, b in runs:
            mask[a : b + 1] = True
        return mask


def make_cost_view(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None = None,
    cs_mode: bool = False,
) -> CostView:
    u, v = (0, stripped.T - 1) if window is None else window
    if not (0 <= u <= v <= stripped.T - 1):
        raise ValueError(f"bad window ({u}, {v}) for horizon {stripped.T}")
    full_domains = v == stripped.T - 1
    tail = [0] * (v + 2)
    for b in range(v, u - 1, -1):
        tail[b] = tail[b + 1] + stripped.d[b]
    tail_t = tuple(tail[u : v + 2])

    d = tuple(stripped.d[u : v + 1])
    zero = (0,) * (v - u + 1)
    p = zero if cs_mode else tuple(stripped.p[u : v + 1])
    h = zero if cs_mode else tuple(stripped.h[u : v + 1])

    s_charge, x_cap, x_piece = [], [], []
    sunk = 0
    for t in range(u, v + 1):
        cap = min(stripped.x_cap[t], store.max(("X", t)) - stripped.x_off[t])
        y_lo, y_hi = store.min(("Y", t)), store.max(("Y", t))
        charge = stripped.s[t]
        if y_lo == 1:
            sunk += charge
            charge = 0
        if y_hi == 0:
            cap = 0
            charge = 0
        cap = max(cap, 0)
        if full_domains:
            ivs = iv_shift(store.intervals(("X", t)), -stripped.x_off[t])
            x0 = any(lo <= 0 <= hi for lo, hi in ivs)
            runs = [(max(lo, 1), min(hi, cap)) for lo, hi in ivs if min(hi, cap) >= max(lo, 1)]
            if y_hi == 0:
                runs = []
        else:
            x0 = True
            runs = [(1, cap)] if cap >= 1 else []
        s_charge.append(charge)
        x_cap.append(cap)
        x_piece.append((x0, runs))

    row_cap, i_masks = [], []
    for b in range(u, v + 2):
        if b == 0:
            row_cap.append(0)
            i_masks.append(None)
            continue
        phys = min(stripped.i_cap[b - 1], store.max(("I", b - 1)) - stripped.i_off[b - 1])
        cap = max(min(phys, tail[b]), 0)
        row_cap.append(cap)
        mask = None
        if full_domains:
            ivs = iv_shift(store.intervals(("I", b - 1)), -stripped.i_off[b - 1])
            if len(ivs) > 1 or ivs[0][0] > 0:
                mask = iv_mask(ivs, 0, cap)
        i_masks.append(mask)

    return CostView(
        u=u,
        v=v,
        horizon=stripped.T,
        d=d,
        p=p,
        h=h,
        s_charge=tuple(s_charge),
        sunk=sunk,
        x_cap=tuple(x_cap),
        x_piece=x_piece,
        row_cap=tuple(row_cap),
        i_masks=i_masks,
        tail=tail_t,
        cs_mode=cs_mode,
    )


def state_budget(view: CostView) -> int:
    """Transition-count proxy (periods x (max states + 1)^2) that the WISP
    window bounds test against the configured DP budget. The whole-horizon
    DP is chosen by ``table_fits`` instead."""
    top = max(view.row_cap)
    return (view.v - view.u + 1) * (top + 1) * (top + 1)


def table_fits(view: CostView) -> bool:
    """Whether one table of ``view`` holds at most ``_TABLE_CAP`` states; a
    table holds the sum of its row sizes."""
    return sum(view.row_cap) + len(view.row_cap) <= _TABLE_CAP


@dataclass
class DpTable:
    forward: bool
    view: CostView
    rows: list[np.ndarray] = field(default_factory=list)

    @property
    def u(self) -> int:
        return self.view.u

    @property
    def v(self) -> int:
        return self.view.v

    @property
    def sunk(self) -> int:
        return self.view.sunk

    def row(self, b: int) -> np.ndarray:
        return self.rows[b - self.view.u]

    def optimum(self) -> float:
        """Cheapest window completion excluding sunk setups; inf = infeasible."""
        if self.forward:
            return float(self.rows[-1][0])
        first = self.rows[0]
        if self.view.u == 0:
            return float(first[0])
        return float(np.min(first))


def _window_min(vals: np.ndarray, m: int, lo0: int, hi0: int) -> np.ndarray:
    """out[i] = min(vals[lo0+i .. hi0+i]), clipped to range; inf if empty.

    Windows cut by the left end of the row are prefix minima, windows cut by
    the right end suffix minima, and the interior windows (width w) come from
    van Herk / Gil-Werman blocks of w: each is the suffix minimum of its start
    within a block joined with the prefix minimum of its end within the next.
    Every buffer is sized by the row, not by w, so a window far wider than
    the row costs one prefix and one suffix scan. O(len(vals) + m).
    """
    n = len(vals)
    out = np.full(m, INF)
    w = hi0 - lo0 + 1
    if w <= 0 or n == 0:
        return out
    # Output ranges: [0, z) empty, [z, a) cut on the left (or on both
    # ends), [a, b) interior, [b, c) cut on the right only, [c, m) empty.
    z = max(-hi0, 0)  # first i whose window reaches index 0
    a = min(max(1 - lo0, z), m)
    b = min(max(n - hi0 - 1, a), m)
    c = min(max(n - lo0, b), m)
    if z < a:
        pre = np.minimum.accumulate(vals[: min(hi0 + a - 1, n - 1) + 1])
        out[z:a] = pre[np.minimum(np.arange(hi0 + z, hi0 + a), n - 1)]
    if b < c:
        suf = np.minimum.accumulate(vals[lo0 + b :][::-1])[::-1]
        out[b:c] = suf[: c - b]
    if a < b:
        seg = vals[lo0 + a : hi0 + b]
        nb = -(-len(seg) // w)
        blocks = np.full(nb * w, INF)
        blocks[: len(seg)] = seg
        blocks = blocks.reshape(nb, w)
        head = np.minimum.accumulate(blocks, axis=1).ravel()
        tail = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        np.minimum(tail[: b - a], head[w - 1 : w - 1 + b - a], out=out[a:b])
    return out


def _forward_step(view: CostView, t: int, prev: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t + 1) + 1
    m_prev = len(prev)
    iarr = np.arange(m)
    row = np.full(m, INF)
    x0_ok, runs = view.x_runs(t)
    if x0_ok:
        k0 = min(m, m_prev - d)  # states i with i + d inside the previous row
        if k0 > 0:
            row[:k0] = prev[d : d + k0] + h * iarr[:k0]
    if runs:
        g = prev - p * np.arange(m_prev)
        for xa, xb in runs:
            wm = _window_min(g, m, d - xb, d - xa)
            cand = wm + p * (iarr + d) + h * iarr + sc
            np.minimum(row, cand, out=row)
    mask = view.i_mask_at(t + 1)
    if mask is not None:
        row[~mask] = INF
    return row


def _backward_step(view: CostView, t: int, nxt: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t) + 1
    m_next = len(nxt)
    iarr = np.arange(m)
    row = np.full(m, INF)
    x0_ok, runs = view.x_runs(t)
    if x0_ok:
        k0 = min(m, d + m_next)  # states i with i - d inside the next row
        if k0 > d:
            row[d:k0] = nxt[: k0 - d] + h * np.arange(k0 - d)
    if runs:
        g = nxt + (p + h) * np.arange(m_next)
        for xa, xb in runs:
            wm = _window_min(g, m, xa - d, xb - d)
            cand = wm + p * (d - iarr) + sc
            np.minimum(row, cand, out=row)
    mask = view.i_mask_at(t)
    if mask is not None:
        row[~mask] = INF
    return row


def _check_budget(view: CostView, dp_budget: int | None) -> None:
    if dp_budget is not None and state_budget(view) > dp_budget:
        raise DpBudgetExceeded(
            f"window ({view.u}, {view.v}) needs {state_budget(view)} transitions, budget {dp_budget}"
        )


def greedy_prestock(
    stripped: StrippedInstance,
    store: DomainStore,
    u: int,
    q_max: int,
    zero_costs: bool = False,
) -> np.ndarray:
    """Cheapest way to have q = 0..q_max units in stock entering period u.

    Production before u pays no setup (setups outside the window are zero in
    the sub-problem), so each source period tau < u offers units at constant
    cost p_tau plus holding through u-2, limited by its production capacity
    and by the inventory caps it must traverse. Successive cheapest-source
    augmentation on this path network is exact and yields non-decreasing
    marginal costs. The h_{u-1} charge on the stocked units is added at the
    end to match the DP state convention.
    """
    if u == 0 or q_max < 0:
        return np.array([0.0])
    carry = [
        max(min(stripped.i_cap[k], store.max(("I", k)) - stripped.i_off[k]), 0)
        for k in range(u - 1)
    ]
    sources = []
    held = 0  # holding from tau through u-2, as a suffix sum
    for tau in range(u - 1, -1, -1):
        if not zero_costs and tau < u - 1:
            held += stripped.h[tau]
        cap = min(stripped.x_cap[tau], store.max(("X", tau)) - stripped.x_off[tau])
        if store.max(("Y", tau)) == 0:
            cap = 0
        if cap > 0:
            sources.append((0 if zero_costs else stripped.p[tau] + held, tau, cap))
    sources.sort()
    costs, amts = [], []
    got = 0
    for cost, tau, cap in sources:
        if got >= q_max:
            break
        amt = min(cap, q_max - got, *carry[tau:])  # carry[tau:] covers I_tau..I_{u-2}
        if amt <= 0:
            continue
        carry[tau:] = [c - amt for c in carry[tau:]]
        costs.append(cost)
        amts.append(amt)
        got += amt
    h_end = 0 if zero_costs else stripped.h[u - 1]
    init = np.full(q_max + 1, INF)
    init[0] = 0.0
    # integer sums below 2**53, so the float row is exact
    acc = np.cumsum(np.repeat(np.array(costs, dtype=np.int64), amts))
    init[1 : got + 1] = acc + h_end * np.arange(1, got + 1)
    return init


def _build_forward(view: CostView, stripped, store, init_row, dp_budget) -> DpTable:
    _check_budget(view, dp_budget)
    if init_row is None:
        if view.u == 0:
            init_row = np.array([0.0])
        else:
            init_row = greedy_prestock(stripped, store, view.u, view.cap(view.u), zero_costs=view.cs_mode)
    init_row = np.asarray(init_row, dtype=float)
    mask = view.i_mask_at(view.u)
    if mask is not None:
        init_row = init_row.copy()
        init_row[~mask] = INF
    rows = [init_row]
    for t in range(view.u, view.v + 1):
        rows.append(_forward_step(view, t, rows[-1]))
    return DpTable(forward=True, view=view, rows=rows)


def _build_backward(view: CostView, dp_budget) -> DpTable:
    _check_budget(view, dp_budget)
    rows = [np.array([0.0])]
    for t in range(view.v, view.u - 1, -1):
        rows.append(_backward_step(view, t, rows[-1]))
    rows.reverse()
    return DpTable(forward=False, view=view, rows=rows)


def dpls_forward(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None = None,
    init_row: np.ndarray | None = None,
    dp_budget: int | None = None,
) -> DpTable:
    view = make_cost_view(stripped, store, window, cs_mode=False)
    return _build_forward(view, stripped, store, init_row, dp_budget)


def dpls_backward(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None = None,
    dp_budget: int | None = None,
) -> DpTable:
    view = make_cost_view(stripped, store, window, cs_mode=False)
    return _build_backward(view, dp_budget)


def dpknap_forward(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None = None,
    init_row: np.ndarray | None = None,
    dp_budget: int | None = None,
) -> DpTable:
    view = make_cost_view(stripped, store, window, cs_mode=True)
    return _build_forward(view, stripped, store, init_row, dp_budget)


def dpknap_backward(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None = None,
    dp_budget: int | None = None,
) -> DpTable:
    view = make_cost_view(stripped, store, window, cs_mode=True)
    return _build_backward(view, dp_budget)


def window_tables(
    stripped: StrippedInstance,
    store: DomainStore,
    window: tuple[int, int] | None,
    cs_mode: bool,
    dp_budget: int | None = None,
) -> tuple[DpTable, DpTable]:
    """Matched forward/backward tables sharing one cost view."""
    view = make_cost_view(stripped, store, window, cs_mode=cs_mode)
    fwd = _build_forward(view, stripped, store, None, dp_budget)
    bwd = _build_backward(view, dp_budget)
    return fwd, bwd


_BLOCK = 1 << 18  # entries in any temporary array of the support kernel
_TABLE_CAP = 1 << 20  # states of one table (8 MiB of float64) up to which `auto` runs the DP


def _mark_rows(A, C, d, sc, rows, cols, ub, sup) -> None:
    """sup[x] = True for every pair of ``rows`` x ``cols`` under the bound,
    in pieces of at most ``_BLOCK`` pairs."""
    n = len(sup)
    for c0 in range(0, len(cols), _BLOCK):
        cc = cols[c0 : c0 + _BLOCK]
        step = max(_BLOCK // len(cc), 1)
        for r0 in range(0, len(rows), step):
            rr = rows[r0 : r0 + step, None]
            x = cc - rr + d
            x = x[A[rr] + C[cc] + sc * (x > 0) <= ub]
            sup[x[(x >= 0) & (x < n)]] = True


def _mark_diagonals(A, C, d, sc, xs, starts, lens, width, ub, sup) -> None:
    """sup[x] = True for each x of ``xs`` with a pair under the bound among
    j = starts..starts + lens - 1, i = j + x - d, where lens <= width. The
    pieces are laid end to end and read at most ``_BLOCK`` pairs at a time."""
    step = max(_BLOCK // width, 1)
    for a in range(0, len(xs), step):
        n = lens[a : a + step]
        x = np.repeat(xs[a : a + step], n)
        j = np.repeat(starts[a : a + step] - np.cumsum(n) + n, n) + np.arange(len(x))
        sup[x[A[j] + C[j + x - d] + sc * (x > 0) <= ub]] = True


def _support(A, C, d, sc, cand, ub) -> tuple[np.ndarray, str]:
    """Candidate production values that some state pair supports.

    Returns (sup, end): sup[x] is True for each candidate x (``cand[x]``)
    with states j, i, i - j + d = x, such that A[j] + C[i], plus ``sc`` when
    x > 0, is at most ``ub``. A and C are INF off the surviving states.

    Only rows j and columns i that the cheapest partner can complete are
    read; all of their pairs at once when they are no more than the
    candidates. Otherwise two scans share the work, each step going to the
    one whose next step reads fewer pairs. The row scan reads rows cheapest
    A first, in blocks of 1, 2, 4, ... rows, each against the columns that
    a row of that cost can still use. The diagonal scan reads the next 1,
    2, 4, ... pairs of the diagonal of every undecided candidate. ``end``
    says what decided the last candidates: "covered" (all supported),
    "exhausted" (every row read), "bound" (every row read that the cheapest
    column can complete, and some could not) or "diagonals" (every diagonal
    read to its end). No step reads more than the |J| x |I| matrix holds,
    and no temporary holds more than ``_BLOCK`` pairs.
    """
    sup = np.zeros(len(cand), dtype=bool)
    J = np.flatnonzero(A < INF)
    I = np.flatnonzero(C < INF)
    if len(J) == 0 or len(I) == 0:
        return sup, "bound"
    n_all = len(J)
    J, I = J[A[J] + C[I].min() <= ub], I[C[I] + A[J].min() <= ub]
    if len(J) == 0:
        return sup, "bound"
    rows_end = "exhausted" if len(J) == n_all else "bound"
    lo = max(I[0] - J[-1] + d, 0)
    left = np.flatnonzero(cand[lo : max(I[-1] - J[0] + d + 1, 0)]) + lo
    if len(J) * len(I) <= len(left):
        _mark_rows(A, C, d, sc, J, I, ub, sup)
        return sup & cand, rows_end
    rows, cols = J[np.argsort(A[J])], I[np.argsort(C[I])]
    a_sorted, c_sorted = A[rows], C[cols]
    r, block = 0, 1
    off, width = 0, 1
    while len(left):
        if r == len(rows):
            return sup & cand, rows_end
        starts = np.maximum(J[0], I[0] - left + d) + off
        lens = np.minimum(np.minimum(J[-1], I[-1] - left + d) - starts + 1, width)
        keep = lens > 0
        if not keep.any():
            return sup & cand, "diagonals"
        n_cols = int(np.searchsorted(c_sorted, ub - a_sorted[r], side="right"))
        step = min(block, len(rows) - r)
        if lens[keep].sum() <= step * n_cols:
            _mark_diagonals(A, C, d, sc, left[keep], starts[keep], lens[keep], width, ub, sup)
            off, width = off + width, min(2 * width, _BLOCK)
        else:
            _mark_rows(A, C, d, sc, rows[r : r + step], cols[:n_cols], ub, sup)
            r, block = r + step, 2 * block
        left = left[~sup[left]]
    return sup & cand, "covered"


def filter_with_dp(
    fwd: DpTable,
    bwd: DpTable,
    store: DomainStore,
    stripped: StrippedInstance,
    cost_ub: int,
    before: int = 0,
    after: int = 0,
    hole_punch: bool = False,
) -> Status:
    """Remove inventory/production/setup values not supported under the bound.

    ``cost_ub`` is the cap on the stripped cost (variable upper bound minus
    the mandatory baseline); window offsets ``before``/``after`` and the
    window's sunk setups are deducted once here. ``fwd`` and ``bwd`` share
    one cost view (``window_tables``). In windowed mode values at or above
    the remaining in-window demand are never touched.

    An inventory value survives if its through-path f + f_r stays within the
    bound, O(S) per boundary. A production value x of period t survives if
    a state pair (j, i), i - j + d = x, generates it within the bound
    (support semantics). Such a pair joins two surviving states (J at
    boundary t, I at t + 1), because each table step minimizes over the
    same transitions, so ``_support`` decides the domain's values from pairs
    of J x I, scanning rows cheapest first or the diagonals of the undecided
    values, whichever reads fewer pairs, and stops once every value is
    decided. Its cost follows the pairs it reads, at most |J| x |I| per
    step; its memory is fixed. The setup value Y_t = 1 survives if some
    x > 0 survives or the x = 0 diagonal plus the setup charge stays within
    the bound.
    """
    view = fwd.view
    ub_eff = cost_ub - before - after - view.sunk
    if math.isinf(ub_eff) and ub_eff > 0:
        return Status.UNCHANGED
    windowed = view.windowed
    status = Status.UNCHANGED
    alive = [fwd.row(b) + bwd.row(b) <= ub_eff for b in range(view.u, view.v + 2)]

    for b in range(view.u + 1, view.v + 2):
        t = b - 1
        i_off = stripped.i_off[t]
        dom = store.intervals(("I", t))
        dom_max = dom[-1][1] - i_off
        cap = view.cap(b)
        ok = alive[b - view.u]
        width = max(dom_max, cap) + 1
        mask = np.zeros(width, dtype=bool)
        mask[: cap + 1] = ok[: width if width < len(ok) else len(ok)]
        if windowed:
            thr = view.tail[b - view.u]
            if thr < width:
                mask[thr:] = True
        if not mask.any():
            return Status.FAILED
        if hole_punch:
            allowed = iv_shift(iv_from_mask(mask, 0), i_off)
            st = store.set_intervals(("I", t), iv_intersect(dom, allowed))
        else:
            idx = np.nonzero(mask)[0]
            st = store.set_min(("I", t), int(idx[0]) + i_off)
            st = merge(st, store.set_max(("I", t), int(idx[-1]) + i_off))
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)

    for t in range(view.u, view.v + 1):
        k = t - view.u
        d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
        x_off = stripped.x_off[t]
        dom = store.intervals(("X", t))
        dom_max = dom[-1][1] - x_off
        xcap = view.x_cap[k]
        width = max(dom_max, xcap) + 1
        thr = view.tail[k + 1] if windowed else width
        cand = view.x_allow_mask(t) & iv_mask(iv_shift(dom, -x_off), 0, xcap)
        cand[thr:] = False
        A = np.where(alive[k], fwd.row(t) - p * np.arange(len(alive[k])), INF)
        i = np.arange(len(alive[k + 1]))
        C = np.where(alive[k + 1], bwd.row(t + 1) + (p + h) * i + p * d, INF)
        sup, _ = _support(A, C, d, sc, cand, ub_eff)
        supported = np.zeros(width, dtype=bool)
        supported[: xcap + 1] = sup
        supported[thr:] = True
        if not supported.any():
            return Status.FAILED
        allowed = iv_shift(iv_from_mask(supported, 0), x_off)
        st = store.set_intervals(("X", t), iv_intersect(dom, allowed))
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)

        # Setup-value rule: if even the cheapest completion that keeps
        # Y_t = 1 (producing, or paying the setup idle) busts the bound,
        # Y_t must be 0. Only stated on suffix windows, where the table
        # is exact for the in-window plan.
        if not windowed and sc > 0 and store.min(("Y", t)) == 0 and store.max(("Y", t)) == 1:
            n = min(len(C), len(A) - d)
            idle = view.x_runs(t)[0] and n > 0 and bool((A[d : d + n] + C[:n] + sc <= ub_eff).any())
            if not sup[1:].any() and not idle:
                st = store.set_max(("Y", t), 0)
                if st is Status.FAILED:
                    return Status.FAILED
                status = merge(status, st)
    return status
