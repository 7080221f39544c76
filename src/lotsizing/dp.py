"""Dynamic programming over (period, inventory-level) states.

The forward table f(b, i) holds the cheapest way to serve the demands of
periods u..b-1 and end boundary b (= end of period b-1) with i units in
stock; the backward table mirrors it from the other side. Both honor the
current search domains. Setting unit and holding costs to zero gives the
knapsack-style variant that lower-bounds the setup cost alone.

Tables drive three filtering rules against a cost upper bound: inventory
values whose through-path exceeds the bound, production values with no
surviving (I_{t-1}, I_t) support pair, and setup values whose cheapest
completion exceeds the bound.

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
    """Transition-count proxy (periods x (max states + 1)^2) tested against
    the configured DP budget."""
    top = max(view.row_cap)
    return (view.v - view.u + 1) * (top + 1) * (top + 1)


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


def _pair_matrix(view: CostView, t: int, frow: np.ndarray, brow: np.ndarray):
    """total[j, i] = f(t, j) + transition cost + f_r(t+1, i); invalid -> inf."""
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m_prev, m = len(frow), len(brow)
    jj = np.arange(m_prev)[:, None]
    ii = np.arange(m)[None, :]
    x = ii - jj + d
    allow = view.x_allow_mask(t)
    xcap = view.x_cap[k]
    valid = (x >= 0) & (x <= xcap)
    if xcap >= 0:
        xcl = np.clip(x, 0, xcap)
        valid &= allow[xcl]
    cost = p * x + h * ii + np.where(x > 0, sc, 0)
    total = frow[:, None] + brow[None, :] + cost
    total = np.where(valid, total, INF)
    return total, x


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
    window's sunk setups are deducted once here. A production value survives
    if any state pair generating it stays within the bound (support
    semantics); in windowed mode values at or above the remaining in-window
    demand are never touched.
    """
    view = fwd.view
    ub_eff = cost_ub - before - after - view.sunk
    if math.isinf(ub_eff) and ub_eff > 0:
        return Status.UNCHANGED
    windowed = view.windowed
    status = Status.UNCHANGED

    for b in range(view.u + 1, view.v + 2):
        t = b - 1
        i_off = stripped.i_off[t]
        dom = store.intervals(("I", t))
        dom_max = dom[-1][1] - i_off
        cap = view.cap(b)
        vals = fwd.row(b) + bwd.row(b)
        ok = vals <= ub_eff
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
        x_off = stripped.x_off[t]
        dom = store.intervals(("X", t))
        dom_max = dom[-1][1] - x_off
        xcap = view.x_cap[k]
        total, x = _pair_matrix(view, t, fwd.row(t), bwd.row(t + 1))
        ok2 = total <= ub_eff
        width = max(dom_max, xcap) + 1
        supported = np.zeros(width, dtype=bool)
        if ok2.any():
            xs = x[ok2]
            supported[xs] = True
        if windowed:
            thr = view.tail[k + 1]
            if thr < width:
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
        if not windowed and store.min(("Y", t)) == 0 and store.max(("Y", t)) == 1:
            sc = view.s_charge[k]
            if sc > 0:
                pos_min = total[x > 0].min() if (x > 0).any() else INF
                zero_min = total[x == 0].min() if (x == 0).any() else INF
                if min(pos_min, zero_min + sc) > ub_eff:
                    st = store.set_max(("Y", t), 0)
                    if st is Status.FAILED:
                        return Status.FAILED
                    status = merge(status, st)
    return status
