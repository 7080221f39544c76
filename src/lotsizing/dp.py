"""Dynamic programming over (period, inventory-level) states.

The forward table f(b, i) holds the cheapest way to serve the demands of
periods u..b-1 and end boundary b (= end of period b-1) with i units in
stock; the backward table mirrors it from the other side. Both honor the
domains the stripped instance was read from, the one reading of the store
per propagation pass (``instance.strip_lower_bounds``): its capacities,
setup charges and sunk setups, and its X and I intervals for holes. The
filter reads the same snapshot and only writes the store. Setting unit and
holding costs to zero gives the knapsack-style variant that lower-bounds
the setup cost alone.

Tables drive three filtering rules against a cost upper bound: inventory
bounds move past the values whose through-path exceeds the bound (inventory
is filtered to bounds, never holed), production values with no surviving
(I_{t-1}, I_t) support pair, and setup values whose cheapest completion
exceeds the bound. One vectorised pass over the rows, laid end to end in
blocks of bounded size, finds the surviving states in O(S), S the number of
states, and per boundary their extremes, whether they form an interval, and
the dearest partial cost on either side of a period. A support pair joins
two states that survive, J before period t and I after it. Where J and I
are intervals and even their dearest pair fits the bound, every pair fits,
so the supported production values are the allowed ones in one interval and
the period is settled by interval arithmetic, with no per-state work.
Every other period whose |J| x |I| fits one chunk of ``_PAIR_CHUNK`` pairs
is settled by one batched pass (``_pair_pass``) that reads all pairs of
those periods at once, laid end to end in chunks, and gives the supported
production values and the idle-setup test together. A larger period goes
to ``_support``, which gives the same two answers from pairs of surviving
states only: it reads the rows coarse to fine, each read against all
columns or along the diagonal of each undecided value, whichever are
fewer, and stops once every candidate is supported, so its cost follows
the pairs it must read, at most |J| x |I|, and its temporaries are capped
at a fixed size. A period with more than ``_PAIR_CAP`` pairs keeps its X
and Y: that removes no plan.

Windowed tables (for the interval-decomposition bound) deliberately relax
production holes and treat end-of-window stock as zero; the complementary
guard is that values at or above the remaining in-window demand are never
filtered, since such stock may serve demands outside the window. On that
relaxed view the rows of window (u, v) are the low states of the rows of
any longer window (u, v'), so one forward table per start period bounds all
windows of that start. A window that starts after period 0 may enter with
stock made before it; its forward table starts from the cheapest such
pre-stock per level, a row the path-network greedy computes
(``flow.pre_stock``), which the DP takes as given.

A step reads the previous row less its cost's linear term in the previous
state: for every new state it takes the minimum over each run of allowed
production values, a sliding-window minimum per run, and the x = 0
transition, one shifted slice, and then adds one linear term in the new
state shared by the runs and x = 0. ``_runs_min`` computes the runs' part:
with one run, ``_window_min`` makes one reduction over the row and running
minimum scans over about as many entries as the new row has, whatever the
range; with several (production holes), one padded row and its doubling
levels (a sparse table up to the widest run) serve every run with two
slice reads each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .domains import DomainStore, Status, iv_from_mask, iv_intersect, iv_mask, iv_normalize, iv_shift, merge
from .flow import pre_stock
from .instance import StrippedInstance

INF = math.inf


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

    @cached_property
    def index(self) -> np.ndarray:
        """0, 1, 2, ... as floats, as long as the longest row: the state
        indices every step of the view's tables multiplies by a cost."""
        return np.arange(max(self.row_cap) + 1, dtype=float)

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
    window: tuple[int, int] | None = None,
    cs_mode: bool = False,
) -> CostView:
    """The cost view of ``window`` (the whole horizon when None), read from
    the stripped instance's capacities, setup charges and sunk setups; a
    suffix window also reads its production and inventory domains for their
    holes."""
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

    x_piece = []
    for t in range(u, v + 1):
        cap = stripped.x_cap[t]
        if full_domains:
            ivs = stripped.x_ivs[t]
            x0 = any(lo <= 0 <= hi for lo, hi in ivs)
            runs = [(max(lo, 1), min(hi, cap)) for lo, hi in ivs if min(hi, cap) >= max(lo, 1)]
        else:
            x0 = True
            runs = [(1, cap)] if cap >= 1 else []
        x_piece.append((x0, runs))

    row_cap, i_masks = [], []
    for b in range(u, v + 2):
        if b == 0:
            row_cap.append(0)
            i_masks.append(None)
            continue
        cap = min(stripped.i_cap[b - 1], tail[b])
        row_cap.append(cap)
        mask = None
        if full_domains:
            ivs = stripped.i_ivs[b - 1]
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
        s_charge=stripped.charge[u : v + 1],
        sunk=sum(stripped.sunk[u : v + 1]),
        x_cap=stripped.x_cap[u : v + 1],
        x_piece=x_piece,
        row_cap=tuple(row_cap),
        i_masks=i_masks,
        tail=tail_t,
        cs_mode=cs_mode,
    )


def table_fits(stripped: StrippedInstance, window: tuple[int, int] | None = None) -> bool:
    """The one sizing rule, for ``auto``'s DP route and WISP's exact
    windows: whether a table of ``window`` (the whole horizon when None)
    holds at most ``_TABLE_CAP`` states, the sum of its row sizes. The
    boundary after period t keeps min(i_cap[t], demand of periods t+1..v)
    + 1 states, boundary 0 one. The count grows with v and falls with u."""
    u, v = (0, stripped.T - 1) if window is None else window
    states = v - u + 2
    tail = 0
    for t in range(v, max(u, 1) - 2, -1):
        states += max(min(stripped.i_cap[t], tail), 0)
        tail += stripped.d[t]
    return states <= _TABLE_CAP


@dataclass
class DpTable:
    forward: bool
    view: CostView
    rows: list[np.ndarray] = field(default_factory=list)
    # When set, ``rows`` is empty until the first ``row``/``optimum`` call
    # builds it: a node that the forward table closes never reads its mirror.
    build: Callable[[], list[np.ndarray]] | None = None

    def _rows(self) -> list[np.ndarray]:
        if self.build is not None:
            self.rows, self.build = self.build(), None
        return self.rows

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
        return self._rows()[b - self.view.u]

    def optimum(self) -> float:
        """Cheapest window completion excluding sunk setups; inf = infeasible."""
        rows = self._rows()
        if self.forward:
            return float(rows[-1][0])
        first = rows[0]
        if self.view.u == 0:
            return float(first[0])
        return float(np.min(first))


def _window_min(vals: np.ndarray, m: int, lo0: int, hi0: int) -> np.ndarray:
    """out[i] = min(vals[lo0+i .. hi0+i]), clipped to range; inf if empty.

    A running minimum costs several times a reduction per entry, so it only
    walks the entries that move an output. The windows cut by the left end
    of the row share the minimum of the first one, a reduction, and then
    extend it one entry per output; those cut by the right end mirror it.
    Interior windows (width w): k <= w of them all cover one core, the
    entries from the last start to the first end, so each is the core's
    minimum joined with the suffix minimum of its start and the prefix
    minimum of its end, two scans of k. More than w come from van Herk /
    Gil-Werman blocks of w: each is the suffix minimum of its start within a
    block joined with the prefix minimum of its end within the next. So a
    row costs one reduction over its entries plus scans over O(m) of them,
    whatever w. The scans use ``np.fmin``, which equals ``np.minimum`` off
    NaN (rows hold integers and inf) and runs about a third faster.
    """
    n = len(vals)
    w = hi0 - lo0 + 1
    if w <= 0 or n == 0:
        return np.full(m, INF)
    # Output ranges: [0, z) empty, [z, a) cut on the left (or on both
    # ends), [a, b) interior, [b, c) cut on the right only, [c, m) empty.
    z = min(max(-hi0, 0), m)  # first i whose window reaches index 0
    a = min(max(1 - lo0, z), m)
    b = min(max(n - hi0 - 1, a), m)
    c = min(max(n - lo0, b), m)
    out = np.empty(m)
    out[:z] = INF
    out[c:] = INF
    if z < a:
        # out[i] = min(vals[: hi0 + i + 1]): the whole row from i = n - hi0 on.
        e = min(max(n - hi0, z), a)
        if z < e:
            seg = out[z:e]
            seg[0] = vals[: hi0 + z + 1].min()
            seg[1:] = vals[hi0 + z + 1 : hi0 + e]
            np.fmin.accumulate(seg, out=seg)
        out[e:a] = vals.min() if e == z else out[e - 1]
    if b < c:
        # out[i] = min(vals[lo0 + i :]), scanned from the last output back.
        seg = out[b:c]
        seg[:-1] = vals[lo0 + b : lo0 + c - 1]
        seg[-1] = vals[lo0 + c - 1 :].min()
        np.fmin.accumulate(seg[::-1], out=seg[::-1])
    k = b - a
    if 0 < k <= w:
        core = vals[lo0 + b - 1 : hi0 + a + 1].min()
        left = out[a:b]
        left[:-1] = vals[lo0 + a : lo0 + b - 1]
        left[-1] = core
        np.fmin.accumulate(left[::-1], out=left[::-1])
        right = np.empty(k)
        right[0] = core
        right[1:] = vals[hi0 + a + 1 : hi0 + b]
        np.fmin.accumulate(right, out=right)
        np.minimum(left, right, out=left)
    elif k > w:
        seg = vals[lo0 + a : hi0 + b]
        nb = -(-len(seg) // w)
        blocks = np.full(nb * w, INF)
        blocks[: len(seg)] = seg
        blocks = blocks.reshape(nb, w)
        head = np.fmin.accumulate(blocks, axis=1).ravel()
        tail = np.fmin.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        np.minimum(tail[:k], head[w - 1 : w - 1 + k], out=out[a:b])
    return out


def _runs_min(vals: np.ndarray, m: int, spans: list[tuple[int, int]]) -> np.ndarray:
    """out[i] = min over spans (lo, hi) of min(vals[lo+i .. hi+i]), clipped
    to range; inf if empty.

    One span is ``_window_min``. Several share one padded copy of ``vals``
    and its doubling levels (a sparse table): level k holds the minima of
    2**k consecutive entries, and a span of width w reads two overlapping
    windows of the highest level with 2**k <= w. Spans are served narrowest
    first, and a level replaces the one before it, so at most two are
    alive. A span is first clipped to the entries any of its m windows can
    reach, which bounds the padding by m on either side.
    O((len(vals) + m) log w).
    """
    if len(spans) == 1:
        return _window_min(vals, m, *spans[0])
    n = len(vals)
    out = np.full(m, INF)
    clipped = sorted(
        (hi - lo, lo, hi)
        for lo, hi in ((max(lo, 1 - m), min(hi, n - 1)) for lo, hi in spans)
        if lo <= hi
    )
    if not clipped:
        return out
    pad = max(max(-lo for _, lo, _ in clipped), 0)
    level = np.full(max(n, max(hi for _, _, hi in clipped) + m) + pad, INF)
    level[pad : pad + n] = vals
    half = 1  # level[j] = min of entries j .. j + half - 1 of the padded row
    for gap, lo, hi in clipped:
        while 2 * half <= gap + 1:
            level = np.minimum(level[:-half], level[half:])
            half *= 2
        a, b = lo + pad, hi + pad - half + 1
        np.minimum(out, level[a : a + m], out=out)
        np.minimum(out, level[b : b + m], out=out)
    return out


def _forward_step(view: CostView, t: int, prev: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t + 1) + 1
    m_prev = len(prev)
    idx = view.index
    x0_ok, runs = view.x_runs(t)
    # x = i + d - j costs p x + h i, plus sc when x > 0: with g(j) = f(j) -
    # p j that is g(i + d - x) + (p + h) i + p d, so the minimum over each
    # run's window of j and over x = 0 share one linear term in i.
    g = prev - p * idx[:m_prev]
    if runs:
        row = _runs_min(g, m, [(d - xb, d - xa) for xa, xb in runs])
        row += sc
    else:
        row = np.full(m, INF)
    if x0_ok:
        k0 = min(m, m_prev - d)  # states i with i + d inside the previous row
        if k0 > 0:
            np.minimum(row[:k0], g[d : d + k0], out=row[:k0])
    row += (p + h) * idx[:m] + p * d
    mask = view.i_mask_at(t + 1)
    if mask is not None:
        row[~mask] = INF
    return row


def _backward_step(view: CostView, t: int, nxt: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t) + 1
    m_next = len(nxt)
    idx = view.index
    x0_ok, runs = view.x_runs(t)
    # x = j + d - i costs p x + h j, plus sc when x > 0: with g(j) = f_r(j)
    # + (p + h) j that is g(i - d + x) + p d - p i, so the minimum over each
    # run's window of j and over x = 0 share one linear term in i.
    g = nxt + (p + h) * idx[:m_next]
    if runs:
        row = _runs_min(g, m, [(xa - d, xb - d) for xa, xb in runs])
        row += sc
    else:
        row = np.full(m, INF)
    if x0_ok:
        k0 = min(m, d + m_next)  # states i with i - d inside the next row
        if k0 > d:
            np.minimum(row[d:k0], g[: k0 - d], out=row[d:k0])
    row += p * d - p * idx[:m]
    mask = view.i_mask_at(t)
    if mask is not None:
        row[~mask] = INF
    return row


def _build_forward(view: CostView, prestock: np.ndarray) -> DpTable:
    """Forward table of ``view``, seeded with ``prestock``: the cheapest
    ways to enter the window with 0, 1, ... units (``flow.pre_stock``),
    at least as many as its first boundary's states."""
    init_row = prestock[: view.cap(view.u) + 1].copy()
    mask = view.i_mask_at(view.u)
    if mask is not None:
        init_row[~mask] = INF
    rows = [init_row]
    for t in range(view.u, view.v + 1):
        rows.append(_forward_step(view, t, rows[-1]))
    return DpTable(forward=True, view=view, rows=rows)


def _backward_rows(view: CostView) -> list[np.ndarray]:
    rows = [np.array([0.0])]
    for t in range(view.v, view.u - 1, -1):
        rows.append(_backward_step(view, t, rows[-1]))
    rows.reverse()
    return rows


def window_tables(
    stripped: StrippedInstance,
    window: tuple[int, int] | None,
    cs_mode: bool,
) -> tuple[DpTable, DpTable]:
    """Matched forward/backward tables sharing one cost view. The backward
    table is built on its first read, so callers that stop at the forward
    table never pay for it."""
    view = make_cost_view(stripped, window, cs_mode)
    u = view.u
    prestock = pre_stock(stripped, cs_mode)(u, view.cap(u)) if u else np.zeros(1)
    fwd = _build_forward(view, prestock)
    bwd = DpTable(forward=False, view=view, build=lambda: _backward_rows(view))
    return fwd, bwd


_BLOCK = 1 << 18  # entries in any temporary array of the support kernel
_PAIR_CAP = 1 << 24  # survivor pairs of an unsettled period above which its X and Y stay as they are
_PAIR_CHUNK = 1 << 14  # pairs in any temporary array of the batched survivor-pair pass
_TABLE_CAP = 1 << 20  # states of one table (8 MiB of float64): `auto`'s DP route and WISP's exact windows


def _mark_rows(A, C, d, sc, rows, cols, ub, sup, diagonal=False) -> None:
    """sup[x] = True for every pair of ``rows`` x ``cols`` under the bound,
    in pieces of at most ``_BLOCK`` pairs. The columns are states i, or with
    ``diagonal`` production values x, each read at state i = j + x - d."""
    n = len(sup)
    for c0 in range(0, len(cols), _BLOCK):
        cc = cols[c0 : c0 + _BLOCK]
        step = max(_BLOCK // len(cc), 1)
        for r0 in range(0, len(rows), step):
            rr = rows[r0 : r0 + step, None]
            i, x = (rr + cc - d, np.broadcast_to(cc, (len(rr), len(cc)))) if diagonal else (cc, cc - rr + d)
            x = x[A[rr] + C[i] + sc * (x > 0) <= ub]
            sup[x[(x >= 0) & (x < n)]] = True


def _support(A, C, d, sc, cand, ub) -> tuple[np.ndarray, bool]:
    """The survivor pairs of one period, read until its domain is decided.

    Returns (sup, idle) as ``_pair_pass`` does: sup[x] is True for each
    candidate x (``cand[x]``) with states j, i, i - j + d = x, such that
    A[j] + C[i], plus ``sc`` when x > 0, is at most ``ub`` (other supported
    values may be marked too), and idle says whether an x = 0 pair plus
    ``sc`` fits. A and C are INF off the surviving states.

    Rows j and columns i that the cheapest partner cannot complete are
    dropped first. The rows are then read coarse to fine: J[0], then at
    each read the rows halfway between those read so far, so that early
    reads spread over J and reach the values at both ends of the range.
    Each read takes all of I or the diagonal i = j + x - d of each
    undecided candidate x, whichever are fewer, and drops the candidates it
    supports: the pass stops once none is left or every row is read. No
    temporary holds more than ``_BLOCK`` pairs.
    """
    n = min(len(C), len(A) - d)
    idle = n > 0 and bool((A[d : d + n] + C[:n] + sc <= ub).any())
    sup = np.zeros(len(cand), dtype=bool)
    J, I = np.flatnonzero(A < INF), np.flatnonzero(C < INF)
    J, I = J[A[J] + C[I].min(initial=INF) <= ub], I[C[I] + A[J].min(initial=INF) <= ub]
    if len(J) == 0:
        return sup, idle
    lo = max(I[0] - J[-1] + d, 0)
    left = np.flatnonzero(cand[lo : max(I[-1] - J[0] + d + 1, 0)]) + lo
    # A diagonal state lies within J[-1] - J[0] of I: this INF tail holds
    # those past the end of C and, read from the end, the negative ones.
    C = np.append(C, np.full(J[-1] - J[0] + 1, INF))
    rows, step = J[:1], 1 << len(J).bit_length()
    while len(left):
        diagonal = len(left) < len(I)
        _mark_rows(A, C, d, sc, rows, left if diagonal else I, ub, sup, diagonal)
        left = left[~sup[left]]
        if step == 1:
            break
        rows, step = J[step // 2 :: step], step // 2
    return sup, idle


class _Survivors(NamedTuple):
    """The surviving states of a window's tables, with per-boundary facts.

    Boundary k (= b - u) owns entries ``start[k]:start[k + 1]`` of
    ``alive``, which marks the states whose through-path f + g stays within
    the bound. Per boundary: the number of survivors, the first and last of
    them (meaningless when there are none), whether they form one interval,
    and the largest A = f - p j and C = g + (p + h) i + p d over them, with
    the p of the period the boundary opens in A and the p, h, d of the
    period it closes in C.
    """

    start: list[int]
    alive: np.ndarray
    count: list[int]
    first: list[int]
    last: list[int]
    dense: list[bool]
    max_a: list[float]
    max_c: list[float]


def _survivors(fwd: DpTable, bwd: DpTable, ub: float) -> _Survivors:
    """One vectorised pass over the rows laid end to end, in runs of whole
    rows of at most ``_BLOCK`` states (or one longer row), so temporaries
    stay bounded whatever the table size."""
    view = fwd.view
    f_rows, g_rows = fwd._rows(), bwd._rows()
    p, h, d = np.array(view.p), np.array(view.h), np.array(view.d)
    a_coef, c_coef, c_const = np.append(p, 0), np.insert(p + h, 0, 0), np.insert(p * d, 0, 0)
    sizes = np.array([len(row) for row in f_rows])
    start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    alive = np.empty(start[-1], dtype=bool)
    parts = []
    k0 = 0
    while k0 < len(sizes):
        k1 = max(int(np.searchsorted(start, start[k0] + _BLOCK, side="right")) - 1, k0 + 1)
        n, heads = sizes[k0:k1], start[k0:k1] - start[k0]
        f, g = np.concatenate(f_rows[k0:k1]), np.concatenate(g_rows[k0:k1])
        ok = alive[start[k0] : start[k1]]
        np.less_equal(f + g, ub, out=ok)
        j = np.arange(len(f)) - np.repeat(heads, n)
        A = f - np.repeat(a_coef[k0:k1], n) * j
        C = g + np.repeat(c_coef[k0:k1], n) * j + np.repeat(c_const[k0:k1], n)
        count = np.add.reduceat(ok, heads, dtype=np.int64)
        hits = np.append(np.flatnonzero(ok), len(f))  # the sentinel keeps every lookup in range
        at = np.searchsorted(hits, heads)
        first, last = hits[at] - heads, hits[at + count - 1] - heads
        parts.append((
            count,
            first,
            last,
            (count > 0) & (last - first + 1 == count),
            np.maximum.reduceat(np.where(ok, A, -INF), heads),
            np.maximum.reduceat(np.where(ok, C, -INF), heads),
        ))
        k0 = k1
    cols = [np.concatenate(col).tolist() for col in zip(*parts)]
    return _Survivors(start.tolist(), alive, *cols)


def _fit_range(surv: _Survivors, k: int, d: int, sc: int, ub: float) -> tuple[int, int] | None:
    """The all-pairs-fit shortcut for the period between boundaries k and
    k + 1. When the survivors J and I on both sides are intervals and the
    dearest pair, max A + max C plus the setup charge, is within ``ub``,
    every pair of J x I fits, so the supported production values are exactly
    the candidates in [I_0 - J_1 + d, I_1 - J_0 + d]; returns that range.
    None when the shortcut does not apply."""
    if not (surv.dense[k] and surv.dense[k + 1] and surv.max_a[k] + surv.max_c[k + 1] + sc <= ub):
        return None
    return surv.first[k + 1] - surv.last[k] + d, surv.last[k + 1] - surv.first[k] + d


def _pair_pass(fwd: DpTable, bwd: DpTable, surv: _Survivors, ks: list[int], ub: float) -> dict:
    """Every survivor pair of the periods ``ks`` at once. Returns, per
    period k (between boundaries k and k + 1): a bool array over x = 0..x_cap
    marking the production values that some pair (j, i), x = i - j + d, fits
    within ``ub`` (x > 0 pays the setup charge), and whether an x = 0 pair
    plus the charge fits (the idle-setup test). A = f - p j and C = g +
    (p + h) i + p d are gathered at the survivors only. Periods are laid end
    to end in chunks of at most ``_PAIR_CHUNK`` pairs, so each period's
    |J| x |I| must fit one chunk."""
    view = fwd.view
    f_rows, g_rows = fwd._rows(), bwd._rows()
    out = {}
    chunk, size = [], 0
    for pos, k in enumerate(ks):
        p, h, d = view.p[k], view.h[k], view.d[k]
        j = np.flatnonzero(surv.alive[surv.start[k] : surv.start[k + 1]])
        i = np.flatnonzero(surv.alive[surv.start[k + 1] : surv.start[k + 2]])
        chunk.append((k, j, f_rows[k][j] - p * j, i, g_rows[k + 1][i] + (p + h) * i + p * d))
        size += len(j) * len(i)
        nxt = ks[pos + 1] if pos + 1 < len(ks) else None
        if nxt is None or size + surv.count[nxt] * surv.count[nxt + 1] > _PAIR_CHUNK:
            out.update(_pair_chunk(view, chunk, ub))
            chunk, size = [], 0
    return out


def _pair_chunk(view: CostView, chunk: list, ub: float) -> dict:
    """``_pair_pass`` on one chunk of (k, J, A, I, C) periods. A pair is
    laid out by its row, the survivor j of its period, and its column, the
    index of its i among the chunk's I survivors."""
    ks, j, a, i, c = zip(*chunk)
    n_j, n_i = np.array([len(v) for v in j]), np.array([len(v) for v in i])
    x_cap = np.array([view.x_cap[k] for k in ks])
    x_head = np.cumsum(x_cap + 1) - x_cap - 1
    d = np.array([view.d[k] for k in ks])
    sc = np.repeat([view.s_charge[k] for k in ks], n_j)
    j, i = np.concatenate(j), np.concatenate(i)
    a, c = np.concatenate(a), np.concatenate(c)
    period = np.repeat(np.arange(len(ks)), n_j)  # per row
    run = n_i[period]
    row = np.repeat(np.arange(len(j)), run)  # per pair
    head = np.cumsum(run) - run - np.repeat(np.cumsum(n_i) - n_i, n_j)
    col = np.arange(len(row)) - head[row]
    x = i[col] + (d[period] - j)[row]
    cost = a[row] + c[col]
    fits = cost + sc[row] * (x > 0) <= ub
    fits &= (x >= 0) & (x <= x_cap[period][row])
    sup = np.zeros(int(x_head[-1] + x_cap[-1] + 1), dtype=bool)
    sup[(x + x_head[period][row])[fits]] = True
    idle = np.zeros(len(ks), dtype=bool)
    idle[period[row[(x == 0) & (cost + sc[row] <= ub)]]] = True
    return {k: (sup[x_head[q] : x_head[q] + x_cap[q] + 1], bool(idle[q])) for q, k in enumerate(ks)}


def filter_with_dp(
    fwd: DpTable,
    bwd: DpTable,
    store: DomainStore,
    stripped: StrippedInstance,
    cost_ub: int,
) -> Status:
    """Remove inventory/production/setup values not supported under the bound.

    The tables and ``stripped`` describe the domains to filter; ``store``
    is only written, each domain cut to the values that keep a support.
    ``cost_ub`` caps the stripped cost of the window's plan: on the whole
    horizon the variable's upper bound minus the mandatory baseline, on a
    window that less what the rest of the plan costs at least. The window's
    sunk setups are deducted here. ``fwd`` and ``bwd`` share
    one cost view (``window_tables``). In windowed mode values at or above
    the remaining in-window demand are never touched.

    One vectorised pass (``_survivors``) over the rows laid end to end, in
    blocks of bounded size, finds the surviving states: an inventory value
    survives if its through-path f + f_r stays within the bound. The
    inventory domain's bounds move to the lowest and highest survivors, and
    the values between them stay. A production value x of period t survives
    if a state pair (j, i), i - j + d = x, generates it within the bound
    (support semantics). Such a pair joins two surviving states (J at
    boundary t, I at t + 1), because each table step minimizes over the same
    transitions. When J and I are intervals and even their dearest pair fits
    (``_fit_range``), the supported values are an interval and the period is
    settled by interval arithmetic. The other periods whose J x I fits one
    chunk read all their pairs in one batched pass (``_pair_pass``).
    Otherwise ``_support`` reads the pairs of J x I in blocks of rows
    spread over J, each against all of I or along the diagonals of the
    undecided values, whichever are fewer, and stops once every value is
    supported. Its cost follows the pairs it reads, at most |J| x |I|; its
    memory is fixed; a period with more than ``_PAIR_CAP`` pairs keeps its
    X and Y. Both passes give one (supported values, idle test) result per
    period. The setup value Y_t = 1 survives if some x > 0 survives or the
    x = 0 diagonal plus the setup charge stays within the bound.
    """
    view = fwd.view
    ub_eff = cost_ub - view.sunk
    if math.isinf(ub_eff) and ub_eff > 0:
        return Status.UNCHANGED
    windowed = view.windowed
    status = Status.UNCHANGED
    surv = _survivors(fwd, bwd, ub_eff)

    for k in range(1, view.v - view.u + 2):
        t = view.u + k - 1
        i_off = stripped.i_off[t]
        width = stripped.i_cap[t] + 1
        lo, hi = (surv.first[k], surv.last[k]) if surv.count[k] else (width, -1)
        if windowed and view.tail[k] < width:
            lo, hi = min(lo, view.tail[k]), width - 1
        if lo > hi:
            return Status.FAILED
        st = store.set_min(("I", t), lo + i_off)
        st = merge(st, store.set_max(("I", t), hi + i_off))
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)

    fits = [_fit_range(surv, k, view.d[k], view.s_charge[k], ub_eff) for k in range(view.v - view.u + 1)]
    pairs = _pair_pass(fwd, bwd, surv, [
        k for k, fit in enumerate(fits) if fit is None and 0 < surv.count[k] * surv.count[k + 1] <= _PAIR_CHUNK
    ], ub_eff)
    for t in range(view.u, view.v + 1):
        k = t - view.u
        d, sc = view.d[k], view.s_charge[k]
        x_off = stripped.x_off[t]
        dom = stripped.x_ivs[t]
        xcap = view.x_cap[k]
        width = dom[-1][1] + 1
        thr = view.tail[k + 1] if windowed else width
        fit = fits[k]
        x0, runs = view.x_runs(t)
        if fit is not None:
            allowed = iv_intersect(dom, (((0, 0),) if x0 else ()) + tuple(runs))
            sup_ivs = iv_intersect(allowed, ((max(fit[0], 0), min(fit[1], xcap, thr - 1)),))
            if not sup_ivs and thr >= width:
                return Status.FAILED
            keep = iv_normalize(sup_ivs + ((thr, width - 1),))
            producing = bool(sup_ivs) and sup_ivs[-1][1] >= 1
            idle = fit[0] <= 0 <= fit[1]
        elif surv.count[k] * surv.count[k + 1] > _PAIR_CAP:
            continue  # too many pairs to read: X_t and Y_t keep every value
        else:
            cand = view.x_allow_mask(t) & iv_mask(dom, 0, xcap)
            cand[thr:] = False
            if k in pairs:
                sup, idle = pairs[k]
            else:
                p, h = view.p[k], view.h[k]
                s0, s1, s2 = surv.start[k : k + 3]
                A = np.where(surv.alive[s0:s1], fwd.row(t) - p * np.arange(s1 - s0), INF)
                C = np.where(surv.alive[s1:s2], bwd.row(t + 1) + (p + h) * np.arange(s2 - s1) + p * d, INF)
                sup, idle = _support(A, C, d, sc, cand, ub_eff)
            sup = sup & cand
            supported = np.zeros(width, dtype=bool)
            supported[: xcap + 1] = sup
            supported[thr:] = True
            if not supported.any():
                return Status.FAILED
            keep = iv_from_mask(supported, 0)
            producing = bool(sup[1:].any())
        st = store.set_intervals(("X", t), iv_intersect(store.intervals(("X", t)), iv_shift(keep, x_off)))
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)

        # Setup-value rule: if even the cheapest completion that keeps
        # Y_t = 1 (producing, or paying the setup idle) busts the bound,
        # Y_t must be 0. Only stated on suffix windows, where the table
        # is exact for the in-window plan. A setup charge is payable only
        # while Y_t is free.
        if not windowed and sc > 0 and not producing and not (x0 and idle):
            st = store.set_max(("Y", t), 0)
            if st is Status.FAILED:
                return Status.FAILED
            status = merge(status, st)
    return status
