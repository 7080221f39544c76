"""The lot-sizing global constraint: feasibility propagation plus
cost-based filtering.

``bc_feasibility`` reaches bound consistency on the cost-free network (flow
balances, setup links, variable bounds) in one forward and one backward
sweep over plain bound lists: the constraint network is Berge-acyclic, so
two wakes per constraint suffice on hole-free domains (holes force extra
sweeps).

``LotSizingConstraint.propagate`` runs the full filtering pipeline to a
fixpoint: when every setup variable is fixed the plan is completed by the
exact path-network flow; otherwise, and when the flow plan lands in a
production hole or busts a component cap, lower bounds are pulled from the
four cost-restricted flow relaxations and the whole-horizon DP. Under
``filter_mode="auto"`` the DP runs when one of its tables holds at most
2**20 states (``dp.table_fits``); above that, the node keeps the flow
bounds alone. A node with every setup fixed takes the DP whenever its table
fits, under either mode, so a plan in a hole is closed by the DP plan's
offer. The paper's interval-decomposition bound and windowed filtering run
only under ``filter_mode="wisp"``, where the same state count decides
which of their windows are exact. Inventory domains are filtered to bounds,
the paper's contract; production domains keep the holes the DP's support
test punches.

The argmin plan of the DP's cost table is offered to the search, which
gates it (the DP does not know Q/R) and keeps it as its incumbent. When an
accepted plan costs the node's lower bound, nothing in the subtree is
cheaper: propagation stops there and reports the node ``CLOSED``.

One pass runs: BC and the strip; the completion of fully set plans; then,
on a node the whole-horizon DP serves, the C table and its plan offer (the
closing test), the four flow relaxations only if the node stays open, the C
filter, and the Cs table only if that filter moved no X/I/Y domain;
elsewhere the flow relaxations, then the WISP stage under ``wisp`` (nothing
more above the cap under ``auto``); last the cost identity C = Cp + Ch + Cs.
Closing first changes no answer: the DP optimum dominates the FULL flow
bound, and the offer's cap check reads only cost maxima, which the flows
never lower. The Cs table only raises min Cs (the setup-only bound): its
filter would keep every plan that the C filter keeps (see ``_dp_stage``).

The strip (``instance.strip_lower_bounds``) is the one reading of the
domains per pass: built once per plan epoch at which BC ran, it carries the
arc data (capacities, payable and sunk setups), the Y bounds and the X/I
intervals, and every stage reads it in place of the store. It describes
the store as it stands until a filter writes X/I/Y: the C filter runs after
every other whole-horizon reader, and a Cs table that would follow a moving
C filter waits for the next pass and its fresh strip. The WISP stage reads
the strip it starts with for both decompositions and every support window;
the store its support filter narrows is only written, so later windows
filter on wider domains, which stays sound.

A stage reruns only when what it reads has changed. ``propagate`` iterates
until a pass leaves ``mod_count`` alone, but across passes, calls and
backtracks the constraint keeps, per stage, the store reading at which it
last ran (``_keys``), keyed on the store's ``plan_epoch`` (X/I/Y changes
and restoring pops). BC and the strip, the flow relaxations and the Cs
table rerun when the epoch has moved (the Cs table on a pass at the strip's
epoch): with the plan variables unchanged BC is at its fixpoint, the strip
is the same, and the cost minima the flows and the table raised can only
have risen since. The C table, its offer and
the C filter rerun when the epoch or max C has moved; the offer's closing
test also reads min C, but the table has just raised it to the plan's cost.
The WISP stage reruns when the epoch, max Cs or max C has moved since the
end of its last pass, and at most once per call. The cost identity and the
completion of fully set plans run on every pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import wisp as wisp_mod
from .domains import (
    DomainStore,
    Status,
    Wipeout,
    iv_contains,
    lower_hi,
    merge,
    raise_lo,
    read_bounds,
    write_back,
)
from .dp import DpTable, filter_with_dp, table_fits, window_tables
from .flow import FlowMode, min_cost_flow, path_greedy
from .instance import Instance, StrippedInstance, strip_lower_bounds
from .solution import Solution


class PropagateResult(enum.Enum):
    FIXPOINT = "fixpoint"
    FAILED = "failed"
    COMPLETED = "completed"
    CLOSED = "closed"  # an accepted DP plan costs the node's lower bound


def bc_feasibility(store: DomainStore, inst: Instance) -> tuple[Status, dict]:
    """Bound consistency on the feasibility network.

    The sweep runs on plain lists of the X, I and Y bounds. A forward pass
    wakes each setup link then its balance; the backward pass revisits them
    in reverse order; each balance wake iterates to its own fixpoint. On
    hole-free domains each constraint is woken exactly twice (returned in the
    wake-count dict), which reaches the fixpoint on this Berge-acyclic
    network. A bound that lands in a domain hole moves on to the next domain
    value, as the store itself would move it; that can stale earlier wakes,
    so with holes full forward sweeps repeat until nothing changes. The
    final bounds are written back with ``set_min``/``set_max``. On a wipeout
    the bounds reached so far are written back and the emptying request is
    replayed on the store, which leaves it failed exactly where a
    store-level sweep in the same order would have.
    """
    T = inst.T
    d = inst.d
    if store.failed:
        return Status.FAILED, {}
    xl, xh, xholes = read_bounds(store, "X", T)
    il, ih, iholes = read_bounds(store, "I", T)
    yl, yh, _ = read_bounds(store, "Y", T)
    bounds = (("X", xl, xh), ("I", il, ih), ("Y", yl, yh))
    start = [(lo[:], hi[:]) for _, lo, hi in bounds]
    setup_wakes = [0] * T
    balance_wakes = [0] * T

    def setup(t: int) -> bool:
        setup_wakes[t] += 1
        moved = False
        if yh[t] == 0 and (xl[t] != 0 or xh[t] != 0):
            if not (xl[t] <= 0 <= xh[t] and (xholes[t] is None or iv_contains(xholes[t], 0))):
                raise Wipeout("X", t, "assign", 0)
            xl[t] = xh[t] = 0
            moved = True
        if xl[t] > 0 and yl[t] == 0:
            if yh[t] == 0:
                raise Wipeout("Y", t, "assign", 1)
            yl[t] = 1
            moved = True
        return moved

    def balance(t: int) -> bool:
        """I_{t-1} + X_t = d_t + I_t (I_{-1} is 0), to its own fixpoint: a
        raised production minimum can jump a hole and stale the inventory
        bounds set just before."""
        balance_wakes[t] += 1
        dt = d[t]
        moved = False
        while True:
            step = False
            pl, ph = (il[t - 1], ih[t - 1]) if t > 0 else (0, 0)
            step |= raise_lo(il, ih, iholes, t, pl + xl[t] - dt, "I")
            step |= lower_hi(il, ih, iholes, t, ph + xh[t] - dt, "I")
            lo_i, hi_i = il[t], ih[t]
            step |= raise_lo(xl, xh, xholes, t, dt + lo_i - ph, "X")
            step |= lower_hi(xl, xh, xholes, t, dt + hi_i - pl, "X")
            if t > 0:
                step |= raise_lo(il, ih, iholes, t - 1, dt + lo_i - xh[t], "I")
                step |= lower_hi(il, ih, iholes, t - 1, dt + hi_i - xl[t], "I")
            if not step:
                return moved
            moved = True

    wipeout = None
    try:
        for t in range(T):
            setup(t)
            balance(t)
        for t in range(T - 1, -1, -1):
            balance(t)
            setup(t)
        holes = any(xholes) or any(iholes)
        while holes:
            moved = False
            for t in range(T):
                moved |= setup(t)
                moved |= balance(t)
            holes = moved
    except Wipeout as exc:
        wipeout = exc.args
    wakes = {("setup", t): n for t, n in enumerate(setup_wakes) if n}
    wakes.update({("balance", t): n for t, n in enumerate(balance_wakes) if n})
    return write_back(store, bounds, start, wipeout), wakes


def complete_when_setups_fixed(inst: Instance, stripped: StrippedInstance) -> Solution | None:
    """Cheapest plan consistent with fully fixed setup decisions, or None.

    With every setup fixed, the rest is the path network with unit costs p
    and h and the sunk setups as a constant. ``stripped`` must be read at
    the bound consistency fixpoint (``propagate`` guarantees it), where its
    capacities are those of the arcs; the greedy then ships the stripped
    demands exactly. The costs are integers, so the optimum is integral.
    The plan solves the interval hull of the domains: production holes are
    ignored, so None proves the domains infeasible and the plan's cost is a
    lower bound, but the plan itself may land in a hole.
    """
    spent, prod_flow, _ = path_greedy(stripped.x_cap, stripped.p, stripped.h, stripped.i_cap, stripped.d)
    if len(spent) < inst.T:
        return None
    x = [stripped.x_off[t] + prod_flow[t] for t in range(inst.T)]
    return Solution.from_plan(inst, x, list(stripped.y_lo))


FILTER_MODES = ("auto", "wisp")


@dataclass
class LotSizingConstraint:
    instance: Instance
    store: DomainStore
    filter_mode: str = "auto"  # one of FILTER_MODES
    # The search's gate for DP plans: True when the plan is valid, which also
    # makes it the incumbent if cheaper. None offers no plans.
    offer: Callable[[Solution], bool] | None = None

    def __post_init__(self):
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(f"unknown filter_mode {self.filter_mode!r}; known: {', '.join(FILTER_MODES)}")
        # Per stage, the store reading at which it last ran (see the module
        # docstring); BC's entry also dates the strip, the snapshot of the
        # domains every stage reads, and whether its whole-horizon table fits.
        self._keys: dict[str, object] = {}
        self._stripped: StrippedInstance | None = None
        self._fits = False
        self._wisp_ran = False
        self._closed: Solution | None = None
        self._trivial_caps = self.instance.max_cost_bounds()

    # -- helpers ------------------------------------------------------------

    def _check_cost_caps(self, sol: Solution) -> bool:
        s = self.store
        return (
            sol.cp <= s.max(("Cp", 0))
            and sol.ch <= s.max(("Ch", 0))
            and sol.cs <= s.max(("Cs", 0))
            and sol.c <= s.max(("C", 0))
        )

    def _assign_solution(self, sol: Solution) -> Status:
        st = Status.UNCHANGED
        for t in range(self.instance.T):
            st = merge(st, self.store.assign(("X", t), sol.x[t]))
            st = merge(st, self.store.assign(("I", t), sol.i[t]))
            if st is Status.FAILED:
                return st
        for name, val in (("Cp", sol.cp), ("Ch", sol.ch), ("Cs", sol.cs), ("C", sol.c)):
            st = merge(st, self.store.assign((name, 0), val))
            if st is Status.FAILED:
                return st
        return st

    def _trace_plan(self, fwd: DpTable, stripped: StrippedInstance) -> Solution:
        """The cheapest plan of a feasible whole-horizon cost table, taking
        the lowest predecessor at every step, with a setup wherever it
        produces or Y is fixed to 1. Honors production holes.

        State i of boundary t + 1 comes from state j = i + d - x of boundary
        t by a production x of an allowed run at cost p x + h i + sc, so j
        is its predecessor when f_t(j) - p j equals f_{t+1}(i) - p (i + d) -
        h i - sc. That is one slice test per run, over the run's own window
        of j. The runs are searched from the largest x down, so the first
        hit is the lowest predecessor; x = 0, the highest, is one scalar
        test last."""
        view = fwd.view
        idx = view.index
        T = self.instance.T
        x = [0] * T
        i_state = 0
        for t in range(T - 1, -1, -1):
            row_prev = fwd.row(t)
            target = fwd.row(t + 1)[i_state]
            k = t - view.u
            d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
            x0_ok, runs = view.x_runs(t)
            top = i_state + d  # the predecessor of x = 0
            want = target - p * top - h * i_state - sc
            j = None
            for xa, xb in reversed(runs):
                lo, hi = max(top - xb, 0), min(top - xa, len(row_prev) - 1)
                if lo <= hi:
                    hits = np.flatnonzero(row_prev[lo : hi + 1] - p * idx[lo : hi + 1] == want)
                    if len(hits):
                        j = lo + int(hits[0])
                        break
            if j is None:
                if not (x0_ok and top < len(row_prev) and row_prev[top] + h * i_state == target):
                    raise AssertionError("DP path extraction lost the optimal trace")
                j = top
            x[t] = top - j + stripped.x_off[t]
            i_state = j
        y = [1 if x[t] > 0 or stripped.y_lo[t] == 1 else 0 for t in range(T)]
        return Solution.from_plan(self.instance, x, y)

    # -- main entry -----------------------------------------------------------

    def propagate(self) -> tuple[PropagateResult, Solution | None]:
        store = self.store
        if store.failed:
            return PropagateResult.FAILED, None
        self._wisp_ran = False
        self._closed = None
        while True:
            before = store.mod_count
            if store.plan_epoch != self._keys.get("bc"):
                if bc_feasibility(store, self.instance)[0] is Status.FAILED:
                    return PropagateResult.FAILED, None
                self._stripped = strip_lower_bounds(self.instance, store)
                self._fits = table_fits(self._stripped)
                self._keys["bc"] = store.plan_epoch
            stripped = self._stripped

            all_y_fixed = stripped.y_lo == stripped.y_hi
            if all_y_fixed:
                res = self._try_complete(stripped)
                if res is not None:
                    return res

            # A node the whole-horizon DP serves tries its closing test
            # first and runs the flows inside the DP stage, only if open.
            # Above the table cap, ``auto`` keeps the flow bounds alone for
            # their cost per node (see the README for the measured bounds and
            # times). Under ``wisp`` only a node with every setup fixed takes
            # the DP: its offer closes a flow plan that lands in a hole.
            if (self.filter_mode == "auto" or all_y_fixed) and self._fits:
                status = self._dp_stage(stripped)
            else:
                status = self._flow_stage(stripped)
                if self.filter_mode == "wisp" and status is not Status.FAILED:
                    status = self._wisp_stage(stripped)
            if status is Status.FAILED:
                return PropagateResult.FAILED, None
            if self._closed is not None:
                return PropagateResult.CLOSED, self._closed

            if self._cost_identity() is Status.FAILED:
                return PropagateResult.FAILED, None

            if store.mod_count == before:
                return PropagateResult.FIXPOINT, None

    # -- stages ---------------------------------------------------------------

    def _in_domains(self, sol: Solution) -> bool:
        store = self.store
        return all(
            store.contains(("X", t), sol.x[t]) and store.contains(("I", t), sol.i[t])
            for t in range(self.instance.T)
        )

    def _try_complete(self, stripped: StrippedInstance) -> tuple[PropagateResult, Solution | None] | None:
        """All Y fixed: instantiate the rest by the exact flow completion, or
        report failure.

        The flow solves the interval hull of the domains, so no plan, or one
        that busts the C cap, proves the subtree dead, and its plan is kept
        when it lies inside the domains. A plan in a production hole, or one
        that busts a per-component cap, proves nothing (None): the node goes
        on to the DP stage when its table fits, whose argmin plan honors
        holes and closes the node once the search accepts it, and otherwise
        to the flow relaxations. With every X fixed, a plan that busts a
        component cap fails there.
        """
        sol = complete_when_setups_fixed(self.instance, stripped)
        if sol is None or sol.c > self.store.max(("C", 0)):
            return PropagateResult.FAILED, None
        if self._check_cost_caps(sol) and self._in_domains(sol):
            if self._assign_solution(sol) is Status.FAILED:
                return PropagateResult.FAILED, None
            return PropagateResult.COMPLETED, sol
        return None

    def _flow_stage(self, stripped: StrippedInstance) -> Status:
        """The flow bounds, once per plan epoch."""
        if self._keys.get("flows") == self.store.plan_epoch:
            return Status.UNCHANGED
        status = self._flow_bounds(stripped)
        if status is not Status.FAILED:
            self._keys["flows"] = self.store.plan_epoch
        return status

    def _flow_bounds(self, stripped: StrippedInstance) -> Status:
        """Raise the cost minima from the four flow relaxations: four cost
        vectors over the strip's arcs."""
        store = self.store
        status = Status.UNCHANGED
        for mode, var, base in (
            (FlowMode.CP_ONLY, "Cp", stripped.cp_min),
            (FlowMode.CH_ONLY, "Ch", stripped.ch_min),
            (FlowMode.CS_ONLY, "Cs", stripped.cs_min),
            (FlowMode.FULL, "C", stripped.c_min),
        ):
            bound = min_cost_flow(stripped, mode)
            if bound is None:
                return Status.FAILED
            status = merge(status, store.set_min((var, 0), bound + base))
            if status is Status.FAILED:
                return status
        return status

    def _dp_stage(self, stripped: StrippedInstance) -> Status:
        """The whole-horizon DP, each table keyed on what it reads.

        The C table, its plan offer and the C filter rerun when the plan
        epoch or max C has moved. The table raises min C and its argmin plan
        is offered; if the plan closes the node, nothing else runs.
        Otherwise the flow bounds run, before the filter narrows X/I/Y
        against max C. The Cs (setup-only) table reruns when the plan epoch
        has moved, on a pass that leaves the epoch at the strip's (the C
        filter moved nothing or did not run), and only raises min Cs, the
        paper's knapsack bound: it reads no cost maximum, and a filter
        against max Cs would remove nothing. A plan the C filter keeps costs
        at most max C, so its Cs is at most max C less the other components'
        minima, and no rule on this route lowers max Cs below that."""
        store = self.store
        status = Status.UNCHANGED
        c_max = store.max(("C", 0))
        c_key = (store.plan_epoch, c_max)
        rerun = self._keys.get("C") != c_key
        if rerun:
            fwd, bwd = window_tables(stripped, None, cs_mode=False)
            status = self._raise_to_optimum(fwd, "C", stripped.c_min)
            if status is Status.FAILED or self._offer_plan(fwd, stripped):
                return status
        status = merge(status, self._flow_stage(stripped))
        if status is Status.FAILED:
            return status
        if rerun:
            status = merge(status, filter_with_dp(fwd, bwd, store, stripped, c_max - stripped.c_min))
            if status is Status.FAILED:
                return status
            self._keys["C"] = c_key
        if store.plan_epoch == self._keys["bc"] and self._keys.get("Cs") != store.plan_epoch:
            fwd, _ = window_tables(stripped, None, cs_mode=True)
            status = merge(status, self._raise_to_optimum(fwd, "Cs", stripped.cs_min))
            if status is Status.FAILED:
                return status
            self._keys["Cs"] = store.plan_epoch
        return status

    def _raise_to_optimum(self, fwd: DpTable, var: str, base: int) -> Status:
        """Raise the cost variable's minimum to the table's optimum."""
        opt = fwd.optimum()
        if math.isinf(opt):
            return Status.FAILED
        return self.store.set_min((var, 0), int(opt) + fwd.sunk + base)

    def _offer_plan(self, fwd: DpTable, stripped: StrippedInstance) -> bool:
        """Offer the cost table's argmin plan within the cost caps to the
        search; True when it is accepted and closes the node."""
        if self.offer is None:
            return False
        plan = self._trace_plan(fwd, stripped)
        if not (self._check_cost_caps(plan) and self.offer(plan)):
            return False
        if plan.c > self.store.min(("C", 0)):
            return False
        self._closed = plan
        return True

    def _wisp_stage(self, stripped: StrippedInstance) -> Status:
        """The decomposition bound and support filter for C, then Cs. It
        reruns when the plan epoch, max Cs or max C has moved since the end
        of its last pass, and at most once per propagation call (the
        filtering algorithm is single-pass); the cheap stages still iterate
        to their joint fixpoint."""
        store = self.store
        if self._wisp_ran or self._keys.get("wisp") == self._wisp_key():
            return Status.UNCHANGED
        self._wisp_ran = True
        status = Status.UNCHANGED
        for cs_mode, var, base, trivial in (
            (False, "C", stripped.c_min, self._trivial_caps[3]),
            (True, "Cs", stripped.cs_min, self._trivial_caps[2]),
        ):
            decomp = wisp_mod.compute_decomposition(stripped, cs_mode=cs_mode)
            if any(math.isinf(s.w) for s in decomp.subproblems):
                return Status.FAILED
            # Setups already sunk outside every support window are paid on
            # top of the disjoint window bounds.
            covered = set()
            for u, v in decomp.support:
                covered.update(range(u, v + 1))
            extra = sum(s for t, s in enumerate(stripped.sunk) if t not in covered)
            status = merge(status, store.set_min((var, 0), int(decomp.value) + extra + base))
            if status is Status.FAILED:
                return status
            ub = store.max((var, 0)) - base
            if store.max((var, 0)) < trivial:
                status = merge(status, wisp_mod.wisp_support_filter(decomp, stripped, store, ub, cs_mode=cs_mode))
                if status is Status.FAILED:
                    return status
        self._keys["wisp"] = self._wisp_key()
        return status

    def _wisp_key(self) -> tuple:
        s = self.store
        return (s.plan_epoch, s.max(("Cs", 0)), s.max(("C", 0)))

    def _cost_identity(self) -> Status:
        """Propagate C = Cp + Ch + Cs as interval sums, both directions."""
        store = self.store
        status = Status.UNCHANGED
        parts = ("Cp", "Ch", "Cs")
        lo = {v: store.min((v, 0)) for v in parts + ("C",)}
        hi = {v: store.max((v, 0)) for v in parts + ("C",)}
        status = merge(status, store.set_min(("C", 0), sum(lo[v] for v in parts)))
        status = merge(status, store.set_max(("C", 0), sum(hi[v] for v in parts)))
        if status is Status.FAILED:
            return status
        c_lo, c_hi = store.min(("C", 0)), store.max(("C", 0))
        for v in parts:
            others_lo = sum(lo[o] for o in parts if o != v)
            others_hi = sum(hi[o] for o in parts if o != v)
            status = merge(status, store.set_min((v, 0), c_lo - others_hi))
            status = merge(status, store.set_max((v, 0), c_hi - others_lo))
            if status is Status.FAILED:
                return status
        return status
