"""The lot-sizing global constraint: feasibility propagation plus
cost-based filtering.

``bc_feasibility`` reaches bound consistency on the cost-free network (flow
balances, setup links, variable bounds) in one forward and one backward
sweep: the constraint network is Berge-acyclic, so two wakes per constraint
suffice on hole-free domains (holes force extra sweeps).

``LotSizingConstraint.propagate`` runs the full filtering pipeline to a
fixpoint: when every setup variable is fixed the plan is completed by the
exact path-network flow (or by the DP when production domains carry holes);
otherwise lower bounds are pulled from cost-restricted flow relaxations and
the whole-horizon DP. Under ``filter_mode="auto"`` the DP runs when one of
its tables holds at most 2**20 states (``dp.table_fits``); above that, the
interval-decomposition bound and windowed filtering take over, and
``dp_budget`` decides which of their windows are exact. The same test
gates the DP completion of plans whose production domains carry holes.

The argmin plan of the DP's cost table is offered to the search, which
gates it (the DP does not know Q/R) and keeps it as its incumbent. When an
accepted plan costs the node's lower bound, nothing in the subtree is
cheaper: propagation stops there and reports the node ``CLOSED``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import wisp as wisp_mod
from .domains import DomainStore, Status, merge
from .dp import DpTable, filter_with_dp, make_cost_view, table_fits, window_tables
from .flow import FlowMode, INFEASIBLE, build_network, min_cost_flow, path_greedy
from .instance import Instance, StrippedInstance, strip_lower_bounds
from .solution import Solution


class PropagateResult(enum.Enum):
    FIXPOINT = "fixpoint"
    FAILED = "failed"
    COMPLETED = "completed"
    CLOSED = "closed"  # an accepted DP plan costs the node's lower bound


def _wake_balance(store: DomainStore, inst: Instance, t: int) -> Status:
    """Bound consistency on I_{t-1} + X_t = d_t + I_t (I_{-1} is 0).

    Iterated to the constraint's own fixpoint within the wake: a tightened
    production minimum can jump across a domain hole and invalidate the
    inventory bounds computed just before.
    """
    d = inst.d[t]
    overall = Status.UNCHANGED
    while True:
        st = Status.UNCHANGED
        if t == 0:
            pl = ph = 0
        else:
            pl, ph = store.min(("I", t - 1)), store.max(("I", t - 1))
        xl, xh = store.min(("X", t)), store.max(("X", t))
        st = merge(st, store.set_min(("I", t), pl + xl - d))
        st = merge(st, store.set_max(("I", t), ph + xh - d))
        if st is Status.FAILED:
            return st
        il, ih = store.min(("I", t)), store.max(("I", t))
        st = merge(st, store.set_min(("X", t), d + il - ph))
        st = merge(st, store.set_max(("X", t), d + ih - pl))
        if st is Status.FAILED:
            return st
        if t > 0:
            xl, xh = store.min(("X", t)), store.max(("X", t))
            st = merge(st, store.set_min(("I", t - 1), d + il - xh))
            st = merge(st, store.set_max(("I", t - 1), d + ih - xl))
            if st is Status.FAILED:
                return st
        if st is Status.UNCHANGED:
            return overall
        overall = Status.CHANGED


def bc_feasibility(store: DomainStore, inst: Instance) -> tuple[Status, dict]:
    """Bound consistency on the feasibility network.

    Forward pass channels each setup link then its balance; the backward
    pass revisits them in reverse order. On hole-free domains each
    constraint is woken exactly twice (returned in the wake-count dict),
    which reaches the fixpoint on this Berge-acyclic network. Domains with
    holes can deflect a requested bound past a gap and stale earlier wakes,
    so in that case full sweeps repeat until nothing changes.
    """
    wakes: dict[tuple[str, int], int] = {}

    def wake(kind: str, t: int) -> Status:
        wakes[(kind, t)] = wakes.get((kind, t), 0) + 1
        if kind == "setup":
            return store.channel_setup(t)
        return _wake_balance(store, inst, t)

    holes = any(
        len(store.intervals(("X", t))) > 1 or len(store.intervals(("I", t))) > 1
        for t in range(inst.T)
    )
    status = Status.UNCHANGED
    for t in range(inst.T):
        for kind in ("setup", "balance"):
            status = merge(status, wake(kind, t))
            if status is Status.FAILED:
                return Status.FAILED, wakes
    for t in range(inst.T - 1, -1, -1):
        for kind in ("balance", "setup"):
            status = merge(status, wake(kind, t))
            if status is Status.FAILED:
                return Status.FAILED, wakes
    while holes:
        before = store.mod_count
        for t in range(inst.T):
            for kind in ("setup", "balance"):
                st = wake(kind, t)
                if st is Status.FAILED:
                    return Status.FAILED, wakes
                status = merge(status, st)
        if store.mod_count == before:
            break
    return status, wakes


def _strip(inst: Instance, store: DomainStore) -> StrippedInstance:
    """The instance with the current domain bounds stripped (needs BC)."""
    T = inst.T
    return strip_lower_bounds(
        inst,
        x_min=[store.min(("X", t)) for t in range(T)],
        i_min=[store.min(("I", t)) for t in range(T)],
        x_max=[store.max(("X", t)) for t in range(T)],
        i_max=[store.max(("I", t)) for t in range(T)],
    )


def complete_when_setups_fixed(inst: Instance, store: DomainStore) -> Solution | None:
    """Cheapest plan consistent with fully fixed setup decisions, or None.

    With every setup fixed, the rest is the path network with unit costs p
    and h and the sunk setups as a constant. Bound consistency, on a level
    popped again before returning, makes the current lower bounds
    strippable; the greedy then ships the stripped demands exactly. The
    costs are integers, so the optimum is integral. Production holes are
    ignored.
    """
    store.push_level()
    try:
        if bc_feasibility(store, inst)[0] is Status.FAILED:
            return None
        stripped = _strip(inst, store)
        net = build_network(stripped, store, FlowMode.FULL)
        spent, prod_flow = path_greedy(net.prod_cap, net.prod_cost, net.inv_cost, net.inv_cap, net.demand)
        if len(spent) < inst.T:
            return None
        x = [stripped.x_off[t] + prod_flow[t] for t in range(inst.T)]
        y = [store.value(("Y", t)) for t in range(inst.T)]
    finally:
        store.pop_level()
    return Solution.from_plan(inst, x, y)


@dataclass
class LotSizingConfig:
    dp_budget: int = 20_000_000
    filter_mode: str = "auto"  # auto | dp | wisp
    hole_punch: bool = False
    flow_completion_valid: bool = True


@dataclass
class LotSizingConstraint:
    instance: Instance
    store: DomainStore
    config: LotSizingConfig = field(default_factory=LotSizingConfig)
    # The search's gate for DP plans: True when the plan is valid, which also
    # makes it the incumbent if cheaper. None offers no plans.
    offer: Callable[[Solution], bool] | None = None

    def __post_init__(self):
        self._dp_sig: int | None = None
        self._wisp_ran = False
        self._closed: Solution | None = None
        self._trivial_caps = self.instance.max_cost_bounds()

    # -- helpers ------------------------------------------------------------

    def _all_y_fixed(self) -> bool:
        return all(self.store.is_fixed(("Y", t)) for t in range(self.instance.T))

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
        produces or Y is fixed to 1. Honors production holes."""
        view = fwd.view
        T = self.instance.T
        x = [0] * T
        i_state = 0
        for t in range(T - 1, -1, -1):
            row_prev = fwd.row(t)
            target = fwd.row(t + 1)[i_state]
            k = t - view.u
            d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
            allow = view.x_allow_mask(t)
            xv = i_state + d - np.arange(len(row_prev))
            ok = (xv >= 0) & (xv < len(allow))
            ok[ok] = allow[xv[ok]]
            cost = p * xv + h * i_state + np.where(xv > 0, sc, 0)
            hits = np.flatnonzero(ok & (row_prev + cost == target))
            if len(hits) == 0:
                raise AssertionError("DP path extraction lost the optimal trace")
            i_state = int(hits[0])
            x[t] = int(xv[i_state]) + stripped.x_off[t]
        y = [1 if x[t] > 0 or self.store.min(("Y", t)) == 1 else 0 for t in range(T)]
        return Solution.from_plan(self.instance, x, y)

    def _dp_complete(self, stripped: StrippedInstance) -> Solution | None:
        """A cheapest plan of the exact whole-horizon DP, or None when it is
        infeasible; backs completion when the flow cannot."""
        fwd, _ = window_tables(stripped, self.store, None, cs_mode=False)
        if math.isinf(fwd.optimum()):
            return None
        return self._trace_plan(fwd, stripped)

    # -- main entry -----------------------------------------------------------

    def propagate(self) -> tuple[PropagateResult, Solution | None]:
        store = self.store
        if store.failed:
            return PropagateResult.FAILED, None
        self._wisp_ran = False
        self._closed = None
        while True:
            before = store.mod_count
            st, _ = bc_feasibility(store, self.instance)
            if st is Status.FAILED:
                return PropagateResult.FAILED, None

            if self._all_y_fixed():
                res = self._try_complete()
                if res is not None:
                    return res

            stripped = _strip(self.instance, self.store)

            if self._flow_bounds(stripped) is Status.FAILED:
                return PropagateResult.FAILED, None

            if self._cost_filter_stage(stripped) is Status.FAILED:
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

    def _try_complete(self) -> tuple[PropagateResult, Solution | None] | None:
        """All Y fixed: instantiate the rest, or report failure.

        Minimizing C, a completion that busts the C cap proves the subtree
        dead; one that only busts a per-component cap (or lands in a filtered
        production hole) proves nothing, so those fall through (None) and the
        search keeps branching.
        """
        store = self.store
        T = self.instance.T
        if all(store.is_fixed(("X", t)) for t in range(T)):
            x = [store.value(("X", t)) for t in range(T)]
            y = [store.value(("Y", t)) for t in range(T)]
            sol = Solution.from_plan(self.instance, x, y)
            if not self._check_cost_caps(sol):
                return PropagateResult.FAILED, None
            if self._assign_solution(sol) is Status.FAILED:
                return PropagateResult.FAILED, None
            return PropagateResult.COMPLETED, sol
        if self.config.flow_completion_valid:
            sol = complete_when_setups_fixed(self.instance, store)
            if sol is None:
                return PropagateResult.FAILED, None
            if sol.c > store.max(("C", 0)):
                return PropagateResult.FAILED, None
            if self._check_cost_caps(sol) and self._in_domains(sol):
                if self._assign_solution(sol) is Status.FAILED:
                    return PropagateResult.FAILED, None
                return PropagateResult.COMPLETED, sol
        stripped = _strip(self.instance, self.store)
        if not table_fits(make_cost_view(stripped, store, None)):
            return None
        sol = self._dp_complete(stripped)
        if sol is None:
            return PropagateResult.FAILED, None
        if sol.c > store.max(("C", 0)):
            return PropagateResult.FAILED, None
        if not self._check_cost_caps(sol):
            return None
        if self._assign_solution(sol) is Status.FAILED:
            return PropagateResult.FAILED, None
        return PropagateResult.COMPLETED, sol

    def _flow_bounds(self, stripped: StrippedInstance) -> Status:
        """Raise the cost minima from the three flow relaxations."""
        store = self.store
        status = Status.UNCHANGED
        for mode, var, base in (
            (FlowMode.CP_ONLY, "Cp", stripped.cp_min),
            (FlowMode.CH_ONLY, "Ch", stripped.ch_min),
            (FlowMode.FULL, "C", stripped.c_min),
        ):
            res = min_cost_flow(build_network(stripped, store, mode))
            if res.status == INFEASIBLE:
                return Status.FAILED
            status = merge(status, store.set_min((var, 0), res.integer_lower_bound + base))
            if status is Status.FAILED:
                return status
        return status

    def _cost_filter_stage(self, stripped: StrippedInstance) -> Status:
        store = self.store
        if self._dp_sig is not None and self._dp_sig == store.mod_count:
            return Status.UNCHANGED
        mode = self.config.filter_mode
        use_dp = mode == "dp" or (mode == "auto" and table_fits(make_cost_view(stripped, store, None)))
        if use_dp:
            status = self._dp_stage(stripped)
        elif self._wisp_ran:
            # The decomposition pass runs once per propagation call (the
            # filtering algorithm is single-pass); the cheap stages still
            # iterate to their joint fixpoint.
            return Status.UNCHANGED
        else:
            status = self._wisp_stage(stripped)
            self._wisp_ran = True
        if status is not Status.FAILED:
            self._dp_sig = store.mod_count
        return status

    def _dp_stage(self, stripped: StrippedInstance) -> Status:
        store = self.store
        status = Status.UNCHANGED
        for cs_mode, var, base in ((False, "C", stripped.c_min), (True, "Cs", stripped.cs_min)):
            fwd, bwd = window_tables(stripped, store, None, cs_mode=cs_mode)
            opt = fwd.optimum()
            if math.isinf(opt):
                return Status.FAILED
            status = merge(status, store.set_min((var, 0), int(opt) + fwd.sunk + base))
            if status is Status.FAILED:
                return status
            if not cs_mode and self._offer_plan(fwd, stripped):
                return status
            ub = store.max((var, 0)) - base
            status = merge(
                status,
                filter_with_dp(fwd, bwd, store, stripped, ub, hole_punch=self.config.hole_punch),
            )
            if status is Status.FAILED:
                return status
        return status

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
        store = self.store
        status = Status.UNCHANGED
        for mode, var, base, trivial in (
            (wisp_mod.COST_C, "C", stripped.c_min, self._trivial_caps[3]),
            (wisp_mod.COST_CS, "Cs", stripped.cs_min, self._trivial_caps[2]),
        ):
            decomp = wisp_mod.compute_decomposition(
                stripped,
                store,
                mode=mode,
                dp_budget=self.config.dp_budget,
            )
            if any(math.isinf(s.w) for s in decomp.subproblems):
                return Status.FAILED
            # Setups already sunk outside every support window are paid on
            # top of the disjoint window bounds.
            covered = set()
            for idx in decomp.support:
                s = decomp.subproblems[idx - 1]
                covered.update(range(s.u, s.v + 1))
            extra = sum(
                stripped.s[t]
                for t in range(self.instance.T)
                if t not in covered and store.min(("Y", t)) == 1
            )
            status = merge(status, store.set_min((var, 0), int(decomp.value) + extra + base))
            if status is Status.FAILED:
                return status
            ub = store.max((var, 0)) - base
            if store.max((var, 0)) < trivial:
                status = merge(
                    status,
                    wisp_mod.wisp_support_filter(
                        decomp,
                        stripped,
                        store,
                        ub,
                        mode=mode,
                        dp_budget=self.config.dp_budget,
                        hole_punch=self.config.hole_punch,
                    ),
                )
                if status is Status.FAILED:
                    return status
        return status

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
