"""Feasibility propagation and the full filtering pipeline."""

import copy
import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    DomainStore,
    GeneratorParams,
    LotSizingConstraint,
    PropagateResult,
    QRSpec,
    Status,
    SearchConfig,
    SideSpecs,
    Solution,
    bc_feasibility,
    enumerate_plans,
    filter_with_dp,
    generate,
    make_instance,
    solve,
    strip_lower_bounds,
    validate_and_normalize,
    verify,
)
from lotsizing.domains import iv_values
from lotsizing.instance import PEAK_PERIODS_1BASED
from lotsizing.search import _propagate_all, build_model
import lotsizing.dp as dp_mod
import lotsizing.propagator as propagator_mod
from lotsizing.dp import window_tables
from lotsizing.flow import FlowMode, min_cost_flow
from conftest import plan_costs, rand_normalized, store_plans
from test_acceptance import suite_instance_small
from test_dp import _holed_root, two_period
from test_flow import complete_at_bc


class TestBoundConsistency:
    def test_single_period_pins_everything(self):
        inst = make_instance(d=[3], p=[1], h=[1], s=[2], alpha_hi=[5], beta_hi=[5])
        store = DomainStore.for_instance(inst)
        st, _ = bc_feasibility(store, inst)
        assert st is Status.CHANGED
        assert store.intervals(("X", 0)) == ((3, 3),)
        assert store.value(("Y", 0)) == 1

    def test_tight_inventory_channel(self):
        inst = make_instance(d=[2, 3], p=[1, 1], h=[1, 1], s=[1, 1], alpha_hi=[3, 5], beta_hi=[1, 9])
        store = DomainStore.for_instance(inst)
        st, _ = bc_feasibility(store, inst)
        assert st is Status.CHANGED
        assert store.min(("X", 0)) == 2 and store.max(("X", 0)) == 3
        assert store.min(("X", 1)) >= 2

    def test_capacity_shortfall_fails(self):
        inst = make_instance(d=[7], p=[1], h=[1], s=[1], alpha_hi=[5], beta_hi=[5])
        store = DomainStore.for_instance(inst)
        st, _ = bc_feasibility(store, inst)
        assert st is Status.FAILED

    def test_two_wakes_per_constraint_reach_fixpoint(self):
        rng = random.Random(81)
        for _ in range(200):
            inst = rand_normalized(rng)
            store = DomainStore.for_instance(inst)
            st, wakes = bc_feasibility(store, inst)
            assert all(count <= 2 for count in wakes.values())
            if st is Status.FAILED:
                continue
            before = store.mod_count
            st2, _ = bc_feasibility(store, inst)
            assert st2 is Status.UNCHANGED
            assert store.mod_count == before

    def test_range_consistency_and_failure_completeness(self):
        rng = random.Random(83)
        feasible_checked = 0
        for _ in range(200):
            inst = rand_normalized(rng, max_T=5, max_d=5, max_cap=7)
            store = DomainStore.for_instance(inst)
            st, _ = bc_feasibility(store, inst)
            plans = list(store_plans(inst, DomainStore.for_instance(inst)))
            if st is Status.FAILED:
                assert not plans
                continue
            witnessed_x = {t: set() for t in range(inst.T)}
            witnessed_i = {t: set() for t in range(inst.T)}
            witnessed_y = {t: set() for t in range(inst.T)}
            for x, i, y in store_plans(inst, store):
                for t in range(inst.T):
                    witnessed_x[t].add(x[t])
                    witnessed_i[t].add(i[t])
                    witnessed_y[t].add(y[t])
            for t in range(inst.T):
                assert set(iv_values(store.intervals(("X", t)))) <= witnessed_x[t]
                assert set(iv_values(store.intervals(("I", t)))) <= witnessed_i[t]
                assert set(iv_values(store.intervals(("Y", t)))) <= witnessed_y[t]
            feasible_checked += 1
        assert feasible_checked >= 80


def propagate_once(inst, c_cap=None, filter_mode="auto"):
    store = DomainStore.for_instance(inst)
    if c_cap is not None:
        store.set_max(("C", 0), c_cap)
    ls = LotSizingConstraint(inst, store, filter_mode)
    res, sol = ls.propagate()
    return store, ls, res, sol


class TestPropagate:
    def test_optimal_bound_fixes_plan(self):
        store, _, res, sol = propagate_once(two_period(), c_cap=13)
        # Filtering fixes every setup (the idle one through the bound),
        # after which the plan completes in one propagation.
        assert res is PropagateResult.COMPLETED
        assert store.intervals(("X", 0)) == ((5, 5),)
        assert store.value(("Y", 1)) == 0  # idle setup would exceed the bound
        assert store.min(("C", 0)) == 13 and sol.c == 13

    def test_bound_below_optimum_fails(self):
        _, _, res, _ = propagate_once(two_period(), c_cap=12)
        assert res is PropagateResult.FAILED

    def test_fixed_setups_complete(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 1)
        store.assign(("Y", 1), 0)
        ls = LotSizingConstraint(inst, store)
        res, sol = ls.propagate()
        assert res is PropagateResult.COMPLETED
        assert sol.c == 13 and sol.x == (5, 0)
        assert store.value(("C", 0)) == 13

    @pytest.mark.parametrize("route", ["dp", "over_cap"])
    @pytest.mark.parametrize("cap", ["Cp", "Ch", "Cs", "C", "C_at_cost"])
    def test_fully_fixed_plan_against_cost_caps(self, monkeypatch, route, cap):
        """Every X and Y fixed to one plan: a cap one below any of its cost
        components fails the node, and C capped at the plan's cost completes
        it, on the DP route and above the table cap."""
        inst = make_instance(d=[2, 3, 1], p=[1, 2, 1], h=[1, 1, 1], s=[3, 4, 2],
                             alpha_hi=[6, 6, 6], beta_hi=[6, 6, 6])
        plan = Solution.from_plan(inst, [5, 0, 1], [1, 0, 1])
        assert min(plan.cp, plan.ch, plan.cs) > 0
        if route == "over_cap":
            monkeypatch.setattr(dp_mod, "_TABLE_CAP", 0)
        store = DomainStore.for_instance(inst)
        for t in range(inst.T):
            store.assign(("X", t), plan.x[t])
            store.assign(("Y", t), plan.y[t])
        var = cap.split("_")[0]
        value = getattr(plan, var.lower())
        store.set_max((var, 0), value if cap == "C_at_cost" else value - 1)
        assert not store.failed
        res, sol = LotSizingConstraint(inst, store).propagate()
        if cap == "C_at_cost":
            assert res is PropagateResult.COMPLETED and sol == plan
        else:
            assert res is PropagateResult.FAILED

    def test_idempotent_at_fixpoint(self):
        rng = random.Random(91)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=5)
            store = DomainStore.for_instance(inst)
            ls = LotSizingConstraint(inst, store)
            res, _ = ls.propagate()
            if res is not PropagateResult.FIXPOINT:
                continue
            before = store.snapshot()
            res2, _ = ls.propagate()
            assert res2 is PropagateResult.FIXPOINT
            assert store.snapshot() == before

    def test_root_bound_dominates_flow_relaxation(self):
        rng = random.Random(93)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=5, with_lower_bounds=False)
            store, _, res, _ = propagate_once(inst)
            if res is PropagateResult.FAILED:
                continue
            stripped = strip_lower_bounds(inst, DomainStore.for_instance(inst))
            full = min_cost_flow(stripped, FlowMode.FULL)
            if full is not None:
                assert store.min(("C", 0)) >= full

    def test_soundness_under_all_four_caps(self):
        rng = random.Random(97)
        tested = 0
        for _ in range(600):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6)
            base_plans = list(store_plans(inst, DomainStore.for_instance(inst)))
            if not base_plans:
                continue
            costs = [plan_costs(inst, x, i, y) for x, i, y in base_plans]
            opt = min(c for _, _, _, c in costs)
            caps = (
                max(v for v, _, _, _ in costs) - rng.randint(0, 2),
                max(v for _, v, _, _ in costs) - rng.randint(0, 2),
                max(v for _, _, v, _ in costs) - rng.randint(0, 2),
                opt + rng.choice([0, 1, 3]),
            )
            store = DomainStore.for_instance(inst)
            for cap, name in zip(caps, ("Cp", "Ch", "Cs", "C")):
                store.set_max((name, 0), cap)
            if store.failed:
                continue
            ls = LotSizingConstraint(inst, store)
            res, sol = ls.propagate()
            surviving = [
                (x, i, y)
                for (x, i, y), (cp, ch, cs, c) in zip(base_plans, costs)
                if cp <= caps[0] and ch <= caps[1] and cs <= caps[2] and c <= caps[3]
            ]
            if res is PropagateResult.FAILED:
                assert not surviving
                continue
            if res is PropagateResult.COMPLETED:
                # Completion commits to one dominating plan; it must itself
                # honor every cap and be a genuine plan.
                assert sol.cp <= caps[0] and sol.ch <= caps[1]
                assert sol.cs <= caps[2] and sol.c <= caps[3]
                assert (list(sol.x), list(sol.i), list(sol.y)) in [
                    (x, i, y) for x, i, y in base_plans
                ]
                tested += 1
                continue
            # Filtering is sound, not complete: an empty surviving set may
            # still reach a fixpoint (search settles it); removals must
            # never touch a plan that honors every cap.
            for x, i, y in surviving:
                for t in range(inst.T):
                    assert store.contains(("X", t), x[t])
                    assert store.contains(("I", t), i[t])
                    assert store.contains(("Y", t), y[t])
            tested += 1
        assert tested >= 80

    def test_wisp_path_matches_dp_path_soundness(self):
        rng = random.Random(101)
        for _ in range(80):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            base_plans = list(store_plans(inst, DomainStore.for_instance(inst)))
            if not base_plans:
                continue
            opt = min(plan_costs(inst, x, i, y)[3] for x, i, y in base_plans)
            store, _, res, sol = propagate_once(inst, c_cap=opt, filter_mode="wisp")
            assert res is not PropagateResult.FAILED
            if res is PropagateResult.COMPLETED:
                assert sol.c == opt
                continue
            keep = [
                (x, i, y)
                for x, i, y in base_plans
                if plan_costs(inst, x, i, y)[3] <= opt
            ]
            for x, i, y in keep:
                for t in range(inst.T):
                    assert store.contains(("X", t), x[t])
                    assert store.contains(("I", t), i[t])

    def test_completeness_at_optimum(self):
        """At the optimum as bound, X domains hold exactly the values of
        optimal plans and I domains are bounded by those plans' extremes
        (inventory is filtered to bounds)."""
        rng = random.Random(103)
        fixpoints = 0
        completed = 0
        for _ in range(300):
            inst = rand_normalized(rng, max_T=4, max_d=4, max_cap=6, with_lower_bounds=False)
            base_plans = list(store_plans(inst, DomainStore.for_instance(inst)))
            if not base_plans:
                continue
            costs = [plan_costs(inst, x, i, y)[3] for x, i, y in base_plans]
            opt = min(costs)
            store, _, res, sol = propagate_once(inst, c_cap=opt)
            if res is PropagateResult.COMPLETED:
                assert sol.c == opt
                completed += 1
                continue
            assert res is PropagateResult.FIXPOINT
            optimal = [(x, i, y) for (x, i, y), c in zip(base_plans, costs) if c <= opt]
            for t in range(inst.T):
                assert set(iv_values(store.intervals(("X", t)))) == {p[0][t] for p in optimal}
                i_vals = {p[1][t] for p in optimal}
                assert (store.min(("I", t)), store.max(("I", t))) == (min(i_vals), max(i_vals))
            fixpoints += 1
        assert fixpoints >= 3 and completed >= 50


def _scan_complete(stripped, store):
    """Production plan read off the forward table by a scan over j from 0:
    the predecessor search ``LotSizingConstraint._trace_plan`` vectorizes."""
    fwd, _ = window_tables(stripped, None, cs_mode=False)
    if math.isinf(fwd.optimum()):
        return None
    view = fwd.view
    x = [0] * stripped.T
    i_state = 0
    for t in range(stripped.T - 1, -1, -1):
        row_prev = fwd.row(t)
        target = fwd.row(t + 1)[i_state]
        k = t - view.u
        d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
        allow = view.x_allow_mask(t)
        for j in range(len(row_prev)):
            xv = i_state - j + d
            if xv < 0 or xv >= len(allow) or not allow[xv]:
                continue
            if row_prev[j] + p * xv + h * i_state + (sc if xv > 0 else 0) == target:
                x[t] = xv + stripped.x_off[t]
                i_state = j
                break
        else:
            raise AssertionError("lost the optimal trace")
    return tuple(x)


def _reference_trace_plan(ls, fwd, stripped):
    """``LotSizingConstraint._trace_plan`` reading every state of each row
    as a predecessor: the reference for the windowed trace."""
    view = fwd.view
    T = ls.instance.T
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
    y = [1 if x[t] > 0 or ls.store.min(("Y", t)) == 1 else 0 for t in range(T)]
    return Solution.from_plan(ls.instance, x, y)


class TestDpComplete:
    def test_plan_equals_scan_from_lowest_state(self):
        rng = random.Random(107)
        compared = 0
        for _ in range(1200):
            inst = rand_normalized(rng, max_T=8, max_d=6, max_cap=12)
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                store.assign(("Y", t), rng.randint(0, 1))
                if rng.random() < 0.3:
                    store.remove_value(("X", t), rng.randint(0, inst.alpha_hi[t]))
            if store.failed or bc_feasibility(store, inst)[0] is Status.FAILED:
                continue
            stripped = strip_lower_bounds(inst, store)
            ls = LotSizingConstraint(inst, store)
            fwd, _ = window_tables(stripped, None, cs_mode=False)
            sol = None if math.isinf(fwd.optimum()) else ls._trace_plan(fwd, stripped)
            want = _scan_complete(stripped, store)
            assert (sol and sol.x) == want
            compared += want is not None
        assert compared >= 120

    def test_windowed_trace_matches_full_row_reference(self):
        """Random roots with holes and fixed setups whose rows are wider
        than a period's production range, plus registry roots: the trace
        that reads one slice per production run gives the reference's plan.
        Counted over the traced plans: periods with several runs (the search
        must take the runs from the largest x down) and steps with x = 0
        (the last test of a step)."""
        rng = random.Random(41)
        compared = narrow = multi = idle = 0

        def check(ls, fwd, stripped):
            nonlocal multi, idle
            plan = ls._trace_plan(fwd, stripped)
            assert plan == _reference_trace_plan(ls, fwd, stripped)
            multi += sum(len(fwd.view.x_runs(t)[1]) > 1 for t in range(stripped.T))
            idle += sum(plan.x[t] == stripped.x_off[t] for t in range(stripped.T))

        for _ in range(2500):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            fwd, _ = window_tables(stripped, None, cs_mode=False)
            if math.isinf(fwd.optimum()):
                continue
            check(LotSizingConstraint(inst, store), fwd, stripped)
            compared += 1
            narrow += any(len(fwd.row(t)) > fwd.view.x_cap[t] + 1 for t in range(inst.T))
        assert compared >= 700 and narrow >= 400, (compared, narrow)
        for cls in ("C1LS", "C3LS", "C1Disj", "C3Disj", "C3QR"):
            template = INSTANCE_CLASSES[cls]
            inst = validate_and_normalize(generate(dataclasses.replace(template.params, seed=1)))
            disj = DisjunctiveSpec.uniform(inst.T, template.disjunction) if template.disjunction else None
            qr = QRSpec(*template.qr) if template.qr else None
            store, ls, _, _ = build_model(inst, SideSpecs(disjunction=disj, qr=qr), SearchConfig())
            bc_feasibility(store, inst)
            stripped = strip_lower_bounds(ls.instance, store)
            fwd, _ = window_tables(stripped, None, cs_mode=False)
            check(ls, fwd, stripped)
        assert multi >= 800 and idle >= 2000, (multi, idle)


def _fixed_setup_disj(intervals, y, **data):
    """A Disj instance built as ``solve`` builds it, with an offer that
    gates DP plans by ``verify``, then every setup fixed to y; None when
    that fails."""
    inst = validate_and_normalize(make_instance(**data))
    side = SideSpecs(disjunction=DisjunctiveSpec(intervals))
    store, ls, _, root_ok = build_model(inst, side, SearchConfig())
    ls.offer = lambda plan: verify(inst, side, plan)[0]
    if not root_ok or any(store.assign(("Y", t), val) is Status.FAILED for t, val in enumerate(y)):
        return None
    return inst, side, store, ls


def _fixed_setup_optimum(inst, side, y):
    """Brute-force optimum over the plans with setup vector y."""
    return min(
        (sol.c for sol in enumerate_plans(inst, side, include_idle_setups=True) if list(sol.y) == list(y)),
        default=None,
    )


@pytest.fixture
def dp_closes(monkeypatch):
    """Records the plan of every DP offer that closes a node."""
    calls = []
    original = LotSizingConstraint._offer_plan

    def counted(self, fwd, stripped):
        closed = original(self, fwd, stripped)
        if closed:
            calls.append(self._closed)
        return closed

    monkeypatch.setattr(LotSizingConstraint, "_offer_plan", counted)
    return calls


class TestCompletionOrder:
    """With every setup fixed the exact flow completion goes first under
    disjunctions too; only a flow plan that lands in a production hole is
    left to the DP stage, whose offered argmin plan closes the node."""

    def test_flow_plan_inside_domains_completes_without_dp(self, dp_closes):
        y = [1, 1]
        inst, side, store, ls = _fixed_setup_disj(
            {1: ((2, 2), (6, 7))}, y,
            d=[3, 2], p=[3, 2], h=[2, 0], s=[3, 2], alpha_hi=[7, 8], beta_hi=[5, 2],
        )
        assert store.intervals(("X", 1)) == ((0, 0), (2, 2), (6, 7))
        res, sol = ls.propagate()
        assert res is PropagateResult.COMPLETED
        assert sol.c == _fixed_setup_optimum(inst, side, y) == 18
        assert dp_closes == []

    def test_flow_plan_in_a_hole_falls_back_to_dp(self, dp_closes):
        y = [1, 1, 1, 1]
        inst, side, store, ls = _fixed_setup_disj(
            {1: ((2, 2), (6, 6)), 2: ((2, 3), (5, 6)), 3: ((3, 4), (8, 8))}, y,
            d=[4, 0, 4, 3], p=[1, 3, 0, 2], h=[0, 2, 0, 2], s=[5, 6, 6, 6],
            alpha_hi=[8, 3, 5, 7], beta_hi=[7, 3, 8, 7],
        )
        flow = complete_at_bc(inst, store)
        assert not all(store.contains(("X", t), flow.x[t]) for t in range(inst.T))
        res, sol = ls.propagate()
        assert res is PropagateResult.CLOSED
        assert len(dp_closes) == 1 and dp_closes[0] == sol
        assert sol.c == _fixed_setup_optimum(inst, side, y) == 33

    def test_completion_matches_brute_force_under_holes(self, dp_closes):
        rng = random.Random(4409)
        by_flow = by_dp = failed = 0
        for _ in range(2_000):
            T = rng.randint(2, 4)
            intervals = {}
            for t in range(T):
                if rng.random() < 0.7:
                    a = rng.randint(1, 3)
                    b = rng.randint(a, a + 1)
                    c = rng.randint(b + 2, b + 4)
                    intervals[t] = ((a, b), (c, c + rng.randint(0, 2)))
            y = [int(rng.random() < 0.75) for _ in range(T)]
            model = _fixed_setup_disj(
                intervals, y,
                d=[rng.randint(0, 5) for _ in range(T)], p=[rng.randint(0, 4) for _ in range(T)],
                h=[rng.randint(0, 2) for _ in range(T)], s=[rng.randint(0, 6) for _ in range(T)],
                alpha_hi=[rng.randint(3, 8) for _ in range(T)], beta_hi=[rng.randint(2, 8) for _ in range(T)],
            )
            if model is None:
                continue
            inst, side, store, ls = model
            dp_closes.clear()
            res, sol = ls.propagate()
            want = _fixed_setup_optimum(inst, side, y)
            if res is PropagateResult.FAILED:
                assert want is None
                failed += 1
                continue
            assert res is (PropagateResult.CLOSED if dp_closes else PropagateResult.COMPLETED)
            assert sol.c == want and verify(inst, side, sol)[0]
            by_dp += bool(dp_closes)
            by_flow += not dp_closes
        assert by_flow >= 600 and by_dp >= 30 and failed >= 600


def registry_instance(name: str, seed: int = 1):
    """A seed of a registry class with its side constraints, or seed k of
    the Criterion 7 peak analogs for ``"C7/k"``."""
    if name.startswith("C7/"):
        params = GeneratorParams(d_avg=100, delta=50, theta_lo=0.8, theta_hi=1.0, lam=4, T=40,
                                 seed=int(name[3:]), peak_value=5000,
                                 peak_periods=tuple(t - 1 for t in PEAK_PERIODS_1BASED))
        return validate_and_normalize(generate(params)), None
    template = INSTANCE_CLASSES[name]
    params = dataclasses.replace(template.params, seed=seed)
    side = None
    if template.disjunction or template.qr:
        side = SideSpecs(
            disjunction=DisjunctiveSpec.uniform(params.T, template.disjunction) if template.disjunction else None,
            qr=QRSpec(*template.qr) if template.qr else None,
        )
    return validate_and_normalize(generate(params)), side


class TestAutoRouting:
    @pytest.mark.parametrize(
        "name, route",
        [("C1LS", "dp"), ("C3LS", "dp"), ("C1Disj", "dp"), ("C6Disj", "dp"), ("C7/0", "dp"),
         ("C1Peaks", "flow")],
    )
    def test_root_route_follows_table_size(self, monkeypatch, name, route):
        """`auto` filters a root with the whole-horizon DP when one table
        holds at most 2**20 states (LS, Disj and the Criterion 7 analogs hold
        1.8e4-2.4e5), and with the flow relaxations alone above (C1Peaks
        holds 2.9e6); WISP runs only when forced."""
        taken = []
        monkeypatch.setattr(LotSizingConstraint, "_dp_stage",
                            lambda self, stripped: taken.append("dp") or Status.UNCHANGED)
        monkeypatch.setattr(LotSizingConstraint, "_wisp_stage",
                            lambda self, stripped: taken.append("wisp") or Status.UNCHANGED)
        inst, side = registry_instance(name)
        _, ls, _, root_ok = build_model(inst, side, SearchConfig())
        assert root_ok
        ls.propagate()
        if route == "flow":
            assert taken == []
        else:
            assert taken and set(taken) == {route}

    @pytest.mark.parametrize("name", ["C1LS", "C7/0"])
    def test_dp_plan_closes_root_without_a_bound(self, name):
        """The root's argmin plan meets the DP bound, so discover mode proves
        it optimal in one node."""
        inst, side = registry_instance(name)
        sol, stats = solve(inst, side, SearchConfig())
        assert stats.status == "OPT" and stats.nodes == 1
        assert sol.c == stats.root_lb

    @pytest.mark.parametrize("name", ["C1Peaks", "C3Peaks"])
    def test_over_cap_flow_route_matches_forced_wisp(self, name):
        """Above the table cap, the flow relaxations alone leave the same
        root domains and cost bounds as the forced decomposition, and the
        capped searches of both protocols take the same course."""
        inst, side = registry_instance(name)
        opt = _reference_optimum(name, 1)

        def root(mode):
            store, ls, _, _ = build_model(inst, side, SearchConfig(filter_mode=mode))
            store.set_max(("C", 0), opt)
            assert ls.propagate()[0] is PropagateResult.FIXPOINT
            return _plan_and_cost_domains(store, inst.T)

        assert root("auto") == root("wisp")
        for ub in (opt, None):
            runs = []
            for mode in ("auto", "wisp"):
                _, stats = solve(inst, side, SearchConfig(ub=ub, branching="peak", node_limit=10,
                                                          filter_mode=mode))
                runs.append((stats.status, stats.nodes, stats.backtracks, stats.prunes,
                             stats.root_lb, stats.best_cost))
            assert runs[0] == runs[1]


def _plan_and_cost_domains(store, T):
    return [store.intervals((kind, t)) for kind in "XIY" for t in range(T)] + [
        store.intervals((var, 0)) for var in ("Cp", "Ch", "Cs", "C")
    ]


class TestStageSkip:
    """BC, the strip and the flow bounds rerun only when the plan epoch has
    moved, the DP stage only when its key has; skipping must never leave a
    state that a fresh constraint would still narrow."""

    @pytest.mark.parametrize("name", ["C1LS", "C1Peaks", "C1Disj", "C1QR", "C1DisjQR"])
    def test_fixpoint_is_fixed_for_a_fresh_constraint(self, monkeypatch, name):
        """Node-capped searches in both protocols; after every ``propagate``
        that reports a fixpoint, a fresh constraint on the same store changes
        nothing. The DP plan closes the DP classes at the root, so they are
        searched once more with plan offers turned down, which makes them
        branch with the DP stage at every node."""
        inst, side = registry_instance(name)
        original = LotSizingConstraint.propagate
        checked = []

        def propagate_and_recheck(self):
            res, sol = original(self)
            if res is PropagateResult.FIXPOINT:
                before = self.store.mod_count
                fresh = LotSizingConstraint(self.instance, self.store, self.filter_mode)
                assert original(fresh) == (PropagateResult.FIXPOINT, None)
                assert self.store.mod_count == before
                checked.append(self.store.level)
            return res, sol

        monkeypatch.setattr(LotSizingConstraint, "propagate", propagate_and_recheck)
        optima = json.loads(_REFERENCES.read_text(encoding="ascii"))["optima"]
        branching = "peak" if "Peaks" in name else "lex"
        for offers in (True, False):
            if not offers:
                monkeypatch.setattr(LotSizingConstraint, "_offer_plan", lambda self, fwd, stripped: False)
            for ub in (optima.get(name, {}).get("1"), None):
                solve(inst, side, SearchConfig(ub=ub, branching=branching, node_limit=15))
        assert checked
        if name != "C1DisjQR":  # seed 1 of C1DisjQR is refuted at the root
            assert max(checked) > 0

    @pytest.mark.parametrize("name", ["C1LS", "C1Disj"])
    def test_pop_without_assignment_reruns_the_dp(self, monkeypatch, name):
        """Propagate at a pushed level, pop it with no assignment, and
        propagate again: the pop restores the domains the DP had narrowed,
        so the DP must rerun and leave what a fresh constraint leaves. The
        root starts at the fixpoint of the stages before the DP, so only the
        DP can tell the two states apart; its bound is half a percent above
        the optimum, so the DP narrows the domains without fixing the plan."""
        inst, side = registry_instance(name)
        store, ls, _, _ = build_model(inst, side, SearchConfig())
        opt = _reference_optimum(name, 1)
        store.set_max(("C", 0), opt + opt // 200)
        with monkeypatch.context() as m:
            m.setattr(dp_mod, "_TABLE_CAP", 0)
            assert LotSizingConstraint(inst, store).propagate()[0] is PropagateResult.FIXPOINT
        cheap = _plan_and_cost_domains(store, inst.T)
        want_store = copy.deepcopy(store)
        assert LotSizingConstraint(inst, want_store, ls.filter_mode).propagate()[0] is PropagateResult.FIXPOINT
        want = _plan_and_cost_domains(want_store, inst.T)
        assert want != cheap

        store.push_level()
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        assert _plan_and_cost_domains(store, inst.T) == want
        store.pop_level()
        assert _plan_and_cost_domains(store, inst.T) == cheap
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        assert _plan_and_cost_domains(store, inst.T) == want

    def test_fixpoint_is_fixed_on_random_instances(self, monkeypatch):
        """Small random instances with and without side constraints, bounds
        at and above the optimum and none, plan offers turned down: the
        cost bounds move within a plan epoch, and no fixpoint may leave a
        filter that a fresh constraint would still run. At every fixpoint
        of the DP route, filtering with the Cs (setup-only) tables against
        max Cs removes nothing, which is why the DP stage builds only the
        forward Cs table and never its backward mirror."""
        rng = random.Random(4211)
        optima = []
        for _ in range(600):
            inst, side = suite_instance_small(rng)
            sol, _ = solve(inst, side, SearchConfig())
            optima.append((inst, side, None if sol is None else sol.c))
        original = LotSizingConstraint.propagate
        checked = []
        cs_checked = []
        cs_backward = []

        def propagate_and_recheck(self):
            res, sol = original(self)
            if res is PropagateResult.FIXPOINT:
                before = self.store.mod_count
                fresh = LotSizingConstraint(self.instance, self.store, self.filter_mode)
                assert original(fresh) == (PropagateResult.FIXPOINT, None)
                assert self.store.mod_count == before
                checked.append(self.store.level)
                stripped = strip_lower_bounds(self.instance, self.store)
                if dp_mod.table_fits(stripped):
                    fwd, bwd = window_tables(stripped, None, cs_mode=True)
                    probe = copy.deepcopy(self.store)
                    ub = probe.max(("Cs", 0)) - stripped.cs_min
                    assert filter_with_dp(fwd, bwd, probe, stripped, ub) is Status.UNCHANGED
                    T = self.instance.T
                    assert _plan_and_cost_domains(probe, T) == _plan_and_cost_domains(self.store, T)
                    cs_checked.append(self.store.level)
            return res, sol

        def tables(*args, **kwargs):
            fwd, bwd = window_tables(*args, **kwargs)
            if kwargs["cs_mode"]:
                cs_backward.append(bwd)
            return fwd, bwd

        monkeypatch.setattr(LotSizingConstraint, "propagate", propagate_and_recheck)
        monkeypatch.setattr(LotSizingConstraint, "_offer_plan", lambda self, fwd, stripped: False)
        monkeypatch.setattr(propagator_mod, "window_tables", tables)
        for inst, side, opt in optima:
            for ub in dict.fromkeys((None, opt, None if opt is None else opt + rng.randint(1, 8))):
                solve(inst, side, SearchConfig(ub=ub, node_limit=30))
        assert len(checked) >= 600 and max(checked) > 0, len(checked)
        assert len(cs_checked) >= 600 and max(cs_checked) > 0, len(cs_checked)
        assert cs_backward and all(bwd.build is not None for bwd in cs_backward)

    @pytest.mark.parametrize("name", ["C1LS", "C1Disj"])
    def test_node_the_dp_closes_runs_no_flow_relaxation(self, monkeypatch, name):
        """The DP plan closes these roots without a bound, before any flow
        relaxation; with plan offers turned down the same root runs all
        four."""
        calls = []
        original = propagator_mod.min_cost_flow
        monkeypatch.setattr(propagator_mod, "min_cost_flow", lambda *args: calls.append(args) or original(*args))
        inst, side = registry_instance(name)
        store, ls, _, _ = build_model(inst, side, SearchConfig())
        ls.offer = lambda plan: True
        assert ls.propagate()[0] is PropagateResult.CLOSED
        assert calls == []
        store, ls, _, _ = build_model(inst, side, SearchConfig())
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        assert len(calls) == 4
        _, stats = solve(inst, side, SearchConfig())
        assert stats.status == "OPT" and stats.nodes == 1 and len(calls) == 4

    @pytest.mark.parametrize("name", ["C1QR", "C1Disj"])
    def test_mode_with_unchanged_inputs_builds_no_table(self, monkeypatch, name):
        """At a DP fixpoint, lower max C: the plan epoch has not moved, but
        max C has, so the C table is built again and the store ends as a
        fresh constraint leaves it. Then raise min C: no table reads it, and
        neither the plan epoch nor max C has moved, so no table is built.
        The bound is 5 % above the optimum, then 2 %, so the root neither
        fixes nor closes."""
        inst, side = registry_instance(name)
        store, ls, _, _ = build_model(inst, side, SearchConfig())
        opt = _reference_optimum(name, 1)
        store.set_max(("C", 0), opt + opt // 20)
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        built = []
        original = propagator_mod.window_tables
        monkeypatch.setattr(propagator_mod, "window_tables", lambda *a, **k: built.append(k) or original(*a, **k))

        def fresh_domains():
            want = copy.deepcopy(store)
            assert LotSizingConstraint(inst, want).propagate()[0] is PropagateResult.FIXPOINT
            return _plan_and_cost_domains(want, inst.T)

        epoch = store.plan_epoch
        assert store.set_max(("C", 0), opt + opt // 50) is Status.CHANGED
        want = fresh_domains()
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        assert built and built[0]["cs_mode"] is False
        assert _plan_and_cost_domains(store, inst.T) == want
        assert store.plan_epoch > epoch

        assert store.min(("C", 0)) < store.max(("C", 0))
        store.set_min(("C", 0), store.min(("C", 0)) + 1)
        want = fresh_domains()
        built.clear()
        assert ls.propagate()[0] is PropagateResult.FIXPOINT
        assert built == []
        assert _plan_and_cost_domains(store, inst.T) == want

    def test_cs_table_reads_the_fixpoint_snapshot(self, monkeypatch):
        """A DP-routed search: the snapshot is built once per plan epoch at
        which BC ran, and the Cs table is built only on a pass whose C
        filter moved nothing (or did not run), so it reads the snapshot of
        the store as it stands; Cs builds never outnumber C builds."""
        inst, side = registry_instance("C3QR", seed=2)
        events = []
        bc, strip = propagator_mod.bc_feasibility, propagator_mod.strip_lower_bounds
        tables, dp_filter = propagator_mod.window_tables, propagator_mod.filter_with_dp

        def traced_bc(store, inst):
            st, wakes = bc(store, inst)
            if st is not Status.FAILED:
                events.append(("bc", store.plan_epoch))
            return st, wakes

        def traced_strip(inst, store):
            stripped = strip(inst, store)
            events.append(("strip", store.plan_epoch, store, stripped))
            return stripped

        def traced_tables(stripped, window, cs_mode):
            if cs_mode:
                _, epoch, store, snapshot = next(e for e in reversed(events) if e[0] == "strip")
                assert store.plan_epoch == epoch
                assert stripped is snapshot
            events.append(("Cs" if cs_mode else "C",))
            return tables(stripped, window, cs_mode=cs_mode)

        def traced_filter(*args):
            st = dp_filter(*args)
            events.append(("filter", st))
            return st

        monkeypatch.setattr(propagator_mod, "bc_feasibility", traced_bc)
        monkeypatch.setattr(propagator_mod, "strip_lower_bounds", traced_strip)
        monkeypatch.setattr(propagator_mod, "window_tables", traced_tables)
        monkeypatch.setattr(propagator_mod, "filter_with_dp", traced_filter)
        _, stats = solve(inst, side, SearchConfig(node_limit=20))
        assert stats.nodes > 1

        bc_epochs = [e[1] for e in events if e[0] == "bc"]
        strip_epochs = [e[1] for e in events if e[0] == "strip"]
        assert strip_epochs == bc_epochs and len(set(strip_epochs)) == len(strip_epochs)
        kinds = [e[0] for e in events]
        assert 0 < kinds.count("Cs") <= kinds.count("C")
        last_filter = None
        moved = 0
        for e in events:
            if e[0] == "filter":
                last_filter = e[1]
                moved += e[1] is Status.CHANGED
            elif e[0] == "Cs":
                assert last_filter in (None, Status.UNCHANGED)
        assert moved > 0


_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _reference_optimum(cls: str, seed: int) -> int:
    """The stored HiGHS optimum of a registry instance (perfbench/references.json)."""
    return json.loads(_REFERENCES.read_text(encoding="ascii"))["optima"][cls][str(seed)]


class TestCostBoundSoundness:
    @pytest.mark.parametrize("over_cap", [False, True])
    def test_plans_within_bound_keep_every_cost_bound(self, monkeypatch, over_cap):
        """After root propagation, every plan within the bound lies inside
        the X/I/Y domains and inside [min, max] of Cp, Ch, Cs and C, on the
        DP route and on the flow-only route above the table cap."""
        if over_cap:
            monkeypatch.setattr(dp_mod, "_TABLE_CAP", 0)
        rng = random.Random(4207 + over_cap)
        pairs = checked = narrowed = 0
        while pairs < 2_000:
            inst, side = suite_instance_small(rng)
            plans = list(enumerate_plans(inst, side, include_idle_setups=True))
            costs = sorted(sol.c for sol in plans) or [rng.randint(0, 30)]
            opt = costs[0]
            for ub in (opt - 1, opt, opt + rng.randint(1, 6), costs[len(costs) // 2], None):
                pairs += 1
                store, ls, seq, root_ok = build_model(inst, side, SearchConfig())
                within = [sol for sol in plans if ub is None or sol.c <= ub]
                if not root_ok or (ub is not None and store.set_max(("C", 0), ub) is Status.FAILED):
                    assert not within
                    continue
                res, sol = _propagate_all(store, ls, seq, side)
                if res is PropagateResult.FAILED:
                    assert not within, (inst, side, ub)
                    continue
                if res is PropagateResult.COMPLETED:
                    assert within and sol.c == min(plan.c for plan in within), (inst, side, ub)
                    continue
                for plan in within:
                    for t in range(inst.T):
                        for kind, val in (("X", plan.x[t]), ("I", plan.i[t]), ("Y", plan.y[t])):
                            assert store.contains((kind, t), val), (inst, side, ub, plan)
                    for var, val in (("Cp", plan.cp), ("Ch", plan.ch), ("Cs", plan.cs), ("C", plan.c)):
                        assert store.min((var, 0)) <= val <= store.max((var, 0)), (inst, side, ub, var, plan)
                checked += bool(within)
                narrowed += any(store.min((var, 0)) > 0 for var in ("Cp", "Ch", "Cs"))
        assert checked >= 250 and narrowed >= 200
