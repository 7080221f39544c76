"""Feasibility propagation and the full filtering pipeline."""

import dataclasses
import math
import random

import pytest

from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    DomainStore,
    GeneratorParams,
    LotSizingConfig,
    LotSizingConstraint,
    PropagateResult,
    Status,
    SearchConfig,
    SideSpecs,
    bc_feasibility,
    generate,
    make_instance,
    solve,
    strip_lower_bounds,
    validate_and_normalize,
)
from lotsizing.domains import iv_values
from lotsizing.instance import PEAK_PERIODS_1BASED
from lotsizing.search import build_model
from lotsizing.dp import window_tables
from lotsizing.flow import FlowMode, build_network, min_cost_flow
from lotsizing.propagator import _strip
from conftest import plan_costs, rand_normalized, store_plans
from test_dp import two_period


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


def propagate_once(inst, c_cap=None, **config):
    store = DomainStore.for_instance(inst)
    if c_cap is not None:
        store.set_max(("C", 0), c_cap)
    ls = LotSizingConstraint(inst, store, LotSizingConfig(**config))
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
        ls = LotSizingConstraint(inst, store, LotSizingConfig())
        res, sol = ls.propagate()
        assert res is PropagateResult.COMPLETED
        assert sol.c == 13 and sol.x == (5, 0)
        assert store.value(("C", 0)) == 13

    def test_idempotent_at_fixpoint(self):
        rng = random.Random(91)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=5)
            store = DomainStore.for_instance(inst)
            ls = LotSizingConstraint(inst, store, LotSizingConfig())
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
            stripped = strip_lower_bounds(inst)
            base = DomainStore.for_instance(inst)
            full = min_cost_flow(build_network(stripped, base, FlowMode.FULL))
            if full.status == "OPTIMAL":
                assert store.min(("C", 0)) >= full.integer_lower_bound

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
            ls = LotSizingConstraint(inst, store, LotSizingConfig(hole_punch=True))
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

    def test_completeness_at_optimum_with_hole_punching(self):
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
            store, _, res, sol = propagate_once(inst, c_cap=opt, hole_punch=True)
            if res is PropagateResult.COMPLETED:
                assert sol.c == opt
                completed += 1
                continue
            assert res is PropagateResult.FIXPOINT
            optimal = [(x, i, y) for (x, i, y), c in zip(base_plans, costs) if c <= opt]
            for t in range(inst.T):
                assert set(iv_values(store.intervals(("X", t)))) == {p[0][t] for p in optimal}
                assert set(iv_values(store.intervals(("I", t)))) == {p[1][t] for p in optimal}
            fixpoints += 1
        assert fixpoints >= 3 and completed >= 50


def _scan_complete(stripped, store):
    """Production plan read off the forward table by a scan over j from 0:
    the predecessor search ``LotSizingConstraint._dp_complete`` vectorizes."""
    fwd, _ = window_tables(stripped, store, None, cs_mode=False, dp_budget=None)
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
            stripped = _strip(inst, store)
            ls = LotSizingConstraint(inst, store, LotSizingConfig())
            sol = ls._dp_complete(stripped)
            want = _scan_complete(stripped, store)
            assert (sol and sol.x) == want
            compared += want is not None
        assert compared >= 120


def registry_instance(name: str):
    """Seed 1 of a registry class with its disjunctions, or seed k of the
    Criterion 7 peak analogs for ``"C7/k"``."""
    if name.startswith("C7/"):
        params = GeneratorParams(d_avg=100, delta=50, theta_lo=0.8, theta_hi=1.0, lam=4, T=40,
                                 seed=int(name[3:]), peak_value=5000,
                                 peak_periods=tuple(t - 1 for t in PEAK_PERIODS_1BASED))
        return validate_and_normalize(generate(params)), None
    template = INSTANCE_CLASSES[name]
    params = dataclasses.replace(template.params, seed=1)
    side = None
    if template.disjunction:
        side = SideSpecs(disjunction=DisjunctiveSpec.uniform(params.T, template.disjunction))
    return validate_and_normalize(generate(params)), side


class TestAutoRouting:
    @pytest.mark.parametrize(
        "name, route",
        [("C1LS", "dp"), ("C3LS", "dp"), ("C1Disj", "dp"), ("C6Disj", "dp"), ("C7/0", "dp"),
         ("C1Peaks", "wisp")],
    )
    def test_root_route_follows_table_size(self, monkeypatch, name, route):
        """`auto` filters a root with the whole-horizon DP when one table
        holds at most 2**20 states (LS, Disj and the Criterion 7 analogs hold
        1.8e4-2.4e5), and with WISP above (C1Peaks holds 2.9e6)."""
        taken = []
        monkeypatch.setattr(LotSizingConstraint, "_dp_stage",
                            lambda self, stripped: taken.append("dp") or Status.UNCHANGED)
        monkeypatch.setattr(LotSizingConstraint, "_wisp_stage",
                            lambda self, stripped: taken.append("wisp") or Status.UNCHANGED)
        inst, side = registry_instance(name)
        _, ls, _, root_ok = build_model(inst, side, SearchConfig())
        assert root_ok
        ls.propagate()
        assert taken and set(taken) == {route}

    @pytest.mark.parametrize("name", ["C1LS", "C7/0"])
    def test_dp_plan_closes_root_without_a_bound(self, name):
        """The root's argmin plan meets the DP bound, so discover mode proves
        it optimal in one node."""
        inst, side = registry_instance(name)
        sol, stats = solve(inst, side, SearchConfig())
        assert stats.status == "OPT" and stats.nodes == 1
        assert sol.c == stats.root_lb
