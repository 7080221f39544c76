"""Window bounds, the scheduling recurrence, windowed filtering."""

import dataclasses
import math
import random

import pytest

from lotsizing import (
    INSTANCE_CLASSES,
    DomainStore,
    Status,
    SubProblem,
    bc_feasibility,
    compute_decomposition,
    dpwisp,
    filter_with_dp,
    generate,
    strip_lower_bounds,
    validate_and_normalize,
    window_tables,
    wisp_support_filter,
)
from lotsizing import wisp as wisp_mod
from lotsizing.domains import iv_values
from lotsizing.flow import FlowMode, min_cost_flow
from test_dp import setup_problem, two_period
from conftest import plan_costs, rand_normalized, state_budget, store_plans
from test_flow import _reference_solve, reference_network


def _windows(T):
    """Every window (u, v), u < v, of horizon T."""
    return [(u, v) for v in range(1, T) for u in range(v)]


class TestBounds:
    def test_whole_horizon_window_is_the_problem_itself(self):
        store, stripped = setup_problem(two_period(), bc=False)
        (sub,) = compute_decomposition(stripped).subproblems
        w, kind = sub.w, sub.bound_kind
        assert (sub.u, sub.v) == (0, 1)
        assert kind == "DP_EXACT"
        assert w == window_tables(stripped, None, cs_mode=False)[0].optimum() == 13

    def test_cs_bound_never_above_c_bound(self):
        rng = random.Random(51)
        for _ in range(40):
            inst = rand_normalized(rng, max_T=5, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            subs_c = compute_decomposition(stripped, cs_mode=False).subproblems
            subs_cs = compute_decomposition(stripped, cs_mode=True).subproblems
            for sub_c, sub_cs in zip(subs_c, subs_cs, strict=True):
                assert (sub_c.u, sub_c.v) == (sub_cs.u, sub_cs.v)
                assert sub_cs.w <= sub_c.w

    def test_flow_fallback_agrees_direction(self, monkeypatch):
        rng = random.Random(53)
        for _ in range(40):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            monkeypatch.setattr(wisp_mod, "_WINDOW_BUDGET", math.inf)
            exact = compute_decomposition(stripped).subproblems
            monkeypatch.setattr(wisp_mod, "_WINDOW_BUDGET", 0)
            relaxed = compute_decomposition(stripped).subproblems
            for sub_dp, sub_fl in zip(exact, relaxed, strict=True):
                (w_dp, k1), (w_fl, k2) = (sub_dp.w, sub_dp.bound_kind), (sub_fl.w, sub_fl.bound_kind)
                assert (sub_dp.u, sub_dp.v) == (sub_fl.u, sub_fl.v)
                assert k1 == "DP_EXACT" and k2 == "FLOW_RELAX"
                if math.isinf(w_dp):
                    continue
                assert w_fl <= w_dp

    def test_theorem_disjoint_sums_bounded_by_optimum(self):
        rng = random.Random(57)
        checked = 0
        for _ in range(60):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None or inst.T < 2:
                continue
            plans = [plan_costs(inst, x, i, y)[3] for x, i, y in store_plans(inst, store)]
            if not plans:
                continue
            opt = min(plans)
            subs = compute_decomposition(stripped).subproblems

            def disjoint_subsets(idx, chosen):
                if idx == len(subs):
                    yield chosen
                    return
                yield from disjoint_subsets(idx + 1, chosen)
                s = subs[idx]
                if all(o.v < s.u or o.u > s.v for o in chosen):
                    yield from disjoint_subsets(idx + 1, chosen + [s])

            for subset in disjoint_subsets(0, []):
                total = sum(s.w for s in subset)
                assert total <= opt + stripped.c_min - stripped.c_min  # stripped costs vs stripped optimum
                assert total <= opt
            checked += 1
        assert checked >= 20


class TestSweepEquivalence:
    def test_matches_per_window_tables(self, monkeypatch):
        """One forward table per start gives, for every window, the bound and
        kind of a table built for that window alone: the exact DP when the
        window's state proxy fits the budget, else the flow pass."""
        from lotsizing.dp import _build_forward, make_cost_view
        from lotsizing.flow import pre_stock, window_flow_bounds

        rng = random.Random(83)
        checked = {"DP_EXACT": 0, "FLOW_RELAX": 0, "split": 0}
        for _ in range(400):
            inst = rand_normalized(rng, max_T=8, max_d=5, max_cap=9)
            if inst.T < 2:
                continue
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                if rng.random() < 0.25:
                    store.assign(("Y", t), rng.randint(0, 1))
                if t < inst.T - 1 and rng.random() < 0.3:
                    lo, hi = store.min(("I", t)), store.max(("I", t))
                    if hi > lo:
                        store.remove_value(("I", t), rng.randint(lo + 1, hi))
            store, stripped = setup_problem(inst, store)
            if stripped is None:
                continue
            for cs in (False, True):
                flow_pass = window_flow_bounds(stripped, cs)
                for budget in (None, 0, rng.choice([20, 60, 200, 800])):
                    monkeypatch.setattr(wisp_mod, "_WINDOW_BUDGET", math.inf if budget is None else budget)
                    decomp = compute_decomposition(stripped, cs)
                    kinds = {(s.u, s.bound_kind) for s in decomp.subproblems}
                    # starts whose windows go partly exact, partly flow
                    checked["split"] += sum((u, "FLOW_RELAX") in kinds for u, k in kinds if k == "DP_EXACT")
                    for sub in decomp.subproblems:
                        view = make_cost_view(stripped, (sub.u, sub.v), cs_mode=cs)
                        if budget is None or state_budget(view) <= budget:
                            prestock = pre_stock(stripped, cs)(sub.u, view.cap(sub.u))
                            opt = _build_forward(view, prestock).optimum()
                            want = (math.inf if math.isinf(opt) else opt + view.sunk, "DP_EXACT")
                        else:
                            want = (flow_pass(sub.u)[sub.v], "FLOW_RELAX")
                        assert (sub.w, sub.bound_kind) == want, (sub.u, sub.v, cs, budget)
                        checked[want[1]] += 1
        assert checked["DP_EXACT"] >= 2500 and checked["FLOW_RELAX"] >= 1500
        assert checked["split"] >= 50


class TestWindowThreshold:
    @pytest.mark.parametrize("name, exact, flow_bound", [("C1LS", 42, 408_774), ("C1Peaks", 47, 9_026_601)])
    def test_registry_root_split_and_value(self, name, exact, flow_bound):
        """At the fixed threshold the seed-1 root of C1LS and C1Peaks gets a
        few exact windows, and the decomposition bound equals the FULL flow
        bound: the fact behind ``auto`` keeping the flow bounds over the
        table cap."""
        params = dataclasses.replace(INSTANCE_CLASSES[name].params, seed=1)
        inst = validate_and_normalize(generate(params))
        store = DomainStore.for_instance(inst)
        bc_feasibility(store, inst)
        stripped = strip_lower_bounds(inst, store)
        decomp = compute_decomposition(stripped)
        kinds = [s.bound_kind for s in decomp.subproblems]
        assert (kinds.count("DP_EXACT"), len(kinds)) == (exact, 780)
        flow = min_cost_flow(stripped, FlowMode.FULL)
        assert decomp.value + stripped.c_min == flow + stripped.c_min == flow_bound


class TestWindowFlowBound:
    def test_matches_windowed_network_solve(self):
        """The greedy pass of start u must reach, after each period v, the
        bound of window (u, v) that successive shortest paths give on the
        windowed relaxation network (``reference_network`` of a window)."""
        from lotsizing.flow import window_flow_bounds

        rng = random.Random(79)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=6, max_d=5, max_cap=7)
            store, stripped = setup_problem(inst)
            if stripped is None or inst.T < 2:
                continue
            for t in range(inst.T):
                if rng.random() < 0.25:
                    store.tighten(("Y", t), "assign", rng.randint(0, 1))
            stripped = strip_lower_bounds(inst, store)
            for cs in (False, True):
                flow_pass = window_flow_bounds(stripped, cs)
                passes = [flow_pass(u) for u in range(inst.T)]
                for u, v in _windows(inst.T):
                    got = passes[u][v]
                    net = reference_network(stripped, store, FlowMode.CS_ONLY if cs else FlowMode.FULL, (u, v))
                    status, cost = _reference_solve(net)
                    if status == "INFEASIBLE":
                        assert math.isinf(got)
                    else:
                        assert got == math.ceil(cost)


class TestDpWisp:
    @staticmethod
    def _crafted(T, weights):
        """Every window of horizon T, weighted by ``weights[(u, v)]`` (0 if absent)."""
        return [SubProblem(u, v, float(weights.get((u, v), 0))) for u, v in _windows(T)]

    @staticmethod
    def _random(rng, T, top):
        return [SubProblem(u, v, float(rng.randint(0, top))) for u, v in _windows(T)]

    def test_all_zero_weights(self):
        decomp = dpwisp(self._crafted(4, {}), 4)
        assert decomp.value == 0
        assert decomp.support == []

    def test_crafted_support(self):
        decomp = dpwisp(self._crafted(4, {(0, 1): 5, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 3): 1, (2, 3): 4}), 4)
        assert decomp.value == 9
        assert decomp.support == [(0, 1), (2, 3)]
        # exhaustive over all disjoint subsets
        subs = decomp.subproblems
        best = 0
        for bits in range(1 << 6):
            chosen = [subs[k] for k in range(6) if bits >> k & 1]
            if all(
                a.v < b.u or a.u > b.v for i, a in enumerate(chosen) for b in chosen[i + 1 :]
            ):
                best = max(best, sum(s.w for s in chosen))
        assert decomp.value == best

    def test_tie_takes_the_smallest_start(self):
        """(0, 3) alone and (0, 1) + (2, 3) both sum to 5: among the windows
        ending at the last period, the smallest start whose sum attains the
        best is taken."""
        decomp = dpwisp(self._crafted(4, {(0, 1): 3, (2, 3): 2, (0, 3): 5}), 4)
        assert decomp.value == 5
        assert decomp.support == [(0, 3)]

    def test_tie_with_skipping_is_not_taken(self):
        """(0, 2) only equals leaving period 2 out, which (0, 1) already
        reaches, so the trace steps past it."""
        decomp = dpwisp(self._crafted(3, {(0, 1): 4, (0, 2): 4, (1, 2): 4}), 3)
        assert decomp.value == 4
        assert decomp.support == [(0, 1)]

    def test_forward_equals_reverse_total(self):
        rng = random.Random(61)
        for T in range(2, 9):
            subs = self._random(rng, T, 20)
            decomp = dpwisp(subs, T)
            weight = {(s.u, s.v): s.w for s in subs}
            assert decomp.lb_before(T) == decomp.lb_after(0)
            assert decomp.value >= max(s.w for s in subs)
            assert sum(weight[window] for window in decomp.support) == decomp.value

    def test_offset_tables_monotone(self):
        rng = random.Random(67)
        for T in range(2, 8):
            decomp = dpwisp(self._random(rng, T, 9), T)
            befores = [decomp.lb_before(b) for b in range(T + 1)]
            afters = [decomp.lb_after(b) for b in range(T + 2)]
            assert befores == sorted(befores)
            assert afters == sorted(afters, reverse=True)
            assert decomp.lb_before(0) == 0 and decomp.lb_after(T + 1) == 0

    def test_offsets_match_direct_recomputation(self):
        rng = random.Random(71)
        for T in range(2, 8):
            subs = self._random(rng, T, 9)
            decomp = dpwisp(subs, T)
            for b in range(T + 1):
                inside_before = [s for s in subs if s.v <= b - 1]
                inside_after = [s for s in subs if s.u >= b]
                assert decomp.lb_before(b) == _best_disjoint(inside_before)
                assert decomp.lb_after(b) == _best_disjoint(inside_after)


def _best_disjoint(subs):
    best = 0.0

    def rec(idx, chosen, total):
        nonlocal best
        best = max(best, total)
        for k in range(idx, len(subs)):
            s = subs[k]
            if all(o.v < s.u or o.u > s.v for o in chosen):
                chosen.append(s)
                rec(k + 1, chosen, total + s.w)
                chosen.pop()

    rec(0, [], 0.0)
    return best


class TestSupportFilter:
    def test_degenerate_whole_horizon_support(self):
        inst = two_period()
        store_a, stripped = setup_problem(inst, bc=False)
        decomp = compute_decomposition(stripped)
        assert decomp.support == [(0, 1)]
        st = wisp_support_filter(decomp, stripped, store_a, 13)
        assert st is Status.CHANGED

        store_b, stripped_b = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped_b, None, cs_mode=False)
        filter_with_dp(fwd, bwd, store_b, stripped_b, 13)
        assert store_a.snapshot() == store_b.snapshot()

    def test_infinite_bound_unchanged(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        decomp = compute_decomposition(stripped)
        assert wisp_support_filter(decomp, stripped, store, math.inf) is Status.UNCHANGED

    def test_window_size_test_matches_state_budget(self, monkeypatch):
        """The support filter's size test, ``v <= _last_exact_ends[u]``,
        agrees with the per-window proxy on every window of random stores
        with fixed setups and I caps, at budgets from 0 to 1e9."""
        from lotsizing.dp import make_cost_view

        rng = random.Random(61)
        agree = {True: 0, False: 0}
        for _ in range(1_500):
            inst = rand_normalized(rng, max_T=8, max_d=9, max_cap=14)
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                if rng.random() < 0.25:
                    store.assign(("Y", t), rng.randint(0, 1))
                if rng.random() < 0.3:
                    store.set_max(("I", t), rng.randint(store.min(("I", t)), store.max(("I", t))))
            store, stripped = setup_problem(inst, store)
            if stripped is None:
                continue
            budget = rng.choice([0, 10, 100, 300, 1_000, 3_000, 10**9])
            monkeypatch.setattr(wisp_mod, "_WINDOW_BUDGET", budget)
            last = wisp_mod._last_exact_ends(stripped)
            for u, v in _windows(inst.T):
                view = make_cost_view(stripped, (u, v))
                fits = state_budget(view) <= budget
                assert (v <= last[u]) == fits, (u, v, budget)
                agree[fits] += 1
        assert agree[True] >= 1_200 and agree[False] >= 600

    def test_windowed_removals_are_sound(self):
        rng = random.Random(73)
        tested = 0
        for _ in range(400):
            inst = rand_normalized(rng, max_T=4, max_d=4, max_cap=6, with_lower_bounds=False)
            if inst.T < 3:
                continue
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            plans = list(store_plans(inst, store))
            if not plans:
                continue
            costs = [plan_costs(inst, x, i, y)[3] for x, i, y in plans]
            opt = min(costs)
            ub = opt + rng.choice([0, 1, 2])
            decomp = compute_decomposition(stripped)
            if any(math.isinf(s.w) for s in decomp.subproblems):
                continue
            before = {t: set(iv_values(store.intervals(("X", t)))) for t in range(inst.T)}
            before_i = {t: set(iv_values(store.intervals(("I", t)))) for t in range(inst.T)}
            st = wisp_support_filter(decomp, stripped, store, ub - stripped.c_min)
            assert st is not Status.FAILED
            ok_plans = [(x, i) for (x, i, y), c in zip(plans, costs) if c <= ub]
            for t in range(inst.T):
                removed_x = before[t] - set(iv_values(store.intervals(("X", t))))
                removed_i = before_i[t] - set(iv_values(store.intervals(("I", t))))
                for x, i in ok_plans:
                    assert x[t] not in removed_x
                    assert i[t] not in removed_i
            tested += 1
        assert tested >= 60
