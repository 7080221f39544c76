"""Sub-problem enumeration, bounds, the scheduling DP, windowed filtering."""

import math
import random

from lotsizing import (
    DomainStore,
    Status,
    bound_subproblem,
    compute_decomposition,
    dpls_forward,
    dpwisp,
    enumerate_subproblems,
    filter_with_dp,
    window_tables,
    wisp_support_filter,
)
from lotsizing.domains import iv_values
from lotsizing.wisp import COST_C, COST_CS
from test_dp import setup_problem, two_period
from conftest import plan_costs, rand_normalized, store_plans
from test_flow import _reference_solve


class TestEnumeration:
    def test_canonical_indexing(self):
        subs = enumerate_subproblems(4)
        assert len(subs) == 6
        by_index = {s.index: s for s in subs}
        assert (by_index[1].u, by_index[1].v) == (0, 1)  # periods 1..2
        assert (by_index[6].u, by_index[6].v) == (2, 3)  # periods 3..4
        assert by_index[6].prec == 1
        assert by_index[1].prec == 0
        assert by_index[1].succ == 6

    def test_links_match_naive_scan(self):
        for T in range(2, 8):
            subs = enumerate_subproblems(T)
            n = len(subs)
            assert n == T * (T - 1) // 2
            for i, sub in enumerate(subs):
                assert sub.index == i + 1
            for sub in subs:
                disjoint_before = [
                    o.index for o in subs if o.index < sub.index and (o.v < sub.u or o.u > sub.v)
                ]
                disjoint_after = [
                    o.index for o in subs if o.index > sub.index and (o.v < sub.u or o.u > sub.v)
                ]
                assert sub.prec == (max(disjoint_before) if disjoint_before else 0)
                assert sub.succ == (min(disjoint_after) if disjoint_after else n + 1)


class TestBounds:
    def test_whole_horizon_window_is_the_problem_itself(self):
        store, stripped = setup_problem(two_period(), bc=False)
        subs = {(s.u, s.v): s for s in enumerate_subproblems(2)}
        w, kind = bound_subproblem(stripped, store, subs[(0, 1)], COST_C)
        assert kind == "DP_EXACT"
        assert w == dpls_forward(stripped, store).optimum() == 13

    def test_cs_bound_never_above_c_bound(self):
        rng = random.Random(51)
        for _ in range(40):
            inst = rand_normalized(rng, max_T=5, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            for sub in enumerate_subproblems(inst.T):
                wc, _ = bound_subproblem(stripped, store, sub, COST_C)
                ws, _ = bound_subproblem(stripped, store, sub, COST_CS)
                assert ws <= wc

    def test_flow_fallback_agrees_direction(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            for sub in enumerate_subproblems(inst.T):
                w_dp, k1 = bound_subproblem(stripped, store, sub, COST_C, dp_budget=None)
                w_fl, k2 = bound_subproblem(stripped, store, sub, COST_C, dp_budget=0)
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
            subs = enumerate_subproblems(inst.T)
            for sub in subs:
                sub.w, sub.bound_kind = bound_subproblem(stripped, store, sub, COST_C)

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
    def test_matches_per_window_tables(self):
        """One forward table per start gives, for every window, the bound and
        kind of a table built for that window alone: the exact DP when the
        window's state proxy fits the budget, else the flow pass."""
        from lotsizing.dp import _build_forward, make_cost_view, state_budget
        from lotsizing.flow import window_flow_bounds

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
            for mode in (COST_C, COST_CS):
                cs = mode == COST_CS
                flow_pass = window_flow_bounds(stripped, store, cs)
                for budget in (None, 0, rng.choice([20, 60, 200, 800])):
                    decomp = compute_decomposition(stripped, store, mode, dp_budget=budget)
                    kinds = {(s.u, s.bound_kind) for s in decomp.subproblems}
                    # starts whose windows go partly exact, partly flow
                    checked["split"] += sum((u, "FLOW_RELAX") in kinds for u, k in kinds if k == "DP_EXACT")
                    for sub in decomp.subproblems:
                        view = make_cost_view(stripped, store, (sub.u, sub.v), cs_mode=cs)
                        if budget is None or state_budget(view) <= budget:
                            opt = _build_forward(view, stripped, store, None, None).optimum()
                            want = (math.inf if math.isinf(opt) else opt + view.sunk, "DP_EXACT")
                        else:
                            want = (flow_pass(sub.u)[sub.v], "FLOW_RELAX")
                        assert (sub.w, sub.bound_kind) == want, (sub.u, sub.v, mode, budget)
                        checked[want[1]] += 1
        assert checked["DP_EXACT"] >= 2500 and checked["FLOW_RELAX"] >= 1500
        assert checked["split"] >= 50


class TestWindowFlowBound:
    def test_matches_windowed_network_solve(self):
        """The greedy pass of start u must reach, after each period v, the
        bound of window (u, v) that successive shortest paths give on the
        windowed relaxation network."""
        from lotsizing.flow import FlowMode, build_network, window_flow_bounds

        rng = random.Random(79)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=6, max_d=5, max_cap=7)
            store, stripped = setup_problem(inst)
            if stripped is None or inst.T < 2:
                continue
            for t in range(inst.T):
                if rng.random() < 0.25:
                    store.tighten(("Y", t), "assign", rng.randint(0, 1))
            for cs in (False, True):
                flow_pass = window_flow_bounds(stripped, store, cs)
                passes = [flow_pass(u) for u in range(inst.T)]
                for sub in enumerate_subproblems(inst.T):
                    got = passes[sub.u][sub.v]
                    net = build_network(
                        stripped, store, FlowMode.CS_ONLY if cs else FlowMode.FULL,
                        window=(sub.u, sub.v),
                    )
                    status, cost = _reference_solve(net)
                    if status == "INFEASIBLE":
                        assert math.isinf(got)
                    else:
                        assert got == math.ceil(cost)


class TestDpWisp:
    def _crafted(self, weights):
        subs = enumerate_subproblems(4)
        for s in subs:
            s.w = float(weights[s.index - 1])
        return subs

    def test_all_zero_weights(self):
        decomp = dpwisp(self._crafted([0, 0, 0, 0, 0, 0]), 4)
        assert decomp.value == 0
        assert decomp.support == []

    def test_crafted_support(self):
        decomp = dpwisp(self._crafted([5, 1, 1, 1, 1, 4]), 4)
        assert decomp.value == 9
        assert decomp.support == [1, 6]
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

    def test_forward_equals_reverse_total(self):
        rng = random.Random(61)
        for T in range(2, 9):
            subs = enumerate_subproblems(T)
            for s in subs:
                s.w = float(rng.randint(0, 20))
            decomp = dpwisp(subs, T)
            assert decomp.wisp[-1] == decomp.wisp_r[-1]
            assert decomp.value >= max(s.w for s in subs)
            assert sum(decomp.subproblems[i - 1].w for i in decomp.support) == decomp.value

    def test_offset_tables_monotone(self):
        rng = random.Random(67)
        for T in range(2, 8):
            subs = enumerate_subproblems(T)
            for s in subs:
                s.w = float(rng.randint(0, 9))
            decomp = dpwisp(subs, T)
            befores = [decomp.lb_before(b) for b in range(T + 1)]
            afters = [decomp.lb_after(b) for b in range(T + 2)]
            assert befores == sorted(befores)
            assert afters == sorted(afters, reverse=True)
            assert decomp.lb_before(0) == 0 and decomp.lb_after(T + 1) == 0

    def test_offsets_match_direct_recomputation(self):
        rng = random.Random(71)
        for T in range(2, 8):
            subs = enumerate_subproblems(T)
            for s in subs:
                s.w = float(rng.randint(0, 9))
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
        subs = enumerate_subproblems(2)
        subs[0].w, subs[0].bound_kind = bound_subproblem(stripped, store_a, subs[0], COST_C)
        decomp = dpwisp(subs, 2)
        assert decomp.support == [1]
        st = wisp_support_filter(decomp, stripped, store_a, 13, COST_C)
        assert st is Status.CHANGED

        store_b, stripped_b = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped_b, store_b, None, cs_mode=False)
        filter_with_dp(fwd, bwd, store_b, stripped_b, 13)
        assert store_a.snapshot() == store_b.snapshot()

    def test_infinite_bound_unchanged(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        decomp = compute_decomposition(stripped, store, COST_C)
        assert wisp_support_filter(decomp, stripped, store, math.inf, COST_C) is Status.UNCHANGED

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
            decomp = compute_decomposition(stripped, store, COST_C)
            if any(math.isinf(s.w) for s in decomp.subproblems):
                continue
            before = {t: set(iv_values(store.intervals(("X", t)))) for t in range(inst.T)}
            before_i = {t: set(iv_values(store.intervals(("I", t)))) for t in range(inst.T)}
            st = wisp_support_filter(decomp, stripped, store, ub - stripped.c_min, COST_C)
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
