"""DP tables: values against brute force, pre-stock seeding, filtering rules."""

import math
import random

import numpy as np

from lotsizing import (
    DomainStore,
    Status,
    bc_feasibility,
    dpknap_forward,
    dpls_backward,
    dpls_forward,
    filter_with_dp,
    greedy_prestock,
    make_instance,
    strip_lower_bounds,
    window_tables,
)
from lotsizing.domains import iv_values
from lotsizing.dp import DpBudgetExceeded, _window_min
from conftest import plan_costs, rand_normalized, store_plans

INF = math.inf


def two_period():
    return make_instance(d=[2, 3], p=[1, 2], h=[1, 1], s=[5, 4], alpha_hi=[5, 5], beta_hi=[10, 10])


def setup_problem(inst, store=None, bc=True):
    """Store with bound consistency established, plus the stripped view.

    Returns (store, None) when the instance is infeasible at the root.
    ``bc=False`` keeps the posted domains, for tests of literal table values
    on instances without lower bounds.
    """
    store = store or DomainStore.for_instance(inst)
    if bc:
        st, _ = bc_feasibility(store, inst)
        if st is Status.FAILED:
            return store, None
    stripped = strip_lower_bounds(
        inst,
        x_min=[store.min(("X", t)) for t in range(inst.T)],
        i_min=[store.min(("I", t)) for t in range(inst.T)],
        x_max=[store.max(("X", t)) for t in range(inst.T)],
        i_max=[store.max(("I", t)) for t in range(inst.T)],
    )
    return store, stripped


class TestTables:
    def test_forward_values_hand_checked(self):
        store, stripped = setup_problem(two_period(), bc=False)
        fwd = dpls_forward(stripped, store)
        assert fwd.row(1)[0] == 7  # produce just d1: setup 5 + 2 units at 1
        assert fwd.row(1)[3] == 13  # produce 5: 5 + 5 + holding 3
        assert fwd.row(2)[0] == 13
        assert fwd.optimum() == 13

    def test_backward_values_hand_checked(self):
        store, stripped = setup_problem(two_period(), bc=False)
        bwd = dpls_backward(stripped, store)
        assert bwd.row(1)[0] == 10  # serve d2 from scratch: setup 4 + 3 units at 2
        assert bwd.row(1)[3] == 0
        assert bwd.row(0)[0] == 13

    def test_zero_demand_everywhere(self):
        inst = make_instance(d=[0, 0, 0], p=[1, 1, 1], h=[1, 1, 1], s=[3, 3, 3],
                             alpha_hi=[4, 4, 4], beta_hi=[4, 4, 4])
        store, stripped = setup_problem(inst, bc=False)
        fwd = dpls_forward(stripped, store)
        assert all(fwd.row(b)[0] == 0 for b in range(4))

    def test_y_zero_makes_window_infeasible(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 0)
        store.channel_setup(0)
        store, stripped = setup_problem(inst, store, bc=False)
        fwd = dpls_forward(stripped, store)
        assert math.isinf(fwd.optimum())

    def test_forward_equals_backward_and_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            inst = rand_normalized(rng, max_T=5, max_d=5, max_cap=7)
            store, stripped = setup_problem(inst)
            plans_none = stripped is None
            if plans_none:
                assert not list(store_plans(inst, DomainStore.for_instance(inst)))
                continue
            fwd = dpls_forward(stripped, store)
            bwd = dpls_backward(stripped, store)
            assert fwd.optimum() == bwd.optimum()
            plans = [plan_costs(inst, x, i, y)[3] for x, i, y in store_plans(inst, store)]
            want = min(plans) if plans else INF
            got = fwd.optimum() + fwd.sunk + stripped.c_min if not math.isinf(fwd.optimum()) else INF
            assert got == want

    def test_path_decomposition_identity(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = rand_normalized(rng, max_T=5, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            fwd = dpls_forward(stripped, store)
            bwd = dpls_backward(stripped, store)
            if math.isinf(fwd.optimum()):
                continue
            for b in range(inst.T + 1):
                assert np.min(fwd.row(b) + bwd.row(b)) == fwd.optimum()

    def test_respects_partial_y_and_holes(self):
        rng = random.Random(29)
        for _ in range(120):
            inst = rand_normalized(rng, max_T=4, max_d=4, max_cap=6)
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                if rng.random() < 0.3:
                    store.tighten(("Y", t), "assign", rng.randint(0, 1))
                if rng.random() < 0.3:
                    store.tighten(("X", t), "remove_value", rng.randint(0, 6))
                store.channel_setup(t)
            if store.failed:
                continue
            store, stripped = setup_problem(inst, store)
            if stripped is None:
                assert not list(store_plans(inst, store))
                continue
            fwd = dpls_forward(stripped, store)
            plans = [plan_costs(inst, x, i, y)[3] for x, i, y in store_plans(inst, store)]
            want = min(plans) if plans else INF
            got = fwd.optimum() + fwd.sunk + stripped.c_min if not math.isinf(fwd.optimum()) else INF
            assert got == want

    def test_budget_guard(self):
        inst = make_instance(d=[50] * 6, p=[1] * 6, h=[1] * 6, s=[9] * 6,
                             alpha_hi=[200] * 6, beta_hi=[200] * 6)
        store, stripped = setup_problem(inst, bc=False)
        try:
            dpls_forward(stripped, store, dp_budget=100)
            raise AssertionError("budget guard did not trigger")
        except DpBudgetExceeded:
            pass


class TestKnap:
    def test_setup_only_optimum(self):
        store, stripped = setup_problem(two_period(), bc=False)
        knap = dpknap_forward(stripped, store)
        assert knap.optimum() == 5  # produce everything in period 1

    def test_zero_setups(self):
        inst = make_instance(d=[2, 2], p=[3, 3], h=[2, 2], s=[0, 0], alpha_hi=[4, 4], beta_hi=[4, 4])
        store, stripped = setup_problem(inst, bc=False)
        knap = dpknap_forward(stripped, store)
        assert knap.optimum() == 0

    def test_tight_inventory_forces_both_setups(self):
        inst = make_instance(d=[2, 3], p=[1, 2], h=[1, 1], s=[5, 4], alpha_hi=[5, 5], beta_hi=[0, 0])
        store, stripped = setup_problem(inst, bc=False)
        knap = dpknap_forward(stripped, store)
        assert knap.optimum() == 9

    def test_lower_bounds_every_plan(self):
        rng = random.Random(31)
        for _ in range(80):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            knap = dpknap_forward(stripped, store)
            plans = [plan_costs(inst, x, i, y)[2] for x, i, y in store_plans(inst, store)]
            if plans:
                assert knap.optimum() <= min(plans)


class TestPrestock:
    def test_single_source(self):
        inst = make_instance(d=[0, 5], p=[1, 9], h=[1, 1], s=[0, 0], alpha_hi=[5, 5], beta_hi=[9, 9])
        store, stripped = setup_problem(inst, bc=False)
        init = greedy_prestock(stripped, store, 1, 5)
        assert list(init) == [0, 2, 4, 6, 8, 10]

    def test_start_of_horizon(self):
        store, stripped = setup_problem(two_period(), bc=False)
        assert list(greedy_prestock(stripped, store, 0, 4)) == [0.0]

    def test_two_sources_allocation(self):
        inst = make_instance(d=[0, 0, 9], p=[1, 4, 9], h=[1, 1, 1], s=[0, 0, 0],
                             alpha_hi=[2, 2, 9], beta_hi=[9, 9, 9])
        store, stripped = setup_problem(inst, bc=False)
        init = greedy_prestock(stripped, store, 2, 4)
        # unit from t0 costs 1+1 (+1 at the boundary), from t1 costs 4 (+1)
        assert init[3] == (1 + 1 + 1) * 2 + (4 + 1) * 1
        assert init[4] == (1 + 1 + 1) * 2 + (4 + 1) * 2

    def test_unreachable_is_inf(self):
        inst = make_instance(d=[0, 3], p=[1, 1], h=[0, 0], s=[0, 0], alpha_hi=[2, 3], beta_hi=[5, 5])
        store, stripped = setup_problem(inst, bc=False)
        init = greedy_prestock(stripped, store, 1, 3)
        assert math.isinf(init[3])

    def test_matches_windowed_brute_force(self):
        rng = random.Random(37)
        for _ in range(80):
            inst = rand_normalized(rng, max_T=4, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            u = rng.randint(1, inst.T - 1) if inst.T > 1 else 0
            if u == 0:
                continue
            q_max = min(stripped.i_cap[u - 1], sum(stripped.d[u:]))
            init = greedy_prestock(stripped, store, u, q_max)
            for q in range(q_max + 1):
                best = INF
                for pre in _prefix_plans(stripped, u, q):
                    cost = sum(stripped.p[t] * pre[t] for t in range(u))
                    inv = 0
                    for t in range(u):
                        inv += pre[t]
                        cost += stripped.h[t] * inv  # no demand before u in the window problem
                    best = min(best, cost)
                assert init[q] == best


class TestPrestockReference:
    """The greedy pre-stock row against a DP over (period, stock level),
    one unit of stock per state, under random caps and inventory limits."""

    @staticmethod
    def _reference(stripped, store, u, q_max, zero_costs):
        best = {0: 0}
        for t in range(u):
            cap = min(stripped.x_cap[t], store.max(("X", t)) - stripped.x_off[t])
            if store.max(("Y", t)) == 0:
                cap = 0
            limit = q_max
            if t < u - 1:
                limit = min(limit, stripped.i_cap[t], store.max(("I", t)) - stripped.i_off[t])
            p = 0 if zero_costs else stripped.p[t]
            h = 0 if zero_costs else stripped.h[t]
            nxt = {}
            for stock, cost in best.items():
                for x in range(max(cap, 0) + 1):
                    level = stock + x
                    if level > limit:
                        break
                    val = cost + p * x + h * level
                    if val < nxt.get(level, INF):
                        nxt[level] = val
            best = nxt
        return [best.get(q, INF) for q in range(q_max + 1)]

    def test_matches_stock_level_dp(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(400):
            T = rng.randint(2, 7)
            inst = make_instance(
                d=[rng.randint(0, 5) for _ in range(T)],
                p=[rng.randint(0, 6) for _ in range(T)],
                h=[rng.randint(0, 3) for _ in range(T)],
                s=[rng.randint(0, 9) for _ in range(T)],
                alpha_hi=[rng.randint(0, 6) for _ in range(T)],
                beta_hi=[rng.randint(0, 8) for _ in range(T)],
            )
            store, stripped = setup_problem(inst, bc=False)
            for t in range(T):
                roll = rng.random()
                if roll < 0.15:
                    store.set_max(("Y", t), 0)
                elif roll < 0.35:
                    store.set_max(("X", t), rng.randint(0, inst.alpha_hi[t]))
                if rng.random() < 0.3:
                    store.set_max(("I", t), rng.randint(0, inst.beta_hi[t]))
            u = rng.randint(1, min(T - 1, 6))
            q_max = rng.randint(0, 14)
            for zero_costs in (False, True):
                got = list(greedy_prestock(stripped, store, u, q_max, zero_costs=zero_costs))
                assert got == self._reference(stripped, store, u, q_max, zero_costs)
                checked += 1
        assert checked == 800


class TestWindowMin:
    def test_matches_clipped_slice_minimum(self):
        """Every regime of the sliding minimum: windows cut at either end or
        both, interior windows, empty and negative-offset windows, windows
        wider than the row, more outputs than inputs, inf entries."""
        rng = random.Random(47)
        for _ in range(20_000):
            n = rng.randint(0, 14)
            m = rng.randint(1, 18)
            lo0 = rng.randint(-20, 16)
            hi0 = lo0 + rng.randint(-2, 24)
            vals = np.array([INF if rng.random() < 0.2 else float(rng.randint(0, 9)) for _ in range(n)])
            got = _window_min(vals, m, lo0, hi0)
            want = [min(vals[max(lo0 + i, 0) : max(hi0 + i + 1, 0)], default=INF) for i in range(m)]
            assert list(got) == want, (list(vals), m, lo0, hi0)


def _prefix_plans(stripped, u, q):
    """Ways to have exactly q units in stock at the end of period u-1."""

    def rec(t, inv, xs):
        if t == u:
            if inv == q:
                yield list(xs)
            return
        for x in range(0, stripped.x_cap[t] + 1):
            nxt = inv + x
            if nxt > stripped.i_cap[t] or nxt > q:
                continue
            xs.append(x)
            yield from rec(t + 1, nxt, xs)
            xs.pop()

    yield from rec(0, 0, [])


class TestFilter:
    def test_hand_checked_filtering_at_optimum(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
        st = filter_with_dp(fwd, bwd, store, stripped, 13)
        assert st is Status.CHANGED
        assert store.intervals(("I", 0)) == ((3, 3),)
        assert store.intervals(("X", 0)) == ((5, 5),)
        assert store.intervals(("X", 1)) == ((0, 0),)

    def test_infinite_bound_unchanged(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
        assert filter_with_dp(fwd, bwd, store, stripped, math.inf) is Status.UNCHANGED

    def test_finite_bound_prunes_unreachable_states(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
        # Stock above the remaining demand can never drain to zero; any
        # finite bound exposes that.
        assert filter_with_dp(fwd, bwd, store, stripped, 10**9) is Status.CHANGED
        assert store.max(("I", 0)) == 3

    def test_bound_below_optimum_fails(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
        assert filter_with_dp(fwd, bwd, store, stripped, 12) is Status.FAILED

    def test_sound_and_complete_at_dp_level(self):
        rng = random.Random(41)
        tested = 0
        for _ in range(250):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            plans = list(store_plans(inst, store))
            if not plans:
                continue
            costs = [plan_costs(inst, x, i, y)[3] for x, i, y in plans]
            opt = min(costs)
            ub = opt + rng.choice([0, 0, 1, 3])
            fine = [(x, i) for (x, i, y), c in zip(plans, costs) if c <= ub]
            fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
            st = filter_with_dp(fwd, bwd, store, stripped, ub - stripped.c_min, hole_punch=True)
            assert st is not Status.FAILED
            for t in range(inst.T):
                x_vals = set(iv_values(store.intervals(("X", t))))
                i_vals = set(iv_values(store.intervals(("I", t))))
                assert x_vals == {x[t] for x, _ in fine}
                assert i_vals == {i[t] for _, i in fine}
            tested += 1
        assert tested >= 100
